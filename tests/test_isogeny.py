import pytest

from windowalg import (
    IsogenyError,
    compose,
    group_order,
    make_module,
    make_window,
    order_string,
    p_length,
    validate_breuil_module,
)
from windowalg import matrices as mx
from windowalg.isogeny import IsogenyModule
from windowalg.rand import random_window
from windowalg.window import Window

from helpers import diag_p_isogeny, frame313, frame_e2, make_rng, random_isogeny, upper_window


def scalar_matrix(frame, n, value):
    return mx.mscal(mx.identity(n, frame.one()), frame.const(value))


def assert_composite_matches_make_module(comp, outer, inner):
    # make_module on the product is the oracle: m and p^m * det_unit are exact
    # (det_unit alone is known only mod p^(N-m))
    fresh = make_module(inner.source, outer.target, mx.mmul(outer.U, inner.U))
    p = comp.frame.p
    assert comp.m == fresh.m == outer.m + inner.m
    assert comp.det_unit * p**comp.m == fresh.det_unit * p**fresh.m


def test_identity_is_the_zero_module():
    f = frame313()
    rng = make_rng(601)
    w = random_window(rng, f, d=1, c=1)
    mod = make_module(w, w, mx.identity(2, f.one()))
    assert p_length(mod) == 0
    assert group_order(mod) == 1
    assert order_string(mod) == "3^0"


def test_scalar_p_on_rank_two():
    f = frame313()
    rng = make_rng(602)
    w = random_window(rng, f, d=1, c=1)
    mod = make_module(w, w, scalar_matrix(f, 2, 3))
    assert p_length(mod) == 2
    assert order_string(mod) == "3^2"
    assert validate_breuil_module(mod) == []


def test_diagonal_mixed_powers():
    f = frame313(N=7)
    rng = make_rng(603)
    w = upper_window(rng, f, 1, 1, 1)
    target, U = diag_p_isogeny(rng, f, w, [1, 0])
    mod = make_module(w, target, U)
    assert p_length(mod) == 1
    # diag(p, p^2) via composition with a scalar step
    mod2 = make_module(target, target, scalar_matrix(f, 2, 3))
    comp = compose(mod2, mod)
    assert p_length(comp) == 3
    assert order_string(comp) == "3^3"


def test_diag_p_p_squared_against_ord_oracle():
    f = frame313(N=7)
    rng = make_rng(610)
    w = upper_window(rng, f, 1, 1, 2)
    target, U = diag_p_isogeny(rng, f, w, [2, 1])
    mod = make_module(w, target, U)
    assert p_length(mod) == 3
    # independent ord_p oracle on the determinant's constant term
    det = mx.det(U)
    const = det.constant_term()
    ord_p = 0
    while const % 3 == 0:
        const //= 3
        ord_p += 1
    assert ord_p == 3


def test_triangular_unit_off_diagonal():
    # U = [[p, 1+u], [0, 1]]: upper-triangular diag(p, 1) with a unit
    # off-diagonal entry, built as a unit shear after the diagonal step
    f = frame313(N=7)
    rng = make_rng(604)
    src = upper_window(rng, f, 1, 1, 1)
    mid, U1 = diag_p_isogeny(rng, f, src, [1, 0])
    shear = ((f.one(), f.one() + f.u()), (f.zero(), f.one()))
    from helpers import iso_target

    tgt = iso_target(f, mid, mx.mat(shear))
    assert tgt is not None
    U = mx.mmul(shear, U1)
    assert U == ((f.const(3), f.one() + f.u()), (f.zero(), f.one()))
    mod = make_module(src, tgt, U)
    assert p_length(mod) == 1
    assert order_string(mod) == "3^1"
    # independent det oracle
    det = mx.det(U)
    assert det == f.const(3)


def test_make_module_rejects_non_isogenies():
    f = frame313()
    rng = make_rng(605)
    w = random_window(rng, f, d=1, c=1)
    # u * I is not a morphism here
    with pytest.raises(IsogenyError):
        make_module(w, w, mx.mscal(mx.identity(2, f.one()), f.u()))


def test_make_module_rejects_u_factor_determinant():
    # a determinant with a detectable u-factor is not unit * p^m
    f = frame313()
    w = make_window(f, 1, 0, ((f.one(),),))
    with pytest.raises(IsogenyError):
        make_module(w, w, ((f.u() * 3,),))


def test_accepts_unit_times_p():
    # a determinant p^m * unit with the unit involving t is accepted:
    # compose a unit isomorphism (det contains t-terms) with p-scalars
    from helpers import iso_target, q_shape_matrix

    rng = make_rng(611)
    f = frame_e2(N=5)
    w = random_window(rng, f, d=1, c=1)
    V = q_shape_matrix(rng, f, 1, 1)
    tgt = iso_target(f, w, V)
    iso = make_module(w, tgt, V)
    assert p_length(iso) == 0
    assert iso.det_unit.is_unit()
    scal = make_module(tgt, tgt, scalar_matrix(f, 2, 3))
    mod = compose(scal, iso)
    assert p_length(mod) == 2
    assert mod.det_unit.is_unit()
    assert_composite_matches_make_module(mod, scal, iso)
    assert validate_breuil_module(mod) == []


def test_insufficient_precision_rejected():
    f = frame313(N=2)
    w = make_window(f, 1, 0, ((f.one(),),))
    with pytest.raises(IsogenyError):
        make_module(w, w, ((f.const(9),),))  # p^2 = 0 at N = 2


def test_p_length_additive_on_compositions():
    rng = make_rng(606)
    f = frame313(N=7)
    trials = 0
    while trials < 25:
        iso1 = random_isogeny(rng, f, 1, 1, max_exp=1)
        if iso1 is None:
            continue
        src1, tgt1, U1, m1 = iso1
        iso2 = random_isogeny(rng, f, 1, 1, max_exp=1)
        if iso2 is None:
            continue
        trials += 1
        mod1 = make_module(src1, tgt1, U1)
        scal = make_module(tgt1, tgt1, scalar_matrix(f, 2, 3))
        comp = compose(scal, mod1)
        assert p_length(comp) == p_length(mod1) + 2
        assert_composite_matches_make_module(comp, scal, mod1)
        assert validate_breuil_module(comp) == []


def test_adjugate_annihilation_exact():
    rng = make_rng(607)
    f = frame313(N=7)
    for _ in range(10):
        iso = random_isogeny(rng, f, 1, 1, max_exp=1)
        if iso is None:
            continue
        src, tgt, U, _ = iso
        det = mx.det(U)
        prod = mx.mmul(mx.adjugate(U), U)
        assert mx.meq(prod, mx.mscal(mx.identity(2, f.one()), det))


def test_validate_reports_rank_mismatch():
    f = frame313()
    rng = make_rng(608)
    w1 = random_window(rng, f, d=2, c=0)
    w2 = random_window(rng, f, d=1, c=1)
    # force a module past the constructor to exercise the report
    fake = IsogenyModule(w1, w2, mx.identity(2, f.one()), 0, f.one())
    report = validate_breuil_module(fake)
    assert "rank bookkeeping violated: d' != d" in report


def test_windows_of_different_heights_are_refused_before_any_determinant(monkeypatch):
    f = frame313()
    src = make_window(f, 1, 2, mx.identity(3, f.one()))
    tgt = make_window(f, 1, 1, mx.identity(2, f.one()))
    three, zero = f.const(3), f.zero()
    U = ((three, zero, zero), (zero, three, zero))

    def refuse(M):
        raise AssertionError("determinant taken")

    with monkeypatch.context() as m:
        m.setattr(mx, "det", refuse)
        with pytest.raises(IsogenyError, match="^window heights differ$"):
            make_module(src, tgt, U)
    # a hand-built module gets the same report, before any algebra
    fake = IsogenyModule(src, tgt, U, 2, f.one())
    with monkeypatch.context() as m:
        for name in ("det", "adjugate", "mmul", "dot"):
            m.setattr(mx, name, refuse)
        assert validate_breuil_module(fake) == ["window heights differ"]


def test_two_frames_or_a_wrongly_shaped_U_are_reported_before_any_algebra(monkeypatch):
    f, g = frame313(), frame313(N=7)
    w = random_window(make_rng(613), f, d=1, c=1)
    cases = [(random_window(make_rng(613), g, d=1, c=1), scalar_matrix(g, 2, 3), "frames")]
    for U in (scalar_matrix(f, 1, 3), scalar_matrix(f, 3, 3), ((f.one(), f.zero()), (f.one(),))):
        cases.append((w, U, "shape"))

    def refuse(*args):
        raise AssertionError("matrix algebra")

    for tgt, U, what in cases:
        with monkeypatch.context() as m:
            for name in ("det", "det_is_unit", "mmul"):
                m.setattr(mx, name, refuse)
            report = validate_breuil_module(IsogenyModule(w, tgt, U, 1, f.one()))
        assert report == [
            "morphism endpoints over different frames"
            if what == "frames"
            else "morphism matrix has the wrong shape"
        ]


def test_random_triangular_modules_validate():
    rng = make_rng(609)
    f = frame313(N=7)
    produced = 0
    while produced < 25:
        iso = random_isogeny(rng, f, rng.randint(0, 1), 1, max_exp=1)
        if iso is None:
            continue
        produced += 1
        src, tgt, U, total = iso
        mod = make_module(src, tgt, U)
        assert p_length(mod) == total
        assert validate_breuil_module(mod) == []
        assert group_order(mod) == 3**total


def test_hand_built_module_that_is_not_a_morphism_is_reported():
    # diag(1 + u, 1) is no morphism of this window and m = 5 is made up;
    # the validator once passed it, checking only identities of every matrix
    f = frame313()
    w = random_window(make_rng(601), f, d=1, c=1)
    U = ((f.one() + f.u(), f.zero()), (f.zero(), f.one()))
    fake = IsogenyModule(w, w, U, 5, f.one())
    assert validate_breuil_module(fake) == ["U is not a window morphism"]


def test_hand_built_p_length_and_unit_are_checked_against_det():
    f = frame313()
    w = random_window(make_rng(612), f, d=1, c=1)
    U = scalar_matrix(f, 2, 3)
    assert validate_breuil_module(IsogenyModule(w, w, U, 2, f.one())) == []
    wrong_m = validate_breuil_module(IsogenyModule(w, w, U, 1, f.one()))
    assert wrong_m == ["m = 1, but ord_p det(U) = 2", "det(U) != p^m * det_unit"]
    wrong_unit = validate_breuil_module(IsogenyModule(w, w, U, 2, f.const(2)))
    assert wrong_unit == ["det(U) != p^m * det_unit"]
    # det_unit is known only mod p^(N-m): a unit off by p^(N-m) is the same module
    assert validate_breuil_module(IsogenyModule(w, w, U, 2, f.const(1 + 3**4))) == []


def test_window_whose_A_is_not_invertible_is_reported():
    f = frame313()
    three = f.const(3)
    w = Window(f, 1, 1, ((three, f.zero()), (f.zero(), f.one())))  # past make_window
    mod = IsogenyModule(w, w, mx.identity(2, f.one()), 0, f.one())
    assert validate_breuil_module(mod) == [
        "source det(A) is not a unit",
        "target det(A) is not a unit",
    ]


def test_composite_past_the_precision_is_refused():
    f = frame313(N=2)
    w = make_window(f, 1, 0, ((f.one(),),))
    mod = make_module(w, w, ((f.const(3),),))
    assert p_length(mod) == 1
    with pytest.raises(IsogenyError, match=r"^det\(U\) vanishes at this precision$"):
        compose(mod, mod)


def test_compose_and_validate_expand_no_needless_determinant(monkeypatch):
    f = frame313(N=7)
    w = upper_window(make_rng(613), f, 1, 1, 1)
    mod = make_module(w, w, scalar_matrix(f, 2, 3))
    calls = []

    def spy(name):
        real = getattr(mx, name)

        def wrapped(M):
            calls.append((name, M))
            return real(M)

        return wrapped

    with monkeypatch.context() as m:
        for name in ("det", "adjugate"):
            m.setattr(mx, name, spy(name))
        comp = compose(mod, mod)
        assert calls == []
        assert validate_breuil_module(comp) == []
    # one determinant, of U itself: none of a phi matrix, no adjugate
    assert [name for name, _ in calls] == ["det"]
    assert mx.meq(calls[0][1], comp.U)


@pytest.mark.parametrize("kw", [dict(a=1, N=2), dict(a=2, N=2), dict()])
def test_structural_lines_agree_with_the_phi_determinant(kw):
    # det(phi) = det(A) * E^d with det(A) a unit, so E^d decides; the full
    # expansion of det(phi) is the reference
    f = frame313(**kw)
    seen = set()
    for d, c in [(1, 1), (2, 0), (2, 1), (3, 0)]:
        w = make_window(f, d, c, mx.identity(d + c, f.one()))
        vanishes = mx.det(w.phi_matrix()).is_zero()
        seen.add((d, vanishes))
        report = validate_breuil_module(make_module(w, w, mx.identity(d + c, f.one())))
        lines = ["source structural determinant vanishes", "target structural determinant vanishes"]
        assert report == (lines if vanishes else [])
    expected = {
        (1, 2): {(1, False), (2, True), (3, True)},
        (2, 2): {(1, False), (2, False), (3, True)},
    }
    assert seen == expected.get((f.a, f.N), {(1, False), (2, False), (3, False)})
