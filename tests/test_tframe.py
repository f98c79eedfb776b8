import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windowalg import (
    Frame,
    FrameMismatchError,
    HypothesisError,
    TElem,
    base_change_T,
    make_window,
    nu,
    residual,
    solve_iso,
    t_add,
    t_mul,
    t_sigma,
    validate_frame,
)
from windowalg import matrices as mx
from windowalg.rand import random_frame, random_series, random_window

from helpers import (
    c_matrix_T,
    frame313,
    frame_e2,
    iso_target,
    make_rng,
    pc_inverse_T,
    random_solve_pair,
    solve_iso_reference,
    upper_q_matrix,
)


def test_u_rewrites_to_pv():
    f = frame313()
    x = TElem.embed(f.u(), 3)
    assert x == TElem.v(f, 3) * 3


def test_sigma_v_truncates():
    f = frame313(a=2)
    v = TElem.v(f, 2)
    assert t_sigma(v).is_zero()  # sigma(v) = p^2 v^3 dies at level 2
    f2 = frame313(a=4)
    v4 = TElem.v(f2, 4)
    assert t_sigma(v4) == TElem.v(f2, 4, 3) * 9


def test_pn_vn_equals_u_ne():
    f = frame_e2(a=3, N=6)
    for n in range(1, 3):
        lhs = TElem.v(f, 3, n) * (f.p**n)
        rhs = TElem.embed(f.u(f.e * n), 3)
        assert lhs == rhs


# eps = (E - u^e)/p is known only mod p^(N-1): on these frames its top p-digit
# is a choice (E = u + 30 at N = 3 is u + 3, with eps = 1 against 30/3 = 10)
TOP_DIGIT_FRAMES = [
    Frame.make(3, 0, 1, 3, 3, 2, 2, "u + 30"),
    Frame.make(3, 0, 1, 3, 4, 2, 2, "u + 30"),
    Frame.make(3, 1, 2, 3, 3, 2, 2, "u^2 + 3*t1*u + 30*(1 + t1)"),
]


def test_E_is_p_times_v_plus_eps():
    # exactly at every level, whatever eps's top digit: p*eps = E - u^e mod p^N,
    # so on the solver's d x d block C and pC^(-1) cancel to p
    for f in (frame313(), frame_e2(), frame_e2(a=3, N=6), *TOP_DIGIT_FRAMES):
        for level in range(1, f.a + 1):
            E_T = TElem.embed(f.E, level)
            for eps in (f.epsilon, f.epsilon + f.p ** (f.N - 1)):
                assert E_T == (TElem.v(f, level) + TElem.embed(eps, level)) * f.p


def test_rewrite_confluence():
    # canonicalizing monomial by monomial in any order gives one table
    rng = make_rng(502)
    f = frame_e2(a=3, N=6)
    for _ in range(20):
        x = random_series(rng, f, terms=5)
        items = list(x.coeffs.items())
        rng.shuffle(items)
        acc = TElem(f, 3, [])
        for key, c in items:
            acc = acc + TElem.embed(f.elem({key: c}), 3)
        assert acc == TElem.embed(x, 3)


def test_embedding_injective_on_monomials():
    f = frame313(a=3, N=6)  # a <= N keeps all bands visible
    images = []
    for j in range(f.a * f.e):
        images.append(TElem.embed(f.u(j) if j else f.one(), 3))
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            assert images[i] != images[j]


def test_level_one_is_series_level_one():
    rng = make_rng(503)
    f = frame_e2(a=1)
    for _ in range(20):
        x = random_series(rng, f)
        y = random_series(rng, f)
        ex, ey = TElem.embed(x, 1), TElem.embed(y, 1)
        assert ex * ey == TElem.embed(x * y, 1)
        assert ex + ey == TElem.embed(x + y, 1)
        assert (x.coeffs == y.coeffs) == (ex == ey)


def test_t_ring_axioms():
    rng = make_rng(504)
    f = frame_e2(a=3, N=6)
    for _ in range(25):
        xs = [TElem.embed(random_series(rng, f), 3) for _ in range(3)]
        x, y, z = xs
        assert t_add(x, y) == t_add(y, x)
        assert t_mul(x, y) == t_mul(y, x)
        assert t_mul(t_mul(x, y), z) == t_mul(x, t_mul(y, z))
        assert t_mul(x, t_add(y, z)) == t_add(t_mul(x, y), t_mul(x, z))
        assert t_sigma(t_mul(x, y)) == t_mul(t_sigma(x), t_sigma(y))


def test_t_inversion():
    f = frame313()
    x = TElem.v(f, 3) + TElem.const(f, 3, 1)
    assert x.is_unit()
    assert x.invert() * x == TElem.const(f, 3, 1)
    with pytest.raises(ZeroDivisionError):
        TElem.v(f, 3).invert()


def test_series_and_T_elements_share_one_base():
    f = frame313()
    s, r, x = f.u(), f.series("u", tag="R"), TElem.v(f, 3)
    # T with an S operand once raised AttributeError: no attribute 'level'
    for a, b in ((x, s), (s, x)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b):
            with pytest.raises(TypeError):
                op()
        assert a != b and b != a
    for a, b in ((x, TElem.v(f, 2)), (s, r), (s, frame313(a=2).u())):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b + a):
            with pytest.raises(FrameMismatchError):
                op()
    cases = (
        (s, f.zero(), f.one(), "SeriesElem(u)"),
        (r, f.zero("R"), f.one("R"), "SeriesElem(24)"),
        (x * 3, TElem.const(f, 3, 0), TElem.const(f, 3, 1), "TElem((3)*v)"),
    )
    for elem, zero, one, text in cases:
        assert elem.zero() == zero and elem.zero().is_zero() and not elem.is_zero()
        assert elem.one() == one and elem.one().is_unit() and not elem.is_unit()
        assert repr(elem) == text
        assert repr(elem.zero()) == text.split("(")[0] + "(0)"
        assert 1 - elem == elem.one() + (-elem)
        assert not hasattr(elem, "__dict__")
        with pytest.raises(TypeError):
            hash(elem)


def test_base_change_examples():
    f = frame313()
    w = make_window(f, 1, 0, ((f.one(),),))
    tw = base_change_T(w, 2)
    assert tw.A[0][0] == TElem.const(f, 2, 1)
    w2 = make_window(f, 1, 0, ((f.one() + f.u(),),))
    tw2 = base_change_T(w2, 2)
    assert tw2.A[0][0] == TElem.const(f, 2, 1) + TElem.v(f, 2) * 3
    assert mx.det(tw2.A).is_unit()


def test_solver_identity_case():
    f = frame313()
    w = make_window(f, 1, 0, ((f.one(),),))
    X = solve_iso(w, w, 2)
    assert X[0][0] == TElem.const(f, 2, 1)


def test_solver_hand_case():
    f = frame313()
    w1 = make_window(f, 1, 0, ((f.one(),),))
    w2 = make_window(f, 1, 0, ((f.one() + f.u(),),))
    X = solve_iso(w1, w2, 2)
    assert X[0][0] == TElem.const(f, 2, 1) - TElem.v(f, 2) * 3
    assert mx.is_zero(residual(w1, w2, X, 2))
    # the same unique X comes out in the c = 1 normalization
    w1c = make_window(f, 0, 1, ((f.one(),),))
    w2c = make_window(f, 0, 1, ((f.one() + f.u(),),))
    assert solve_iso(w1c, w2c, 2)[0][0] == X[0][0]


def test_solver_hypothesis_failure():
    f = frame313()
    w1 = make_window(f, 0, 1, ((f.one(),),))
    w2 = make_window(f, 0, 1, ((f.one() + f.const(3),),))  # differs by a unit, not I + u^e Z
    with pytest.raises(HypothesisError):
        solve_iso(w1, w2, 2)


def test_solver_random_pairs_residual_zero():
    rng = make_rng(505)
    for f in (frame313(), frame_e2(a=3, N=6, D=3)):
        for _ in range(8):
            w1 = random_window(rng, f, max_height=2)
            n = w1.height
            Z = tuple(
                tuple(random_series(rng, f, terms=2, tmax=1) for _ in range(n))
                for _ in range(n)
            )
            uZ = mx.mscal(mx.mat(Z), f.u(f.e))
            A2 = mx.mmul(w1.A, mx.madd(mx.identity(n, f.one()), uZ))
            w2 = make_window(f, w1.d, w1.c, A2)
            level = min(f.a, 3)
            X = solve_iso(w1, w2, level)
            assert mx.is_zero(residual(w1, w2, X, level))
            for i in range(n):
                for j in range(n):
                    lead = X[i][j].coeffs[0]
                    assert lead == ({(0,) * (f.r + 1): 1} if i == j else {})


def test_solver_unique_fixed_point_oracle():
    # iterate y -> D + Psi(y) from a random start: the contraction
    # reaches the same X the closed sum produces
    rng = make_rng(506)
    f = frame313()
    w1 = random_window(rng, f, d=1, c=1)
    n = 2
    Z = tuple(tuple(random_series(rng, f, terms=2, tmax=1) for _ in range(n)) for _ in range(n))
    uZ = mx.mscal(mx.mat(Z), f.u())
    A2 = mx.mmul(w1.A, mx.madd(mx.identity(n, f.one()), uZ))
    w2 = make_window(f, 1, 1, A2)
    level = 3
    X = solve_iso(w1, w2, level)

    emb = lambda M: mx.mmap(M, lambda x: TElem.embed(x, level))
    G = mx.mmul(mx.inv(w2.A), w1.A)
    Gm = mx.msub(G, mx.identity(n, f.one()))
    Zm = mx.mmap(Gm, lambda x: f.elem({k[:-1] + (k[-1] - f.e,): v for k, v in x.coeffs.items()}))
    CT = c_matrix_T(f, level, 1, 1)
    pCinv = pc_inverse_T(f, level, 1, 1)
    A2inv = mx.inv(emb(w2.A))
    D = mx.mmul(pCinv, mx.mmul(emb(Zm), CT))
    s = TElem.v(f, level, f.p - 1) * (f.p ** (f.p - 2))

    def psi(Y):
        sig = mx.mmap(Y, lambda x: x.sigma())
        return mx.mscal(mx.mmul(pCinv, mx.mmul(A2inv, mx.mmul(sig, mx.mmul(emb(w1.A), CT)))), s)

    Y = tuple(
        tuple(TElem.embed(random_series(rng, f, terms=2), level) for _ in range(n))
        for _ in range(n)
    )
    for _ in range(level + 1):
        Y = mx.madd(D, psi(Y))
    vx = TElem.v(f, level)
    X_oracle = mx.madd(mx.identity(n, TElem.const(f, level, 1)), mx.mscal(Y, vx))
    assert mx.meq(X, X_oracle)


def test_solver_determinism():
    rng = make_rng(507)
    f = frame_e2(a=2)
    w1 = random_window(rng, f, d=1, c=1)
    Z = tuple(tuple(random_series(rng, f, terms=2, tmax=1) for _ in range(2)) for _ in range(2))
    uZ = mx.mscal(mx.mat(Z), f.u(f.e))
    A2 = mx.mmul(w1.A, mx.madd(mx.identity(2, f.one()), uZ))
    w2 = make_window(f, 1, 1, A2)
    X1 = solve_iso(w1, w2, 2)
    X2 = solve_iso(w1, w2, 2)
    assert mx.meq(X1, X2)
    assert [[str(x) for x in row] for row in X1] == [[str(x) for x in row] for row in X2]


def test_solver_sum_is_order_independent():
    # accumulating the iterate sum in shuffled order reproduces X
    rng = make_rng(509)
    f = frame313()
    w1 = random_window(rng, f, d=1, c=1)
    Z = tuple(tuple(random_series(rng, f, terms=2, tmax=1) for _ in range(2)) for _ in range(2))
    uZ = mx.mscal(mx.mat(Z), f.u())
    A2 = mx.mmul(w1.A, mx.madd(mx.identity(2, f.one()), uZ))
    w2 = make_window(f, 1, 1, A2)
    level = 3
    X = solve_iso(w1, w2, level)

    emb = lambda M: mx.mmap(M, lambda x: TElem.embed(x, level))
    G = mx.mmul(mx.inv(w2.A), w1.A)
    Gm = mx.msub(G, mx.identity(2, f.one()))
    Zm = mx.mmap(Gm, lambda x: f.elem({k[:-1] + (k[-1] - f.e,): v for k, v in x.coeffs.items()}))
    CT = c_matrix_T(f, level, 1, 1)
    pCinv = pc_inverse_T(f, level, 1, 1)
    A2inv = mx.inv(emb(w2.A))
    s = TElem.v(f, level, f.p - 1) * (f.p ** (f.p - 2))

    def psi(Y):
        sig = mx.mmap(Y, lambda x: x.sigma())
        return mx.mscal(mx.mmul(pCinv, mx.mmul(A2inv, mx.mmul(sig, mx.mmul(emb(w1.A), CT)))), s)

    terms = [mx.mmul(pCinv, mx.mmul(emb(Zm), CT))]
    for _ in range(level - 1):
        terms.append(psi(terms[-1]))
    rng.shuffle(terms)
    Y = mx.zeros(2, 2, TElem(f, level, []))
    for term in terms:
        Y = mx.madd(Y, term)
    vx = TElem.v(f, level)
    X_shuffled = mx.madd(mx.identity(2, TElem.const(f, level, 1)), mx.mscal(Y, vx))
    assert mx.meq(X, X_shuffled)
    assert [[str(x) for x in r] for r in X] == [[str(x) for x in r] for r in X_shuffled]


def test_solution_from_series_isomorphism_descends():
    # when the windows are isomorphic over the series ring via
    # U = I + u^e * V, uniqueness forces X = embed(U), so every entry
    # of X has a series-ring preimage
    rng = make_rng(508)
    f = frame313()
    for _ in range(6):
        w1 = random_window(rng, f, max_height=2)
        n = w1.height
        V = upper_q_matrix(rng, f, w1.d, w1.c)
        U = mx.madd(mx.identity(n, f.one()), mx.mscal(V, f.u(f.e)))
        w2 = iso_target(f, w1, U)
        assert w2 is not None
        level = 2
        X = solve_iso(w1, w2, level)
        for i in range(n):
            for j in range(n):
                assert X[i][j] == TElem.embed(U[i][j], level)
                assert X[i][j].series_preimage() is not None


def test_nu_examples_and_brute_force():
    assert nu(1, 3) == 1
    assert nu(3, 3) == 2
    # n - v_p(n!) >= n(p-2)/(p-1) >= n/2 for p >= 3, and nu(a) <= a, so for
    # a < 800 the minimum over n >= a is taken below 1700
    for p in (3, 5, 7, 11, 13):
        brute = [n - sum(n // p**k for k in range(1, 12)) for n in range(1700)]
        for a in range(1698, 0, -1):
            brute[a] = min(brute[a], brute[a + 1])
        for a in range(1, 800):
            assert nu(a, p) == brute[a]


def test_nu_inequality():
    for p in (3, 5, 7):
        for a in range(1, 51):
            assert nu(p * a, p) >= a + 1


def test_inverse_commutes_with_the_embedding():
    # solve_iso embeds the series inverse of A2 instead of inverting over T
    from windowalg.rand import random_unit_matrix

    rng = make_rng(511)
    for f in (frame313(), frame_e2()):
        for n in (1, 2, 3):
            for _ in range(3):
                A = random_unit_matrix(rng, f, n, terms=3)
                for level in range(1, f.a + 1):
                    emb = lambda M: mx.mmap(M, lambda x: TElem.embed(x, level))
                    assert mx.meq(mx.inv(emb(A)), emb(mx.inv(A)))


def test_T_inverse_of_v_plus_eps_against_the_geometric_series():
    # E = p(v + eps), so (v + eps)^(-1) = eps^(-1) * sum_{k<level} (-v*eps^(-1))^k
    # because v^level = 0; checked on the large-tier frame
    f = Frame.make(3, 2, 3, 6, 12, 10, 4, "u^3 + 3*t1*u + 3*(1 + t2)")
    eps_inv = f.epsilon.invert()
    assert eps_inv * f.epsilon == f.one()
    for level in range(1, f.a + 1):
        e_inv = TElem.embed(eps_inv, level)
        step = -(TElem.v(f, level) * e_inv)
        term, total = e_inv, e_inv.zero()
        for _ in range(level):
            total = total + term
            term = term * step
        veps = TElem.v(f, level) + TElem.embed(f.epsilon, level)
        assert veps.invert() == total


@st.composite
def solver_cases(draw):
    """(frame, d, c, seed) with p in {3, 5, 7}, e <= 2, r <= 1, d + c <= 3 and a level
    up to p + 1, past the p - 1 where the first Psi iterate can be nonzero."""
    p, r, e = draw(st.sampled_from([3, 5, 7])), draw(st.integers(0, 1)), draw(st.integers(1, 2))
    E = "u^%d + %d*(1 + t1)" % (e, p) if r else "u^%d + %d" % (e, p)
    E += " + %d*u" % p if e > 1 else ""
    f = Frame.make(p, r, e, draw(st.integers(1, p + 1)), p + 1, 2, 2, E)
    d = draw(st.integers(0, 2))
    c = draw(st.integers(1 if d == 0 else 0, 3 - d))
    return f, d, c, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(solver_cases())
def test_solver_matches_the_full_level_loop(case):
    # the sum that stops at the first zero iterate equals the sum over every
    # k < level, at every level of the frame
    f, d, c, seed = case
    w1, w2 = random_solve_pair(make_rng(seed), f, d, c)
    for level in range(1, f.a + 1):
        assert mx.meq(solve_iso(w1, w2, level), solve_iso_reference(w1, w2, level))


def test_solver_takes_two_psi_steps_at_p3_level6(monkeypatch):
    # valuations of the iterates are >= 0, 2, 8, so Psi(Psi(D)) vanishes mod v^6:
    # two Psi steps plus the residual, n^2 sigmas each (the full loop takes 7 n^2)
    f = Frame.make(3, 1, 2, 6, 8, 3, 2, "u^2 + 3*t1*u + 3*(1 + t1)")
    sigma = TElem.sigma
    for d, c in ((1, 1), (1, 2)):
        w1, w2 = random_solve_pair(make_rng(520 + c), f, d, c)
        expect = solve_iso_reference(w1, w2, f.a)
        calls = []
        monkeypatch.setattr(TElem, "sigma", lambda x: calls.append(x) or sigma(x))
        X = solve_iso(w1, w2)
        monkeypatch.undo()
        assert len(calls) <= 3 * (d + c) ** 2
        assert mx.meq(X, expect)


def test_psi_iterates_past_the_valuation_bound_are_refused(monkeypatch):
    # iterate k has v-valuation >= p^k - 1, so at p = 3 and level 6 (the sum
    # runs at level 5) iterate 2 must vanish; with sigma replaced by the
    # identity it does not, and the loop stops there instead of running on
    from windowalg.series import PrecisionError

    f = Frame.make(3, 1, 2, 6, 8, 3, 2, "u^2 + 3*t1*u + 3*(1 + t1)")
    w1, w2 = random_solve_pair(make_rng(521), f, 1, 1)
    monkeypatch.setattr(TElem, "sigma", lambda x: x)
    with pytest.raises(PrecisionError, match="Psi iterate 2 is nonzero"):
        solve_iso(w1, w2)


def test_solver_precision_shadow():
    # the same integer matrices solved at N and at N + 2 agree mod p^N:
    # reducing coefficients mod p^N is a ring map of T that fixes X = I mod v
    rng = make_rng(521)
    for _ in range(30):
        p, N = rng.choice([3, 5, 7]), rng.randint(2, 4)
        hi = random_frame(rng, p=p, e=rng.randint(1, 3), a=rng.randint(1, 5), N=N + 2)
        lo = Frame.make(p, hi.r, hi.e, hi.a, N, hi.D, hi.L, dict(hi.E_items))
        assert validate_frame(lo) == []
        d = rng.randint(0, 2)
        w1, w2 = random_solve_pair(rng, hi, d, rng.randint(max(1 - d, 0), 3 - d))
        down = lambda w: make_window(lo, w.d, w.c, mx.mmap(w.A, lambda x: lo.elem(x.coeffs)))
        X_hi = solve_iso(w1, w2)
        X_lo = solve_iso(down(w1), down(w2))
        assert mx.meq(mx.mmap(X_hi, lambda x: TElem(lo, x.level, x.coeffs)), X_lo)


def test_solver_inverts_A2_one_v_level_down(monkeypatch):
    # X = I + vY needs Y only mod v^(level-1): the one inverse of A2 is taken
    # on entries clipped to that level (level 1 keeps level 1)
    from windowalg import tframe

    adjugate = tframe.mx.adjugate
    f = frame_e2(a=4, N=6)
    w1, w2 = random_solve_pair(make_rng(530), f, 1, 1)
    for level in range(1, f.a + 1):
        seen = []
        monkeypatch.setattr(tframe.mx, "adjugate", lambda M: seen.append(M) or adjugate(M))
        X = solve_iso(w1, w2, level)
        monkeypatch.undo()
        assert len(seen) == 1
        assert {x.frame.a for row in seen[0] for x in row} == {max(level - 1, 1)}
        assert mx.meq(X, solve_iso_reference(w1, w2, level))


def test_solver_divides_by_det_A2_and_inverts_nothing(monkeypatch):
    # A2^(-1)*M is adj(A2)*M divided by det(A2): no dense inverse of det(A2)
    from windowalg.series import SeriesElem

    def refuse(x):
        raise AssertionError("inverse taken")

    rng = make_rng(532)
    for f in (frame313(N=4), frame_e2(a=4, N=6)):
        for d, c in ((0, 2), (1, 1), (2, 0), (1, 2)):
            w1, w2 = random_solve_pair(rng, f, d, c)
            expect = solve_iso_reference(w1, w2, f.a)
            with monkeypatch.context() as m:
                m.setattr(SeriesElem, "invert", refuse)
                m.setattr(TElem, "invert", refuse)
                X = solve_iso(w1, w2)
            assert mx.meq(X, expect)


def test_solver_hypothesis_is_checked_before_inverting(monkeypatch):
    from windowalg import tframe

    f = frame_e2(a=3, N=6)
    w1, _ = random_solve_pair(make_rng(531), f, 1, 1)
    # A2 = A1 + 3I: A1 - A2 is not in u^e * S
    w2 = make_window(f, 1, 1, mx.madd(w1.A, mx.identity(2, f.const(3))))
    calls = []
    monkeypatch.setattr(tframe.mx, "adjugate", lambda M: calls.append(M))
    with pytest.raises(HypothesisError, match="not congruent to I modulo u"):
        solve_iso(w1, w2)
    assert calls == []


def test_solver_rows_are_exact_whatever_the_top_digit_of_epsilon(monkeypatch):
    # the solver divides the d x c block by v + eps.  On frames where eps's top
    # p-digit is a choice, X has zero residual and is the reference X.  With that
    # digit moved on every level frame, rows i >= d stay as they are and rows
    # i < d move by multiples of p^(N-1) only: E*p^(N-1) = 0, so
    # A2*C*X = sigma(X)*A1*C fixes those rows mod p^(N-1).
    # Shapes (3, 0) and (2, 1) give pC^(-1)*M*C a d x d block past 1 x 1.
    for f in TOP_DIGIT_FRAMES:
        top = f.p ** (f.N - 1)
        for d, c in ((1, 0), (1, 1), (2, 0), (1, 2), (3, 0), (2, 1)):
            for seed in (0, 1):
                w1, w2 = random_solve_pair(make_rng(seed), f, d, c)
                for level in range(1, f.a + 1):
                    X = solve_iso(w1, w2, level)
                    assert mx.is_zero(residual(w1, w2, X, level))
                    assert mx.meq(X, solve_iso_reference(w1, w2, level))
                    with monkeypatch.context() as m:
                        for g in {f.at_level(k) for k in range(1, f.a + 1)}:
                            m.setitem(g.__dict__, "epsilon", g.epsilon + top)
                        moved = solve_iso(w1, w2, level)
                    for i in range(d + c):
                        for x, y in zip(X[i], moved[i]):
                            diff = (x - y).packed.values()
                            assert not diff if i >= d else all(v % top == 0 for v in diff)


def test_solver_at_level_one_is_the_identity():
    # v = 0 in T_1, so X = I + vY is I whatever Y is
    rng = make_rng(532)
    for f in (frame313(), frame_e2(a=3, N=6)):
        for d, c in ((1, 0), (1, 1), (0, 2)):
            w1, w2 = random_solve_pair(rng, f, d, c)
            X = solve_iso(w1, w2, 1)
            assert mx.meq(X, mx.identity(d + c, TElem.const(f, 1, 1)))


def test_solver_refuses_levels_below_one():
    f = frame313()
    w = make_window(f, 1, 0, ((f.one(),),))
    for level in (0, -1):
        with pytest.raises(ValueError, match="v-level must be at least 1"):
            solve_iso(w, w, level)


def test_solver_refuses_an_invalid_frame():
    # Frame.make keeps the non-monic E = 4u + 3; before the refusal a valid
    # pair over it ended in "solver residual is nonzero"
    f = Frame.make(3, 0, 1, 3, 4, 2, 2, "u + 3*(u + 1)")
    assert validate_frame(f) == ["E is not monic of u-degree e"]
    w1 = make_window(f, 1, 0, ((f.one(),),))
    w2 = make_window(f, 1, 0, ((f.one() + f.u(),),))
    with pytest.raises(ValueError, match="invalid frame: E is not monic of u-degree e"):
        solve_iso(w1, w2)


def test_threads_share_a_cold_frame_and_its_elements():
    # frames and elements are shared values, and the frame caches may be filled
    # by any thread: T products, to_display and solve_iso from four threads on
    # one cold frame and one set of elements give the one-thread answers
    import sys
    import threading

    from windowalg import series, to_display

    params = (3, 1, 2, 4, 8, 6, 3, "u^2 + 3*t1*u + 3*(1 + t1)")

    def job(f):
        rng = make_rng(520)
        w1, w2 = random_solve_pair(rng, f, 1, 1)
        # many dense elements, each multiplied by v on a cold frame: the
        # threads fill its T-ring caches in step, each while others may read them
        xs = [TElem.embed(random_series(rng, f, terms=60), 4) for _ in range(50)]
        v = TElem.v(f, 4)
        return lambda: ([x * v for x in xs], to_display(w1), solve_iso(w1, w2, 2))

    expect = job(Frame.make(*params))()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            # a new frame table makes every frame built from here on cold, the
            # level frames of solve_iso included; old and new frames compare equal
            series._frame.cache_clear()
            f = Frame.make(*params)
            assert not f._cache
            run, barrier, results = job(f), threading.Barrier(4, timeout=60), [None] * 4

            def work(i):
                barrier.wait()
                results[i] = run()

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert results == [expect] * 4
    finally:
        sys.setswitchinterval(interval)
