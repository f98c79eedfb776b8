import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windowalg import (
    DecompositionError,
    Frame,
    WindowMorphism,
    check_morphism,
    check_rigidity,
    lie,
    lift_window,
    make_window,
    normal_decompose,
    special_fiber,
    triple_of,
    vanishing_hom_dim,
    window_from_phi,
    window_of,
)
from windowalg import matrices as mx
from windowalg.rand import random_unit_matrix, random_window
from windowalg.window import _rank

from helpers import frame313, frame_e2, iso_target, make_rng, q_shape_matrix, sigma_mat


def test_make_window_examples():
    f = frame313()
    w = make_window(f, 1, 0, ((f.one(),),))
    assert w.phi_matrix()[0][0] == f.E
    w2 = make_window(f, 0, 1, ((f.one(),),))
    assert w2.phi_matrix()[0][0] == f.one()
    w3 = make_window(f, 1, 1, ((f.one(), f.u()), (f.zero(), f.one())))
    assert mx.det(w3.A) == f.one()


def test_phi_matrix_is_A_times_the_block_diagonal_C():
    rng = make_rng(613)
    for f in (frame313(), frame_e2()):
        for d, c in ((0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 1), (1, 2)):
            w = random_window(rng, f, d=d, c=c)
            C = mx.diag([f.E] * d + [f.one()] * c)
            assert mx.meq(w.phi_matrix(), mx.mmul(w.A, C))


def test_make_window_rejects_bad_input():
    f = frame313()
    with pytest.raises(ValueError):
        make_window(f, 1, 1, ((f.one(),),))
    with pytest.raises(ValueError):
        make_window(f, 1, 0, ((f.u(),),))  # det not a unit


def test_normal_decompose_block_diagonal():
    f = frame313()
    M = ((f.E, f.zero()), (f.zero(), f.one()))
    d, c, A, U = normal_decompose(f, M)
    assert (d, c) == (1, 1)
    assert mx.meq(A, mx.identity(2, f.one()))
    assert mx.meq(U, mx.identity(2, f.one()))


def test_normal_decompose_permutation():
    f = frame313()
    M = ((f.zero(), f.E), (f.one(), f.zero()))
    d, c, A, U = normal_decompose(f, M)
    assert (d, c) == (1, 1)
    assert mx.meq(A, mx.identity(2, f.one()))
    assert U == ((f.zero(), f.one()), (f.one(), f.zero()))


def test_normal_decompose_divides_out_E():
    f = frame313()
    M = ((f.E * (f.one() + f.u()),),)
    d, c, A, U = normal_decompose(f, M)
    assert (d, c) == (1, 0)
    assert A[0][0] == f.one() + f.u()


def test_normal_decompose_rejects_non_free_cokernel():
    f = frame313()
    with pytest.raises(DecompositionError):
        normal_decompose(f, ((f.const(3),),))


def test_normal_decompose_random_assemblies():
    rng = make_rng(301)
    for f in (frame313(), frame_e2()):
        for _ in range(25):
            w = random_window(rng, f, max_height=3)
            V = random_unit_matrix(rng, f, w.height)
            M = mx.mmul(w.phi_matrix(), V)
            d, c, A, U = normal_decompose(f, M)
            assert (d, c) == (w.d, w.c)
            rebuilt = make_window(f, d, c, A)
            assert mx.meq(mx.mmul(M, U), rebuilt.phi_matrix())


def test_window_from_phi_roundtrip():
    f = frame313()
    rng = make_rng(302)
    w = random_window(rng, f, d=1, c=1)
    w2, U = window_from_phi(f, w.phi_matrix())
    assert (w2.d, w2.c) == (1, 1)


def test_triple_roundtrip():
    rng = make_rng(303)
    for f in (frame313(), frame_e2()):
        for _ in range(25):
            w = random_window(rng, f, max_height=2)
            tr = triple_of(w)
            assert mx.meq(tr.basis_change, mx.identity(w.height, f.one()))
            # L-columns of the F1 matrix are the matching columns of A
            for i in range(w.height):
                for j in range(w.d, w.height):
                    assert tr.F1_matrix[i][j] == w.A[i][j]
            assert window_of(f, tr) == w


def test_window_of_rejects_inconsistent_triple():
    f = frame313()
    w = make_window(f, 0, 1, ((f.one(),),))
    tr = triple_of(w)
    broken = type(tr)(tr.d, tr.c, ((f.one() + f.u(),),), tr.F1_matrix, tr.basis_change)
    with pytest.raises(ValueError):
        window_of(f, broken)


def test_lift_window_roundtrip():
    rng = make_rng(304)
    f = frame313(a=2)
    for _ in range(25):
        w = random_window(rng, f, max_height=2)
        lifted = lift_window(w)
        assert lifted.level == 3
        assert (lifted.d, lifted.c) == (w.d, w.c)
        assert lifted.at_level(2) == w
    one = f.one()
    w1 = make_window(f, 1, 0, ((one,),))
    assert lift_window(w1).A[0][0] == one.at_level(3)


def test_lift_window_respects_u_cap():
    from windowalg.series import MAX_UCAP

    f = frame313(a=MAX_UCAP)  # e = 1, so a*e sits exactly at the ceiling
    w = make_window(f, 1, 0, ((f.one(),),))
    with pytest.raises(ValueError):
        lift_window(w)


def test_morphism_examples():
    f = frame313()
    w = make_window(f, 1, 0, ((f.one(),),))
    assert check_morphism(WindowMorphism(w, w, ((f.one(),),)))
    assert check_morphism(WindowMorphism(w, w, ((f.const(3),),)))
    # u*I: compares E*u with u^p * E
    assert not check_morphism(WindowMorphism(w, w, ((f.u(),),)))


def test_morphism_solved_base_change():
    rng = make_rng(305)
    f = frame313()
    for _ in range(10):
        w = random_window(rng, f, max_height=2)
        V = q_shape_matrix(rng, f, w.d, w.c)
        w2 = iso_target(f, w, V)
        assert w2 is not None
        assert check_morphism(WindowMorphism(w, w2, V))


def test_rigidity_examples():
    f = frame313()  # level 3 = a*p with a = 1
    w = make_window(f, 1, 0, ((f.one(),),))
    zero = WindowMorphism(w, w, ((f.zero(),),))
    assert check_rigidity(zero)
    scalar = WindowMorphism(w, w, ((f.const(9),),))
    assert check_rigidity(scalar)  # p^m I does not vanish mod u^(ae): vacuous


def test_rigidity_search_oracle():
    rng = make_rng(306)
    f = frame313(N=5, D=3)
    for _ in range(6):
        w1 = random_window(rng, f, max_height=2)
        w2 = random_window(rng, f, d=w1.d, c=w1.c)
        assert vanishing_hom_dim(w1, w2, 1) == 0
    f2 = Frame.make(3, 1, 2, 6, 5, 3, 2, "u^2 + 3")
    w1 = random_window(rng, f2, d=1, c=1)
    w2 = random_window(rng, f2, d=1, c=1)
    assert vanishing_hom_dim(w1, w2, 2) == 0


def test_hom_dims_between_windows_of_different_heights():
    # U is height(w2) x height(w1).  At sub_a = 0 nothing has to vanish, and
    # between these windows (A = I) the morphisms are the constant matrices:
    # one dimension per entry of U
    f = Frame.make(3, 0, 1, 3, 5, 3, 2, "u + 3")
    one = make_window(f, 0, 1, ((f.one(),),))
    two = make_window(f, 0, 2, mx.identity(2, f.one()))
    ew = make_window(f, 1, 0, ((f.one(),),))
    cases = [(one, one, 1), (two, two, 4), (ew, ew, 1), (one, two, 2), (two, one, 2)]
    assert [vanishing_hom_dim(w1, w2, 0) for w1, w2, _ in cases] == [dim for *_, dim in cases]


@st.composite
def sparse_columns(draw):
    """(row count, columns): sparse integer columns, some of them integer
    combinations of earlier ones, so that the rank often falls short."""
    rows = draw(st.integers(1, 7))
    entries = st.integers(-60, 60) | st.integers(-(10**12), 10**12)
    columns = []
    for _ in range(draw(st.integers(0, 9))):
        if columns and draw(st.booleans()):
            weights = draw(st.lists(st.integers(-4, 4), min_size=len(columns), max_size=len(columns)))
            col = {}
            for w, prev in zip(weights, columns):
                for k, v in prev.items():
                    col[k] = col.get(k, 0) + w * v
        else:
            col = draw(st.dictionaries(st.integers(0, rows - 1), entries, max_size=rows))
        columns.append({k: v for k, v in col.items() if v})
    return rows, columns


@settings(max_examples=150, deadline=None)
@given(sparse_columns())
def test_rank_agrees_with_sympy(system):
    from sympy import Matrix

    rows, columns = system
    expect = Matrix(rows, len(columns), lambda i, j: columns[j].get(i, 0)).rank()
    assert _rank(columns) == expect


def test_special_fiber_examples():
    f = frame313()
    w = make_window(f, 1, 0, ((f.one(),),))
    fib = special_fiber(w)
    assert (fib.height, fib.dim) == (1, 1)
    assert fib.Phi0 == [[1]]
    assert fib.is_nilpotent
    w2 = make_window(f, 0, 1, ((f.one(),),))
    fib2 = special_fiber(w2)
    assert fib2.Phi0 == [[3]]  # p * epsilon at the origin
    assert not fib2.is_nilpotent
    w3 = make_window(f, 1, 1, ((f.one(), f.zero()), (f.zero(), f.one())))
    fib3 = special_fiber(w3)
    assert (fib3.height, fib3.dim) == (2, 1)
    assert not fib3.is_nilpotent


def test_nilpotence_invariant_under_base_change():
    rng = make_rng(307)
    f = frame313()
    for _ in range(25):
        w = random_window(rng, f, max_height=2)
        V = q_shape_matrix(rng, f, w.d, w.c)
        w2 = iso_target(f, w, V)
        assert w2 is not None
        assert special_fiber(w).is_nilpotent == special_fiber(w2).is_nilpotent


def test_lie_examples():
    f = frame313()
    rng = make_rng(308)
    assert lie(make_window(f, 1, 0, ((f.one(),),)))[0] == 1
    assert lie(make_window(f, 0, 1, ((f.one(),),)))[0] == 0
    w = random_window(rng, f, d=2, c=1)
    rank, pres = lie(w)
    assert rank == 2
    assert len(pres) == 3
    d, _, _, _ = normal_decompose(f, w.phi_matrix())
    assert d == rank


def test_det_of_phi_is_unit_times_E_power():
    rng = make_rng(309)
    for f in (frame313(), frame_e2()):
        for _ in range(15):
            w = random_window(rng, f, max_height=2)
            det = mx.det(w.phi_matrix())
            for _ in range(w.d):
                det = det.divide_by_E()
                assert det is not None
            assert det.is_unit()


def test_phi_injective_at_truncation():
    rng = make_rng(310)
    f = frame313()  # a = 3, e = 1
    for _ in range(10):
        w = random_window(rng, f, d=1, c=1)  # d*e < a*e
        assert not mx.det(w.phi_matrix()).is_zero()


def test_morphism_condition_is_exact_table_identity():
    rng = make_rng(311)
    f = frame313()
    w = random_window(rng, f, d=1, c=1)
    V = q_shape_matrix(rng, f, 1, 1)
    w2 = iso_target(f, w, V)
    lhs = mx.mmul(w2.phi_matrix(), V)
    rhs = mx.mmul(sigma_mat(V), w.phi_matrix())
    assert mx.meq(lhs, rhs)


def test_special_fiber_nilpotence_against_sympy():
    # oracle: N0 = blockdiag(0_d, I_c) * A0^(-1) mod p by sympy's inv_mod
    from sympy import Matrix, zeros

    rng = make_rng(321)
    seen = set()
    for f in (frame313(), frame_e2()):
        p = f.p
        for trial in range(24):
            n = 2 + trial % 2
            d = rng.randint(0, n)
            # a unit matrix times a constant one gives every A0 mod p; a
            # third of the trials have a zero (1,1) entry, a pivot swap
            while True:
                K = [[f.const(rng.randrange(p)) for _ in range(n)] for _ in range(n)]
                A = mx.mmul(random_unit_matrix(rng, f, n), K)
                zero_pivot = A[0][0].constant_term() % p == 0
                if mx.det(A).is_unit() and zero_pivot == (trial % 3 == 0):
                    break
            w = make_window(f, d, n - d, A)
            A0 = Matrix(n, n, lambda i, j: w.A[i][j].constant_term())
            A0inv = A0.inv_mod(p)
            N0 = Matrix(n, n, lambda i, j: A0inv[i, j] if i >= d else 0)
            expect = (N0**n).applyfunc(lambda x: x % p) == zeros(n, n)
            assert special_fiber(w).is_nilpotent == expect
            seen.add(expect)
    assert seen == {True, False}
