"""Cofactor det/adjugate against sympy, and the constant-term unit test.

sympy expands det and adjugate of the polynomial matrices; truncating
to the caps (total t-degree <= D, u-degree < a*e) and reducing mod p^N
afterwards gives the ring's answer, because the caps form an ideal.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Poly, symbols

from windowalg import Frame, TElem, WittVec, make_window, special_fiber
from windowalg import matrices as mx
from windowalg import series
from windowalg.rand import random_frame, random_series, random_unit_matrix

from helpers import make_rng, special_fiber_oracle

ORACLE_FRAMES = [
    Frame.make(3, 0, 2, 2, 5, 4, 2, "u^2 + 3*u + 3"),
    Frame.make(5, 1, 1, 3, 4, 2, 2, "u + 5*(1 + t1)"),
]


def _to_sympy(x, gens):
    expr = 0
    for key, c in x.coeffs.items():
        term = c
        for g, k in zip(gens, key):
            term *= g**k
        expr += term
    return expr


def _truncated(frame, expr, gens):
    """Table of the expanded polynomial expr inside the frame's caps, mod p^N."""
    pmod = frame.p**frame.N
    out = {}
    for key, c in Poly(expr, *gens).terms():
        if sum(key[:-1]) <= frame.D and key[-1] < frame.a * frame.e and int(c) % pmod:
            out[key] = int(c) % pmod
    return out


def test_det_and_adjugate_against_sympy():
    rng = make_rng(601)
    for f in ORACLE_FRAMES:
        gens = symbols("t1:%d" % (f.r + 1)) + (symbols("u"),)
        for n in range(1, 5):
            for _ in range(2):
                M = mx.mat(
                    [[random_series(rng, f, terms=2, tmax=1, umax=3) for _ in range(n)] for _ in range(n)]
                )
                S = Matrix(n, n, lambda i, j: _to_sympy(M[i][j], gens))
                assert mx.det(M).coeffs == _truncated(f, S.det(method="berkowitz").expand(), gens)
                adj = mx.adjugate(M)
                if n == 1:
                    assert adj == ((f.one(),),)
                    continue
                sadj = S.adjugate(method="berkowitz")
                for i in range(n):
                    for j in range(n):
                        assert adj[i][j].coeffs == _truncated(f, sadj[i, j].expand(), gens)


# Kernel dots per det and per adjugate of an n x n S matrix: one per
# minor of two or more rows, so 2^n - n - 1 for det.
MEMOIZED_DOTS = {2: (1, 0), 3: (4, 9), 4: (11, 34), 5: (26, 95), 6: (57, 236)}


def test_det_and_adjugate_form_each_minor_once(monkeypatch):
    f = Frame.make(3, 0, 1, 3, 6, 4, 2, "u + 3")
    calls = []
    kernel_dot = series._Kernel.dot

    def counted(self, pairs):
        calls.append(1)
        return kernel_dot(self, pairs)

    monkeypatch.setattr(series._Kernel, "dot", counted)
    for n, (det_dots, adj_dots) in MEMOIZED_DOTS.items():
        M = mx.mat([[f.const(n * i + j + 1) + f.u() ** ((i + j) % 3) for j in range(n)] for i in range(n)])
        calls.clear()
        mx.det(M)
        assert len(calls) == det_dots == 2**n - n - 1
        calls.clear()
        mx.adjugate(M)
        assert len(calls) == adj_dots


square_int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-60, 60), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=80, deadline=None)
@given(square_int_matrices)
def test_det_of_integer_matrices_against_sympy(rows):
    assert mx.det(mx.mat(rows)) == Matrix(rows).det()


def test_det_of_empty_matrix_is_refused():
    with pytest.raises(ValueError):
        mx.det(())


def test_cofactor_expansion_above_the_height_cap_is_refused():
    n = mx.MAX_HEIGHT
    ints = lambda n: mx.mat([[int(i == j) for j in range(n)] for i in range(n)])
    for M in (ints(n + 1), mx.identity(n + 1, ORACLE_FRAMES[0].one()), ints(20)):
        for fn in (mx.det, mx.adjugate, mx.inv):
            with pytest.raises(ValueError, match="height %d is above the cap of 12" % len(M)):
                fn(M)
    assert mx.det(ints(n)) == 1


@st.composite
def inv_mod_cases(draw):
    """(M, p, k): an integer matrix of height 1..6, p in {3, 5, 7}, k in {1, 2, 4};
    entries are often multiples of p, so singular matrices mod p come up."""
    n, p = draw(st.integers(1, 6)), draw(st.sampled_from([3, 5, 7]))
    k = draw(st.sampled_from([1, 2, 4]))
    entry = st.one_of(st.integers(-50, 50), st.integers(-9, 9).map(lambda x: p * x))
    return [[draw(entry) for _ in range(n)] for _ in range(n)], p, k


@settings(max_examples=150, deadline=None)
@given(inv_mod_cases())
def test_inv_mod_against_sympy(case):
    rows, p, k = case
    inv = mx.inv_mod(mx.mat(rows), p, k)
    if Matrix(rows).det() % p == 0:
        assert inv is None
    else:
        assert inv == mx.mat(Matrix(rows).inv_mod(p**k).tolist())


def test_products_of_mismatched_shapes_are_refused():
    f = ORACLE_FRAMES[0]
    for one in (1, f.one()):
        long_row, short_row = ((one, one, one),), ((one, one),)
        col2, col3 = ((one,), (one,)), ((one,), (one,), (one,))
        for A, B in ((long_row, col2), (short_row, col3)):
            with pytest.raises(ValueError):
                mx.mmul(A, B)
            with pytest.raises(ValueError):
                mx.dot(A[0], [row[0] for row in B])


def test_determinants_of_non_square_matrices_are_refused():
    for M in (((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4), (5, 6))):
        for fn in (mx.det, mx.adjugate, mx.inv):
            with pytest.raises(ValueError, match="not square"):
                fn(M)


def _diagonal(entries, zero):
    n = len(entries)
    return mx.mat([[x if i == j else zero for j in range(n)] for i, x in enumerate(entries)])


def test_scalings_are_products_with_diagonal_matrices():
    # cscale(M, fs) = M * diag(fs) and rscale(fs, M) = diag(fs) * M, where a
    # factor None stands for 1 and an int n for the ring's constant n
    rng = make_rng(612)
    f, level = ORACLE_FRAMES[1], 2
    kinds = [
        (lambda: rng.randint(-20, 20), 1, 0),
        (lambda: random_series(rng, f, terms=2), f.one(), f.zero()),
        (lambda: random_series(rng, f, terms=2, tag="R"), f.one("R"), f.zero("R")),
        (
            lambda: TElem.embed(random_series(rng, f, terms=2), level),
            TElem.const(f, level, 1),
            TElem.const(f, level, 0),
        ),
    ]
    for draw, one, zero in kinds:
        for n in (1, 2, 3):
            for _ in range(3):
                M = mx.mat([[draw() for _ in range(n)] for _ in range(n)])
                fs = [rng.choice([None, draw(), rng.randint(-5, 5)]) for _ in range(n)]
                ref = _diagonal([one if x is None else one * x for x in fs], zero)
                assert mx.cscale(M, fs) == mx.mmul(M, ref)
                assert mx.rscale(fs, M) == mx.mmul(ref, M)
    # over Witt vectors only the None factors: their products are sequential sums
    for n in (1, 2):
        B = mx.mat(
            [[WittVec("R", [random_series(rng, f, tag="R") for _ in range(f.L)]) for _ in range(n)]
             for _ in range(n)]
        )
        ident = mx.identity(n, B[0][0].one())
        assert mx.cscale(B, [None] * n) == mx.mmul(B, ident) == B
        assert mx.rscale([None] * n, B) == mx.mmul(ident, B) == B


def test_scalings_refuse_factor_lists_of_the_wrong_length():
    f = ORACLE_FRAMES[0]
    for M in (((1, 2), (3, 4)), mx.identity(2, f.one())):
        for fs in ([None], [None, None, 3]):
            with pytest.raises(ValueError):
                mx.cscale(M, fs)
            with pytest.raises(ValueError):
                mx.rscale(fs, M)


UNIT_FRAMES = [
    Frame.make(3, 0, 2, 2, 4, 3, 2, "u^2 + 3*u + 3"),
    Frame.make(3, 1, 1, 3, 4, 2, 2, "u + 3*(1 + t1)"),
]


@st.composite
def entries(draw, f, tag):
    """A series with a small constant term, so that units and non-units
    both occur; R-tagged entries are reduced mod E."""
    key = st.tuples(*[st.integers(0, 1)] * f.r, st.integers(0, f.a * f.e - 1))
    tbl = draw(st.dictionaries(key, st.integers(1, f.p**f.N - 1), max_size=3))
    tbl[(0,) * (f.r + 1)] = draw(st.integers(0, 2 * f.p))
    return f.elem(tbl, tag)


@st.composite
def unit_cases(draw):
    """(M, p) over S, R, T (embedded) or W(R), with the full det's verdict."""
    f = draw(st.sampled_from(UNIT_FRAMES))
    ring = draw(st.sampled_from(["S", "R", "T", "W"]))
    n = draw(st.integers(1, 2 if ring == "W" else 3))
    cells = range(n * n)
    if ring == "W":
        comps = [[draw(entries(f, "R")) for _ in range(f.L)] for _ in cells]
        flat = [WittVec("R", cs, frame=f) for cs in comps]
    else:
        flat = [draw(entries(f, "R" if ring == "R" else "S")) for _ in cells]
        if ring == "T":
            level = draw(st.integers(1, f.a))
            flat = [TElem.embed(x, level) for x in flat]
    M = mx.mat([flat[i * n : (i + 1) * n] for i in range(n)])
    full = mx.det(M).is_unit()
    if ring == "W":
        M = mx.mmap(M, lambda x: x.comps[0])
    return M, f.p, full


def test_det_is_unit_agrees_with_the_full_determinant():
    seen = set()

    @settings(max_examples=120, deadline=None)
    @given(unit_cases())
    def check(case):
        M, p, full = case
        assert mx.det_is_unit(M, p) == full
        seen.add(full)

    check()
    assert seen == {True, False}


def test_special_fiber_against_the_full_inverse():
    rng = make_rng(602)
    nilpotent = set()
    for r in (0, 1):
        for e in (1, 2):
            for d, c in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)):
                f = random_frame(rng, r=r, e=e, a=2, N=4)
                n = d + c
                # a constant factor K makes A0 mod p any invertible matrix
                while True:
                    K = [[f.const(rng.randrange(f.p)) for _ in range(n)] for _ in range(n)]
                    A = mx.mmul(random_unit_matrix(rng, f, n), K)
                    if mx.det(A).is_unit():
                        break
                w = make_window(f, d, c, A)
                fib = special_fiber(w)
                A0, Phi0, nil = special_fiber_oracle(w)
                assert (fib.A0, fib.Phi0, fib.is_nilpotent) == (A0, Phi0, nil)
                nilpotent.add(nil)
    assert nilpotent == {True, False}
