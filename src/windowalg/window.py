"""Breuil windows in normal matrix form.

A window at level a is (d, c, A) with A an invertible (d+c) x (d+c)
matrix over the level-a series ring; the structural map phi has matrix
A*C for C = blockdiag(E*I_d, I_c).  Raw phi-matrices are accepted at
the boundary and normal-decomposed immediately.  Window and make_window
live in windowcore, which is all that a parsed [window] block needs.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from . import matrices as mx
from .series import FrameMismatchError, PrecisionError
from .windowcore import Window, make_window  # noqa: F401 (re-exported)


class DecompositionError(ValueError):
    """The cokernel of the supplied matrix is not free; no normal form."""


def normal_decompose(frame, M):
    """Split a raw phi-matrix as M*U = A*C.

    Column-reduce over the frame's residue field: unit pivots mark
    L-type columns (leftmost column first, then lowest row); whatever
    remains must be divisible by E and forms the J-block.  Returns
    (d, c, A, U) with U invertible.
    """
    M = mx.mat(M)
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("phi-matrix must be square")
    one = frame.one()
    zero = frame.zero()
    cols = [[M[i][j] for i in range(n)] for j in range(n)]
    ucols = [[one if i == j else zero for i in range(n)] for j in range(n)]
    remaining = list(range(n))
    used_rows = set()
    l_order = []
    while True:
        pivot = None
        for j in remaining:
            for i in range(n):
                if i not in used_rows and cols[j][i].is_unit():
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        for j2 in remaining:
            if j2 == j:
                continue
            lam = cols[j2][i].divide(cols[j][i])
            cols[j2] = [a - lam * b for a, b in zip(cols[j2], cols[j])]
            ucols[j2] = [a - lam * b for a, b in zip(ucols[j2], ucols[j])]
        used_rows.add(i)
        l_order.append(j)
        remaining.remove(j)
    j_order = sorted(remaining)
    j_quotients = []
    for j in j_order:
        qcol = []
        for x in cols[j]:
            q = x.divide_by_E()
            if q is None:
                raise DecompositionError(
                    "cokernel not free: column neither unit-reducible nor E-divisible"
                )
            qcol.append(q)
        j_quotients.append(qcol)
    A = mx.mat(zip(*j_quotients, *(cols[j] for j in sorted(l_order))))
    U = mx.mat(zip(*(ucols[j] for j in j_order + sorted(l_order))))
    d, c = len(j_order), len(l_order)
    w = make_window(frame, d, c, A)
    if not mx.meq(mx.mmul(M, U), w.phi_matrix()):
        raise PrecisionError("normal decomposition failed to reproduce the input")
    return d, c, A, U


def window_from_phi(frame, M):
    d, c, A, U = normal_decompose(frame, M)
    return make_window(frame, d, c, A), U


class Triple:
    """Triple view of a window in its normal basis.

    F1_matrix is the matrix of the normal-basis isomorphism (the
    J-columns are the F-images, the L-columns the F1-images); F_matrix
    is the induced endomorphism of the ambient module, whose L-columns
    acquire a factor sigma(E).
    """

    def __init__(self, d, c, F_matrix, F1_matrix, basis_change):
        self.d = d
        self.c = c
        self.F_matrix = F_matrix
        self.F1_matrix = F1_matrix
        self.basis_change = basis_change


def _f_matrix_from(frame, d, c, A):
    return mx.cscale(A, [None] * d + [frame.E.frobenius()] * c)


def triple_of(w):
    ident = mx.identity(w.height, w.frame.one())
    return Triple(w.d, w.c, _f_matrix_from(w.frame, w.d, w.c, w.A), w.A, ident)


def window_of(frame, triple):
    A = mx.mat(triple.F1_matrix)
    expected = _f_matrix_from(frame, triple.d, triple.c, A)
    if not mx.meq(mx.mat(triple.F_matrix), expected):
        raise ValueError("triple data inconsistent: F does not match sigma(E)-scaled F1")
    return make_window(frame, triple.d, triple.c, A)


def lift_window(w):
    """Entry-wise canonical lift to level a+1."""
    return w.at_level(w.level + 1)


class WindowMorphism:
    """A matrix U over the common frame with M_phi2 * U = sigma(U) * M_phi1."""

    def __init__(self, source, target, U):
        if source.frame != target.frame:
            raise FrameMismatchError("morphism endpoints over different frames")
        self.source = source
        self.target = target
        self.U = mx.mat(U)
        if len(self.U) != target.height or any(len(r) != source.height for r in self.U):
            raise ValueError("morphism matrix has the wrong shape")

    def sigma_U(self):
        return mx.mmap(self.U, lambda x: x.frobenius())

    def holds(self):
        lhs = mx.mmul(self.target.phi_matrix(), self.U)
        rhs = mx.mmul(self.sigma_U(), self.source.phi_matrix())
        return mx.meq(lhs, rhs)


def check_morphism(m):
    return m.holds()


def check_rigidity(m):
    """Instance-level rigidity over a level-(a*p) frame.

    For a morphism over the level divisible by p, the statement is: if
    U vanishes modulo u^(a*e) (a = level/p), that is at level a, then
    U = 0.  Returns whether that implication held for this instance;
    vacuously true when U does not vanish at the sublevel.
    """
    level = m.source.level
    p = m.source.frame.p
    if level % p:
        raise ValueError("rigidity needs a level divisible by p")
    if not m.holds():
        raise ValueError("not a morphism")
    vanishes = all(x.at_level(level // p).is_zero() for row in m.U for x in row)
    if not vanishes:
        return True
    return mx.is_zero(m.U)


def _monomials(r, tdeg, urange):
    alphas = (a for a in product(range(tdeg + 1), repeat=r) if sum(a) <= tdeg)
    return [alpha + (j,) for alpha in alphas for j in urange]


def _rank(columns):
    """Rank over Q of sparse integer columns ({key: int}), fraction-free.

    Pivot columns stay integral, keyed by their least key.  A column whose
    lead k meets pivot P becomes P[k]*vec - vec[k]*P over the gcd of its
    entries (Bareiss, 1968), so no entry leaves Z.
    """
    pivots = {}
    for vec in columns:
        while vec:
            piv = pivots.get(lead := min(vec))
            if piv is None:
                pivots[lead] = vec
                break
            a, b = piv[lead], vec[lead]
            out = {k: a * v for k, v in vec.items()}
            for k, v in piv.items():
                out[k] = out.get(k, 0) - b * v
            g = gcd(*out.values())
            vec = {k: v // g for k, v in out.items() if v}
    return len(pivots)


def vanishing_hom_dim(w1, w2, sub_a):
    """Exact-coefficient search for morphisms vanishing at the sublevel.

    Builds the linear system M2*U = sigma(U)*M1 over honest p-adic
    coefficients (the stored residues are taken as exact integers, so
    feed it windows with exactly known entries), restricted to U that
    vanish modulo u^(sub_a*e), and returns the dimension of its
    rational solution space.  U is height(w2) x height(w1), as in
    WindowMorphism.  Each column is assembled in the S ring, by products
    with monomials of coefficient 1 that leave residues as they are, and
    _rank eliminates on the integer columns.
    """
    frame = w1.frame
    if w2.frame != frame:
        raise FrameMismatchError("windows over different frames")
    n1, n2 = w1.height, w2.height
    e = frame.e
    ring = frame.ring("S")
    m1, m2 = (mx.mmap(w.phi_matrix(), lambda x: x.packed) for w in (w1, w2))
    pack = frame.layout.pack
    monos = [pack(k) for k in _monomials(frame.r, frame.D, range(sub_a * e, frame.a * e))]
    columns = []
    for i in range(n2):
        for j in range(n1):
            for key in monos:
                delta = {key: 1}
                sdelta = ring.sigma(delta)
                col = {}
                for row in range(n2):
                    for k, cval in ring.mul(m2[row][i], delta).items():
                        col[(row, j, k)] = col.get((row, j, k), 0) + cval
                for colj in range(n1):
                    for k, cval in ring.mul(sdelta, m1[j][colj]).items():
                        col[(i, colj, k)] = col.get((i, colj, k), 0) - cval
                columns.append({k: v for k, v in col.items() if v})
    return len(columns) - _rank(columns)


class SpecialFiber:
    def __init__(self, height, dim, A0, Phi0, is_nilpotent):
        self.height = height
        self.dim = dim
        self.A0 = A0
        self.Phi0 = Phi0
        self.is_nilpotent = is_nilpotent


def special_fiber(w):
    """Invariants of the window over the residue ring of (t, u).

    Sending t and u to zero is a ring map S -> Z/p^N, so everything is
    read on the integer matrix A0 of constant terms, inverted mod p^N by
    mx.inv_mod: Phi0 is blockdiag(I_d, E(0)*I_c) * A0^(-1), and
    nilpotence uses the V-operator surrogate N0 = blockdiag(0_d, I_c) *
    A0^(-1) mod p, raised to the height-th power.  The Frobenius twist
    of each step is the identity on residues mod p (Fermat), so the
    product needs no twisting.
    """
    frame = w.frame
    n = w.height
    pmod = frame.p**frame.N
    A0 = [[x.constant_term() % pmod for x in row] for row in w.A]
    inv0 = mx.inv_mod(A0, frame.p, frame.N)
    if inv0 is None:
        raise ValueError("det(A) is not a unit")
    E0 = frame.E.constant_term()
    Phi0 = [[x * E0 % pmod if i >= w.d else x for x in row] for i, row in enumerate(inv0)]
    p = frame.p
    N0 = [[x % p if i >= w.d else 0 for x in row] for i, row in enumerate(inv0)]
    prod = N0
    for _ in range(n - 1):
        prod = mx.mmap(mx.mmul(prod, N0), lambda x: x % p)
    nilpotent = all(x == 0 for row in prod for x in row)
    return SpecialFiber(n, w.d, A0, Phi0, nilpotent)


def lie(w):
    """Rank and presentation of Coker(phi) over R/p^aR."""
    presentation = mx.mmap(w.phi_matrix(), lambda x: x.reduce_mod_E())
    return w.d, presentation
