"""Seeded random generators for property trials (tests and selftest)."""

from __future__ import annotations

from . import matrices as mx
from .series import Frame
from .windowcore import make_window


def random_table(rng, frame, terms=3, tmax=None, umax=None, bound=None):
    tmax = frame.D if tmax is None else tmax
    umax = frame.a * frame.e if umax is None else umax
    bound = frame.p**2 if bound is None else bound
    tbl = {}
    for _ in range(terms):
        key = []
        budget = tmax
        for _ in range(frame.r):
            exp = rng.randint(0, budget)
            key.append(exp)
            budget -= exp
        key.append(rng.randrange(max(umax, 1)))
        tbl[tuple(key)] = rng.randint(1, max(bound, 2) - 1)
    return tbl


def random_series(rng, frame, terms=3, tmax=None, umax=None, bound=None, tag="S"):
    return frame.elem(random_table(rng, frame, terms, tmax, umax, bound), tag)


def random_unit(rng, frame, terms=2, **kw):
    x = random_series(rng, frame, terms, **kw)
    c = rng.randrange(1, frame.p)
    return x - frame.const(x.constant_term()) + frame.const(c + frame.p * rng.randrange(frame.p))


def random_maximal(rng, frame, terms=2, **kw):
    """Element of the maximal ideal (constant term divisible by p)."""
    x = random_series(rng, frame, terms, **kw)
    c = x.constant_term()
    return x - frame.const(c) + frame.const(frame.p * rng.randrange(frame.p))


def random_unit_matrix(rng, frame, n, terms=2, tmax=1, umax=None):
    """Invertible over the local ring: unit diagonal, off-diagonal in
    the maximal ideal."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(random_unit(rng, frame, terms, tmax=tmax, umax=umax))
            else:
                row.append(random_maximal(rng, frame, terms, tmax=tmax, umax=umax))
        rows.append(tuple(row))
    A = mx.mat(rows)
    if not mx.det_is_unit(A, frame.p):
        raise AssertionError("generator produced a non-unit determinant")
    return A


def random_window(rng, frame, d=None, c=None, max_height=2, terms=2, tmax=1):
    if d is None:
        height = rng.randint(1, max_height)
        d = rng.randint(0, height)
        c = height - d
    A = random_unit_matrix(rng, frame, d + c, terms=terms, tmax=tmax)
    return make_window(frame, d, c, A)


def random_frame(rng, p=None, r=None, e=None, a=None, N=None, D=None, L=None):
    p = p if p is not None else rng.choice([3, 5])
    r = r if r is not None else rng.randint(0, 1)
    e = e if e is not None else rng.randint(1, 3)
    a = a if a is not None else rng.randint(1, 3)
    N = N if N is not None else rng.randint(4, 6)
    D = D if D is not None else rng.randint(2, 4)
    L = L if L is not None else rng.randint(2, 3)
    zero = (0,) * (r + 1)
    E = {zero[:-1] + (e,): 1}
    # a_0 = p * unit, higher a_i random multiples of p
    E[zero] = p * rng.randrange(1, p)
    for i in range(1, e):
        if rng.random() < 0.5:
            E[zero[:-1] + (i,)] = p * rng.randrange(1, p)
    if r == 1 and rng.random() < 0.5:
        E[(1, 0)] = p * rng.randrange(1, p)
    return Frame.make(p, r, e, a, N, D, L, E)
