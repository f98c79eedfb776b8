"""Small exact matrices over the ring elements of this package.

Matrices are tuples of tuples.  det, adjugate and inv all go through one
cofactor expansion along the first row, which works over any commutative
ring element type that supports +, - and * (plain ints included);
adjugate of a 1x1 matrix also needs .one().  Every minor is memoized, so
det of an n x n matrix costs 2^n - n - 1 dots and adjugate shares one
memo across its n^2 cofactors.

Every entry of a product and every cofactor sum is one dot(xs, ys).  It
uses the dot method of the first operand that has one (the S, R and T
elements, which sum the products in one table and reduce it once), and
otherwise (ints, Witt vectors) the sequential x0*y0 + x1*y1 + ...
"""

from __future__ import annotations


def mat(rows):
    return tuple(tuple(row) for row in rows)


def diag(entries):
    """Square diagonal matrix; entries must be nonempty (zero comes from them)."""
    zero = entries[0].zero()
    n = len(entries)
    return tuple(tuple(x if i == j else zero for j in range(n)) for i, x in enumerate(entries))


def identity(n, one):
    return diag([one] * n)


def zeros(n, m, zero):
    return tuple(tuple(zero for _ in range(m)) for _ in range(n))


def mmap(M, fn):
    return tuple(tuple(fn(x) for x in row) for row in M)


def madd(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def msub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mscal(A, s):
    return tuple(tuple(x * s for x in row) for row in A)


def dot(xs, ys):
    """sum(x*y) over the nonempty xs and ys; unequal lengths are refused."""
    for x in (*xs, *ys):
        fused = getattr(x, "dot", None)
        if fused is not None:
            return fused(xs, ys)
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:], strict=True):
        acc = acc + x * y
    return acc


def mmul(A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(dot(row, col) for col in cols) for row in A)


def meq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def is_zero(A):
    return all(x.is_zero() for row in A for x in row)


def det(M):
    """Determinant by cofactor expansion along the first row, minors memoized."""
    if not M:
        raise ValueError("empty matrix has no determinant here")
    idx = tuple(range(len(M)))
    return _det(M, idx, idx, {})


def _det(M, rows, cols, memo):
    """det of M on the rows and cols index tuples; each minor kept in memo."""
    if len(rows) == 1:
        return M[rows[0]][cols[0]]
    if (rows, cols) not in memo:
        cofs = [_det(M, rows[1:], cols[:j] + cols[j + 1 :], memo) for j in range(len(cols))]
        row = [M[rows[0]][c] for c in cols]
        memo[rows, cols] = dot(row, [-c if j % 2 else c for j, c in enumerate(cofs)])
    return memo[rows, cols]


def det_is_unit(M, p):
    """Whether det(M) is a unit: x -> constant term mod p is a ring map onto the
    residue field F_p of the local rings S, R (E -> 0) and T (p*v - u^e -> 0)."""
    return det(mmap(M, lambda x: x.constant_term())) % p != 0


def adjugate(M):
    n = len(M)
    if n == 1:
        return ((M[0][0].one(),),)
    idx, memo = tuple(range(n)), {}

    def cof(i, j):  # (-1)^(i+j) det of M without row j and column i
        c = _det(M, idx[:j] + idx[j + 1 :], idx[:i] + idx[i + 1 :], memo)
        return -c if (i + j) % 2 else c

    return tuple(tuple(cof(i, j) for j in range(n)) for i in range(n))


def inv(M):
    """Inverse via adjugate; det(M) = sum_j M[0][j] * adj[j][0] must be a unit."""
    adj = adjugate(M)
    dinv = dot(M[0], [row[0] for row in adj]).invert()
    return mmap(adj, lambda x: x * dinv)
