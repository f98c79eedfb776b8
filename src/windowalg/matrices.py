"""Small exact matrices over the ring elements of this package.

Matrices are tuples of tuples.  Ranks stay tiny (window rank <= 4), so
det, adjugate and inv all go through cofactor expansion, which works
over any commutative ring element type that supports +, - and * (plain
ints included); adjugate of a 1x1 matrix also needs .one().

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
    """Determinant by cofactor expansion along the first row."""
    n = len(M)
    if n == 0:
        raise ValueError("empty matrix has no determinant here")
    if n == 1:
        return M[0][0]
    cofs = [det(_minor(M, 0, j)) for j in range(n)]
    return dot(M[0], [-c if j % 2 else c for j, c in enumerate(cofs)])


def det_is_unit(M, p):
    """Whether det(M) is a unit: x -> constant term mod p is a ring map onto the
    residue field F_p of the local rings S, R (E -> 0) and T (p*v - u^e -> 0)."""
    return det(mmap(M, lambda x: x.constant_term())) % p != 0


def _minor(M, i, j):
    return tuple(
        tuple(x for jj, x in enumerate(row) if jj != j)
        for ii, row in enumerate(M)
        if ii != i
    )


def adjugate(M):
    n = len(M)
    if n == 1:
        return ((M[0][0].one(),),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = det(_minor(M, j, i))
            row.append(-cof if (i + j) % 2 else cof)
        out.append(tuple(row))
    return tuple(out)


def inv(M):
    """Inverse via adjugate; det(M) = sum_j M[0][j] * adj[j][0] must be a unit."""
    adj = adjugate(M)
    dinv = dot(M[0], [row[0] for row in adj]).invert()
    return mmap(adj, lambda x: x * dinv)
