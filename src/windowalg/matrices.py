"""Small exact matrices over the ring elements of this package.

Matrices are tuples of tuples.  Ranks stay tiny (window rank <= 4), so
determinants and adjugates go through permutation and cofactor
expansion, which works over any commutative ring element type that
supports +, -, * and .zero()/.one().
"""

from __future__ import annotations

from itertools import permutations


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


def mmul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for s in range(1, k):
                acc = acc + A[i][s] * B[s][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def meq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def is_zero(A):
    return all(x.is_zero() for row in A for x in row)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def det(M):
    n = len(M)
    if n == 0:
        raise ValueError("empty matrix has no determinant here")
    acc = None
    for perm in permutations(range(n)):
        term = M[0][perm[0]]
        for i in range(1, n):
            term = term * M[i][perm[i]]
        if _perm_sign(perm) < 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc


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
            if (i + j) % 2:
                cof = -cof
            row.append(cof)
        out.append(tuple(row))
    return tuple(out)


def inv(M):
    """Inverse via adjugate; requires det(M) to be a unit."""
    d = det(M)
    dinv = d.invert()
    return mmap(adjugate(M), lambda x: x * dinv)
