"""Small exact matrices over the ring elements of this package.

Matrices are tuples of tuples.  det, adjugate and inv all go through one
cofactor expansion along the first row, which works over any commutative
ring element type that supports +, - and * (plain ints included);
adjugate of a 1x1 matrix also needs .one().  Every minor is memoized, so
det of an n x n matrix costs 2^n - n - 1 dots and adjugate shares one
memo across its n^2 cofactors; both refuse n above MAX_HEIGHT.  Integer
matrices have their own routine, inv_mod: Gauss-Jordan mod p^k, n^3 steps.

Every entry of a product and every cofactor sum is one dot(xs, ys).  It
uses the dot method of the first operand that has one (the S, R and T
elements, which sum the products in one table and reduce it once), and
otherwise (ints, Witt vectors) the sequential x0*y0 + x1*y1 + ...
A product with a diagonal matrix is a scaling of columns (cscale) or of
rows (rscale), one product per scaled entry.
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


def cscale(M, factors):
    """M * diag(factors): column j times factors[j], or as it is for None."""
    return tuple(
        tuple(x if f is None else x * f for x, f in zip(row, factors, strict=True)) for row in M
    )


def rscale(factors, M):
    """diag(factors) * M: row i times factors[i], or as it is for None."""
    return tuple(
        row if f is None else tuple(x * f for x in row) for f, row in zip(factors, M, strict=True)
    )


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


# det and adjugate double their work per row; taller matrices are refused
MAX_HEIGHT = 12


def _indices(M):
    """range(n) as a tuple for a square matrix of height 1 <= n <= MAX_HEIGHT."""
    if not M:
        raise ValueError("empty matrix has no determinant here")
    if any(len(row) != len(M) for row in M):
        raise ValueError("matrix is not square")
    if len(M) > MAX_HEIGHT:
        raise ValueError("matrix height %d is above the cap of %d" % (len(M), MAX_HEIGHT))
    return tuple(range(len(M)))


def det(M):
    """Determinant by cofactor expansion along the first row, minors memoized."""
    idx = _indices(M)
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
    return inv_mod(mmap(M, lambda x: x.constant_term()), p, 1) is not None


def inv_mod(M, p, k):
    """M^(-1) mod p^k, entries in [0, p^k), or None when p | det(M).  Z/p^k is
    local: Gauss-Jordan takes unit pivots, and a column without one means p | det."""
    m, n = p**k, len(M)
    rows = [[x % m for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for j in range(n):
        piv = next((i for i in range(j, n) if rows[i][j] % p), None)
        if piv is None:
            return None
        rows[j], rows[piv] = rows[piv], rows[j]
        s = pow(rows[j][j], -1, m)
        rows[j] = [x * s % m for x in rows[j]]
        for i in range(n):
            if i != j and (f := rows[i][j]):
                rows[i] = [(x - f * y) % m for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(row[n:]) for row in rows)


def adjugate(M):
    idx, memo = _indices(M), {}
    n = len(idx)
    if n == 1:
        return ((M[0][0].one(),),)

    def cof(i, j):  # (-1)^(i+j) det of M without row j and column i
        c = _det(M, idx[:j] + idx[j + 1 :], idx[:i] + idx[i + 1 :], memo)
        return -c if (i + j) % 2 else c

    return tuple(tuple(cof(i, j) for j in range(n)) for i in range(n))


def inv(M):
    """Inverse via adjugate; det(M) = sum_j M[0][j] * adj[j][0] must be a unit."""
    adj = adjugate(M)
    dinv = dot(M[0], [row[0] for row in adj]).invert()
    return mmap(adj, lambda x: x * dinv)
