"""Shared oracles and generators for the test suite.

Oracles here are written independently of the library internals:
schoolbook polynomial multiplication, exact univariate division, and
window base changes assembled from first principles.
"""

import random

from windowalg import Frame, TElem, make_window
from windowalg import matrices as mx
from windowalg.rand import random_maximal, random_series, random_unit, random_window


def frame313(**kw):
    args = dict(p=3, r=0, e=1, a=3, N=6, D=4, L=2, E="u + 3")
    args.update(kw)
    return Frame.make(**args)


def frame_e2(**kw):
    args = dict(p=3, r=1, e=2, a=2, N=5, D=4, L=2, E="u^2 + 3*t1*u + 3*(1 + t1)")
    args.update(kw)
    return Frame.make(**args)


def mul_oracle(frame, f, g):
    """Schoolbook product of raw tables, truncated by the frame caps."""
    out = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    out = {
        k: c
        for k, c in out.items()
        if sum(k[:-1]) <= frame.D and k[-1] < frame.a * frame.e
    }
    return frame.elem(out)


def render_reference(tbl, r):
    """Canonical rendering of a table keyed by exponent tuples: ascending
    total degree, within a degree t1 > t2 > ... > u, coefficients as stored."""
    if not tbl:
        return "0"
    terms = []
    for key in sorted(tbl, key=lambda k: (sum(k), tuple(-x for x in k))):
        parts = []
        for i in range(r):
            if key[i] == 1:
                parts.append("t%d" % (i + 1))
            elif key[i] > 1:
                parts.append("t%d^%d" % (i + 1, key[i]))
        if key[-1] == 1:
            parts.append("u")
        elif key[-1] > 1:
            parts.append("u^%d" % key[-1])
        mono, c = "*".join(parts), tbl[key]
        terms.append(str(c) if not mono else mono if c == 1 else "%d*%s" % (c, mono))
    return " + ".join(terms)


def str_reference(x):
    """str() of a SeriesElem or TElem, rendered from its tuple-keyed coeffs."""
    if not isinstance(x, TElem):
        return render_reference(x.coeffs, x.frame.r)
    terms = []
    for i, ci in enumerate(x.coeffs):
        if not ci:
            continue
        body = render_reference(ci, x.frame.r)
        vpart = "v" if i == 1 else "v^%d" % i
        terms.append(body if i == 0 else vpart if body == "1" else "(%s)*%s" % (body, vpart))
    return " + ".join(terms) if terms else "0"


def divmod_oracle(tbl, E_tbl, e):
    """Exact integer long division by the u-monic E; no caps applied."""
    rem = dict(tbl)
    q = {}
    tail = {k: c for k, c in E_tbl.items() if k[-1] < e}
    while True:
        top = [k for k in rem if k[-1] >= e]
        if not top:
            break
        k = max(top, key=lambda kk: kk[-1])
        c = rem.pop(k)
        qk = k[:-1] + (k[-1] - e,)
        q[qk] = q.get(qk, 0) + c
        for ek, ec in tail.items():
            key = tuple(a + b for a, b in zip(qk, ek))
            rem[key] = rem.get(key, 0) - c * ec
        rem = {kk: cc for kk, cc in rem.items() if cc}
    return q, rem


def reduce_oracle(frame, x):
    """Independent reduction mod E into the R-ring."""
    _, rem = divmod_oracle(dict(x.coeffs), dict(frame.E_items), frame.e)
    return frame.elem(rem, "R")


def geometric_inverse_oracle(frame, m, terms=40):
    """(1 + m)^(-1) = 1 - m + m^2 - ... for m in the maximal ideal."""
    acc = frame.one()
    power = frame.one()
    for k in range(1, terms):
        power = power * m
        if power.is_zero():
            break
        acc = acc + power * ((-1) ** k)
    return acc


def conjugate_by_C(frame, d, M):
    """C * M * C^(-1) for C = blockdiag(E I_d, I_c); None when the
    lower-left block is not divisible by E."""
    E = frame.E
    out = []
    for i, row in enumerate(M):
        new = []
        for j, x in enumerate(row):
            if i < d and j >= d:
                new.append(x * E)
            elif i >= d and j < d:
                q = x.divide_by_E()
                if q is None:
                    return None
                new.append(q)
            else:
                new.append(x)
        out.append(tuple(new))
    return tuple(out)


def q_shape_matrix(rng, frame, d, c, terms=2):
    """Invertible matrix preserving the submodule E*J + L: lower-left
    block divisible by E, unit diagonal.  Entries above the diagonal
    may be units; the determinant stays a unit because every crossing
    product passes through the E-divisible block."""
    n = d + c
    E = frame.E
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(random_unit(rng, frame, terms, tmax=1))
            elif i >= d and j < d:
                row.append(random_maximal(rng, frame, terms, tmax=1) * E)
            elif i < d <= j:
                # units are safe here: a permutation crossing this block
                # must also cross the E-divisible one
                row.append(random_series(rng, frame, terms, tmax=1))
            else:
                row.append(random_maximal(rng, frame, terms, tmax=1))
        rows.append(tuple(row))
    return mx.mat(rows)


def upper_q_matrix(rng, frame, d, c, terms=2):
    """Q-preserving matrix with an exactly zero lower-left block, so
    conjugation by C never divides by E (no annihilator fuzz)."""
    n = d + c
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i >= d and j < d:
                row.append(frame.zero())
            else:
                row.append(random_series(rng, frame, terms, tmax=1))
        rows.append(tuple(row))
    return mx.mat(rows)


def sigma_mat(M):
    return mx.mmap(M, lambda x: x.frobenius())


def iso_target(frame, w, V):
    """Target window of the isomorphism V: solves A2 from the morphism
    equation M2*V = sigma(V)*M1, i.e. A2 = sigma(V)*A1*(C V^(-1) C^(-1))."""
    Vinv = mx.inv(V)
    conj = conjugate_by_C(frame, w.d, Vinv)
    if conj is None:
        return None
    A2 = mx.mmul(sigma_mat(V), mx.mmul(w.A, conj))
    return make_window(frame, w.d, w.c, A2)


def upper_window(rng, frame, d, c, pexp):
    """Window whose matrix is unit-upper-triangular modulo p^pexp, so a
    descending diagonal p-power isogeny stays integral."""
    n = d + c
    scale = frame.p ** max(pexp, 1)  # below-diagonal also in the maximal ideal
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(random_unit(rng, frame, 2, tmax=1))
            elif i < j:
                row.append(random_series(rng, frame, 2, tmax=1))
            else:
                row.append(random_series(rng, frame, 2, tmax=1) * scale)
        rows.append(tuple(row))
    return make_window(frame, d, c, rows)


def diag_p_isogeny(rng, frame, w, exps):
    """Isogeny with U = diag(p^k_i), k descending; target = U A U^(-1) C."""
    n = w.height
    assert list(exps) == sorted(exps, reverse=True)
    U = tuple(
        tuple(
            frame.const(frame.p ** exps[i]) if i == j else frame.zero()
            for j in range(n)
        )
        for i in range(n)
    )
    A2 = []
    for i in range(n):
        row = []
        for j in range(n):
            x = w.A[i][j]
            delta = exps[i] - exps[j]
            if delta >= 0:
                row.append(x * (frame.p**delta))
            else:
                row.append(x.divide_by_p(-delta))
        A2.append(tuple(row))
    target = make_window(frame, w.d, w.c, A2)
    return target, U


def random_isogeny(rng, frame, d, c, max_exp=1):
    """Random triangular isogeny built by solving for the target factor:
    a unit base change composed with a diagonal p-power step."""
    n = d + c
    exps = sorted((rng.randint(0, max_exp) for _ in range(n)), reverse=True)
    source = upper_window(rng, frame, d, c, max(exps) - min(exps))
    mid, U1 = diag_p_isogeny(rng, frame, source, exps)
    V = q_shape_matrix(rng, frame, d, c)
    target = iso_target(frame, mid, V)
    if target is None:
        return None
    U = mx.mmul(V, U1)
    return source, target, U, sum(exps)


def make_rng(seed):
    return random.Random(seed)


def special_fiber_oracle(w):
    """(A0, Phi0, nilpotent) read off the full series inverse A^(-1):
    Phi0 = blockdiag(I_d, E*I_c) * A^(-1) and N0 = blockdiag(0_d, I_c)
    * A^(-1), both with t and u sent to zero, N0 taken mod p."""
    frame, n = w.frame, w.height
    p, pmod = frame.p, frame.p**frame.N
    A0 = [[x.constant_term() % pmod for x in row] for row in w.A]
    Ainv = mx.inv(w.A)
    scaled = [[x * frame.E if i >= w.d else x for x in row] for i, row in enumerate(Ainv)]
    Phi0 = [[x.constant_term() % pmod for x in row] for row in scaled]
    N0 = [[x.constant_term() % p if i >= w.d else 0 for x in row] for i, row in enumerate(Ainv)]
    prod = [row[:] for row in N0]
    for _ in range(n - 1):
        prod = [
            [sum(prod[i][k] * N0[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)
        ]
    return A0, Phi0, all(x == 0 for row in prod for x in row)


def c_matrix_T(frame, level, d, c):
    """C = blockdiag(E*I_d, I_c) over T_level, as an explicit diagonal matrix."""
    return mx.diag([TElem.embed(frame.E, level)] * d + [TElem.const(frame, level, 1)] * c)


def newton_inverse(x):
    """Inverse of a unit x of the S, R or T ring by Newton iteration, a
    reference independent of the kernel's unit division.

    The start value inverts the constant term mod p^N; the error
    1 - x*y then lies in the augmentation ideal, which is nilpotent
    under the degree caps, and each step squares it.
    """
    c = x.constant_term()
    if c % x.frame.p == 0:
        raise ZeroDivisionError("not a unit: constant term divisible by p")
    one = x.one()
    y = one * pow(c, -1, x.frame.p**x.frame.N)
    for _ in range(64):
        err = one - x * y
        if err.is_zero():
            return y
        y = y + y * err
    raise AssertionError("Newton iteration did not terminate")


def newton_matrix_inverse(M):
    """M^(-1) = adj(M) * det(M)^(-1), the determinant inverted by newton_inverse."""
    adj = mx.adjugate(M)
    dinv = newton_inverse(mx.dot(M[0], [row[0] for row in adj]))
    return mx.mscal(adj, dinv)


def pc_inverse_T(frame, level, d, c):
    """p*C^(-1) = blockdiag((v+eps)^(-1)*I_d, p*I_c) over T_level, E = p(v+eps),
    as an explicit diagonal matrix."""
    veps = TElem.v(frame, level) + TElem.embed(frame.epsilon, level)
    return mx.diag([newton_inverse(veps)] * d + [TElem.const(frame, level, frame.p)] * c)


def solve_iso_reference(w1, w2, level):
    """X = I + vY with Y = sum of Psi^k(D) over every k < level, the full-level
    loop: Psi(Y) = (pC^(-1) * A2^(-1) * sigma(Y) * A1 * C) * s, s = p^(p-2) v^(p-1)."""
    frame, n, d, c = w1.frame, w1.height, w1.d, w1.c
    emb = lambda M: mx.mmap(M, lambda x: TElem.embed(x, level))
    A2_inv = newton_matrix_inverse(w2.A)
    Gm = mx.msub(mx.mmul(A2_inv, w1.A), mx.identity(n, frame.one()))
    shift = lambda x: frame.elem({k[:-1] + (k[-1] - frame.e,): v for k, v in x.coeffs.items()})
    CT = c_matrix_T(frame, level, d, c)
    pCinv = pc_inverse_T(frame, level, d, c)
    A2T_inv, A1C = emb(A2_inv), mx.mmul(emb(w1.A), CT)
    s = TElem.v(frame, level, frame.p - 1) * (frame.p ** (frame.p - 2))

    def psi(Y):
        sig = mx.mmap(Y, lambda x: x.sigma())
        return mx.mscal(mx.mmul(pCinv, mx.mmul(A2T_inv, mx.mmul(sig, A1C))), s)

    Y = mx.zeros(n, n, TElem(frame, level, []))
    term = mx.mmul(pCinv, mx.mmul(emb(mx.mmap(Gm, shift)), CT))
    for _ in range(level):
        Y = mx.madd(Y, term)
        term = psi(term)
    one = TElem.const(frame, level, 1)
    return mx.madd(mx.identity(n, one), mx.mscal(Y, TElem.v(frame, level)))


def random_solve_pair(rng, frame, d, c, terms=2):
    """(w1, w2) with A2 = A1 * (I + u^e * Z) for a random Z, so solve_iso applies."""
    w1 = random_window(rng, frame, d=d, c=c, terms=terms)
    n = d + c
    Z = mx.mat(
        [[random_series(rng, frame, terms=terms, tmax=1) for _ in range(n)] for _ in range(n)]
    )
    uZ = mx.mscal(Z, frame.u(frame.e))
    A2 = mx.mmul(w1.A, mx.madd(mx.identity(n, frame.one()), uZ))
    return w1, make_window(frame, d, c, A2)
