"""Arithmetic in T_a = S[[v]]/(pv - u^e, v^a) and the unique-lifting solver.

T_a is generated over S by v = u^e/p, so it lies in S[1/p]: an element
is one S-layout table of u-degree below a*e whose coefficient at
u^(i*e + j) carries the weight p^(-i), standing for that coefficient
times u^j v^i.  Sums are those of S.  Products are those of S but for
the wrap: u^j1 v^i1 * u^j2 v^i2 with j1 + j2 >= e is p * u^(j1+j2-e)
v^(i1+i2+1), so the pair gains p, and one _Kernel with wrap = e carries
that rule for products, dots and unit divisions.  Sigma and the
embedding of S are those of S with the weights applied.  In this ring
E = p(v + epsilon), so p and E differ by a unit, and sigma acts on v by
sigma(v) = sigma(u^e)/p = p^(p-1) v^p.

The solver takes two window matrices with A1 - A2 in u^e*S and returns
the unique X = I + vY over T_a with A2*C*X = sigma(X)*A1*C.  As v^a = 0,
Y is needed only mod v^(a-1); there it sums the iterates of Psi(Y) =
pC^(-1)*A2^(-1)*sigma(Y)*s*A1*C, s = p^(p-2) v^(p-1), on D = pC^(-1)*Z*C
up to the first zero one: Psi is linear and takes v-valuation m to at
least p*m + p - 1, so iterate k vanishes mod v^(a-1) once p^k > a - 1;
a nonzero iterate past that bound is a PrecisionError, not a hang.  No
inverse is taken: A2^(-1)*M is adj(A2)*M divided entry-wise by the unit
det(A2) (TElem.divide), and pC^(-1)*M*C is formed block by block, as
E = p(v + eps): p*M on the diagonal blocks, p*E*M on the c x d block,
and only the d x c block divided by v + eps, joined with det(A2).
"""

from __future__ import annotations

from . import matrices as mx
from .series import FrameMismatchError, PrecisionError, SeriesElem, _Elem, _Kernel
from .series import validate_frame


class HypothesisError(ValueError):
    """The two windows do not agree modulo u^e."""


def _tring(frame, level):
    """The kernel of T_level (u-cap level*e, residues mod p^N, wrap e) and
    the weights p^0 .. p^(level - 1), kept on the frame; a level with
    level*e > MAX_UCAP is refused."""
    t = frame._cache.get(("T", level))
    if t is None:
        f = frame.at_level(level)  # refuses level*e > MAX_UCAP
        ring = _Kernel(f.layout, f.p, f.D, level * f.e, f.p**f.N, wrap=f.e)
        t = frame._cache[("T", level)] = ring, [f.p**i for i in range(level)]
    return t


class TElem(_Elem):
    """Element of T_a, one packed table in the frame layout.

    T_a lies in S[1/p], generated over S by v = u^e/p.  The coefficient c
    at u-degree k = i*e + j stands for c * u^j * v^i = c * p^(-i) * u^k,
    so keys have u-degree below level*e and residues are mod p^N; coeffs
    gives one table per power of v, keyed by exponent tuples.  The ring
    is the wrap kernel of _tring: a product of packed tables is the S
    product in which a pair whose u-degrees mod e reach e gains p.
    """

    __slots__ = ("frame", "level", "packed")

    def __init__(self, frame, level, coeffs):
        """Element from v-coefficient tables keyed by exponent tuples.

        Keys that do not fit the frame layout are refused; terms past the
        caps are dropped, u^e becomes p*v and residues are taken mod p^N.
        """
        ring, pw = _tring(frame, level)
        e, um = frame.e, frame.layout.umask
        tbl = {}
        # tables from v^level on vanish; shifted, their keys could leave the u-field
        for i, t in zip(range(level), coeffs):
            for k, c in ring.pack(t).items():  # c*u^k*v^i has c*p^(k//e) at u^(k + i*e)
                tbl[k + i * e] = tbl.get(k + i * e, 0) + c * pw[(k & um) // e]
        self.frame = frame
        self.level = level
        self.packed = ring.clip(tbl)

    @classmethod
    def _of(cls, frame, level, packed):
        """Element from a canonical packed table, taken as it is."""
        self = cls.__new__(cls)
        self.frame = frame
        self.level = level
        self.packed = packed
        return self

    def _ring(self):
        return _tring(self.frame, self.level)[0]

    def _wrap(self, packed):
        return TElem._of(self.frame, self.level, packed)

    def _key(self):
        return self.level, self.frame

    def _vparts(self):
        """One packed table per power of v: the v^i coefficient at its u-degrees."""
        um, e = self.frame.layout.umask, self.frame.e
        out = [{} for _ in range(self.level)]
        for k, c in self.packed.items():
            i = (k & um) // e
            out[i][k - i * e] = c
        return out

    @property
    def coeffs(self):
        return tuple(map(self.frame.layout.unpack_table, self._vparts()))

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, frame, level, n):
        return cls._of(frame, level, _tring(frame, level)[0].const(n))

    @classmethod
    def v(cls, frame, level, power=1):
        _tring(frame, level)  # refuses level*e > MAX_UCAP
        if power < 0:
            raise ValueError("negative power of v")
        return cls._of(frame, level, {power * frame.e: 1} if power < level else {})

    @classmethod
    def embed(cls, x, level):
        """Canonical image of a series-ring element: the coefficient at
        u^k takes the weight p^(k//e), and u^k vanishes from k = level*e on."""
        if not isinstance(x, SeriesElem) or x.tag != "S":
            raise ValueError("embedding is defined on series-ring elements")
        frame = x.frame
        if frame.a < level:
            raise ValueError("series level too low for the requested v-level")
        ring, pw = _tring(frame, level)
        e, um, ucap = frame.e, frame.layout.umask, ring.ucap
        return cls._of(
            frame,
            level,
            ring.norm({k: c * pw[(k & um) // e] for k, c in x.packed.items() if k & um < ucap}),
        )

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        return self._wrap(self._ring().add(self.packed, other.packed))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(self._ring().neg(self.packed))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self._ring().scal(self.packed, other))
        return self._dot(((self, self._lift(other)),))

    __rmul__ = __mul__

    def invert(self):
        return self.one().divide(self)

    def divide(self, d):
        """q with q*d == self for a unit d; a pair of terms wrapping past u^e gains p."""
        return self._wrap(self._ring().divide(self.packed, self._lift(d).packed))

    def sigma(self):
        """sigma on coefficients plus v -> p^(p-1) v^p: the S-ring sigma
        u^k -> u^(pk), reweighted from p^(-k//e) to p^(-pk//e)."""
        ring, pw = _tring(self.frame, self.level)
        e, um = self.frame.e, self.frame.layout.umask
        pe = self.frame.p * e
        out = ring.sigma(self.packed)
        return self._wrap(
            ring.norm({k: c * pw[(k & um) // e - (k & um) // pe] for k, c in out.items()})
        )

    def series_preimage(self):
        """A series-ring preimage under the canonical embedding, or None.

        The coefficient at u^k must be divisible by p^(k//e); the
        preimage holds the quotient at u^k.
        """
        frame = self.frame
        if frame.a < self.level:
            raise ValueError("series level too low to host a preimage")
        e, um = frame.e, frame.layout.umask
        pw = _tring(frame, self.level)[1]
        w = {k: pw[(k & um) // e] for k in self.packed}
        if any(c % w[k] for k, c in self.packed.items()):
            return None
        return SeriesElem(frame, "S", {k: c // w[k] for k, c in self.packed.items()})

    def __str__(self):
        from .blocks import render_table

        terms = []
        for i, ci in enumerate(self._vparts()):
            if not ci:
                continue
            body = render_table(ci, self.frame.layout)
            if i == 0:
                terms.append(body)
            else:
                vpart = "v" if i == 1 else "v^%d" % i
                terms.append(vpart if body == "1" else "(%s)*%s" % (body, vpart))
        return " + ".join(terms) if terms else "0"


def t_add(x, y):
    return x + y


def t_mul(x, y):
    return x * y


def t_sigma(x):
    return x.sigma()


def base_change_T(w, level=None):
    """Entry-wise canonical image of a window over T_level."""
    level = w.level if level is None else level
    A = mx.mmap(w.A, lambda x: TElem.embed(x, level))
    tw = TWindow(w.frame, level, w.d, w.c, A)
    if not mx.det_is_unit(tw.A, w.frame.p):
        raise ValueError("base change lost invertibility; invalid window")
    return tw


class TWindow:
    def __init__(self, frame, level, d, c, A):
        self.frame = frame
        self.level = level
        self.d = d
        self.c = c
        self.A = mx.mat(A)

    @property
    def height(self):
        return self.d + self.c


def solve_iso(w1, w2, level=None):
    """Unique X in GL(T_level) with A2*C*X = sigma(X)*A1*C and X = I mod v.

    The windows must share a valid frame and their shape, and A1 - A2 must lie
    in u^e*S (A2 is invertible: A2^(-1)*A1 = I + u^e*Z), checked before any
    inverse.  T_level -> T_lv, lv = max(level - 1, 1), is a ring map commuting
    with sigma and vY needs Y only mod v^lv, so adj(A2), det(A2), Z and the
    Psi sum run at lv (A2^(-1)*M is adj*M divided by det; of pC^(-1)*M*C only the
    d x c block divides, by v + eps) and vY is a u-shift by e.  The full-level
    residual of X must be zero.  Rows i < d of X are fixed only mod p^(N-1):
    E*p^(N-1) = 0 in T.  eps is known only mod p^(N-1), but p*eps = E - u^e mod
    p^N whatever its top digit, so E = p(v + eps) holds exactly in T.
    """
    if w1.frame != w2.frame:
        raise FrameMismatchError("windows over different frames")
    if (w1.d, w1.c) != (w2.d, w2.c):
        raise ValueError("windows of different shape")
    frame = w1.frame
    if errors := validate_frame(frame):
        raise ValueError("invalid frame: " + "; ".join(errors))
    level = frame.a if level is None else level
    if level > frame.a:
        raise ValueError("v-level exceeds the frame truncation level")
    if level < 1:
        raise ValueError("v-level must be at least 1")
    d, c = w1.d, w1.c
    n = d + c
    lv = max(level - 1, 1)
    low = frame.at_level(lv)
    clip = lambda M: mx.mmap(M, lambda x: x.at_level(lv))
    emb = lambda M: mx.mmap(M, lambda x: TElem.embed(x, lv))

    shift = lambda x: SeriesElem(frame, "S", frame.ring("S").shift_u(x.packed, -frame.e))
    try:
        W = clip(mx.mmap(mx.msub(w1.A, w2.A), shift))
    except ValueError:
        raise HypothesisError("A2^(-1)*A1 is not congruent to I modulo u^e") from None

    # adj(A2) into each product first, then n^2 unit divisions by det(A2).  E = p(v+eps)
    # in T, so pC^(-1)*M*C is p*M on the diagonal blocks, p*E*M on the c x d block and
    # M/(v+eps) on the d x c block.  D divides by det over S first; Psi divides the d x c
    # block by det*(v+eps) (dc) and the others by det (dd)
    adj = mx.adjugate(A2 := clip(w2.A))
    det = mx.dot(A2[0], [row[0] for row in adj])
    veps = TElem.v(low, lv) + TElem.embed(low.epsilon, lv)
    adjT, detT, A1 = emb(adj), TElem.embed(det, lv), emb(clip(w1.A))
    pE, dveps = TElem.embed(low.E, lv) * frame.p, detT * veps
    by = lambda x, i, j: x * (pE if j < d <= i else frame.p)  # every block but d x c
    pcmc = lambda M, dc, dd=None: tuple(
        tuple(
            x.divide(dc) if i < d <= j else by(x, i, j) if dd is None else by(x, i, j).divide(dd)
            for j, x in enumerate(row)
        )
        for i, row in enumerate(M)
    )

    D = pcmc(emb(mx.mmap(mx.mmul(adj, W), lambda x: x.divide(det))), veps)
    # v * u^(e(p-2)) = p^(p-2) * v^(p-1); on sigma(Y) first, whose terms then sit at
    # u-degree (p-1)e or more, so the u-cap ends their rows against A1 early
    s = TElem.v(low, lv, frame.p - 1) * pow(frame.p, frame.p - 2, frame.p**frame.N)
    sY = lambda Y: mx.mmap(Y, lambda x: x.sigma() * s)
    psi = lambda Y: pcmc(mx.mmul(adjT, mx.mmul(sY(Y), A1)), dveps, detT)

    # iterate k has v-valuation >= p^k - 1, so it vanishes mod v^lv once p^k > lv
    Y, term, k = D, psi(D), 1
    while not mx.is_zero(term):
        if frame.p**k > lv:
            raise PrecisionError("Psi iterate %d is nonzero past its valuation bound" % k)
        Y, term, k = mx.madd(Y, term), psi(term), k + 1

    ring = _tring(frame, level)[0]
    vY = mx.mmap(Y, lambda y: TElem._of(frame, level, ring.clip(ring.shift_u(y.packed, frame.e))))
    X = mx.madd(mx.identity(n, TElem.const(frame, level, 1)), vY)

    # X = I mod v by construction: every key of vY is a u-shift by e
    if not mx.is_zero(residual(w1, w2, X, level)):
        raise PrecisionError("solver residual is nonzero")
    return X


def residual(w1, w2, X, level):
    """A2*C*X - sigma(X)*A1*C over T_level (zero for solver output)."""
    frame = w1.frame
    emb = lambda M: mx.mmap(M, lambda x: TElem.embed(x, level))
    C = [TElem.embed(frame.E, level)] * w1.d + [None] * w1.c  # C = blockdiag(E I_d, I_c)
    lhs = mx.mmul(emb(w2.A), mx.rscale(C, X))
    rhs = mx.mmul(mx.mmap(X, lambda x: x.sigma()), mx.cscale(emb(w1.A), C))
    return mx.msub(lhs, rhs)


def nu(a, p):
    """min over n >= a of ord_p(p^n / n!) = (n(p-2) + s_p(n))/(p-1) (Legendre; s_p
    the base-p digit sum), taken at a or at a rounded up to a multiple of p^j,
    p^(j-1) <= a: past a, the digit sum drops only where n reaches such a multiple."""
    if a < 1 or p < 2:
        raise ValueError("nu needs a >= 1 and p >= 2")
    best, q = a, 1  # the value at n = a is at most a; q = 1 gives n = a
    while q <= p * a:
        n = m = -(-a // q) * q
        s = 0
        while m:
            m, s = m // p, s + m % p
        best, q = min(best, (n * (p - 2) + s) // (p - 1)), q * p
    return best
