"""Arithmetic in T_a = S[[v]]/(pv - u^e, v^a) and the unique-lifting solver.

Canonical form keeps the u-degree of every v-coefficient below e; any
u^e produced by multiplication is rewritten as p*v immediately.  In
this ring E = p(v + epsilon), so p and E differ by a unit, and sigma
acts on v by sigma(v) = p^(p-1) v^p.

The solver takes two window matrices with A1 - A2 in u^e*S and returns
the unique X = I + vY over T_a with A2*C*X = sigma(X)*A1*C.  As v^a = 0,
Y is needed only mod v^(a-1); there it sums the iterates of Psi(Y) =
pC^(-1)*A2^(-1)*sigma(Y)*s*A1*C, s = p^(p-2) v^(p-1), on D = pC^(-1)*Z*C
up to the first zero one: Psi is linear and multiplies by v^(p-1).
"""

from __future__ import annotations

from . import matrices as mx
from .series import FrameMismatchError, PrecisionError, SeriesElem, newton_inverse, validate_frame


class HypothesisError(ValueError):
    """The two windows do not agree modulo u^e."""


class TElem:
    """Element of T_a in canonical form: a vector of v-coefficient bands.

    bands[i] is the packed table (frame layout) of the v^i coefficient,
    with u-degree < e and residues mod p^N; coeffs is the same vector
    keyed by exponent tuples.  The bands use the frame's S-ring kernel
    for the coefficient-wise operations.
    """

    __slots__ = ("frame", "level", "bands")

    def __init__(self, frame, level, coeffs):
        """Element from v-coefficient tables keyed by exponent tuples.

        Keys that do not fit the frame layout are refused; terms past the
        caps are dropped, u^e becomes p*v and residues are taken mod p^N.
        """
        ring = frame.ring("S")
        self.frame = frame
        self.level = level
        self.bands = tuple(ring.to_bands([ring.pack(t) for t in coeffs], level))

    @classmethod
    def _from_bands(cls, frame, level, bands):
        """Element from canonical packed bands, taken as they are."""
        self = cls.__new__(cls)
        bands = tuple(bands)[:level]
        self.frame = frame
        self.level = level
        self.bands = bands + ({},) * (level - len(bands))
        return self

    @property
    def coeffs(self):
        unpack = self.frame.layout.unpack_table
        return tuple(unpack(t) for t in self.bands)

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, frame, level, n):
        return cls._from_bands(frame, level, [frame.ring("S").const(n)])

    @classmethod
    def v(cls, frame, level, power=1):
        if power >= level:
            return cls._from_bands(frame, level, [])
        return cls._from_bands(frame, level, [{}] * power + [{0: 1}])

    @classmethod
    def embed(cls, x, level):
        """Canonical image of a series-ring element (u^e goes to p*v)."""
        if not isinstance(x, SeriesElem) or x.tag != "S":
            raise ValueError("embedding is defined on series-ring elements")
        frame = x.frame
        if frame.a < level:
            raise ValueError("series level too low for the requested v-level")
        return cls._from_bands(frame, level, frame.ring("S").to_bands([x.packed], level))

    def zero(self):
        return TElem._from_bands(self.frame, self.level, [])

    def one(self):
        return TElem.const(self.frame, self.level, 1)

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if (self.level, self.frame) != (other.level, other.frame):  # tuples test identity first
            raise FrameMismatchError("T-ring operands differ in frame or level")

    def __add__(self, other):
        if isinstance(other, int):
            other = TElem.const(self.frame, self.level, other)
        self._check(other)
        ring = self.frame.ring("S")
        return TElem._from_bands(
            self.frame,
            self.level,
            [ring.add(a, b) for a, b in zip(self.bands, other.bands)],
        )

    __radd__ = __add__

    def __neg__(self):
        ring = self.frame.ring("S")
        return TElem._from_bands(self.frame, self.level, [ring.neg(t) for t in self.bands])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring = self.frame.ring("S")
        if isinstance(other, int):
            bands = [ring.scal(t, other) for t in self.bands]
            return TElem._from_bands(self.frame, self.level, bands)
        self._check(other)
        return TElem._from_bands(self.frame, self.level, ring.band_mul(self.bands, other.bands))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TElem):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.level == other.level
            and self.bands == other.bands
        )

    __hash__ = None

    def is_zero(self):
        return all(not t for t in self.bands)

    def constant_term(self):
        if not self.bands:
            return 0
        return self.bands[0].get(0, 0)

    def is_unit(self):
        return self.constant_term() % self.frame.p != 0

    def invert(self):
        return newton_inverse(self)

    def sigma(self):
        """sigma on coefficients plus v -> p^(p-1) v^p."""
        bands = self.frame.ring("S").band_sigma(self.bands)
        return TElem._from_bands(self.frame, self.level, bands)

    def series_preimage(self):
        """A series-ring preimage under the canonical embedding, or None.

        The v^i coefficient must be divisible by p^i; the preimage then
        replaces p^i v^i by u^(i*e).
        """
        frame = self.frame
        if frame.a < self.level:
            raise ValueError("series level too low to host a preimage")
        ring = frame.ring("S")
        tbl = {}
        for i, band in enumerate(self.bands):
            try:
                tbl.update(ring.shift_u(ring.div_exact_ppow(band, i), i * frame.e))
            except PrecisionError:
                return None
        cand = SeriesElem(frame, "S", tbl)
        if TElem.embed(cand, self.level) != self:
            return None
        return cand

    def __str__(self):
        from .blocks import render_table

        terms = []
        for i, ci in enumerate(self.coeffs):
            if not ci:
                continue
            body = render_table(ci, self.frame.r)
            if i == 0:
                terms.append(body)
            else:
                vpart = "v" if i == 1 else "v^%d" % i
                terms.append(vpart if body == "1" else "(%s)*%s" % (body, vpart))
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return "TElem(%s)" % self


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


def _c_matrix(frame, level, d, c):
    return mx.diag([TElem.embed(frame.E, level)] * d + [TElem.const(frame, level, 1)] * c)


def _pc_inverse(frame, level, d, c):
    """p*C^(-1) = blockdiag((v+eps)^(-1) I_d, p I_c); E = p(v+eps)."""
    veps = TElem.v(frame, level) + TElem.embed(frame.epsilon, level)
    return mx.diag([veps.invert()] * d + [TElem.const(frame, level, frame.p)] * c)


def solve_iso(w1, w2, level=None):
    """Unique X in GL(T_level) with A2*C*X = sigma(X)*A1*C and X = I mod v.

    The windows must share a valid frame and their shape, and A1 - A2 must lie
    in u^e*S (A2 is invertible: A2^(-1)*A1 = I + u^e*Z), checked before any
    inverse.  T_level -> T_lv, lv = max(level - 1, 1), is a ring map commuting
    with sigma and vY needs Y only mod v^lv, so A2^(-1), Z and the Psi sum run
    at lv and vY is a band shift.  The full-level residual of X must be zero.
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

    A2_inv = mx.inv(clip(w2.A))
    CT = _c_matrix(low, lv, d, c)
    pCinv = _pc_inverse(low, lv, d, c)
    # formed once; embedding is a ring map, so it carries A2^(-1) to T
    A1C = mx.mmul(emb(clip(w1.A)), CT)
    PA = mx.mmul(pCinv, emb(A2_inv))

    D = mx.mmul(pCinv, mx.mmul(emb(mx.mmul(A2_inv, W)), CT))
    # v * u^(e(p-2)) = p^(p-2) * v^(p-1); on sigma(Y) first, band_mul skips its empty low bands
    s = TElem.v(low, lv, frame.p - 1) * (frame.p ** (frame.p - 2))
    psi = lambda Y: mx.mmul(PA, mx.mmul(mx.mmap(Y, lambda x: x.sigma() * s), A1C))

    Y, term = D, psi(D)
    while not mx.is_zero(term):
        Y, term = mx.madd(Y, term), psi(term)

    vY = mx.mmap(Y, lambda y: TElem._from_bands(frame, level, ({},) + y.bands))
    X = mx.madd(mx.identity(n, TElem.const(frame, level, 1)), vY)

    if not mx.is_zero(residual(w1, w2, X, level)):
        raise PrecisionError("solver residual is nonzero")
    for i in range(n):
        for j in range(n):
            lead = X[i][j].bands[0]
            expect = {0: 1} if i == j else {}
            if lead != expect:
                raise PrecisionError("X is not congruent to I modulo v")
    return X


def residual(w1, w2, X, level):
    """A2*C*X - sigma(X)*A1*C over T_level (zero for solver output)."""
    frame = w1.frame
    emb = lambda M: mx.mmap(M, lambda x: TElem.embed(x, level))
    CT = _c_matrix(frame, level, w1.d, w1.c)
    lhs = mx.mmul(emb(w2.A), mx.mmul(CT, X))
    rhs = mx.mmul(mx.mmap(X, lambda x: x.sigma()), mx.mmul(emb(w1.A), CT))
    return mx.msub(lhs, rhs)


def _vp_factorial(n, p):
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def nu(a, p):
    """min over n >= a of ord_p(p^n / n!), scanned on a provably
    sufficient window (the summand grows at least linearly past it)."""
    if a < 1:
        raise ValueError("nu needs a >= 1")
    n_max = max(a, (p - 1) * (a + 2))
    return min(n - _vp_factorial(n, p) for n in range(a, n_max + 1))
