"""Exact arithmetic in truncated power-series frames.

The ambient ring is a truncation of W(k)[[t_1..t_r, u]] for k = F_p:
coefficients live mod p^N, total t-degree is capped at D, and u-degree
at a*e.  That ring is tagged "S".  Reducing modulo the distinguished
u-monic polynomial E gives the quotient tagged "R", whose canonical
form has u-degree < e and coefficients mod p^min(a, N).

The three caps of S are honest ring quotients (the span of monomials
beyond a cap is an ideal), so every operation here is exact ring
arithmetic.  In R, u-degree < e is not a cap but the canonical form
reached by division by E, so tables enter R through reduce_mod_E.
The Frobenius lift sigma maps the cap ideal into itself and therefore
descends to the truncation; recovering the untruncated value of
sigma(x) additionally needs t-degree(x) <= D/p (the caller's budget).

Internally a table maps packed monomials to integer residues.  The
monomial t1^a1 .. tr^ar u^j is one int with the bit fields
[total t-degree | t1 .. tr | u], u lowest, so 1 packs to 0 and u^j to
j.  The layout depends only on r and D: each t-field holds 2*D and the
u-field holds 2*MAX_UCAP - 1, so the product of two monomials inside
the caps is one integer add that never carries between fields, the
t-cap is one compare (the total degree is the top field) and the u-cap
one mask and one compare.  Every ring of a frame (S, R, boosted, and
the T-ring of tframe, whose products gain p where u-degrees wrap past
e) shares the layout, and the layout does not depend on the level, so
moving a table between rings never repacks.
Tables keyed by exponent tuples (alpha_1, .., alpha_r, j) remain the
outside view: Frame.elem and the TElem constructor take them,
SeriesElem.coeffs, TElem.coeffs and parse_poly return them.  The
renderer reads packed keys, whose order below the total t-degree is
that of the tuples.

Every ring multiplies by one banded pair loop (_Kernel.umul) and squares
by its unordered pairs (_Kernel.sqr); a sum of products (_Kernel.dot)
runs that loop into one table and reduces it once.  Series tables enter
R through the u^e folds of _pi_sigma, which also give the Witt layer
its ghosts.

Values are immutable after construction and all operations are pure,
so elements and frames are safe to share between threads.  Frames are
shared values, one per field tuple in a bounded table (see Frame).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

# Hard ceiling on a*e so level changes (lifting, rigidity at level a*p)
# cannot silently explode table sizes; it also sizes the packed u-field.
MAX_UCAP = 4096

# Field width of uncapped layouts (the parser of exact polynomials).
_WIDE = 32

# Most term pairs one uncapped product may form.  Far above what any real
# E needs, it bounds the time of each product in the exact parse of E.
_PAIRS = 1 << 21

# Most bits (the exponent times the coefficient's bit length) an uncapped
# one-term power may form, as 2^n or (2*u)^n in E: _PAIRS does not see them.
_BITS = 1 << 16

# Miller-Rabin to the prime bases up to 37 decides primality below this
# bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015); validate_frame refuses p from it on.
MAX_PRIME = 318665857834031151167461


class PrecisionError(ArithmeticError):
    """An exact division failed; divisibility was guaranteed by theory."""


class FrameMismatchError(ValueError):
    """Operands belong to different frames, levels or ring tags."""


class _Layout:
    """Bit fields [total t-degree | t1 .. tr | u] of a packed monomial.

    With a cap D every t-field holds 2*D and the u-field 2*MAX_UCAP - 1,
    the largest exponents a product of two capped monomials can form.
    Without one (D is None) fields are _WIDE bits wide and the rings
    refuse a product that could overflow them.
    """

    __slots__ = ("r", "tw", "uw", "ts", "tmax", "umask")

    def __init__(self, r, D):
        if D is None:
            self.tw = self.uw = _WIDE
        else:
            self.tw = max(2 * D, 1).bit_length()
            self.uw = (2 * MAX_UCAP - 1).bit_length()
        self.r = r
        self.ts = self.uw + r * self.tw  # shift of the total-degree field
        self.tmax = (1 << self.tw) - 1
        self.umask = (1 << self.uw) - 1

    def pack(self, key):
        """Packed form of an exponent tuple; refuses what does not fit."""
        if len(key) != self.r + 1:
            raise ValueError("monomial %r does not have r + 1 = %d exponents" % (key, self.r + 1))
        tw = self.tw
        k = tot = 0
        for x in key[:-1]:
            if x < 0:
                raise OverflowError("negative exponent in monomial %r" % (key,))
            k = (k << tw) | x
            tot += x
        u = key[-1]
        if tot > self.tmax or not 0 <= u <= self.umask:
            raise OverflowError("monomial %r does not fit the packed fields" % (key,))
        return (((tot << (self.r * tw)) | k) << self.uw) | u

    def unpack(self, k):
        u = k & self.umask
        k >>= self.uw
        ts = []
        for _ in range(self.r):
            ts.append(k & self.tmax)
            k >>= self.tw
        return tuple(reversed(ts)) + (u,)

    def unpack_table(self, tbl):
        return {self.unpack(k): c for k, c in tbl.items()}


class _Kernel:
    """Packed-table arithmetic for one truncated ring.

    Tables map packed monomials to integer residues and are never
    mutated.  pmod is the coefficient modulus (None means exact
    integers); tdeg and ucap are the t- and u-caps (None: none, the
    field width then bounds exponents and overflow is refused).  When
    tail (E - u^e as packed pairs) is set the ring is the E-quotient:
    u-degree is kept below e by long division after every product.  When
    wrap is set (e, in the T ring of tframe) a pair of terms whose
    u-degrees mod wrap sum to wrap or more gains the factor p.

    There is one product loop, umul, which every ring shares.  It splits
    the inner operand into u-bands, each sorted by packed key, so for a
    term of the outer one the u-cap ends its row of bands and the t-cap
    ends each band: only pairs inside both caps are formed.  dot runs umul
    on each pair into one table, then normalizes it, or divides it by E
    in the quotient ring, once; mul is dot of one pair.  sqr is the same
    loop over the unordered pairs of one table, which pow uses (a wrap
    kernel squares by mul).  divide forms a quotient by a unit term by
    term in rising key, without inverses.
    """

    __slots__ = ("p", "layout", "tdeg", "ucap", "pmod", "e", "tail", "wrap", "tbound", "ulim")

    def __init__(self, layout, p, tdeg, ucap, pmod, e=None, tail=None, wrap=None):
        self.p = p
        self.layout = layout
        self.tdeg = tdeg
        self.ucap = layout.umask + 1 if ucap is None else ucap
        self.pmod = pmod
        self.e = e
        self.tail = tail
        self.wrap = wrap
        # packed keys at or above tbound have total t-degree > the cap
        self.tbound = ((layout.tmax if tdeg is None else tdeg) + 1) << layout.ts
        # the u-cap applied inside products; the E-quotient divides instead
        self.ulim = layout.umask + 1 if tail is not None else self.ucap

    # -- basic table plumbing ------------------------------------------

    def norm(self, tbl):
        if self.pmod is None:
            return {k: c for k, c in tbl.items() if c}
        m = self.pmod
        return {k: cm for k, c in tbl.items() if (cm := c % m)}

    def clip(self, tbl):
        """Normalized image of a packed table under the caps."""
        tb, um, ucap = self.tbound, self.layout.umask, self.ucap
        return self.norm({k: c for k, c in tbl.items() if k < tb and k & um < ucap})

    def pack(self, table):
        """Normalized packed image of a table keyed by exponent tuples."""
        lay, ucap = self.layout, self.ucap
        tdeg = lay.tmax if self.tdeg is None else self.tdeg
        return self.norm(
            {lay.pack(k): c for k, c in table.items() if k[-1] < ucap and sum(k[:-1]) <= tdeg}
        )

    def const(self, n):
        return self.clip({0: n})

    def zero(self):
        return {}

    def one(self):
        return self.const(1)

    def add(self, f, g):
        out = dict(f)
        for k, c in g.items():
            out[k] = out.get(k, 0) + c
        return self.norm(out)

    def neg(self, f):
        return self.norm({k: -c for k, c in f.items()})

    def sub(self, f, g):
        out = dict(f)
        for k, c in g.items():
            out[k] = out.get(k, 0) - c
        return self.norm(out)

    def scal(self, f, n):
        return self.norm({k: c * n for k, c in f.items()})

    def _room(self, f, g):
        """Refuse a product of uncapped tables that could overflow a field
        or would form more than _PAIRS term pairs."""
        if len(f) * len(g) > _PAIRS:
            raise OverflowError("product exceeds %d term pairs" % _PAIRS)
        if f and g:
            lay = self.layout
            um, ts = lay.umask, lay.ts
            top_t = (max(f) >> ts) + (max(g) >> ts)
            top_u = max(k & um for k in f) + max(k & um for k in g)
            if top_t > lay.tmax or top_u > um:
                raise OverflowError("product exceeds the packed exponent fields")

    def mul(self, f, g):
        """Product under the caps, E-reduced in the quotient ring: dot of one pair."""
        return self.dot(((f, g),))

    def dot(self, pairs):
        """Sum of the products of the (f, g) pairs under the caps, E-reduced
        in the quotient ring.  Each pair with no empty table goes through
        umul, the shorter table outer, into one table of exact
        coefficients, which is normalized or divided by E once.  Uncapped
        kernels check each pair with _room."""
        out = {}
        for f, g in pairs:
            if not f or not g:
                continue
            if len(f) > len(g):
                f, g = g, f
            if self.tdeg is None:
                self._room(f, g)
            self.umul(f, g, None, out)
        return self._canon(out)

    def _canon(self, out):  # normalized, E-reduced in the quotient ring
        if self.tail is None:
            return self.norm(out)
        return self.divmod_u_monic(out, self.tail, self.e)[1]

    def bands(self, g):
        """g as (u-degree, [(key, coeff) sorted by key]) in rising u-degree."""
        um = self.layout.umask
        bands = {}
        for k in sorted(g):
            band = bands.get(k & um)
            if band is None:
                bands[k & um] = [(k, g[k])]
            else:
                band.append((k, g[k]))
        return sorted(bands.items())

    def umul(self, f, g, gb, out):
        """Add the product of f by the inner operand g under the caps (only
        the t-cap in the quotient ring, which divides instead) into the
        table out, with exact coefficients, neither reduced nor normalized;
        gb is bands(g) or None.

        For a term k1 of f the bands of g end at the u-cap minus the
        u-degree of k1, and a band ends at its first k2 >= tbound - k1,
        where the product leaves the t-cap (the top field).  On a wrap
        kernel a band whose u-degree mod wrap meets that of k1 at wrap or
        more takes c1*p.  Without wrap an f of at most two terms tests both
        caps on g unsorted: banding costs more.
        """
        tb, um, ul, w, p = self.tbound, self.layout.umask, self.ulim, self.wrap, self.p
        get = out.get
        if len(f) <= 2 and w is None:
            for k1, c1 in f.items():
                lim, ulk = tb - k1, ul - (k1 & um)
                for k2, c2 in g.items():
                    if k2 < lim and k2 & um < ulk:
                        k = k1 + k2
                        out[k] = get(k, 0) + c1 * c2
            return
        if gb is None:
            gb = self.bands(g)
        for k1, c1 in f.items():
            lim, ulk, rw = tb - k1, ul - (k1 & um), w and w - (k1 & um) % w
            for u, band in gb:
                if u >= ulk:
                    break
                c = c1 * p if w and u % w >= rw else c1
                for k2, c2 in band:
                    if k2 >= lim:
                        break
                    k = k1 + k2
                    out[k] = get(k, 0) + c * c2

    def sqr(self, f):
        """mul(f, f), forming each unordered pair of terms once: a term
        pairs with itself, the later terms of its band and the bands above
        it up to the u-cap, and each band ends at the t-cap.  Uncapped and
        wrap kernels and tables of at most two terms go through mul."""
        if len(f) <= 2 or self.tdeg is None or self.wrap:
            return self.mul(f, f)
        tb, ul = self.tbound, self.ulim
        fb = self.bands(f)
        out = {}
        get = out.get
        for i, (u1, band1) in enumerate(fb):
            ulk = ul - u1
            if u1 >= ulk:
                break  # every pair from here on has u-degree >= 2*u1
            above = [band for u2, band in fb[i + 1 :] if u2 < ulk]
            for j, (k1, c1) in enumerate(band1, 1):
                lim, c2x = tb - k1, 2 * c1  # cross terms count twice
                if k1 < lim:
                    out[2 * k1] = get(2 * k1, 0) + c1 * c1
                for band in (band1[j:], *above):
                    for k2, c2 in band:
                        if k2 >= lim:
                            break
                        k = k1 + k2
                        out[k] = get(k, 0) + c2x * c2
        return self._canon(out)

    def pow(self, f, n):
        """f^n for a canonical f: start at f, square by sqr (the _pi_sigma folds use mul).

        Without tail and wrap a one-term f = c*m is c^n*m^n in one step,
        the key times n as in sigma; uncapped, a power that leaves the
        packed fields or passes _BITS coefficient bits is refused.
        """
        if n < 0:
            raise ValueError("negative exponent %d" % n)
        if len(f) == 1 and n and self.tail is None and self.wrap is None:
            ((k, c),) = f.items()
            ts, um = self.layout.ts, self.layout.umask
            if self.tdeg is None:
                if (k >> ts) * n > self.layout.tmax or (k & um) * n > um:
                    raise OverflowError("power exceeds the packed exponent fields")
                if abs(c) > 1 and abs(c).bit_length() * n > _BITS:
                    raise OverflowError("power exceeds %d coefficient bits" % _BITS)
            elif (k >> ts) * n > self.tdeg or (k & um) * n >= self.ucap:
                return {}
            return self.norm({k * n: c**n if self.pmod is None else pow(c, n, self.pmod)})
        result = None
        while n:
            if n & 1:
                result = f if result is None else self.mul(result, f)
            n >>= 1
            f = self.sqr(f) if n else f
        return self.one() if result is None else result

    def sigma(self, f):
        """Frobenius lift: coefficients fixed, monomials raised to the p-th power.

        Raising to the p-th power multiplies every field by p, so a key
        whose total t-degree and u-degree stay under the caps maps to
        k*p without carries; the others vanish in the truncation.
        """
        p, ts, um, ucap = self.p, self.layout.ts, self.layout.umask, self.ucap
        tdeg = self.layout.tmax if self.tdeg is None else self.tdeg
        out = {k * p: c for k, c in f.items() if (k >> ts) * p <= tdeg and (k & um) * p < ucap}
        if self.tdeg is None and len(out) < len(f):
            raise OverflowError("sigma exceeds the packed exponent fields")
        return out

    def divmod_u_monic(self, f, tail, e):
        """Long division by the u-monic E = u^e + tail, tail of u-degree < e.

        Returns (q, rem) with f = q*E + rem inside the capped ring and
        u-degree(rem) < e; q comes out normalized.  Caps are applied to
        every intermediate product, which keeps the identity valid in the
        quotient.  From the top down each u-band j >= e goes into q and,
        times each tail term of u-degree j', into band j - e + j'.  It
        ends R products and divide_by_E; reduce_mod_E uses _pi_sigma.
        """
        um, tb, m = self.layout.umask, self.tbound, self.pmod
        bands, rem = {}, {}
        for k, c in f.items():
            j = k & um
            if j < e:
                rem[k] = c
            elif j in bands:
                bands[j][k] = c
            else:
                bands[j] = {k: c}
        q = {}
        for j in range(max(bands, default=0), e - 1, -1):
            band = bands.pop(j, None)
            if not band:
                continue
            rows = []
            for k, c in band.items():
                if m is not None:
                    c %= m
                if c:
                    q[k - e] = c
                    rows.append((k - e, c))
            # only the t-cap applies here, u-degrees keep shrinking
            for ek, ec in tail:
                jt = j - e + (ek & um)
                tgt = rem if jt < e else bands.setdefault(jt, {})
                tget = tgt.get
                for qk, c in rows:
                    key = qk + ek
                    if key < tb:
                        tgt[key] = tget(key, 0) - c * ec
        return q, self.norm(rem)

    def shift_u(self, f, d):
        """f * u^d; a negative d needs every u-degree to be at least -d."""
        um = self.layout.umask
        us = [k & um for k in f]
        if us and (min(us) + d < 0 or max(us) + d > um):
            raise ValueError("u-shift by %d leaves the u-field" % d)
        return {k + d: c for k, c in f.items()}

    def divide(self, f, g):
        """q with q*g = f for a unit g, in rising packed key: keys add under
        products, so q_k = (f_k - sum q_k1*g_k2 over k1 + k2 = k, k2 > 0)/g_0
        needs only smaller keys, taken from a heap of pending ones.  Pairs are
        kept inside both caps, and a pair that wraps gains p as in umul."""
        from heapq import heappop, heappush  # not on the import path of every command

        p, m, tb, um, ul = self.p, self.pmod, self.tbound, self.layout.umask, self.ulim
        if g.get(0, 0) % p == 0:
            raise ZeroDivisionError("not a unit: constant term divisible by p")
        inv, gb, w = pow(g[0], -1, m), self.bands({k: c for k, c in g.items() if k}), self.wrap
        acc, q, heap = dict(f), {}, sorted(f)
        while heap:
            k1 = heappop(heap)
            if not (c1 := acc.pop(k1) * inv % m):
                continue
            q[k1] = c1
            lim, u1 = tb - k1, k1 & um
            for u2, band in gb:
                if u2 >= ul - u1:
                    break
                cn = -c1 * p if w and u1 % w + u2 % w >= w else -c1
                for k2, c2 in band:
                    if k2 >= lim:
                        break
                    if (k := k1 + k2) not in acc:
                        acc[k] = 0
                        heappush(heap, k)
                    acc[k] += cn * c2
        return q

    def div_exact_ppow(self, f, k):
        """Divide by p^k; every coefficient must be divisible.

        With a finite modulus p^W the quotient is canonical mod p^(W-k);
        callers that chain divisions track the degraded precision.
        """
        if k == 0:
            return dict(f)
        q = self.p**k
        m = None if self.pmod is None else self.pmod // q
        out = {}
        for key, c in f.items():
            if c % q:
                raise PrecisionError("coefficient not divisible by p^%d" % k)
            cq = c // q if m is None else (c // q) % m
            if cq:
                out[key] = cq
        return out


_FIELDS = ("p", "r", "e", "a", "N", "D", "L", "E_items")


@lru_cache(maxsize=64)
def _frame(cls, key):
    """The one frame of cls with these field values; a refusal is not cached."""
    if max(key[3], 1) * key[2] > MAX_UCAP:
        raise ValueError("a*e exceeds the configured u-cap")
    frame = object.__new__(cls)
    frame.__dict__.update(zip(_FIELDS, key), _key=key, _cache={})
    return frame


@lru_cache(maxsize=64)
def _parse_E(text, r):
    """The terms of E parsed from text, once per (text, r)."""
    from . import blocks

    return tuple(blocks.parse_poly(text, r).items())


class Frame:
    """Global context for all arithmetic.

    p is an odd prime, r the number of t-variables, e the u-degree of E,
    a the truncation level (u^(a*e) = 0), N the p-adic precision, D the
    total t-degree cap and L the default Witt length.  E_items holds the
    full polynomial E as a sorted tuple of (monomial key, coefficient).
    a*e may not exceed MAX_UCAP, on any construction path.

    Frames are shared values: Frame(...) returns the one frame of its
    fields from a table of the 64 most recently used, and every cache
    derived from a frame (rings, E, epsilon, the u^e folds, tau) lives
    on it.  A frame rebuilt after leaving the table is equal, not identical.
    """

    def __new__(cls, p, r, e, a, N, D, L, E_items):
        return _frame(cls, (p, r, e, a, N, D, L, E_items))

    def __setattr__(self, name, value=None):
        raise AttributeError("frames are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):  # identity first: equal frames are mostly one object
        return self is other or type(other) is type(self) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Frame(%s)" % ", ".join("%s=%r" % kv for kv in zip(_FIELDS, self._key))

    def __reduce__(self):
        return type(self), self._key

    @classmethod
    def make(cls, p, r, e, a, N, D, L, E):
        """Build a frame; E is a polynomial string or a raw table."""
        items = _parse_E(E, r) if isinstance(E, str) else dict(E).items()
        pmod = p**N or 1  # p = 0 is refused by validate_frame, not by a modulo by zero
        items = tuple(sorted((k, c % pmod) for k, c in items if c % pmod))
        return cls(p, r, e, a, N, D, L, items)

    def at_level(self, a):
        """The frame at level a (self when a == self.a)."""
        if a == self.a:
            return self
        return type(self)(self.p, self.r, self.e, a, self.N, self.D, self.L, self.E_items)

    # -- derived data ---------------------------------------------------

    @cached_property
    def layout(self):
        """The packed-monomial layout shared by every ring of the frame."""
        return _Layout(self.r, self.D)

    @cached_property
    def _E_tail(self):
        """E - u^e as packed pairs; terms past the t-cap reach no product."""
        lay = self.layout
        return tuple(
            (lay.pack(k), c)
            for k, c in self.E_items
            if k[-1] < self.e and sum(k[:-1]) <= self.D
        )

    def rmod_exp(self):
        """Coefficient modulus exponent of R/p^aR in canonical form."""
        return min(self.a, self.N)

    def ring(self, tag, boost=0):
        """Kernel of S or of its E-quotient R."""
        key = (tag, boost)
        ring = self._cache.get(key)
        if ring is None:
            if tag == "S":
                pmod = self.p ** (self.N + boost)
                ring = _Kernel(self.layout, self.p, self.D, self.a * self.e, pmod)
            elif tag == "R":
                pmod = self.p ** (self.rmod_exp() + boost)
                ring = _Kernel(self.layout, self.p, self.D, self.e, pmod, self.e, self._E_tail)
            else:
                raise ValueError("unknown ring tag %r" % tag)
            self._cache[key] = ring
        return ring

    # -- element constructors --------------------------------------------

    def elem(self, table, tag="S"):
        """Element from a table keyed by exponent tuples, clipped to the
        S caps; tag "R" then reduces it mod E."""
        return self._tagged(self.ring("S").pack(table), tag)

    def _tagged(self, packed, tag):
        if tag not in ("S", "R"):
            raise ValueError("unknown ring tag %r" % tag)
        x = SeriesElem(self, "S", packed)
        return x.reduce_mod_E() if tag == "R" else x

    def const(self, n, tag="S"):
        return SeriesElem(self, tag, self.ring(tag).const(n))

    def zero(self, tag="S"):
        return SeriesElem(self, tag, {})

    def one(self, tag="S"):
        return self.const(1, tag)

    def u(self, power=1):
        return self.elem({(0,) * self.r + (power,): 1})

    def t(self, i, power=1):
        if not 1 <= i <= self.r:
            raise ValueError("t index out of range")
        key = [0] * (self.r + 1)
        key[i - 1] = power
        return self.elem({tuple(key): 1})

    def series(self, text, tag="S"):
        """Element parsed in the truncated S ring; tag "R" reduces it mod E."""
        from . import blocks

        return self._tagged(blocks.parse_series(self, text), tag)

    @cached_property
    def E(self):
        return self.elem(dict(self.E_items))

    def E_coeff(self, i):
        """The u-free coefficient a_i of E (0 <= i < e)."""
        tbl = {k[:-1] + (0,): c for k, c in self.E_items if k[-1] == i}
        return self.elem(tbl)

    @cached_property
    def epsilon(self):
        """(E - u^e)/p, a unit when the frame is valid."""
        ring = self.ring("S")
        return SeriesElem(self, "S", ring.div_exact_ppow(ring.norm(dict(self._E_tail)), 1))

    @cached_property
    def _e_div_corrector(self):
        """g with g*E = p^a exactly in the level-a ring.

        E - u^e = p*eps and u^(a*e) = 0, so X^a - Y^a = (X - Y) *
        sum_{k<a} X^k Y^(a-1-k) at X = E - u^e, Y = -u^e gives
        g = eps^(-a) * sum_{k<a} (E - u^e)^k (-u^e)^(a-1-k), by Horner.
        """
        ring = self.ring("S")
        tail, h = ring.norm(dict(self._E_tail)), ring.zero()
        for j in range(self.a):
            h = ring.add(ring.mul(h, tail), ring.norm({self.e * j: (-1) ** j}))
        return ring.divide(h, ring.pow(self.epsilon.packed, self.a))


def _pi_sigma(frame, boost, f, q):
    """pi(sigma^n(f)) in ring("R", boost) for a series table f, q = p^n.

    sigma^n sends t^alpha u^k to t^(alpha*q) u^(k*q); with k*q = m*e + j
    the term is (u^e)^m t^(alpha*q) u^j, and (u^e)^m is the fold
    pi((-tail)^m), cached on the frame until one vanishes or m reaches
    max(a, M + boost) - 1, M = min(a, N): q = 1 is exact on any frame.
    The terms with m > 0 times their folds are one dot, divided by E once.
    The u-cap of S is not applied; fold m is divisible by p^m, so on a
    valid frame no u-exponent leaves the packed u-field.  reduce_mod_E is
    q = 1, boost 0; kappa and tau use it too.
    """
    ring = frame.ring("R", boost)
    folds = frame._cache.get(("u^e", boost))
    if folds is None:
        folds, tail = [ring.one()], ring.neg(dict(frame._E_tail))
        while folds[-1] and len(folds) < max(frame.a, frame.rmod_exp() + boost):
            folds.append(ring.mul(folds[-1], tail))
        frame._cache[("u^e", boost)] = folds
    ts, um, e = frame.layout.ts, frame.layout.umask, frame.e
    parts = [{} for _ in folds]
    for k, c in f.items():
        m, j = divmod((k & um) * q, e)
        if (k >> ts) * q <= frame.D and m < len(parts):
            # sigma is injective on monomials: no two keys meet
            parts[m][(k - (k & um)) * q + j] = c
    return ring.add(parts[0], ring.dot(zip(parts[1:], folds[1:])))


class _Elem:
    """Plumbing shared by the elements of the S, R and T rings.

    A subclass holds frame and packed, supplies _ring() (its kernel),
    _wrap(packed) (an element of the same ring) and _key() (what names
    that ring within the class), and defines its ring operations in its
    own body.
    """

    __slots__ = ()

    def dot(self, xs, ys):
        """Sum of the products x*y over xs and ys in the ring of self, int
        operands taken as constants; formed in one pass by _dot."""
        lift = self._lift
        return self._dot([(lift(x), lift(y)) for x, y in zip(xs, ys, strict=True)])

    def _dot(self, pairs):  # the sum of the products of pairs of elements, by the kernel
        return self._wrap(self._ring().dot([(x.packed, y.packed) for x, y in pairs]))

    def _lift(self, other):
        """other as an element of this ring; an int becomes its constant."""
        if isinstance(other, int):
            return self._wrap(self._ring().const(other))
        if type(other) is not type(self):
            raise TypeError("expected a %s operand" % type(self).__name__)
        if self._key() != other._key():  # tuples test identity first
            raise FrameMismatchError("operands live in different rings")
        return other

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key() and self.packed == other.packed

    __hash__ = None

    def is_zero(self):
        return not self.packed

    def zero(self):
        return self._wrap({})

    def one(self):
        return self._wrap(self._ring().const(1))

    def constant_term(self):
        return self.packed.get(0, 0)

    def is_unit(self):
        return self.constant_term() % self.frame.p != 0

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class SeriesElem(_Elem):
    """Element of the truncated series ring (tag "S") or its E-quotient (tag "R").

    packed is the normalized packed table; coeffs is the same table
    keyed by exponent tuples.
    """

    __slots__ = ("frame", "tag", "packed")

    def __init__(self, frame, tag, packed):
        self.frame = frame
        self.tag = tag
        self.packed = packed

    @property
    def coeffs(self):
        return self.frame.layout.unpack_table(self.packed)

    def _ring(self):
        return self.frame.ring(self.tag)

    def _wrap(self, tbl):
        return SeriesElem(self.frame, self.tag, tbl)

    def _key(self):
        return self.tag, self.frame

    # -- ring structure ---------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        return self._wrap(self._ring().add(self.packed, other.packed))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(self._ring().neg(self.packed))

    def __sub__(self, other):
        other = self._lift(other)
        return self._wrap(self._ring().sub(self.packed, other.packed))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap(self._ring().scal(self.packed, other))
        other = self._lift(other)
        return self._wrap(self._ring().mul(self.packed, other.packed))

    __rmul__ = __mul__

    def __pow__(self, n):
        return self._wrap(self._ring().pow(self.packed, n))

    def invert(self):
        return self.one().divide(self)

    def divide(self, d):
        """q with q*d == self for a unit d: over R the S lifts are divided and q is
        reduced, as S_a -> R is a ring map (u^(ae) = (-p*eps)^a mod E)."""
        f = self.frame
        return f._tagged(f.ring("S").divide(self.packed, self._lift(d).packed), self.tag)

    # -- frame maps --------------------------------------------------------

    def frobenius(self):
        if self.tag != "S":
            raise ValueError("frobenius is defined on the series ring only")
        return self._wrap(self._ring().sigma(self.packed))

    def reduce_mod_E(self):
        """Canonical image in R/p^aR: u-degree < e, coefficients mod p^min(a,N),
        through the u^e folds of _pi_sigma (q = 1, no boost)."""
        if self.tag != "S":
            return self
        return SeriesElem(self.frame, "R", _pi_sigma(self.frame, 0, self.packed, 1))

    def divide_by_E(self):
        """Return q with q*E == self in the level-a ring, or None.

        Divisibility by E in the truncated ring is exactly vanishing of
        reduce_mod_E; the polynomial remainder may be a nonzero multiple
        of p^a, which the corrector g (g*E = p^a) absorbs.  When a < N, q
        is unique only up to the annihilator of E, which holds p^(N-a)*g.
        """
        if self.tag != "S":
            raise ValueError("E-division acts on the series ring")
        f = self.frame
        ring = self._ring()
        q, rem = ring.divmod_u_monic(self.packed, f._E_tail, f.e)
        rmod = f.p ** f.rmod_exp()
        if any(c % rmod for c in rem.values()):
            return None
        if rem and f.a < f.N:
            s = ring.div_exact_ppow(rem, f.a)
            q = ring.add(q, ring.mul(f._e_div_corrector, s))
        out = self._wrap(q)
        if out * f.E != self:
            raise PrecisionError("E-division reconstruction failed")
        return out

    def divide_by_p(self, k=1):
        """Exact division by p^k (errors if any coefficient resists)."""
        return self._wrap(self._ring().div_exact_ppow(self.packed, k))

    def at_level(self, a):
        """Canonical image at a different truncation level.

        Raising the level reads the same table as an element of the
        larger ring (the canonical representative lift); lowering it
        truncates.  The layout does not depend on the level, so this
        only clips and renormalizes.
        """
        target = self.frame.at_level(a)
        return SeriesElem(target, self.tag, target.ring(self.tag).clip(self.packed))

    def __str__(self):
        from . import blocks

        return blocks.render_table(self.packed, self.frame.layout)


def _is_prime(n):
    """Deterministic Miller-Rabin for odd 3 <= n < MAX_PRIME."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(b, d, n)
        if b % n == 0 or x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_frame(frame):
    """Check every frame invariant; returns a list of violation strings.

    a*e <= MAX_UCAP holds already: Frame refuses to be built without it.
    """
    errors = []
    f = frame
    if f.p < 3:
        errors.append("p must be an odd prime >= 3")
    elif f.p >= MAX_PRIME:
        errors.append("p must be below %d, the bound of the primality test" % MAX_PRIME)
    elif not _is_prime(f.p):
        errors.append("p is not prime")
    if f.r < 0:
        errors.append("r must be >= 0")
    if f.e < 1:
        errors.append("e must be >= 1")
    if f.a < 1:
        errors.append("a must be >= 1")
    if f.N < 1:
        errors.append("N must be >= 1")
    if f.L < 1:
        errors.append("L must be >= 1")
    if f.D < 0:
        errors.append("D must be >= 0")
    if errors:
        return errors

    lead = {k: c for k, c in f.E_items if k[-1] == f.e}
    if lead != {(0,) * f.r + (f.e,): 1}:
        errors.append("E is not monic of u-degree e")
    if any(k[-1] > f.e for k, _ in f.E_items):
        errors.append("E has u-degree above e")
    if any(sum(k[:-1]) > f.D for k, _ in f.E_items):
        errors.append("E has t-degree above D")
    for i in range(f.e):
        coeff = [c for k, c in f.E_items if k[-1] == i]
        if any(c % f.p for c in coeff):
            errors.append("a%d not divisible by p" % i)
    if errors:
        return errors

    a0 = f.E_coeff(0)
    a0_over_p = a0.divide_by_p()
    if not a0_over_p.is_unit():
        errors.append("a0/p is not a unit")
    if not f.epsilon.is_unit():
        errors.append("epsilon = (E - u^e)/p is not a unit")
    return errors
