"""Truncated p-typical Witt vectors over the series-frame rings.

Components live in the series ring "S", its E-quotient "R", or plain
integers "Z".  A vector holds one canonical kernel table per component:
the constructor reduces integers mod p^pexp (exact when pexp is None)
and refuses series components of another ring or frame, and comps
turns the tables back into integers or SeriesElems.  Sums and products
are the values of the universal Witt polynomials; they are computed by
the exact ghost recursion on canonical lifts at a boosted coefficient
modulus (one extra p-digit per Witt coordinate), which yields exactly
the same values as substituting into the symbolic polynomials of
witt_polys while staying cheap for large (p, L).  Each step of the
recursion sums the ghost and every -p^i*z_i^(p^(n-i)) into one exact
table, reduces it once and divides it by p^n; ghosts of components are
summed the same way.

A vector carries its ghost tables at the boosted modulus p^(M+L-1),
M the exponent of its components: delta, tau and from_int attach
them, sums, products and negatives combine their operands' and solve
once, and any other vector computes them on first use.  Carried ghost
n agrees with the recomputed one mod p^(M+n), and component n of a
solve, mod p^M, depends only on ghost n mod p^(M+n); so no result
depends on where the ghosts came from, and filling the slot late
changes no value (vectors stay safe to share).

delta is the ring section with ghost components sigma^n(x); kappa is
its composite with reduction mod E, and a kappa-image remembers
(x, length) and fills its components and its ghosts on first read,
each half once: a display's L-block reads only ghosts and its J-block
only components.  kappa is a function of (x, length) over one base, so
two kappa-images with equal sources are equal without filling either;
any other pair is compared table by table.  tau is the unit with
p*tau = kappa(sigma(E)), solved from its ghosts pi(sigma^(n+1)(E))/p.
"""

from __future__ import annotations

from functools import lru_cache

from .series import FrameMismatchError, PrecisionError, SeriesElem, _Kernel, _Layout, _pi_sigma


@lru_cache(maxsize=64)
def _zring(p, pmod):
    """The kernel of integer Witt components (tables {0: c}), one per (p, modulus)."""
    return _Kernel(_Layout(0, 0), p, 0, 1, pmod)


def _add_ppow(acc, tables, p, sign):
    """Add sign*p^i*tables[i] into the exact table acc, in place."""
    get = acc.get
    for i, t in enumerate(tables):
        q = sign * p**i
        for k, c in t.items():
            acc[k] = get(k, 0) + q * c
    return acc


def _solve_ghost(ring, ghosts, p):
    """Components z with w_n(z) = ghosts[n]: ghost n less every p^i*z_i^(p^(n-i))
    in one exact table, reduced once and divided by p^n exactly."""
    comps, pw = [], []
    for n, g in enumerate(ghosts):
        pw = [ring.pow(w, p) for w in pw]
        comps.append(ring.div_exact_ppow(ring.norm(_add_ppow(dict(g), pw, p, -1)), n))
        pw.append(comps[-1])
    return comps


def _ghosts_of(ring, comps, p):
    """w_0 .. w_{len(comps)-1} of the component tables, each summed exactly and reduced once."""
    out, pw = [], []
    for c in comps:
        pw = [ring.pow(w, p) for w in pw] + [c]
        out.append(ring.norm(_add_ppow({}, pw, p, 1)))
    return out


def _base(tag, frame, p, pexp):
    """(tag, frame, p, pexp) naming a Witt base ring; refuses an incomplete or inconsistent one."""
    if tag in ("S", "R"):
        if frame is None:
            raise ValueError("S- and R-tagged Witt vectors need a frame")
        if p not in (None, frame.p) or pexp is not None:
            raise ValueError("S and R vectors take p from the frame and no pexp")
        return tag, frame, frame.p, None
    if tag == "Z":
        if p is None:
            raise ValueError("Z-tagged Witt vectors need an explicit prime")
        return tag, None, p, pexp
    raise ValueError("unknown Witt base tag %r" % tag)


def _ring_of(key, boost=0):
    """The component kernel of the base key, its modulus raised by p^boost."""
    tag, frame, p, pexp = key
    if tag != "Z":
        return frame.ring(tag, boost)
    return _zring(p, None if pexp is None else p ** (pexp + boost))


def _vector(key, tables, ghosts=None, src=None):
    """The vector with these canonical tables (and boosted ghosts), unchecked;
    a kappa-image has src = (x, length) and no tables yet."""
    out = WittVec.__new__(WittVec)
    out.tag, out.frame, out.p, out.pexp = key
    out._tabs, out._ghosts, out._src = tables, ghosts, src
    return out


def _solved(key, ghosts):
    """The vector over the base key with these boosted ghost tables (of any length)."""
    tables = _solve_ghost(_ring_of(key, len(ghosts) - 1), ghosts, key[2])
    return _vector(key, list(map(_ring_of(key).norm, tables)), ghosts)


class WittVec:
    """Length-L Witt vector, L >= 1; tag is "S", "R" or "Z"."""

    __slots__ = ("tag", "frame", "p", "pexp", "_tabs", "_ghosts", "_src")

    def __init__(self, tag, comps, frame=None, p=None, pexp=None):
        comps = tuple(comps)
        if not comps:
            raise ValueError("Witt length must be >= 1")
        if tag in ("S", "R") and frame is None:
            frame = getattr(comps[0], "frame", None)
        key = _base(tag, frame, p, pexp)
        if tag == "Z" and all(isinstance(c, int) for c in comps):
            tables = [_ring_of(key).const(c) for c in comps]
        elif tag != "Z" and all(type(c) is SeriesElem and c._key() == (tag, frame) for c in comps):
            tables = [c.packed for c in comps]
        else:
            raise FrameMismatchError("Witt components outside the base ring")
        self.tag, self.frame, self.p, self.pexp = key
        self._tabs, self._ghosts, self._src = tables, None, None

    @property
    def comps(self):
        """The components: integers over Z, SeriesElems over S and R."""
        if self.tag == "Z":
            return tuple(t.get(0, 0) for t in self._tables)
        return tuple(SeriesElem(self.frame, self.tag, t) for t in self._tables)

    # -- plumbing -----------------------------------------------------------

    @property
    def _tables(self):
        """Component tables; a kappa-image solves them from delta on first read."""
        if self._tabs is None:
            x, length = self._src
            self._tabs = [_pi_sigma(self.frame, 0, t, 1) for t in delta(x, length)._tables]
        return self._tabs

    def __len__(self):
        return len(self._tabs) if self._src is None else self._src[1]

    def _key(self):
        return self.tag, self.frame, self.p, self.pexp

    def _compat(self, other):
        if self._key() != other._key():  # tuples test identity first
            raise FrameMismatchError("Witt operands over different base rings")
        if len(self) != len(other):
            raise FrameMismatchError("Witt operands of different lengths")

    def _ring(self, boost=0):
        return _ring_of(self._key(), boost)

    def _ghost_tables(self):
        """Ghost tables at the boosted modulus, computed on first use
        unless the producer of the vector attached them; a kappa-image
        folds pi(sigma^n(x)) without solving its components."""
        if self._ghosts is None:
            if self._src is None:
                self._ghosts = _ghosts_of(self._ring(len(self) - 1), self._tables, self.p)
            else:
                x, length = self._src
                self._ghosts = [
                    _pi_sigma(self.frame, length - 1, x.packed, self.p**n) for n in range(length)
                ]
        return self._ghosts

    def __eq__(self, other):
        if not isinstance(other, WittVec):
            return NotImplemented
        if self._key() != other._key():
            return False
        # kappa is a function of (x, length) over one base: equal sources, equal images
        return self._src is not None and self._src == other._src or self._tables == other._tables

    __hash__ = None

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.comps) + ")"

    def __repr__(self):
        return "WittVec%s" % self

    # -- ring interface (for the matrix helpers) ----------------------------

    def zero(self):
        return from_int(0, len(self), like=self)

    def one(self):
        return from_int(1, len(self), like=self)

    def __add__(self, other):
        return wadd(self, other)

    def __mul__(self, other):
        if isinstance(other, int):
            return wmul(self, from_int(other, len(self), like=self))
        return wmul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        ring = self._ring(len(self) - 1)
        return _solved(self._key(), [ring.neg(g) for g in self._ghost_tables()])

    def __sub__(self, other):
        return wadd(self, -other)

    def is_zero(self):
        return not any(self._tables)

    def is_unit(self):
        """Units are detected on the zeroth ghost coordinate."""
        return self._tables[0].get(0, 0) % self.p != 0


def _binary(x, y, combine):
    x._compat(y)
    ring = x._ring(len(x) - 1)
    ghosts = zip(x._ghost_tables(), y._ghost_tables())
    return _solved(x._key(), [combine(ring, a, b) for a, b in ghosts])


def wadd(x, y):
    return _binary(x, y, lambda ring, a, b: ring.add(a, b))


def wmul(x, y):
    return _binary(x, y, lambda ring, a, b: ring.mul(a, b))


def wver(x):
    """Verschiebung: shift components right; ghost (0, p*w_0, p*w_1, ...)."""
    return _vector(x._key(), [{}] + x._tables)


def wfrob(x):
    """Frobenius: ghost components (w_1, w_2, ...); output length L-1."""
    length = len(x)
    if length < 2:
        raise ValueError("Frobenius needs length >= 2")
    ring = x._ring(length - 2)
    return _solved(x._key(), [ring.norm(g) for g in x._ghost_tables()[1:]])


def ghost(x):
    """All ghost components w_n(x) in the component ring."""
    ring = x._ring()
    return list(_vector(x._key(), [ring.norm(g) for g in x._ghost_tables()]).comps)


def from_int(n, length, like=None, frame=None, tag="S", p=None, pexp=None):
    """The image of the integer n in the Witt ring, of length >= 1."""
    key = like._key() if like is not None else _base(tag, frame, p, pexp)
    if length < 1:
        raise ValueError("Witt length must be >= 1")
    return _solved(key, [_ring_of(key, length - 1).const(n)] * length)


def _section_length(x, length):
    """The Witt length of delta(x) or kappa(x); refuses a non-S x or a length below 1."""
    if not isinstance(x, SeriesElem) or x.tag != "S":
        raise ValueError("delta is defined on series-ring elements")
    length = x.frame.L if length is None else length
    if length < 1:
        raise ValueError("Witt length must be >= 1")
    return length


def delta(x, length=None):
    """Ring section of the series ring into its Witt vectors.

    The components solve w_n(delta(x)) = sigma^n(x); the recursion runs
    at precision N + length - 1 and the result is stamped at N.
    """
    frame, length = x.frame, _section_length(x, length)
    ring = frame.ring("S", boost=length - 1)
    ghosts = [ring.norm(x.packed)]
    for _ in range(length - 1):
        ghosts.append(ring.sigma(ghosts[-1]))
    return _solved(("S", frame, frame.p, None), ghosts)


def kappa(x, length=None):
    """Component-wise reduction of delta(x) into W(R/p^aR).

    x and the length are checked now; each half of the vector is filled
    on its first read, once.  Its components are those of delta(x)
    folded by series._pi_sigma, the fold routine of reduce_mod_E, and
    its ghosts are pi(sigma^n(x)).  Those ghosts agree with the ghosts
    of its components mod p^(M+n), M = min(a, N), because the quotient
    by E has no p-torsion and u^(a*e) lies in (E, p^M).
    """
    length = _section_length(x, length)
    return _vector(("R", x.frame, x.frame.p, None), None, src=(x, length))


def tau(frame):
    """The unit with p*tau = kappa(sigma(E)).

    kappa(sigma(E)) has the ghosts pi(sigma^(n+1)(E)), so tau is solved
    from (and carries) the ghosts pi(sigma^(n+1)(E))/p, computed by
    series._pi_sigma with one spare p-digit.  The quotient by E has no
    p-torsion, so the division is exact; a ghost that resists it raises
    PrecisionError.  The Frobenius identity and the unit property are
    then verified.  The result is kept on the frame, a shared value (see
    series.Frame).
    """
    if "tau" in frame._cache:
        return frame._cache["tau"]
    ring, L = frame.ring("R", frame.L), frame.L
    ghosts = [ring.div_exact_ppow(_pi_sigma(frame, L, frame.E.packed, frame.p ** (n + 1)), 1)
              for n in range(L)]
    t = _solved(("R", frame, frame.p, None), ghosts)
    lhs = wmul(from_int(frame.p, frame.L, like=t), t)
    rhs = kappa(frame.E.frobenius(), length=frame.L)
    if lhs != rhs:
        raise PrecisionError("p*tau failed to match kappa(sigma(E))")
    if not t.is_unit():
        raise PrecisionError("tau is not a unit; frame invariants violated")
    frame._cache["tau"] = t
    return t


# -- universal polynomial table ----------------------------------------------


class WittPolyTable:
    """Symbolic universal addition/multiplication polynomials.

    Polynomials live over the integers in x_0..x_{L-1}, y_0..y_{L-1},
    keyed by exponent tuples of length 2L (plus a trailing unused slot).
    Sizes grow quickly with p and L; the table is meant for inspection
    and cross-checking at small parameters, while the arithmetic above
    evaluates the same polynomials by recursion.
    """

    def __init__(self, p, length):
        self.p = p
        self.length = length
        # no ghost, sum or product polynomial has total degree past 2*p^(L-1)
        top = 2 * p ** (length - 1)
        ring = self._ring = _Kernel(_Layout(2 * length, top), p, top, 1, None)
        lay = ring.layout
        vs = [{lay.pack((0,) * i + (1,) + (0,) * (2 * length - i)): 1} for i in range(2 * length)]
        gx = _ghosts_of(ring, vs[:length], p)
        gy = _ghosts_of(ring, vs[length:], p)
        sums = _solve_ghost(ring, [ring.add(a, b) for a, b in zip(gx, gy)], p)
        prods = _solve_ghost(ring, [ring.mul(a, b) for a, b in zip(gx, gy)], p)
        self.sum_polys = tuple(map(lay.unpack_table, sums))
        self.prod_polys = tuple(map(lay.unpack_table, prods))
        self.ghost_x = tuple(map(lay.unpack_table, gx))

    def evaluate(self, poly, ring, xs, ys):
        """Substitute component tables for the symbolic variables."""
        acc = ring.zero()
        for key, coeff in poly.items():
            term = ring.const(coeff)
            for i, exp in enumerate(key[: 2 * self.length]):
                if not exp:
                    continue
                base = xs[i] if i < self.length else ys[i - self.length]
                term = ring.mul(term, ring.pow(base, exp))
            acc = ring.add(acc, term)
        return acc


@lru_cache(maxsize=16)
def witt_polys(p, length):
    """Cached universal Witt polynomial table for (p, length)."""
    return WittPolyTable(p, length)
