"""Property tests of the packed-monomial kernel against tuple-keyed oracles.

Tables are drawn on frames with r = 0 and r = 3, with keys placed
exactly on the caps (total t-degree D, u-degree a*e - 1) and on a frame
whose a*e is MAX_UCAP, where the packed u-field is at its tightest.
Products also get dense operands of up to 40 terms over many u-bands,
and the parser's uncapped kernel is checked against exact products.
Sums of products (_Kernel.dot, and matrices.dot with mmul, det and inv
on every ring that has elements) are checked against sequential sums.
"""

import re
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windowalg import Frame, FrameMismatchError, TElem, WittVec
from windowalg import matrices as mx
from windowalg.blocks import ParseError, parse_poly
from windowalg.series import MAX_UCAP, SeriesElem, _Kernel, _Layout
from windowalg.witt import _zring

from helpers import divmod_oracle, mul_oracle, reduce_oracle

FRAMES = {
    "r0": Frame.make(3, 0, 2, 3, 5, 4, 2, "u^2 + 3*u + 3"),
    "r3": Frame.make(3, 3, 2, 2, 4, 3, 2, "u^2 + 3*t1*u + 3*(1 + t2)"),
    "r1-max-ucap": Frame.make(3, 1, 1, MAX_UCAP, 3, 2, 2, "u + 3"),
}

PROPS = settings(max_examples=60, deadline=None)


@st.composite
def t_parts(draw, r, D):
    """An exponent vector of r t-variables with total degree <= D, often
    exactly D."""
    if not r:
        return ()
    budget = draw(st.one_of(st.just(D), st.integers(0, D)))
    parts = []
    for _ in range(r - 1):
        x = draw(st.integers(0, budget))
        parts.append(x)
        budget -= x
    return tuple(parts) + (budget,)


@st.composite
def tables(draw, frame, umax=None, max_terms=6):
    """A raw table inside the caps; u-degrees lean towards umax - 1."""
    umax = frame.a * frame.e if umax is None else umax
    top = st.sampled_from([umax - 1, max(umax - 2, 0)])
    ucoord = st.one_of(top, st.integers(0, min(umax - 1, 8)))
    keys = st.tuples(t_parts(frame.r, frame.D), ucoord).map(lambda kt: kt[0] + (kt[1],))
    coeff = st.integers(-(frame.p ** (frame.N + 1)), frame.p ** (frame.N + 1))
    return draw(st.dictionaries(keys, coeff, max_size=max_terms))


def frame_and_pair(name):
    f = FRAMES[name]
    return st.tuples(tables(f), tables(f)).map(lambda xy: (f, xy[0], xy[1]))


ALL_PAIRS = st.one_of(*(frame_and_pair(name) for name in FRAMES))

# a*e = 12 and 15 t-monomials of degree <= 4: dense tables span many u-bands
DENSE_FRAME = Frame.make(3, 2, 3, 4, 5, 4, 2, "u^3 + 3*t1*u + 3*(1 + t2)")

# Table sizes on both sides of _Kernel.umul's short-row rule (an outer
# operand of at most two terms tests both caps on the unsorted inner
# one), up to dense operands whose rows end at both caps.
SIZES = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 40))


@lru_cache(maxsize=None)
def monomials(r, tvalues, uvalues):
    """Exponent tuples with t-exponents from tvalues, total t-degree at
    most max(tvalues), and u-degrees from uvalues."""
    ts = [t for t in product(tvalues, repeat=r) if sum(t) <= max(tvalues)]
    return [t + (u,) for t in ts for u in uvalues]


@st.composite
def sampled_tables(draw, space, coeff):
    """A table of a drawn size up to 40 terms with distinct keys from space."""
    n = min(draw(SIZES), len(space))
    keys = draw(st.randoms(use_true_random=False)).sample(space, n)
    return dict(zip(keys, draw(st.lists(coeff, min_size=n, max_size=n))))


def dense_tables(frame):
    """A raw table whose keys may be any monomial inside the caps."""
    space = monomials(frame.r, range(frame.D + 1), range(frame.a * frame.e))
    coeff = st.integers(-(frame.p ** (frame.N + 1)), frame.p ** (frame.N + 1))
    return sampled_tables(space, coeff)


DENSE_PAIRS = st.one_of(
    *(
        st.tuples(st.just(f), dense_tables(f), dense_tables(f))
        for f in [*FRAMES.values(), DENSE_FRAME]
    )
)


@PROPS
@given(st.one_of(ALL_PAIRS, DENSE_PAIRS))
def test_product_matches_schoolbook_oracle(case):
    f, x, y = case
    assert f.elem(x) * f.elem(y) == mul_oracle(f, x, y)


# a < N, a = N and a > N for e = 1, 2, 3: reducing a dense table of
# u-degree up to a*e - 1 meets every u^e fold, up to where it vanishes.
# The last E is not Eisenstein, so its folds never vanish: reduction mod
# E stays exact on frames that validate_frame refuses.
FOLD_FRAMES = [
    *(
        Frame.make(3, 1, e, a, N, 3, 2, "u^%d + 3*t1*u^%d + 3" % (e, e - 1))
        for e in (1, 2, 3)
        for a, N in ((2, 4), (3, 3), (4, 2))
    ),
    Frame.make(3, 1, 2, 4, 2, 3, 2, "u^2 + t1*u + 1"),
]

# a dense table, times another or times 1
FOLD_PAIRS = st.one_of(
    *(
        st.tuples(
            st.just(f), dense_tables(f), st.one_of(dense_tables(f), st.just({(0, 0): 1}))
        )
        for f in FOLD_FRAMES
    )
)


@PROPS
@given(st.one_of(ALL_PAIRS, DENSE_PAIRS, FOLD_PAIRS))
def test_remainder_mod_E_matches_long_division_oracle(case):
    f, x, y = case
    s = f.elem(x) * f.elem(y)
    assert s.reduce_mod_E() == reduce_oracle(f, s)
    q, rem = divmod_oracle(s.coeffs, dict(f.E_items), f.e)
    assert f.elem(q) * f.E + f.elem(rem) == s


@PROPS
@given(FOLD_PAIRS)
def test_long_division_quotient_and_remainder_rebuild_the_table(case):
    f, x, _ = case
    ring, s = f.ring("S"), f.elem(x)
    q, rem = ring.divmod_u_monic(s.packed, f._E_tail, f.e)
    assert q == ring.norm(q) and rem == ring.norm(rem)
    assert all(k & f.layout.umask < f.e for k in rem)
    assert SeriesElem(f, "S", q) * f.E + SeriesElem(f, "S", rem) == s


@PROPS
@given(st.one_of(ALL_PAIRS, DENSE_PAIRS))
def test_quotient_ring_product_is_reduced_series_product(case):
    f, x, y = case
    xr, yr = f.elem(x).reduce_mod_E(), f.elem(y).reduce_mod_E()
    assert xr * yr == reduce_oracle(f, mul_oracle(f, xr.coeffs, yr.coeffs))


@PROPS
@given(ALL_PAIRS)
def test_frobenius_matches_exponent_scaling(case):
    f, x, _ = case
    scaled = {tuple(f.p * a for a in k): c for k, c in f.elem(x).coeffs.items()}
    assert f.elem(x).frobenius() == f.elem(scaled)


@PROPS
@given(ALL_PAIRS)
def test_coeffs_round_trip_through_the_packed_layout(case):
    f, x, _ = case
    s = f.elem(x)
    assert f.elem(s.coeffs) == s
    assert all(k[-1] < f.a * f.e and sum(k[:-1]) <= f.D for k in s.coeffs)


def test_keys_on_the_caps():
    f = FRAMES["r1-max-ucap"]
    top = f.u(f.a * f.e - 1)
    assert not top.is_zero()
    assert (top * top).is_zero()
    assert top * f.one() == top
    assert (f.u(f.a * f.e - 2) * f.u()) == top
    tD = f.t(1, f.D)
    assert (tD * f.t(1)).is_zero()
    assert tD * top == f.elem({(f.D, f.a * f.e - 1): 1})
    g = FRAMES["r3"]
    corner = g.elem({(1, 1, 1, g.a * g.e - 1): 1})
    assert (corner * corner).is_zero()
    assert corner.frobenius().is_zero()


def test_overflowing_keys_are_refused():
    f = FRAMES["r3"]
    lay = f.layout
    with pytest.raises(OverflowError):
        lay.pack((lay.tmax + 1, 0, 0, 0))
    with pytest.raises(OverflowError):
        lay.pack((0, 0, 0, lay.umask + 1))
    with pytest.raises(OverflowError):
        f.elem({(-1, 2, 0, 0): 1})
    with pytest.raises(ValueError):
        f.elem({(1, 0): 1})  # r + 1 = 4 exponents expected
    # exponents past a cap but inside the field are clipped, not refused
    assert f.elem({(f.D + 1, 0, 0, 0): 1}).is_zero()
    # an uncapped ring refuses a product that would carry between fields
    ring = _Kernel(_Layout(1, None), 3, None, 1, None)
    lay = ring.layout
    big = {lay.pack((lay.tmax, 0)): 1}
    assert ring.mul(big, {lay.pack((0, 0)): 2}) == {lay.pack((lay.tmax, 0)): 2}
    with pytest.raises(OverflowError):
        ring.mul(big, {lay.pack((1, 0)): 1})
    with pytest.raises(ParseError):
        parse_poly("u^4294967295 * u", 1)
    with pytest.raises(ParseError):
        parse_poly("t1^4294967296", 1)
    with pytest.raises(ValueError):
        f.at_level(MAX_UCAP)  # a*e = 2*MAX_UCAP
    with pytest.raises(ValueError):
        Frame.make(3, 0, 2, MAX_UCAP, 5, 4, 2, "u^2 + 3")


# The parser's kernel: no caps, exact integers, 32-bit fields.  Two
# exponents of HALF still fit a field, so products of keys on that edge
# are formed, not refused.
UNCAPPED = {r: _Kernel(_Layout(r, None), None, None, None, None) for r in (0, 2)}
HALF = (1 << 31) - 1


def uncapped_pairs(r):
    space = monomials(r, (0, 1, 2, 3, HALF), (0, 1, 2, 3, HALF))
    table = sampled_tables(space, st.integers(-50, 50))
    return st.tuples(st.just(UNCAPPED[r]), table, table)


@PROPS
@given(st.one_of(*(uncapped_pairs(r) for r in UNCAPPED)))
def test_uncapped_product_matches_exact_schoolbook(case):
    ring, x, y = case
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    assert ring.mul(ring.pack(x), ring.pack(y)) == ring.pack(out)


def kernel_tables(ring, space, bound):
    """(ring, a canonical table of it) with keys from space."""
    coeff = st.integers(-bound, bound)
    return sampled_tables(space, coeff).map(lambda t: (ring, ring.pack(t)))


def frame_space(f, tag):
    """Every monomial of a canonical table of the S or R ring of f."""
    umax = f.e if tag == "R" else f.a * f.e
    return monomials(f.r, range(f.D + 1), range(umax))


def frame_kernel_tables(f, tag, boost):
    return kernel_tables(f.ring(tag, boost), frame_space(f, tag), f.p ** (f.N + boost + 1))


# The S, R and boosted kernels of capped frames, the parser's uncapped
# kernels and the integer kernels of Witt components over Z.
KERNEL_TABLES = st.one_of(
    *(
        frame_kernel_tables(f, tag, boost)
        for f in (FRAMES["r0"], FRAMES["r3"], DENSE_FRAME)
        for tag in "SR"
        for boost in (0, 2)
    ),
    frame_kernel_tables(FRAMES["r1-max-ucap"], "S", 0),
    *(
        kernel_tables(UNCAPPED[r], monomials(r, (0, 1, 2, 3, HALF), (0, 1, 2, 3, HALF)), 50)
        for r in UNCAPPED
    ),
    *(kernel_tables(_zring(3, pmod), [(0,)], 3**6) for pmod in (None, 3**4)),
)


def _outcome(fn):
    """fn(), or OverflowError if an uncapped kernel refuses it."""
    try:
        return fn()
    except OverflowError:
        return OverflowError


@PROPS
@given(KERNEL_TABLES)
def test_square_is_the_product_of_a_table_with_itself(case):
    ring, f = case
    assert _outcome(lambda: ring.sqr(f)) == _outcome(lambda: ring.mul(f, f))


@PROPS
@given(KERNEL_TABLES, st.integers(0, 7))
def test_power_is_the_repeated_product(case, n):
    ring, f = case

    def repeated():
        out = ring.one()
        for _ in range(n):
            out = ring.mul(out, f)
        return out

    assert _outcome(lambda: ring.pow(f, n)) == _outcome(repeated)


@st.composite
def t_elements(draw, frame, level, preimage=True):
    """A T-ring element as tuple-keyed bands; with preimage, its v^i
    coefficient is divisible by p^i, so that it has a series preimage."""
    p, N = frame.p, frame.N
    bands = []
    for i in range(level):
        keys = st.tuples(t_parts(frame.r, frame.D), st.integers(0, frame.e - 1))
        keys = keys.map(lambda kt: kt[0] + (kt[1],))
        w = i if preimage else 0
        band = draw(st.dictionaries(keys, st.integers(1, p ** (N - w) - 1), max_size=4))
        bands.append({k: c * p**w for k, c in band.items()})
    return bands


# p*(e - 1) exceeds the packed u-field (2*MAX_UCAP - 1) on these frames,
# so sigma must fold u-degrees before it scales them.
WIDE_SIGMA = {
    "p3-e4000": Frame.make(3, 0, 4000, 1, 3, 2, 2, "u^4000 + 3"),
    "p8209-e20": Frame.make(8209, 1, 20, 3, 3, 2, 2, "u^20 + 8209"),
}


@st.composite
def dense_t_elements(draw, frame, level, preimage=True):
    """As t_elements, with up to 40 terms at any u-degree below level*e."""
    p, N, e = frame.p, frame.N, frame.e
    space = monomials(frame.r, range(frame.D + 1), range(level * e))
    # with preimage, c * p^i < p^N stays canonical
    coeff = st.integers(1, p ** (N - level + 1 if preimage else N) - 1)
    bands = [{} for _ in range(level)]
    for key, c in draw(sampled_tables(space, coeff)).items():
        i = key[-1] // e
        bands[i][key[:-1] + (key[-1] % e,)] = c * p**i if preimage else c
    return bands


def t_pair(f, preimage=True, elements=t_elements):
    level = min(f.a, 4)
    return st.tuples(elements(f, level, preimage), elements(f, level, preimage)).map(
        lambda xy: (f, level, xy[0], xy[1])
    )


T_FRAMES = [FRAMES["r0"], FRAMES["r3"], *WIDE_SIGMA.values()]

# at level 4 > p, sigma(v) = p^2 v^3 survives, so sigma is checked past v^0
T_LEVEL4 = Frame.make(3, 1, 2, 4, 6, 3, 2, "u^2 + 3*t1*u + 3")


@PROPS
@given(
    st.one_of(
        *(t_pair(f) for f in T_FRAMES), *(t_pair(f, elements=dense_t_elements) for f in T_FRAMES)
    )
)
def test_T_product_is_embedded_series_product(case):
    f, level, xb, yb = case
    X, Y = TElem(f, level, xb), TElem(f, level, yb)
    assert X.coeffs == tuple(xb)
    x, y = X.series_preimage(), Y.series_preimage()
    assert x is not None and y is not None
    assert X * Y == TElem.embed(x * y, level)
    assert X.sigma() == TElem.embed(x.frobenius(), level)


ANY_T_PAIRS = st.one_of(
    *(t_pair(f, False) for f in [*T_FRAMES, T_LEVEL4]),
    *(t_pair(f, False, dense_t_elements) for f in [*T_FRAMES, T_LEVEL4]),
)


@PROPS
@given(ANY_T_PAIRS)
def test_T_product_and_sigma_of_any_elements(case):
    """With W = level - 1, p^W*X has a series preimage x' for any X, and
    p^(2W)*(X*Y) and p^W*sigma(X) are the images of x'*y' and sigma(x')."""
    f, level, xb, yb = case
    X, Y = TElem(f, level, xb), TElem(f, level, yb)
    W = level - 1
    x, y = (X * f.p**W).series_preimage(), (Y * f.p**W).series_preimage()
    assert x is not None and y is not None
    assert (X * Y) * f.p ** (2 * W) == TElem.embed(x * y, level)
    assert X.sigma() * f.p**W == TElem.embed(x.frobenius(), level)
    assert TElem(f, level, X.coeffs) == X


@PROPS
@given(ANY_T_PAIRS, st.data())
def test_prepared_T_operands_multiply_as_fresh_ones(case, data):
    """An operand keeps its scaled table and bands from its first product;
    reused on either side, before and after other products, it gives the
    products of fresh copies."""
    f, level, xb, yb = case
    zb = data.draw(dense_t_elements(f, level, False))

    def fresh(b):
        return TElem(f, level, b)

    xy, xz = fresh(xb) * fresh(yb), fresh(xb) * fresh(zb)
    assert fresh(yb) * fresh(xb) == xy
    X, Y, Z = fresh(xb), fresh(yb), fresh(zb)
    assert X * Y == xy
    assert Z * X == xz
    assert Y * X == xy
    assert fresh(yb) * X == xy == X * fresh(yb)
    assert X * Y == xy and X * Z == xz


def test_T_products_with_a_zero_operand_are_zero_at_their_level():
    f, level = T_LEVEL4, 3
    X = TElem(f, level, [{(0, 0): 1, (1, 1): 2, (0, 1): 3}, {(2, 0): 5}])
    zero = X.zero()
    for a, b in ((X, zero), (zero, X), (zero, zero)):
        z = a * b
        assert z.is_zero() and z.level == level and z == TElem.const(f, level, 0)
    with pytest.raises(FrameMismatchError):
        zero * TElem.const(f, 2, 0)


def test_prepared_T_state_is_invisible():
    f, level = T_LEVEL4, 3
    bands = [{(0, 0): 1, (1, 1): 2}, {(2, 0): 4, (0, 1): 5}, {(1, 0): 7}]
    X, Y = TElem(f, level, bands), TElem(f, level, bands)
    X * X  # X now holds its scaled table and bands, Y nothing
    assert X._prep is not None and Y._prep is None
    assert X == Y and Y == X
    assert repr(X) == repr(Y) and str(X) == str(Y) and X.coeffs == Y.coeffs
    assert not hasattr(X, "__dict__")
    with pytest.raises(TypeError):
        hash(X)


def test_T_sigma_keeps_scaled_u_degrees_inside_the_u_field():
    f = WIDE_SIGMA["p3-e4000"]
    x = f.u(3000) + f.u(1000)  # u^9000 vanishes, u^3000 stays in band 0
    X = TElem.embed(x, 1)
    assert X.sigma() == TElem.embed(x.frobenius(), 1) == TElem.embed(f.u(3000), 1)
    g = WIDE_SIGMA["p8209-e20"]
    y = g.u(19) + g.t(1) * g.u() + g.one()
    assert TElem.embed(y, 3).sigma() == TElem.one(TElem.embed(y, 3))


def test_T_constructor_takes_tuple_keyed_tables():
    f = FRAMES["r0"]
    p, e, N = f.p, f.e, f.N
    X = TElem(f, 3, [{(e + 1,): 1, (0,): p**N + 2}])
    assert X.coeffs == ({(0,): 2}, {(1,): p}, {})
    assert X == TElem.embed(f.u(e + 1) + 2, 3)
    with pytest.raises(TypeError):
        TElem(f, 3, [{1: 1}])


def test_T_refuses_levels_past_the_u_cap_and_negative_powers_of_v():
    f = FRAMES["r0"]
    level = MAX_UCAP // f.e + 1
    with pytest.raises(ValueError):
        TElem(f, level, [])
    with pytest.raises(ValueError):
        TElem.const(f, level, 1)
    with pytest.raises(ValueError):
        TElem.v(f, level)
    with pytest.raises(ValueError):
        TElem.v(f, 3, -1)  # a key below u^0 would not be a monomial


def test_T_band_lists_longer_than_the_level_are_truncated():
    # shifted by 5e = 20000, the v^5 band would leave the packed u-field
    f = WIDE_SIGMA["p3-e4000"]
    X = TElem(f, 1, [{(1,): 2}] + [{(0,): 1}] * 5)
    assert X.coeffs == ({(1,): 2},)
    assert X == TElem.embed(f.u() * 2, 1)


def _unit_of(draw, x):
    """x with its constant term replaced by a p-adic unit."""
    p = x.frame.p
    return x - x.constant_term() + draw(st.integers(1, p ** (x.frame.N + 1)).filter(lambda c: c % p))


@st.composite
def units(draw):
    """A unit of S, R or T on the r = 0 or r = 3 frame."""
    f = draw(st.sampled_from([FRAMES["r0"], FRAMES["r3"]]))
    ring = draw(st.sampled_from(["S", "R", "T"]))
    if ring == "T":
        level = draw(st.integers(1, f.a))
        bands = [draw(tables(f, umax=f.e, max_terms=4)) for _ in range(level)]
        return _unit_of(draw, TElem(f, level, bands))
    return _unit_of(draw, f.elem(draw(tables(f)), ring))


@PROPS
@given(units())
def test_inverse_of_a_unit_is_a_two_sided_inverse(x):
    y = x.invert()
    assert y * x == x.one()
    assert x * y == x.one()


@PROPS
@given(st.one_of(*(st.tuples(st.just(f), tables(f, umax=f.a * f.e + 1)) for f in FRAMES.values())))
def test_R_tagged_tables_are_reduced_mod_E(case):
    f, t = case
    assert f.elem(t, "R") == f.elem(t).reduce_mod_E()


# -- sums of products: _Kernel.dot and matrices.dot ----------------------------


def kernel_dots(ring, space, bound):
    """(ring, one to four pairs of its canonical tables)."""
    table = kernel_tables(ring, space, bound).map(lambda rt: rt[1])
    return st.tuples(st.just(ring), st.lists(st.tuples(table, table), min_size=1, max_size=4))


# the S, R and boosted R kernels, the parser's uncapped kernels and the
# integer kernels of Witt components over Z
KERNEL_DOTS = st.one_of(
    *(
        kernel_dots(f.ring(tag, boost), frame_space(f, tag), f.p ** (f.N + boost + 1))
        for f in (FRAMES["r0"], FRAMES["r3"], DENSE_FRAME)
        for tag, boost in (("S", 0), ("R", 0), ("R", 2))
    ),
    *(
        kernel_dots(UNCAPPED[r], monomials(r, (0, 1, 2, 3, HALF), (0, 1, 2, 3, HALF)), 50)
        for r in UNCAPPED
    ),
    *(kernel_dots(_zring(3, pmod), [(0,)], 3**6) for pmod in (None, 3**4)),
)


@PROPS
@given(KERNEL_DOTS)
def test_kernel_dot_is_the_sequential_sum_of_products(case):
    ring, pairs = case

    def sequential():
        acc = ring.mul(*pairs[0])
        for f, g in pairs[1:]:
            acc = ring.add(acc, ring.mul(f, g))
        return acc

    assert _outcome(lambda: ring.dot(pairs)) == _outcome(sequential)


def test_uncapped_dot_refuses_what_mul_refuses():
    ring = UNCAPPED[0]
    small = ring.pack({(1,): 3})
    wide = ring.pack({(HALF + 1,): 1})  # squared, u^(2^32) leaves the u-field
    many = ring.pack({(i,): 1 for i in range(1 << 11)})  # 2^22 pairs
    for f, g in ((wide, wide), (many, many)):
        with pytest.raises(OverflowError) as ref:
            ring.mul(f, g)
        for pairs in ([(small, small), (f, g)], [(f, g), (small, small)]):
            with pytest.raises(OverflowError, match=re.escape(str(ref.value))):
                ring.dot(pairs)
    # a pair with an empty table forms no pair and is not refused
    assert ring.dot([(small, small), ({}, many), (many, {})]) == ring.mul(small, small)


def seq_dot(xs, ys):
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def seq_det(M):
    """Cofactor expansion along the first row, one running sum."""
    n = len(M)
    if n == 1:
        return M[0][0]
    minor = lambda j: [row[:j] + row[j + 1 :] for row in M[1:]]
    acc = M[0][0] * seq_det(minor(0))
    for j in range(1, n):
        term = M[0][j] * seq_det(minor(j))
        acc = acc - term if j % 2 else acc + term
    return acc


def seq_inv(M):
    n = len(M)
    if n == 1:
        adj = [[M[0][0].one()]]
    else:
        minor = lambda i, j: [r[:j] + r[j + 1 :] for k, r in enumerate(M) if k != i]
        adj = [[(-1) ** (i + j) * seq_det(minor(j, i)) for j in range(n)] for i in range(n)]
    dinv = seq_dot(M[0], [row[0] for row in adj]).invert()
    return tuple(tuple(x * dinv for x in row) for row in adj)


def zvec(comps):
    return WittVec("Z", comps, p=3)


def _T_entries(f, level):
    bands = st.one_of(t_elements(f, level, False), dense_t_elements(f, level, False))
    return bands.map(lambda b: TElem(f, level, b))


WITT_FRAME = Frame.make(3, 0, 1, 3, 6, 4, 2, "u + 3")

# (ring, entries of it, whether ints may stand among them): S and R
# elements, T elements at every level of two frames, ints and Witt
# vectors over Z and R.  Witt vectors do not add ints.
MATRIX_RINGS = [
    *((f, st.one_of(tables(f), dense_tables(f)).map(f.elem), True) for f in FRAMES.values()),
    *((f, tables(f).map(lambda t, f=f: f.elem(t, "R")), True) for f in (FRAMES["r0"], DENSE_FRAME)),
    *(
        (f, _T_entries(f, level), True)
        for f in (FRAMES["r0"], T_LEVEL4)
        for level in range(1, f.a + 1)
    ),
    (None, st.integers(-30, 30), True),
    (None, st.lists(st.integers(-9, 9), min_size=2, max_size=2).map(zvec), False),
    (
        WITT_FRAME,
        st.lists(tables(WITT_FRAME, umax=1, max_terms=2), min_size=2, max_size=2).map(
            lambda ts: WittVec("R", [WITT_FRAME.elem(t, "R") for t in ts], frame=WITT_FRAME)
        ),
        False,
    ),
]


def _draw_matrix(data, entries, zero, ints, n, m):
    """An n x m matrix of drawn entries, zeros among them, and ints too
    where they mix."""
    kinds = [entries, st.just(zero)] + ([st.integers(-4, 4)] if ints else [])
    return tuple(tuple(data.draw(st.one_of(*kinds)) for _ in range(m)) for _ in range(n))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dot_mmul_and_det_are_the_sequential_sums(data):
    _, entries, ints = data.draw(st.sampled_from(MATRIX_RINGS))
    sample = data.draw(entries)
    zero = 0 if isinstance(sample, int) else sample.zero()

    def matrix(n, m):
        return _draw_matrix(data, entries, zero, ints, n, m)

    # Witt vectors (no ints among them) stay at small sizes in dot and mmul
    k = data.draw(st.integers(1, 4 if ints else 3))
    xs, ys = matrix(2, k)
    assert mx.dot(xs, ys) == seq_dot(xs, ys)
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3 if ints else 2))
    A, B = matrix(n, k), matrix(k, m)
    assert mx.mmul(A, B) == tuple(tuple(seq_dot(row, col) for col in zip(*B)) for row in A)
    s = data.draw(st.integers(1, 5))
    M = matrix(s, s)
    assert mx.det(M) == seq_det(M)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inverse_is_the_sequential_adjugate_over_the_determinant(data):
    """Unit diagonals and off-diagonal entries in the maximal ideal (ints
    among them) make the determinant a unit."""
    rings = [r for r in MATRIX_RINGS if r[0] is not None and r[2]]  # elements, no Witt vectors
    f, entries, _ = data.draw(st.sampled_from(rings))
    n = data.draw(st.integers(1, 3))

    def entry(i, j):
        if i == j:
            return _unit_of(data.draw, data.draw(entries))
        return data.draw(st.one_of(entries, st.integers(-4, 4), st.just(0))) * f.p

    M = tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))
    assert mx.inv(M) == seq_inv(M)
