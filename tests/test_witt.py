import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windowalg import (
    Frame,
    WittVec,
    delta,
    from_int,
    ghost,
    kappa,
    tau,
    wadd,
    wfrob,
    witt_polys,
    wmul,
    wver,
)
from windowalg.witt import _ghosts_of, _zring
from windowalg.rand import random_frame, random_series

from helpers import frame313, frame_e2, make_rng


def zvec(p, comps):
    return WittVec("Z", comps, p=p)


def test_universal_polys_small():
    tbl = witt_polys(3, 2)
    # S0 = x0 + y0, P0 = x0*y0
    assert tbl.sum_polys[0] == {(1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0): 1}
    assert tbl.prod_polys[0] == {(1, 0, 1, 0, 0): 1}
    # S1 = x1 + y1 - x0^2 y0 - x0 y0^2 (solves the ghost equation)
    assert tbl.sum_polys[1] == {
        (0, 1, 0, 0, 0): 1,
        (0, 0, 0, 1, 0): 1,
        (2, 0, 1, 0, 0): -1,
        (1, 0, 2, 0, 0): -1,
    }
    # ghost polynomials: w_0 = x0, w_1 = x0^3 + 3 x1
    assert tbl.ghost_x[0] == {(1, 0, 0, 0, 0): 1}
    assert tbl.ghost_x[1] == {(3, 0, 0, 0, 0): 1, (0, 1, 0, 0, 0): 3}


@pytest.mark.parametrize("p,length", [(3, 2), (3, 3), (5, 2)])
def test_universal_polys_ghost_identity(p, length):
    # w_n(S_0..S_n) = w_n(x) + w_n(y) and likewise for products, as
    # exact integer polynomial identities
    tbl = witt_polys(p, length)
    ring = tbl._ring

    gs = _ghosts_of(ring, [ring.pack(t) for t in tbl.sum_polys], p)
    gp = _ghosts_of(ring, [ring.pack(t) for t in tbl.prod_polys], p)
    gx = _ghosts_of(
        ring,
        [ring.pack({tuple(1 if k == i else 0 for k in range(2 * length + 1)): 1}) for i in range(length)],
        p,
    )
    gy = _ghosts_of(
        ring,
        [
            ring.pack({tuple(1 if k == length + i else 0 for k in range(2 * length + 1)): 1})
            for i in range(length)
        ],
        p,
    )
    for n in range(length):
        assert gs[n] == ring.add(gx[n], gy[n])
        assert gp[n] == ring.mul(gx[n], gy[n])


def test_arithmetic_matches_symbolic_table():
    # the recursion evaluates exactly the cached universal polynomials
    rng = make_rng(201)
    tbl = witt_polys(3, 3)
    ring = _zring(3, None)
    for _ in range(20):
        xs = [rng.randint(-9, 9) for _ in range(3)]
        ys = [rng.randint(-9, 9) for _ in range(3)]
        x, y = zvec(3, xs), zvec(3, ys)
        for n in range(3):
            expect = tbl.evaluate(
                tbl.sum_polys[n],
                ring,
                [{0: v} if v else {} for v in xs],
                [{0: v} if v else {} for v in ys],
            )
            assert wadd(x, y).comps[n] == expect.get(0, 0)
            expect = tbl.evaluate(
                tbl.prod_polys[n],
                ring,
                [{0: v} if v else {} for v in xs],
                [{0: v} if v else {} for v in ys],
            )
            assert wmul(x, y).comps[n] == expect.get(0, 0)


def _sympy_witt_polys(p, length):
    """The Witt sum and product solved from the ghost identity over QQ:
    w_n(S) = w_n(x) + w_n(y) and w_n(P) = w_n(x) * w_n(y), in sympy."""
    from sympy import QQ, Poly, Rational, symbols

    gens = symbols("x0:%d y0:%d" % (length, length))
    var = [Poly(g, *gens, domain=QQ) for g in gens]

    def ghosts(vs):  # w_n = sum_i p^i v_i^(p^(n-i))
        return [sum((p**i * vs[i] ** p ** (n - i) for i in range(1, n + 1)), vs[0] ** p**n)
                for n in range(length)]

    def solve(ws):
        out = []
        for n, w in enumerate(ws):
            for i, c in enumerate(out):
                w = w - c ** p ** (n - i) * p**i
            out.append(w * Rational(1, p**n))
        return out

    gx, gy = ghosts(var[:length]), ghosts(var[length:])
    return solve([a + b for a, b in zip(gx, gy)]), solve([a * b for a, b in zip(gx, gy)])


def _integer_table(poly):
    """The polynomial keyed as witt_polys keys it; every coefficient must be an integer."""
    terms = poly.as_dict()
    assert all(c.is_Integer for c in terms.values())
    return {k + (0,): int(c) for k, c in terms.items()}


def _evaluate(table, xs, ys):
    """Substitute the components xs, ys (ints or series elements) into a table."""
    total = 0
    for key, c in table.items():
        for v, e in zip(list(xs) + list(ys), key):
            if e:
                c = c * v**e
        total = total + c
    return total


@pytest.mark.parametrize("p,length", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_witt_polys_and_arithmetic_agree_with_a_sympy_ghost_solve(p, length):
    # an oracle independent of _ghosts_of and _solve_ghost: the universal
    # polynomials are integral, equal witt_polys term by term, and their
    # values are wadd and wmul over exact Z and over S and R of a desk frame (e = 2)
    sums, prods = _sympy_witt_polys(p, length)
    tbl = witt_polys(p, length)
    assert [_integer_table(s) for s in sums] == list(tbl.sum_polys)
    assert [_integer_table(q) for q in prods] == list(tbl.prod_polys)
    rng = make_rng(215)
    f = Frame.make(p, 1, 2, 2, 4, 3, length, "u^2 + %d*t1*u + %d" % (p, p))
    for tag in ("Z", "S", "R"):
        for _ in range(5):
            if tag == "Z":
                xs, ys = ([rng.randint(-99, 99) for _ in range(length)] for _ in range(2))
                x, y = zvec(p, xs), zvec(p, ys)
            else:
                xs, ys = ([random_series(rng, f, terms=3) for _ in range(length)] for _ in range(2))
                if tag == "R":
                    xs, ys = ([c.reduce_mod_E() for c in v] for v in (xs, ys))
                x, y = WittVec(tag, xs, frame=f), WittVec(tag, ys, frame=f)
            s, m = wadd(x, y).comps, wmul(x, y).comps
            for n in range(length):
                assert s[n] == _evaluate(tbl.sum_polys[n], xs, ys)
                assert m[n] == _evaluate(tbl.prod_polys[n], xs, ys)


def test_wadd_example():
    x = zvec(3, [1, 0])
    assert wadd(x, x).comps == (2, -2)


def test_integer_components_are_reduced_mod_p_to_the_pexp():
    # W_2(Z/9): (10, 0) is (1, 0) and (-1, 0) is (8, 0), before any arithmetic
    x = WittVec("Z", [10, 0], p=3, pexp=2)
    assert x.comps == (1, 0) and str(x) == "(1, 0)"
    assert x == wadd(x, from_int(0, 2, like=x)) == x + x.zero()
    y = WittVec("Z", [-1, 0], p=3, pexp=2)
    assert y.comps == (8, 0) and y == wadd(y, from_int(0, 2, like=y))
    assert zvec(3, [10, -1]).comps == (10, -1)  # exact integers stay as they are


def test_components_of_another_ring_or_frame_are_refused():
    from windowalg import FrameMismatchError

    f = Frame.make(3, 0, 1, 3, 5, 3, 2, "u + 3")
    g = Frame.make(5, 0, 1, 3, 5, 3, 2, "u + 5")
    refused = [
        ("R", [f.series("1 + u^2"), f.zero()], {"frame": f}),  # S elements in an R vector
        ("S", [f.one(), g.one()], {}),  # a second frame
        ("S", [f.one(), f.one()], {"frame": g}),
        ("S", [f.one(), f.one("R")], {}),
        ("R", [f.one("R"), 1], {}),
        ("Z", [1, f.one()], {"p": 3}),
        ("Z", [1, 0.5], {"p": 3}),
    ]
    for tag, comps, kw in refused:
        with pytest.raises(FrameMismatchError):
            WittVec(tag, comps, **kw)
    x = WittVec("R", [f.series("1 + u^2", "R"), f.zero("R")], frame=f)
    assert x * from_int(1, 2, like=x) == x


def test_an_explicit_p_or_pexp_must_agree_with_the_frame():
    # S and R vectors take p from their frame and have no pexp: a p = 5 vector
    # over a p = 3 frame was once built as a p = 3 one, and from_int with
    # p = 5 printed (2, 25)
    f = Frame.make(3, 0, 1, 3, 5, 3, 2, "u + 3")
    for tag in ("S", "R"):
        comps = [f.one(tag), f.zero(tag)]
        for kw in ({"p": 5}, {"pexp": 1}, {"p": 3, "pexp": 2}):
            with pytest.raises(ValueError, match="take p from the frame"):
                WittVec(tag, comps, frame=f, **kw)
            with pytest.raises(ValueError, match="take p from the frame"):
                WittVec(tag, comps, **kw)
            with pytest.raises(ValueError, match="take p from the frame"):
                from_int(2, 2, frame=f, tag=tag, **kw)
        assert WittVec(tag, comps, frame=f, p=3) == WittVec(tag, comps, frame=f)
        assert from_int(2, 2, frame=f, tag=tag, p=3) == from_int(2, 2, frame=f, tag=tag)


def test_teichmueller_identity():
    rng = make_rng(202)
    for _ in range(10):
        x = zvec(3, [rng.randint(-9, 9) for _ in range(3)])
        one = zvec(3, [1, 0, 0])
        assert wmul(one, x) == x


def test_ver_frob_examples():
    x = zvec(3, [1, 0])
    assert wver(x).comps == (0, 1, 0)
    f = wfrob(zvec(3, [0, 1, 0]))
    assert ghost(f)[0] == 3
    assert f == wmul(from_int(3, 2, tag="Z", p=3), zvec(3, [1, 0]))


def test_fv_is_p_random():
    rng = make_rng(203)
    for p in (3, 5):
        for _ in range(15):
            x = zvec(p, [rng.randint(-9, 9) for _ in range(3)])
            assert wfrob(wver(x)) == wmul(from_int(p, 3, tag="Z", p=p), x)


def test_ver_ghost_structure():
    # ghost(V(x)) = (0, p*w_0(x), p*w_1(x), ...)
    rng = make_rng(211)
    for p in (3, 5):
        for _ in range(10):
            x = zvec(p, [rng.randint(-9, 9) for _ in range(3)])
            assert ghost(wver(x)) == [0] + [p * g for g in ghost(x)]


def test_frob_needs_length_two():
    with pytest.raises(ValueError):
        wfrob(zvec(3, [1]))


def test_ghost_examples():
    assert ghost(zvec(3, [3, -8])) == [3, 3]
    c = 4
    assert ghost(zvec(3, [c, 0, 0])) == [c, c**3, c**9]


def test_ghost_oracle_random_exact():
    rng = make_rng(204)
    for p in (3, 5):
        for length in (2, 3):
            for _ in range(25):
                x = zvec(p, [rng.randint(-9, 9) for _ in range(length)])
                y = zvec(p, [rng.randint(-9, 9) for _ in range(length)])
                gx, gy = ghost(x), ghost(y)
                assert ghost(wadd(x, y)) == [a + b for a, b in zip(gx, gy)]
                assert ghost(wmul(x, y)) == [a * b for a, b in zip(gx, gy)]


def test_delta_teichmueller():
    f = frame_e2()
    assert delta(f.u()).comps == (f.u(), f.zero())
    assert delta(f.t(1)).comps == (f.t(1), f.zero())


def test_delta_of_constant():
    f = frame313()
    dv = delta(f.const(3))
    assert dv.comps[0] == f.const(3)
    assert dv.comps[1] == f.const(-8)


def test_delta_is_ring_hom():
    rng = make_rng(205)
    for f in (frame313(L=3), frame_e2()):
        for _ in range(50):
            x = random_series(rng, f)
            y = random_series(rng, f)
            assert delta(x * y) == wmul(delta(x), delta(y))
            assert delta(x + y) == wadd(delta(x), delta(y))


def test_delta_ghost_is_sigma_power():
    rng = make_rng(206)
    for f in (frame313(L=3), frame_e2(L=3)):
        for _ in range(25):
            x = random_series(rng, f)
            gs = ghost(delta(x))
            expect = x
            for n in range(f.L):
                assert gs[n] == expect
                expect = expect.frobenius()


def test_kappa_examples():
    f = frame_e2()
    kv = kappa(f.u())
    assert kv.comps[0] == f.u().reduce_mod_E()
    assert kv.comps[1].is_zero()
    assert ghost(kappa(f.E))[0].is_zero()
    # p=3, e=1, E=u+3: sigma(E) reduces to u^3+3 at u=-3, i.e. -24
    f2 = frame313(a=4)
    kv2 = kappa(f2.E.frobenius())
    assert ghost(kv2)[0] == f2.const(-24, "R")


def test_kappa_intertwines_sigma_and_frobenius():
    rng = make_rng(207)
    for f in (frame313(L=3), frame_e2(L=3)):
        for _ in range(20):
            x = random_series(rng, f)
            lhs = kappa(x.frobenius())
            rhs = wfrob(kappa(x))
            assert lhs.comps[: f.L - 1] == rhs.comps


def test_tau_hand_values():
    f = frame313()
    t = tau(f)
    # w0(tau) = sigma(E)/p = -8 in R/p^min(a,N) = Z/27
    assert ghost(t)[0] == f.const(-8, "R")
    assert t.is_unit()
    # e = 2: (u^6+3)/3 = -8 modulo E = u^2+3
    f2 = Frame.make(3, 0, 2, 3, 6, 4, 2, "u^2 + 3")
    assert ghost(tau(f2))[0] == f2.const(-8, "R")
    # higher precision pins the value further
    f3 = frame313(a=5, N=8)
    assert ghost(tau(f3))[0] == f3.const(-8, "R")


def test_tau_division_identity():
    rng = make_rng(208)
    for _ in range(10):
        f = random_frame(rng)
        t = tau(f)
        assert t.is_unit()
        lhs = wmul(from_int(f.p, f.L, frame=f, tag="R"), t)
        assert lhs == kappa(f.E.frobenius())
        # w0(tau) * p equals the reduction of sigma(E)
        assert ghost(t)[0] * f.p == f.E.frobenius().reduce_mod_E()


def test_witt_ops_over_series_components():
    rng = make_rng(209)
    f = frame313(L=3)
    for _ in range(10):
        x = delta(random_series(rng, f))
        y = delta(random_series(rng, f))
        gx, gy = ghost(x), ghost(y)
        assert ghost(wadd(x, y)) == [a + b for a, b in zip(gx, gy)]
        assert ghost(wmul(x, y)) == [a * b for a, b in zip(gx, gy)]


def test_witt_ops_commute_with_reduction():
    # W(-) is functorial: component-wise reduction mod E intertwines
    # the operations over the series ring and over R/p^aR
    rng = make_rng(210)
    for f in (frame313(L=3), frame_e2()):
        for _ in range(10):
            x = delta(random_series(rng, f))
            y = delta(random_series(rng, f))
            xr = WittVec("R", [c.reduce_mod_E() for c in x.comps], frame=f)
            yr = WittVec("R", [c.reduce_mod_E() for c in y.comps], frame=f)
            for op in (wadd, wmul):
                over_s = op(x, y)
                reduced = WittVec("R", [c.reduce_mod_E() for c in over_s.comps], frame=f)
                assert reduced == op(xr, yr)


def test_length_and_base_mismatch():
    from windowalg import FrameMismatchError

    with pytest.raises(FrameMismatchError):
        wadd(zvec(3, [1, 0]), zvec(3, [1, 0, 0]))
    with pytest.raises(FrameMismatchError):
        wadd(zvec(3, [1, 0]), zvec(5, [1, 0]))


def test_delta_rejects_r_tag():
    f = frame313()
    with pytest.raises(ValueError):
        delta(f.one("R"))


def test_witt_lengths_below_one_are_refused():
    f = frame313()
    x = f.one() + f.u()
    for length in (0, -1):
        with pytest.raises(ValueError, match="Witt length must be >= 1"):
            delta(x, length)
        with pytest.raises(ValueError, match="Witt length must be >= 1"):
            kappa(x, length)
    assert ("S", -1) not in f._cache  # no ring at p^(N - 1) was made


def test_kappa_refuses_what_delta_refuses():
    f = frame313()
    for x in (3, f.one("R")):
        with pytest.raises(ValueError, match="delta is defined on series-ring elements"):
            kappa(x)


def test_empty_witt_vectors_are_refused():
    f = frame313()

    def below():
        return pytest.raises(ValueError, match="Witt length must be >= 1")

    for length in (0, -1):
        for kw in ({"frame": f}, {"frame": f, "tag": "R"}, {"tag": "Z", "p": 3}):
            with below():
                from_int(5, length, **kw)
        with below():
            from_int(5, length, like=from_int(1, 2, frame=f))
    assert ("S", -1) not in f._cache  # no ring at p^(N - 1) was made
    for tag, kw in (("S", {}), ("S", {"frame": f}), ("R", {"frame": f}), ("Z", {"p": 3})):
        with below():
            WittVec(tag, [], **kw)
    for length in (0, 2):
        with pytest.raises(ValueError, match="S- and R-tagged Witt vectors need a frame"):
            from_int(5, length)


# -- carried ghost components --------------------------------------------------

# a > N, a < N and a = N; e = 1, 2, 3; r = 0, 1, 2
GHOST_FRAMES = [
    Frame.make(3, 1, 2, 4, 3, 3, 3, "u^2 + 3*t1*u + 3"),
    Frame.make(5, 0, 1, 2, 4, 4, 2, "u + 5"),
    Frame.make(3, 2, 3, 3, 3, 2, 4, "u^3 + 3*t2*u^2 + 3*(1 + t1)"),
]


@st.composite
def carrying_pair(draw):
    """Two vectors over S, R or Z of one frame, both carrying their ghosts."""
    f = draw(st.sampled_from(GHOST_FRAMES))
    tag = draw(st.sampled_from(["S", "R", "Z"]))
    if tag == "Z":
        pexp = draw(st.sampled_from([None, f.N]))
        comps = st.lists(st.integers(-99, 99), min_size=f.L, max_size=f.L)
        plain = [WittVec("Z", draw(comps), p=f.p, pexp=pexp) for _ in range(2)]
        shift = from_int(draw(st.integers(-9, 9)), f.L, like=plain[0])
        return [wadd(v, shift) for v in plain]
    seeds = st.integers(0, 2**32)
    xs = [random_series(make_rng(draw(seeds)), f, terms=4, bound=f.p**f.N) for _ in range(2)]
    return [delta(x) if tag == "S" else kappa(x) for x in xs]


def _rebuilt(v):
    """The same vector, knowing only its components."""
    return WittVec(v.tag, v.comps, frame=v.frame, p=v.p, pexp=v.pexp)


@settings(max_examples=40, deadline=None)
@given(carrying_pair())
def test_carried_ghosts_give_the_values_of_rebuilt_copies(pair):
    x, y = pair
    # the ghosts come from the producer: attached, or filled from the kappa source
    assert all(v._ghosts is not None or v._src is not None for v in pair)
    bx, by = _rebuilt(x), _rebuilt(y)
    for op in (wadd, wmul, lambda a, b: a - b):
        assert op(x, y) == op(bx, by)
        assert op(x, by) == op(bx, y)
    assert -x == -bx
    assert ghost(x) == ghost(bx)


def _assert_ghosts_agree(v, frame):
    """Carried ghost n equals the recomputed one modulo p^(M+n)."""
    length = len(v.comps)
    fresh = _ghosts_of(v._ring(length - 1), v._tables, v.p)
    for n, (carried, recomputed) in enumerate(zip(v._ghost_tables(), fresh)):
        ring = frame.ring("R", n)
        assert ring.norm(carried) == ring.norm(recomputed)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GHOST_FRAMES), st.integers(0, 2**32), st.integers(1, 4))
def test_kappa_ghosts_agree_with_its_components(f, seed, length):
    x = random_series(make_rng(seed), f, terms=5, bound=f.p**f.N)
    for y in (x, x.frobenius(), f.E):
        _assert_ghosts_agree(kappa(y, length), f)


def test_tau_ghosts_agree_with_its_components():
    rng = make_rng(212)
    for f in GHOST_FRAMES + [random_frame(rng) for _ in range(20)]:
        _assert_ghosts_agree(tau(f), f)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GHOST_FRAMES), st.integers(0, 2**32), st.integers(1, 4), st.booleans())
def test_lazy_kappa_fills_the_eager_components_and_ghosts(f, seed, length, ghosts_first):
    # kappa solves nothing at the call; each half, read first or second, is
    # the eager one: delta's components folded mod E, the folds pi(sigma^n(x))
    from windowalg.series import _pi_sigma

    x = random_series(make_rng(seed), f, terms=5, bound=f.p**f.N)
    v = kappa(x, length)
    assert len(v) == length and v._tabs is None and v._ghosts is None
    comps = [c.reduce_mod_E() for c in delta(x, length).comps]
    folds = [_pi_sigma(f, length - 1, x.packed, f.p**n) for n in range(length)]
    if ghosts_first:
        assert v._ghost_tables() == folds and v._tabs is None
    assert list(v.comps) == comps
    assert ghosts_first or v._ghosts is None
    assert v._ghost_tables() == folds
    for g in ghost(v):  # ghost n is pi(sigma^n(x)) in R/p^min(a, N)
        assert g == x.reduce_mod_E()
        x = x.frobenius()


def test_threads_reading_one_unfilled_kappa_image_get_equal_values():
    # each thread may fill a half itself; the fills are equal, so every read agrees
    import sys
    import threading

    f = GHOST_FRAMES[2]
    x = random_series(make_rng(216), f, terms=5, bound=f.p**f.N)
    expect = kappa(x)
    expect = (expect.comps, ghost(expect))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for half in (lambda v: (v.comps, ghost(v)), lambda v: (ghost(v), v.comps)[::-1]):
            shared, barrier, results = kappa(x), threading.Barrier(4, timeout=60), [None] * 4

            def work(i):
                barrier.wait()
                results[i] = half(shared)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert results == [expect] * 4
    finally:
        sys.setswitchinterval(interval)


def test_kappa_of_E_is_verschiebung_of_tau():
    # F(kappa(E)) = kappa(sigma(E)) = p*tau = F(V(tau)), and indeed kappa(E) =
    # V(tau): an S-side delta solve against tau's R-side ghost solve with its
    # division by p, on desk, medium, p = 5 and e = 2 frames
    for f in (
        Frame.make(3, 0, 1, 3, 6, 4, 2, "u + 3"),
        Frame.make(3, 1, 2, 4, 8, 6, 3, "u^2 + 3*t1*u + 3*(1 + t1)"),
        Frame.make(5, 1, 1, 3, 5, 4, 2, "u + 5*(1 + t1)"),
        Frame.make(3, 1, 2, 3, 6, 4, 2, "u^2 + 3*t1*u + 3*(1 + t1)"),
    ):
        comps = kappa(f.E, f.L + 1).comps
        assert comps[0].is_zero()
        assert list(comps[1:]) == list(tau(f).comps)


def test_tau_folds_u_degrees_past_the_u_field():
    # sigma(E) holds u^9000, past the 13-bit packed u-field
    f = Frame.make(3, 0, 4000, 1, 3, 2, 2, "u^4000 + 3*u^3000 + 3")
    assert str(tau(f)) == "(1, 0)"


def test_tau_precision_shadow():
    # tau at precision N and at N + 2 agree modulo p^min(a, N)
    rng = make_rng(213)
    for _ in range(25):
        f = random_frame(rng, L=rng.randint(1, 4))
        g = Frame.make(f.p, f.r, f.e, f.a, f.N + 2, f.D, f.L, dict(f.E_items))
        ring = f.ring("R")
        assert [c.packed for c in tau(f).comps] == [ring.norm(c.packed) for c in tau(g).comps]


def test_delta_and_kappa_precision_shadow():
    # at precision N and at N + 2, delta agrees mod p^N and kappa mod p^min(a, N)
    from windowalg.rand import random_table

    rng = make_rng(214)
    for _ in range(20):
        f = random_frame(rng, L=rng.randint(1, 4))
        g = Frame.make(f.p, f.r, f.e, f.a, f.N + 2, f.D, f.L, dict(f.E_items))
        tbl = random_table(rng, f, terms=3, bound=f.p**f.N)
        x, y = f.elem(tbl), g.elem(tbl)
        S, R = f.ring("S"), f.ring("R")
        assert [c.packed for c in delta(x).comps] == [S.norm(c.packed) for c in delta(y).comps]
        assert [c.packed for c in kappa(x).comps] == [R.norm(c.packed) for c in kappa(y).comps]


def test_tau_is_kept_on_its_frame(monkeypatch):
    from windowalg import witt
    from windowalg.series import _frame

    solves = []
    solve = witt._solve_ghost
    monkeypatch.setattr(witt, "_solve_ghost", lambda *args: solves.append(args) or solve(*args))
    _frame.cache_clear()
    f = frame_e2()
    t = tau(f)
    assert solves
    solves.clear()
    assert tau(f) is t and tau(frame_e2()) is t and not solves  # no ghost solve
    _frame.cache_clear()
    g = frame_e2()
    assert tau(g) == t and solves  # no module-level cache: a rebuilt frame solves again
