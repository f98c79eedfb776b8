import subprocess
import sys
import time

import pytest

from windowalg import Frame, series, validate_frame
from windowalg.rand import random_series, random_unit

from helpers import (
    divmod_oracle,
    frame313,
    frame_e2,
    geometric_inverse_oracle,
    make_rng,
    mul_oracle,
    reduce_oracle,
)


def test_add_simple():
    f = frame313()
    assert f.u() + 3 == f.series("u + 3")


def test_mul_truncates_at_ucap():
    f = frame313(a=1)  # a*e = 1, so u itself is already 0
    assert (f.u() * f.u()).is_zero()
    f2 = frame313(a=2)
    u = f2.u()
    assert (u * u).is_zero()
    assert not u.is_zero()


def test_mul_against_schoolbook_oracle():
    f = Frame.make(3, 1, 1, 2, 5, 4, 2, "u + 3")
    one, t = f.one(), f.t(1)
    prod = (one + t) * (one - t)
    assert prod == f.series("1 - t1^2")
    assert prod == mul_oracle(f, (one + t).coeffs, (one - t).coeffs)


def test_ring_axioms_random():
    rng = make_rng(101)
    for f in (frame313(), frame_e2()):
        for _ in range(40):
            x = random_series(rng, f)
            y = random_series(rng, f)
            z = random_series(rng, f)
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == f.zero()
            assert mul_oracle(f, x.coeffs, y.coeffs) == x * y


def test_frobenius_examples():
    f = frame313(a=4)  # keep u^3 alive
    assert f.u().frobenius() == f.series("u^3")
    assert f.const(7).frobenius() == f.const(7)
    f2 = Frame.make(3, 1, 1, 4, 5, 4, 2, "u + 3")
    assert (f2.t(1) + f2.u()).frobenius() == f2.series("t1^3 + u^3")


def test_frobenius_is_a_ring_map():
    rng = make_rng(102)
    for f in (frame313(), frame_e2()):
        for _ in range(30):
            x = random_series(rng, f)
            y = random_series(rng, f)
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()


def test_reduce_mod_E_examples():
    f = frame313()
    x = f.series("u^2")
    assert x.reduce_mod_E() == f.const(9, "R")
    assert x.reduce_mod_E() == reduce_oracle(f, x)
    assert f.E.reduce_mod_E().is_zero()
    f2 = Frame.make(3, 0, 2, 2, 5, 4, 2, "u^2 + 3")
    y = f2.series("u^3")
    assert y.reduce_mod_E() == f2.elem({(1,): -3}, "R")
    assert y.reduce_mod_E() == reduce_oracle(f2, y)


def test_reduce_is_a_ring_map():
    rng = make_rng(103)
    for f in (frame313(), frame_e2()):
        for _ in range(30):
            x = random_series(rng, f)
            y = random_series(rng, f)
            assert (x * y).reduce_mod_E() == x.reduce_mod_E() * y.reduce_mod_E()
            assert (x + y).reduce_mod_E() == x.reduce_mod_E() + y.reduce_mod_E()


def test_unit_detection_and_inverse():
    f = frame313()
    u = f.u()
    x = f.one() + u
    assert x.is_unit()
    inv = x.invert()
    assert inv * x == f.one()
    assert inv == geometric_inverse_oracle(f, u)
    assert not f.const(3).is_unit()
    with pytest.raises(ZeroDivisionError):
        f.const(3).invert()
    assert f.epsilon == f.one()
    assert f.epsilon.is_unit()


def test_invert_random_units():
    rng = make_rng(104)
    for f in (frame313(), frame_e2()):
        for _ in range(50):
            x = random_unit(rng, f)
            assert x.invert() * x == f.one()


def test_sigma_E_over_p_is_a_unit():
    # reduction of sigma(E) is divisible by p with unit quotient
    for f in (frame313(a=4), frame_e2(a=4), Frame.make(5, 0, 1, 2, 4, 3, 2, "u + 5")):
        red = f.E.frobenius().reduce_mod_E()
        quot = red.divide_by_p()
        assert quot.is_unit()


def test_divide_by_E_in_ring():
    # E * (1 + u) at level 2 has a nonzero polynomial remainder that is
    # still divisible in the ring (remainder is a multiple of p^a)
    f = frame313(a=2, N=4)
    x = f.E * (f.one() + f.u())
    q = x.divide_by_E()
    assert q is not None
    assert q * f.E == x
    assert f.one().divide_by_E() is None


def test_divide_by_E_is_unique_only_up_to_the_annihilator_of_E_when_a_is_below_N():
    # at a = 2 < N, p^(N-2)*g (g*E = p^2) is nonzero and kills E, so a quotient
    # is fixed only up to the annihilator of E: each one below divides
    for N, q in ((4, "28 + 73*u"), (6, "244 + 649*u")):
        f = Frame.make(3, 0, 1, 2, N, 2, 2, "u + 3")
        x = f.series("3 + 4*u")
        assert x.divide_by_E() == f.series(q)
        assert f.series(q) * f.E == x
    f = Frame.make(3, 0, 1, 2, 4, 2, 2, "u + 3")
    other = f.series("1 + u")
    assert other != f.series("28 + 73*u")
    assert other * f.E == f.series("3 + 4*u")


def test_e_is_zero_divisor_free_on_oracle_division():
    f = frame313()
    q, rem = divmod_oracle(dict(f.series("u^2").coeffs), dict(f.E_items), f.e)
    # u^2 = (u - 3)(u + 3) + 9
    assert rem == {(0,): 9}


def test_validate_frame_examples():
    assert validate_frame(frame313()) == []
    bad = Frame.make(3, 0, 1, 3, 6, 4, 2, "u + 1")
    assert "a0 not divisible by p" in validate_frame(bad)
    good = Frame.make(3, 1, 2, 2, 5, 4, 2, "u^2 + 3*t1*u + 3*(1 + t1)")
    assert validate_frame(good) == []
    assert good.E_coeff(1) == good.series("3*t1")
    assert good.E_coeff(0).divide_by_p() == good.series("1 + t1")


def test_validate_frame_structural():
    assert "p is not prime" in validate_frame(Frame.make(9, 0, 1, 2, 4, 3, 2, "u + 9"))
    assert validate_frame(Frame.make(2, 0, 1, 2, 4, 3, 2, "u + 2"))
    assert "E is not monic of u-degree e" in validate_frame(
        Frame.make(3, 0, 2, 2, 4, 3, 2, "u + 3")
    )
    # Miller-Rabin to the bases 2..37: exact below series.MAX_PRIME, the least
    # strong pseudoprime to all of them, which is itself refused
    from sympy import isprime

    frame = lambda p: Frame.make(p, 0, 1, 2, 4, 3, 2, "u + %d" % p)
    assert validate_frame(frame(10**18 + 3)) == []
    # a strong pseudoprime to the bases 2, 3, 5 and 7, and a Carmichael number
    for p in (3215031751, 561):
        assert validate_frame(frame(p)) == ["p is not prime"]
    bound = "p must be below %d, the bound of the primality test" % series.MAX_PRIME
    for p in (series.MAX_PRIME, series.MAX_PRIME + 2, 10**30 + 57):
        assert validate_frame(frame(p)) == [bound]
    assert series._is_prime(series.MAX_PRIME)  # why the bound is where it is
    for n in [*range(3, 3000, 2), 10**9 + 7, 2**61 - 1, 3825123056546413051]:
        assert series._is_prime(n) == isprime(n)


def test_level_shift_roundtrip():
    rng = make_rng(105)
    f = frame313(a=2)
    for _ in range(20):
        x = random_series(rng, f)
        lifted = x.at_level(3)
        assert lifted.frame.a == 3
        assert lifted.at_level(2) == x


def test_rendering_is_graded_lex():
    f = frame_e2()
    x = f.series("1 + u + t1 + t1*u + u^2 + 2")
    assert str(x) == "3 + t1 + u + t1*u + u^2"


def test_frame_mismatch_raises():
    from windowalg import FrameMismatchError

    f, g = frame313(), frame313(a=2)
    with pytest.raises(FrameMismatchError):
        f.u() + g.u()
    with pytest.raises(FrameMismatchError):
        f.one() + f.one("R")


def test_a_frame_has_the_rings_S_and_R_only():
    f = frame313()
    for tag in ("X", "T", ""):
        with pytest.raises(ValueError, match="unknown ring tag %r" % tag):
            f.ring(tag)
        with pytest.raises(ValueError, match="unknown ring tag %r" % tag):
            f.elem({}, tag)


def test_negative_r_is_refused_before_parsing_E():
    with pytest.raises(ValueError, match="r must be >= 0"):
        Frame.make(p=3, r=-1, e=1, a=3, N=6, D=4, L=2, E="u + 3")


def test_series_is_parsed_in_the_truncated_ring():
    f = Frame.make(3, 1, 1, 3, 6, 4, 2, "u + 3")
    start = time.perf_counter()
    x = f.series("(1+u+t1)^1500")
    assert time.perf_counter() - start < 5.0
    assert x == f.series("1+u+t1") ** 1500


def test_R_tagged_constructors_reduce_mod_E():
    f = Frame.make(3, 0, 1, 2, 5, 3, 2, "u + 3")
    assert f.u().reduce_mod_E() == f.const(6, "R")
    assert f.series("u", tag="R") == f.const(6, "R")
    assert f.elem({(1,): 1}, "R") == f.const(6, "R")


def test_frame_at_level_shares_one_frame_per_level():
    from windowalg.rand import random_window
    from windowalg.series import MAX_UCAP

    f = frame313()
    assert f.at_level(f.a) is f
    assert f.at_level(2) is f.at_level(2)
    assert f.at_level(2).at_level(f.a) is f
    w = random_window(make_rng(131), f, d=1, c=1)
    for b in (2, 4):
        low = w.at_level(b)
        assert low.frame is f.at_level(b)
        assert all(x.frame is low.frame for row in low.A for x in row)
    for _ in range(2):
        with pytest.raises(ValueError):
            f.at_level(MAX_UCAP + 1)  # a*e = MAX_UCAP + 1 with e = 1


def test_frame_equality_is_by_value_with_an_identity_shortcut():
    from windowalg import tau
    from windowalg.series import _frame

    f1, f2 = frame_e2(), frame_e2()
    assert f1 is f2
    assert tau(f1) is tau(f2)  # tau lives on the one shared frame
    _frame.cache_clear()
    f3 = frame_e2()  # rebuilt after the table was cleared: distinct, equal by value
    assert f3 is not f1 and f3 == f1 and not f3 != f1
    assert hash(f3) == hash(f1)
    assert f1 != frame_e2(N=6) and f1 != frame_e2(E="u^2 + 3")
    assert f1 != f1.at_level(1) and f1.at_level(1) == frame_e2(a=1)
    assert not f1 == 3 and f1 != 3
    x = f1.u() + 1
    assert x == f3.u() + 1  # elements over equal frames still compare equal


def test_frames_are_one_object_per_value(monkeypatch):
    from windowalg import blocks

    calls = []
    parse = blocks.parse_poly
    monkeypatch.setattr(blocks, "parse_poly", lambda *args: calls.append(args) or parse(*args))
    text = "u^2 + 3*t1^2*u + 3*(2 + t1)"  # no other test parses this text
    f = Frame.make(3, 1, 2, 3, 5, 4, 2, text)
    assert Frame.make(3, 1, 2, 3, 5, 4, 2, text) is f
    assert Frame.make(3, 1, 2, 3, 5, 4, 2, dict(f.E_items)) is f
    assert Frame(f.p, f.r, f.e, f.a, f.N, f.D, f.L, f.E_items) is f
    assert f.at_level(1).at_level(3) is f
    assert len(calls) == 1  # E is parsed once per (text, r)


def test_frames_rebuilt_after_leaving_the_table_interoperate():
    from windowalg import TElem, delta, wadd
    from windowalg.series import _frame

    f = frame_e2()
    x = f.series("1 + t1*u")
    _frame.cache_clear()
    g = frame_e2()
    y = g.series("3 + u")
    assert g is not f and g == f and hash(g) == hash(f)
    assert x + y == f.series("4 + u + t1*u") and y * x == g.series("3 + u + 3*t1*u + t1*u^2")
    assert TElem.embed(x, 2) + TElem.embed(y, 2) == TElem.embed(x + y, 2)
    assert wadd(delta(x), delta(y)) == delta(x + y)


def test_frames_pickle_and_copy_and_refuse_attribute_writes():
    import copy
    import pickle

    from windowalg.series import _frame

    f = frame_e2()
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f and copy.deepcopy(f) is f
    x = f.series("1 + t1*u")
    assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x).frame is f
    assert repr(f).startswith("Frame(p=3, r=1, e=2, a=2, N=5, D=4, L=2, E_items=(((0, 0), 3), ")
    with pytest.raises(AttributeError):
        f.p = 5
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(AttributeError):
        del f.p
    assert f.p == 3 and not hasattr(f, "extra")
    data = pickle.dumps(f)
    _frame.cache_clear()
    g = pickle.loads(data)
    assert g is not f and g == f


def test_level_zero_frame_is_the_zero_ring():
    # constants once kept their term at level 0, so A = (1) passed as invertible
    from windowalg import make_window
    from windowalg.blocks import parse_series

    f = frame313().at_level(0)
    assert parse_series(f, "1") == {}
    assert f.series("1").is_zero() and f.series("1") == f.one() == f.const(7)
    with pytest.raises(ValueError, match="not a unit"):
        make_window(f, 1, 0, ((f.series("1"),),))


def test_negative_powers_are_refused_and_the_zeroth_is_one():
    # n >>= 1 keeps -1 at -1, so x ** -1 once never ended: run it in a child with a timeout
    code = (
        "from windowalg import Frame\n"
        "f = Frame.make(3, 0, 1, 3, 6, 4, 2, 'u + 3')\n"
        "for x in (f.one() + f.u(), f.series('1 + u', tag='R')):\n"
        "    assert x ** 0 == x.one() and x ** 1 == x and x ** 2 == x * x\n"
        "    try:\n"
        "        x ** -1\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "negative exponent -1\n" * 2


def _sympy_expr(tbl, gens):
    expr = 0
    for key, c in tbl.items():
        term = c
        for g, k in zip(gens, key):
            term *= g**k
        expr += term
    return expr


def _sympy_table(expr, gens, D, ucap, pmod):
    """Terms of the expanded expr with t-degree <= D and u-degree < ucap, mod pmod."""
    from sympy import Poly

    out = {}
    for key, c in Poly(expr, *gens).terms():
        if sum(key[:-1]) <= D and key[-1] < ucap and int(c) % pmod:
            out[key] = int(c) % pmod
    return out


def test_S_products_and_E_reduction_against_sympy():
    # rem(., E, u) over ZZ, then the t-cap and p^min(a, N): the caps are ideals
    from sympy import expand, rem, symbols

    from windowalg.rand import random_frame

    rng = make_rng(251)
    for _ in range(16):
        f = random_frame(rng)  # p in {3, 5}, r <= 1, e <= 3, a <= 3
        gens = symbols("t1:%d" % (f.r + 1)) + (symbols("u"),)
        u, E = gens[-1], _sympy_expr(dict(f.E_items), gens)
        pN, pM = f.p**f.N, f.p ** min(f.a, f.N)
        for _ in range(3):
            x = random_series(rng, f, terms=4, bound=pN)
            y = random_series(rng, f, terms=4, bound=pN)
            X, Y = _sympy_expr(x.coeffs, gens), _sympy_expr(y.coeffs, gens)
            assert (x * y).coeffs == _sympy_table(expand(X * Y), gens, f.D, f.a * f.e, pN)
            xr, yr = x.reduce_mod_E(), y.reduce_mod_E()
            assert xr.coeffs == _sympy_table(rem(X, E, u), gens, f.D, f.e, pM)
            XR, YR = _sympy_expr(xr.coeffs, gens), _sympy_expr(yr.coeffs, gens)
            assert (xr * yr).coeffs == _sympy_table(rem(expand(XR * YR), E, u), gens, f.D, f.e, pM)
