from windowalg import (
    DDisplay,
    Frame,
    WittVec,
    display_lie,
    kappa,
    lie,
    make_window,
    tau,
    to_display,
    validate_display,
)
from windowalg import matrices as mx
from windowalg.rand import random_frame, random_series, random_window

from helpers import frame313, frame_e2, make_rng


def test_to_display_unit_window():
    f = frame313()
    w = make_window(f, 1, 0, ((f.one(),),))
    D = to_display(w)
    assert D.B[0][0] == kappa(f.one())
    assert validate_display(D) == []


def test_to_display_etale_column_is_tau():
    f = frame313()
    w = make_window(f, 0, 1, ((f.one(),),))
    D = to_display(w)
    assert D.B[0][0] == tau(f)
    assert validate_display(D) == []


def test_display_det_unit_random():
    rng = make_rng(401)
    for _ in range(20):
        f = random_frame(rng, e=rng.choice([1, 2]), a=2, N=4, L=2)
        w = random_window(rng, f, max_height=2)
        D = to_display(w)
        assert mx.det(D.B).is_unit()
        assert validate_display(D) == []


def test_display_commutes_with_level_reduction():
    rng = make_rng(402)
    for f in (frame313(a=3), frame_e2(a=3, D=3)):
        for _ in range(10):
            w = random_window(rng, f, max_height=2)
            left = to_display(w.at_level(2))
            right = to_display(w).at_level(2)
            assert left == right


def test_display_lie_matches_window_lie():
    rng = make_rng(403)
    f = frame313()
    assert display_lie(to_display(make_window(f, 1, 0, ((f.one(),),)))) == 1
    assert display_lie(to_display(make_window(f, 0, 1, ((f.one(),),)))) == 0
    w = random_window(rng, f, d=2, c=1, max_height=3)
    assert display_lie(to_display(w)) == lie(w)[0]


def test_hand_built_identity_display_is_valid():
    f = frame313()
    one = kappa(f.one())
    zero = kappa(f.zero())
    B = ((one, zero), (zero, one))
    D = DDisplay(f, 1, 1, B)
    assert validate_display(D) == []


def test_display_with_non_unit_det_reported():
    f = frame313()
    p_w = kappa(f.const(3))
    D = DDisplay(f, 1, 0, ((p_w,),))
    assert "det(B) is not a unit" in validate_display(D)


def test_missing_tau_scaling_is_detected():
    # negative control: dropping the tau factor breaks F' = p*F'_1;
    # the frame is chosen so sigma(E)/p - 1 is a unit and the defect is
    # visible at this precision
    f = Frame.make(3, 0, 1, 3, 6, 4, 2, "u + 6")
    w = make_window(f, 0, 1, ((f.one(),),))
    unscaled = DDisplay(f, 0, 1, ((kappa(f.one()),),), source=w)
    report = validate_display(unscaled)
    assert any("F' = p*F'_1" in msg for msg in report)
    # the honest functor output stays valid
    assert validate_display(to_display(w)) == []


def _raise_first_component(D, i, j):
    """D with component 0 of B[i][j] raised by 1, same source."""
    x = D.B[i][j]
    entry = WittVec("R", (x.comps[0] + 1,) + x.comps[1:], frame=D.frame)
    B = [[entry if (k, l) == (i, j) else y for l, y in enumerate(row)] for k, row in enumerate(D.B)]
    return DDisplay(D.frame, D.d, D.c, B, source=D.source)


def test_j_entries_that_are_not_kappa_of_the_window_entry_are_reported():
    # a J-entry passes by equal kappa sources; kappa of another x and a vector
    # with one component moved are compared table by table, and both fail
    f = frame313(L=3)
    w = random_window(make_rng(411), f, d=1, c=1)
    D = to_display(w)
    assert validate_display(D) == []
    x = D.B[1][0]
    moved = WittVec("R", x.comps[:-1] + (x.comps[-1] + 1,), frame=f)
    for i, entry in ((0, kappa(w.A[0][0] + f.one())), (1, moved)):
        B = [[entry if (k, l) == (i, 0) else y for l, y in enumerate(row)] for k, row in enumerate(D.B)]
        assert "J-column 1 does not extend F" in validate_display(DDisplay(f, 1, 1, B, source=w))


def test_low_precision_windows_are_valid_displays():
    # a window entry is known mod p^N, so component n of the L-column identity
    # holds mod p^min(M, N - n), M = min(a, N); compared on every digit, these
    # windows at N = 2 read invalid
    cases = [
        (Frame.make(11, 0, 1, 4, 2, 1, 3, "u + 11"), [x for x in range(12, 33) if x % 11]),
        (Frame.make(3, 0, 1, 3, 2, 2, 2, "u + 3"), [4, 5, 7, 8]),
    ]
    for f, consts in cases:
        for x in consts:
            D = to_display(make_window(f, 0, 1, ((f.const(x),),)))
            assert validate_display(D) == []
            bad = validate_display(_raise_first_component(D, 0, 0))
            assert "L-column 1 violates F' = p*F'_1" in bad


def test_random_low_precision_displays_are_valid_and_tampering_is_seen():
    rng = make_rng(406)
    for _ in range(12):
        N = rng.randint(2, 4)
        f = random_frame(rng, e=rng.choice([1, 2]), a=rng.randint(2, 3), N=N, L=rng.randint(1, 3))
        w = random_window(rng, f, max_height=2)
        D = to_display(w)
        assert validate_display(D) == []
        if w.c:  # M = min(a, N) >= 2, so p * (raised component 0) shows
            bad = validate_display(_raise_first_component(D, 0, w.d))
            assert "L-column %d violates F' = p*F'_1" % (w.d + 1) in bad


def test_tau_scaling_on_mixed_window():
    rng = make_rng(404)
    f = frame313()
    w = random_window(rng, f, d=1, c=1)
    D = to_display(w)
    t = tau(f)
    for i in range(2):
        assert D.B[i][0] == kappa(w.A[i][0])
        assert D.B[i][1] == kappa(w.A[i][1]) * t


def test_tau_is_computed_only_for_an_L_block(monkeypatch):
    from windowalg import display
    from windowalg.series import _frame

    calls = []
    monkeypatch.setattr(display, "tau", lambda f: calls.append(f) or tau(f))
    _frame.cache_clear()
    f = frame313()
    D = to_display(random_window(make_rng(406), f, d=2, c=0))
    assert validate_display(D) == []
    assert calls == [] and "tau" not in f._cache
    # a window with an L-block still scales it by tau
    w = random_window(make_rng(407), f, d=1, c=1)
    D = to_display(w)
    assert calls == [f]
    assert [D.B[i][1] for i in range(2)] == [kappa(w.A[i][1]) * tau(f) for i in range(2)]


def test_each_kappa_image_fills_only_the_half_it_is_read_for(monkeypatch):
    from windowalg import display, witt

    f = frame313(L=3)
    tau(f)  # its check reads the components of kappa(sigma(E))
    images, deltas = [], []
    delta = witt.delta
    monkeypatch.setattr(display, "kappa", lambda x: images.append(witt.kappa(x)) or images[-1])
    monkeypatch.setattr(witt, "delta", lambda *a: deltas.append(a) or delta(*a))
    # d = 0: the L-block products read ghosts only, so no delta solve runs
    to_display(random_window(make_rng(408), f, d=0, c=2))
    assert len(images) == 4 and deltas == []
    assert all(v._tabs is None and v._ghosts is not None for v in images)
    # the J-block and validate_display read components only: no kappa ghost is folded
    D = to_display(random_window(make_rng(409), f, d=1, c=1))
    images.clear()
    assert validate_display(D) == []
    assert len(images) == 4 and deltas
    assert all(v._ghosts is None for v in images + [D.B[0][0], D.B[1][0]])


def test_det_zeroth_component_is_det_of_zeroth_components():
    # x -> x_0 is a ring map W(R) -> R, which validate_display relies on
    rng = make_rng(405)
    for _ in range(15):
        f = random_frame(rng, e=rng.choice([1, 2]), a=2, N=4, L=rng.choice([2, 3]))
        n = rng.randint(1, 3)
        wv = lambda: WittVec("R", [random_series(rng, f, tag="R") for _ in range(f.L)], frame=f)
        B = mx.mat([[wv() for _ in range(n)] for _ in range(n)])
        for M in (B, to_display(random_window(rng, f, max_height=3)).B):
            zeroth = mx.det(mx.mmap(M, lambda x: x.comps[0]))
            assert mx.det(M).comps[0] == zeroth
            report = validate_display(DDisplay(f, len(M), 0, M))
            assert report == ([] if zeroth.is_unit() else ["det(B) is not a unit"])
