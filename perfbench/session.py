"""The lib-session workload: one process calling the public API.

usage: python3 perfbench/session.py SRC MODE SEED SECONDS OUT [SPANS]

MODE is ``setup`` (import and frame construction only), ``timed``
(whole passes over the jobs until SECONDS have passed, tracing off) or ``pass`` (run the
job list a fixed number of times, traced when SPANS is given, so that
traced counts repeat exactly).  Results go to OUT as JSON; job times are
wall times rescaled to the reference speed measured around each pass
(see calib.py), and ``wall`` is their unscaled total.

Every job re-derives its frame through ``Frame.make`` and ``at_level``
and rebuilds its operands from raw tables, as a library user holding
plain data would; the module-level caches (``tau``, the polynomial
table) stay warm across jobs.  Each job's result is checked after its
timed call by an identity the job itself did not compute.
"""

import hashlib
import json
import random
import sys
import time

import calib

PASSES = 10  # passes in ``pass`` mode: the first is cold, the rest warm

DESK = (3, 0, 1, 3, 6, 4, 2, "u + 3")
MEDIUM = (3, 1, 2, 4, 8, 6, 3, "u^2 + 3*t1*u + 3*(1 + t1)")
P5 = (5, 1, 1, 3, 5, 4, 2, "u + 5*(1 + t1)")
E2 = (3, 1, 2, 3, 6, 4, 2, "u^2 + 3*t1*u + 3*(1 + t1)")
HOM = ((3, 0, 1, 3, 5, 3, 2, "u + 3"), (3, 1, 1, 3, 4, 3, 2, "u + 3"))
POOL = (DESK, MEDIUM, P5, E2) + HOM

# One pass over the job list, by kind: (frame, d, c[, ...]).
DECOMPOSE = ((DESK, 1, 1), (DESK, 1, 2), (MEDIUM, 1, 1), (MEDIUM, 2, 1), (P5, 1, 1))
DISPLAY = ((DESK, 1, 1), (DESK, 0, 2), (MEDIUM, 1, 1), (MEDIUM, 1, 0), (P5, 1, 1))
ISOGENY = ((DESK, 1, 1, (1, 0)), (DESK, 0, 2, (1, 1)), (P5, 1, 1, (1, 0)))
SOLVE = ((DESK, 1, 1), (DESK, 0, 2), (E2, 1, 1), (E2, 2, 0))
WITT_Z = ((3, 4, 10), (5, 3, 6), (3, 6, 12))
WITT_R = (MEDIUM, DESK, P5)
HOM_SHAPES = ((HOM[0], 1, 1), (HOM[1], 1, 1))


def frame_of(params):
    from windowalg import Frame

    return Frame.make(*params)


def setup():
    """Import plus frame construction: what a session pays first."""
    import windowalg  # noqa: F401

    return [frame_of(params).at_level(1) for params in POOL]


# -- operands travel as raw tables ------------------------------------------


def tables(M):
    return [[dict(x.coeffs) for x in row] for row in M]


def elems(f, T, tag="S"):
    return tuple(tuple(f.elem(t, tag) for t in row) for row in T)


def window(f, d, c, T):
    from windowalg import make_window

    return make_window(f, d, c, elems(f, T))


def render(M):
    return ";".join(",".join(str(x) for x in row) for row in M)


# -- generation ---------------------------------------------------------------


def generate(seed):
    """The job list for one seed: (job id, kind, data) triples.

    As in the CLI corpus, ``corpus.SHAPE_SEED`` fixes every support and
    shape and the seed draws the coefficients, so a job's cost does not
    depend on the seed."""
    from windowalg import matrices as mx

    from corpus import SHAPE_SEED, entry, unit_matrix

    srng = random.Random(SHAPE_SEED + 2)
    vrng = random.Random(seed)
    jobs = []

    def add(kind, data):
        jobs.append(("%s-%d" % (kind, len(jobs)), kind, data))

    def unit(f, n):
        return unit_matrix(srng, vrng, f, n)

    for params, d, c in DECOMPOSE:
        f = frame_of(params)
        n = d + c
        phi = mx.mmul(unit(f, n), c_matrix(f, d, n))
        add("decompose", (params, tables(mx.mmul(phi, unit(f, n))), d))
    for params, d, c in DISPLAY:
        add("display", (params, d, c, tables(unit(frame_of(params), d + c))))
    for params, d, c, exps in ISOGENY:
        add("isogeny", (params,) + _isogeny(srng, vrng, frame_of(params), d, c, exps))
    for params, d, c in SOLVE:
        f = frame_of(params)
        n = d + c
        A1 = unit(f, n)
        Z = [[entry(srng, vrng, f, True, umax=f.e + 1) for _ in range(n)] for _ in range(n)]
        A2 = mx.mmul(A1, mx.madd(mx.identity(n, f.one()), mx.mscal(mx.mat(Z), f.u(f.e))))
        add("solve", (params, d, c, tables(A1), tables(A2), min(f.a, 3)))
    for p, length, pexp in WITT_Z:
        xs = [[vrng.randrange(p**pexp) for _ in range(length)] for _ in range(2)]
        add("witt-z", (p, pexp, xs))
    for params in WITT_R:
        f = frame_of(params)
        xs = [
            [dict(entry(srng, vrng, f, True, terms=3).reduce_mod_E().coeffs) for _ in range(f.L)]
            for _ in range(2)
        ]
        add("witt-r", (params, xs))
    for params, d, c in HOM_SHAPES:
        f = frame_of(params)
        add("hom", (params, d, c, tables(unit(f, d + c)), tables(unit(f, d + c))))
    return jobs


def c_matrix(f, d, n):
    """blockdiag(E*I_d, I_c), the factor of the structural map."""
    return tuple(
        tuple((f.E if i < d else f.one()) if i == j else f.zero() for j in range(n))
        for i in range(n)
    )


def _isogeny(srng, vrng, f, d, c, exps):
    """A window, the target of U = diag(p^k_i) with k descending, and U.

    The source is upper triangular modulo p^(k_0 - k_last), so that
    conjugating it by U stays integral."""
    from windowalg import make_window

    from corpus import entry

    n = d + c
    scale = f.p ** max(exps[0] - exps[-1], 1)
    A = [
        [entry(srng, vrng, f, i == j) * (scale if i > j else 1) for j in range(n)]
        for i in range(n)
    ]
    w = make_window(f, d, c, A)
    A2 = []
    for i in range(n):
        row = []
        for j in range(n):
            k = exps[i] - exps[j]
            row.append(w.A[i][j] * f.p**k if k >= 0 else w.A[i][j].divide_by_p(-k))
        A2.append(row)
    U = [[f.const(f.p ** exps[i]) if i == j else f.zero() for j in range(n)] for i in range(n)]
    return d, c, tables(A), tables(A2), tables(U), sum(exps)


# -- jobs: run() is timed, check() is not ------------------------------------


def run_job(kind, data):
    import windowalg as wa

    if kind == "decompose":
        params, M, _ = data
        f = frame_of(params)
        M = elems(f, M)
        d, c, A, U = wa.normal_decompose(f, M)
        fiber = wa.special_fiber(wa.make_window(f, d, c, A))
        return (f, M, d, c, A, U, fiber)
    if kind == "display":
        params, d, c, A = data
        f = frame_of(params)
        w = window(f, d, c, A)
        D = wa.to_display(w)
        report = wa.validate_display(D)
        reduced = wa.to_display(w.at_level(1)) == D.at_level(1)
        return (D, report, reduced)
    if kind == "isogeny":
        params, d, c, A, A2, U, _ = data
        f = frame_of(params)
        src, mid = window(f, d, c, A), window(f, d, c, A2)
        mod = wa.make_module(src, mid, elems(f, U))
        n = d + c
        pI = tuple(tuple(f.const(f.p) if i == j else f.zero() for j in range(n)) for i in range(n))
        scal = wa.make_module(mid, mid, pI)
        comp = wa.compose(scal, mod)
        return (mod, scal, comp, wa.validate_breuil_module(comp))
    if kind == "solve":
        params, d, c, A1, A2, level = data
        f = frame_of(params)
        w1, w2 = window(f, d, c, A1), window(f, d, c, A2)
        return (w1, w2, level, wa.solve_iso(w1, w2, level))
    if kind == "witt-z":
        p, pexp, (xs, ys) = data
        x = wa.WittVec("Z", xs, p=p, pexp=pexp)
        y = wa.WittVec("Z", ys, p=p, pexp=pexp)
        return (x, y, wa.wadd(x, y), wa.wmul(x, y))
    if kind == "witt-r":
        params, (xs, ys) = data
        f = frame_of(params)
        x = wa.WittVec("R", [f.elem(t, "R") for t in xs], frame=f)
        y = wa.WittVec("R", [f.elem(t, "R") for t in ys], frame=f)
        return (x, y, wa.wadd(x, y), wa.wmul(x, y))
    if kind == "hom":
        params, d, c, A1, A2 = data
        f = frame_of(params)
        return (wa.vanishing_hom_dim(window(f, d, c, A1), window(f, d, c, A2), 1),)
    raise ValueError("unknown job kind %r" % kind)


def check_job(kind, data, out):
    """Return (problem or None, canonical rendering of the result)."""
    import windowalg as wa
    from windowalg import matrices as mx

    if kind == "decompose":
        f, M, d, c, A, U, fiber = out
        n = d + c
        if not mx.meq(mx.mmul(M, U), mx.mmul(A, c_matrix(f, d, n))):
            return "M*U != A*C", ""
        if d != data[2] or (fiber.height, fiber.dim) != (n, d):
            return "rank or special fiber mismatch", ""
        return None, "%d %d %s %s %s" % (d, c, render(A), render(U), fiber.is_nilpotent)
    if kind == "display":
        D, report, reduced = out
        if report or not reduced:
            return "display invalid or not compatible with level reduction", ""
        return None, render(D.B)
    if kind == "isogeny":
        mod, scal, comp, report = out
        if report or comp.m != mod.m + scal.m or mod.m != data[-1]:
            return "p-length not additive under compose", ""
        return None, "%d %d %d" % (mod.m, scal.m, comp.m)
    if kind == "solve":
        w1, w2, level, X = out
        n = w1.height
        lead_ok = all(
            X[i][j].coeffs[0] == ({(0,) * (w1.frame.r + 1): 1} if i == j else {})
            for i in range(n)
            for j in range(n)
        )
        if not lead_ok or not mx.is_zero(wa.residual(w1, w2, X, level)):
            return "solver residual nonzero or X != I mod v", ""
        return None, render(X)
    if kind in ("witt-z", "witt-r"):
        x, y, s, m = out
        gx, gy, gs, gm = (wa.ghost(v) for v in (x, y, s, m))
        if kind == "witt-z":
            mod = x.p**x.pexp
            sums = [(a + b) % mod for a, b in zip(gx, gy)]
            prods = [(a * b) % mod for a, b in zip(gx, gy)]
        else:
            sums = [a + b for a, b in zip(gx, gy)]
            prods = [a * b for a, b in zip(gx, gy)]
        if gs != sums or gm != prods:
            return "ghost map is not a ring map on the result", ""
        return None, "%s %s" % (s, m)
    if kind == "hom":
        if out[0] != 0:
            return "nonzero vanishing morphisms (rigidity)", ""
        return None, str(out[0])
    raise ValueError("unknown job kind %r" % kind)


# -- modes ----------------------------------------------------------------------


def main():
    src, mode, seed, seconds, out_path = sys.argv[1:6]
    spans = sys.argv[6] if len(sys.argv) > 6 else None
    sys.path.insert(0, src)
    tracer = None
    if spans:
        from tracer import Tracer

        tracer = Tracer().install()
        tracer.on = False
    setup()
    if mode == "setup":
        return 0
    jobs = generate(int(seed))
    results = {}
    times, failures = [], []
    wall = 0.0
    deadline = time.perf_counter() + float(seconds)
    rounds = 0
    ref = calib.Reference()
    while True:
        elapsed = []
        for job_id, kind, data in jobs:
            if tracer is not None:
                tracer.job = job_id
                tracer.on = True
            t0 = time.perf_counter()
            try:
                out = run_job(kind, data)
            except Exception as err:  # a failed job is reported, not fatal
                out, problem = None, "%s: %r" % (job_id, err)
            elapsed.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.on = False
            if out is not None:
                problem, text = check_job(kind, data, out)
                if problem is None and results.setdefault(job_id, text) != text:
                    problem = "output differs between repeats"
                if problem is not None:
                    problem = "%s: %s" % (job_id, problem)
            if problem is not None:
                failures.append(problem)
        factor = ref.factor()
        times += [e * factor for e in elapsed]
        wall += sum(elapsed)
        rounds += 1
        if mode == "timed" and time.perf_counter() >= deadline:
            break
        if mode == "pass" and rounds == PASSES:
            break
    digest = hashlib.sha256(
        "\n".join("%s %s" % kv for kv in sorted(results.items())).encode()
    ).hexdigest()
    report = {
        "times": times,
        "wall": wall,
        "jobs_per_pass": len(jobs),
        "failures": failures,
        "digest": digest,
    }
    if tracer is not None:
        tracer.dump(spans)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
