"""Seeded job corpus for the CLI workloads.

Every job is generated through the public API (``Frame.make``,
``Frame.elem``, matrix helpers and ``str()`` rendering) and written as
block-format text; the CLI under test sees only those files.

Two generators are used so that a job's cost does not swing with the
seed: ``SHAPE_SEED`` fixes, once for all seeds, which monomials each
matrix entry holds, and the benchmark's ``--seed`` draws every
coefficient.  Coefficients are p-adic units (times p where an entry must
lie in the maximal ideal), so products keep their term counts and the
work per job is set by its shape, not by lucky cancellation.
"""

from __future__ import annotations

import random

SHAPE_SEED = 20080819

# The ROADMAP large tier; L is set per display job.
LARGE = dict(p=3, r=2, e=3, a=6, N=12, D=10)
LARGE_E = "u^3 + 3*t1*u + 3*(1 + t2)"

# Seven shapes per CLI workload, so that the median job falls on the
# middle shape and not between two of them.
# (d, c) of each cli-solve job.
SOLVE_SHAPES = ((0, 2), (1, 1), (0, 3), (2, 0), (3, 0), (2, 1), (1, 2))

# (d, c, L, k) of each cli-display job; k is the exponent of the factored
# entries, which the parser expands without caps before truncation.
DISPLAY_SHAPES = (
    (1, 0, 3, 12),
    (1, 0, 4, 10),
    (2, 0, 3, 10),
    (0, 1, 3, 8),
    (1, 0, 4, 16),
    (1, 1, 3, 8),
    (0, 1, 4, 8),
)

# Every display entry carries one factored term; the bases expand to many
# monomials, few of which survive the frame's caps.
DIAG_FACTOR = "(1 + u^7 + t1^4)"
OFF_FACTOR = "(1 + t2^3*u^5 + u^8)"


def frame_text(params, L, E):
    keys = ("p", "r", "e", "a", "N", "D")
    lines = ["[frame]"] + ["%s = %d" % (k, params[k]) for k in keys]
    lines += ["L = %d" % L, "E = %s" % E]
    return "\n".join(lines) + "\n"


def window_text(d, c, rows):
    lines = ["[window]", "d = %d" % d, "c = %d" % c]
    lines += ["row = " + ", ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def units_mod(p):
    """Small coefficients prime to p."""
    return [c for c in range(1, p * p) if c % p]


def _support(srng, frame, terms, tmax, umax):
    keys = []
    for _ in range(terms):
        key, budget = [], tmax
        for _ in range(frame.r):
            exp = srng.randint(0, budget)
            key.append(exp)
            budget -= exp
        key.append(srng.randrange(1, umax))
        keys.append(tuple(key))
    return keys


def entry(srng, vrng, frame, unit, terms=2, tmax=1, umax=None):
    """Series element with a shape-fixed support; a unit when ``unit``,
    otherwise in the maximal ideal (constant term divisible by p)."""
    umax = frame.a * frame.e if umax is None else umax
    units = units_mod(frame.p)
    tbl = {key: vrng.choice(units) for key in _support(srng, frame, terms, tmax, umax)}
    const = vrng.choice(units)
    tbl[(0,) * (frame.r + 1)] = const if unit else frame.p * const
    return frame.elem(tbl)


def unit_matrix(srng, vrng, frame, n, **kw):
    """Unit diagonal, off-diagonal in the maximal ideal: invertible."""
    return tuple(
        tuple(entry(srng, vrng, frame, i == j, **kw) for j in range(n)) for i in range(n)
    )


def _render(M):
    return [[str(x) for x in row] for row in M]


class Job:
    """One CLI invocation: ``windowalg <command> <file> --machine``."""

    def __init__(self, job_id, command, text, expect):
        self.job_id = job_id
        self.command = command
        self.text = text  # None: the file is deliberately missing
        self.expect = expect  # required stdout line, or None for refusals


def solve_jobs(seed):
    from windowalg import Frame
    from windowalg import matrices as mx

    srng = random.Random(SHAPE_SEED)
    vrng = random.Random(seed)
    f = Frame.make(L=4, E=LARGE_E, **LARGE)
    head = frame_text(LARGE, 4, LARGE_E)
    jobs = []
    for idx, (d, c) in enumerate(SOLVE_SHAPES):
        n = d + c
        A1 = unit_matrix(srng, vrng, f, n)
        Z = tuple(
            tuple(entry(srng, vrng, f, True, terms=1, umax=4) for _ in range(n))
            for _ in range(n)
        )
        ue = f.u(f.e)
        A2 = mx.mmul(A1, mx.madd(mx.identity(n, f.one()), mx.mscal(Z, ue)))
        text = "\n".join(
            [
                head,
                window_text(d, c, _render(A1)),
                window_text(d, c, _render(A2)),
                "[solve]\na = %d\n" % f.a,
            ]
        )
        jobs.append(Job("solve-%d" % idx, "solve-iso", text, "residual = 0"))
    return jobs


def display_jobs(seed):
    from windowalg import Frame

    srng = random.Random(SHAPE_SEED + 1)
    vrng = random.Random(seed)
    jobs = []
    for idx, (d, c, L, k) in enumerate(DISPLAY_SHAPES):
        f = Frame.make(L=L, E=LARGE_E, **LARGE)
        n = d + c
        rows = []
        for i, row in enumerate(unit_matrix(srng, vrng, f, n)):
            cells = []
            for j, x in enumerate(row):
                # the factor has constant term 1, so it keeps units units
                # and p * factor keeps the maximal ideal
                scale = vrng.choice(units_mod(f.p))
                if i == j:
                    cells.append("%d*%s^%d + %s" % (scale, DIAG_FACTOR, k, x - f.const(scale)))
                else:
                    cells.append("%d*%s^%d + %s" % (3 * scale, OFF_FACTOR, k, x))
            rows.append(cells)
        text = frame_text(LARGE, L, LARGE_E) + "\n" + window_text(d, c, rows)
        jobs.append(Job("display-%d" % idx, "display", text, "display = valid"))
    return jobs


DESK = dict(p=3, r=0, e=1, a=3, N=6, D=4)


def refusal_jobs(command):
    """Inputs whose documented outcome is exit 1 or 2 with an ``error =``
    or ``parse_error =`` line and no traceback."""
    one = window_text(1, 0, [["1"]])
    other = window_text(1, 0, [["1 + u"]])
    solve = "[solve]\na = 2\n"
    bad_p = dict(DESK, p=4)
    cases = [
        ("p4", frame_text(bad_p, 2, "u + 4")),
        ("not-eisenstein", frame_text(DESK, 2, "u + 9")),
    ]
    jobs = []
    for name, head in cases:
        body = [head, one] + ([other, solve] if command == "solve-iso" else [])
        jobs.append(Job("refuse-" + name, command, "\n".join(body), None))
    if command == "solve-iso":
        # A2 = A1 + 3: a unit change, not congruent to A1 modulo u^e
        text = "\n".join([frame_text(DESK, 2, "u + 3"), one, window_text(1, 0, [["4"]]), solve])
        jobs.append(Job("refuse-not-congruent", command, text, None))
    jobs.append(Job("refuse-missing-file", command, None, None))
    return jobs


def cli_jobs(workload, seed):
    if workload == "cli-solve":
        return solve_jobs(seed), refusal_jobs("solve-iso")
    return display_jobs(seed), refusal_jobs("display")
