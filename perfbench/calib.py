"""Machine-speed reference for the timed runs.

The shared hosts the benchmark runs on change speed by half or more,
both from one second to the next and over spells of tens of seconds, and
process CPU time changes with wall time, so neither measures the program
alone.  The benchmark therefore runs a fixed loop of its own between
timed jobs, and rescales each job's wall time by how long that loop took
just before and just after it:

    scaled = wall * REF_NOMINAL_S / mean(loop before, loop after)

A scaled time is the job's wall time on a machine that runs the loop in
``REF_NOMINAL_S`` seconds.  The loop is pure Python of the kind windowalg
spends its time in (tuple-keyed dict updates and integer arithmetic) and
uses no windowalg code, so a change to the program moves the job times
and not the reference.
"""

from time import perf_counter

REF_NOMINAL_S = 0.1
_ITERATIONS = 200_000


def _loop():
    table = {}
    acc = 0
    for i in range(_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i
        acc += i * 3 % 7
    return acc + len(table)


def loop_seconds():
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


class Reference:
    """The reference loop, run between timed pieces of work."""

    def __init__(self):
        self._last = loop_seconds()

    def factor(self):
        """Runs the loop again and returns the factor that turns the wall
        seconds of the work done since its previous run into scaled ones."""
        now = loop_seconds()
        factor = REF_NOMINAL_S * 2 / (self._last + now)
        self._last = now
        return factor
