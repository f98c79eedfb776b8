"""Seeded end-to-end benchmark of windowalg, with an optional traced run.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
``src/windowalg``).  Workloads, each a closed loop with one client that
starts the next job when the previous one has ended:

- ``cli-solve``: ``windowalg solve-iso`` on large-tier window pairs that
  agree modulo u^e; every job is a fresh interpreter.
- ``cli-display``: ``windowalg display`` on large-tier windows at Witt
  length 3 and 4, with entries partly in factored form.
- ``lib-session``: one process calling the public API on desk and medium
  frames, with caches warm across jobs.
- ``all``: each of the above in turn, for reading by people.

With ``--trace 0`` the run makes as many whole passes over the jobs as
fit into about S seconds, and prints the end-to-end metrics; times are
wall times rescaled to a reference speed measured between jobs (see
``calib.py``).  With ``--trace 1`` it makes one fixed pass over the
jobs instead, each job once untraced and once under the outside-in
tracer, so that every count repeats exactly for a seed; it prints the
per-layer metrics and ``trace.overhead`` and leaves the spans in
``.bench_work/spans/``.  Both check every output.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("cli-solve", "cli-display", "lib-session")
DEFAULT_SEED = 1  # the seed whose CLI outputs are pinned in digests.json
SETUP_SAMPLES = 15
JOB_TIMEOUT = 60.0  # seconds; a job running longer is killed and fails
# A run ends within --seconds plus this slack: past that, every process
# still to be started is killed at once and its job fails.
RUN_SLACK = 130.0
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


class Context:
    """Paths of one benchmark run inside the checkout."""

    def __init__(self, root, seconds):
        self.root = root
        self.deadline = time.perf_counter() + seconds + RUN_SLACK
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_work", "run-%d" % os.getpid())
        self._n = 0

    def path(self, name):
        self._n += 1
        return os.path.join(self.work, "%03d-%s" % (self._n, name))

    def span_dir(self, workload, seed):
        """Where a traced run leaves its spans, one file per process."""
        path = os.path.join(self.root, ".bench_work", "spans", "%s-seed%d" % (workload, seed))
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


class Result:
    """Outcome of one child process."""

    def __init__(self, wall, code, rss_kb, timed_out, stdout, stderr):
        self.wall = wall
        self.code = code
        self.rss_kb = rss_kb
        self.timed_out = timed_out
        self.stdout = stdout
        self.stderr = stderr


def spawn(ctx, argv, timeout=JOB_TIMEOUT):
    """Run argv to completion; wall time, exit code and peak RSS via wait4."""
    out_path, err_path = ctx.path("stdout"), ctx.path("stderr")
    timeout = max(0.5, min(timeout, ctx.deadline - time.perf_counter()))
    killed = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=ctx.root)

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return Result(wall, code, usage.ru_maxrss, bool(killed), stdout, stderr)


def setup_times(ctx, argv):
    """Scaled wall times of SETUP_SAMPLES set-ups (see calib.py)."""
    ref = calib.Reference()
    return [spawn(ctx, argv).wall * ref.factor() for _ in range(SETUP_SAMPLES)]


# -- the CLI workloads -----------------------------------------------------------


def cli_argv(ctx, job, path, spans=None):
    argv = [sys.executable, os.path.join(HERE, "cli_boot.py"), ctx.src]
    if spans is not None:
        argv += [spans, job.job_id]
    return argv + ["--", job.command, path, "--machine"]


def write_jobs(ctx, jobs):
    paths = {}
    for job in jobs:
        paths[job.job_id] = os.path.join(ctx.work, job.job_id + ".txt")
        if job.text is not None:
            with open(paths[job.job_id], "w", encoding="utf-8") as fh:
                fh.write(job.text)
    return paths


def load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_cli(job, res, seen, pinned):
    """None when the job's output is as documented, else the problem."""
    if res.timed_out:
        return "timed out"
    if b"Traceback" in res.stderr:
        return "traceback"
    if res.code != 0:
        return "exit code %d" % res.code
    lines = res.stdout.decode("utf-8", "replace").splitlines()
    if job.expect not in lines:
        return "no %r line" % job.expect
    if seen.setdefault(job.job_id, res.stdout) != res.stdout:
        return "stdout differs between repeats"
    if pinned is not None and hashlib.sha256(res.stdout).hexdigest() != pinned.get(job.job_id):
        return "stdout differs from the pinned digest"
    return None


def check_refusal(res):
    """Documented refusal: exit 1 or 2, an error line, no traceback."""
    lines = res.stdout.decode("utf-8", "replace").splitlines()
    if res.timed_out:
        return "timed out"
    if b"Traceback" in res.stderr:
        return "traceback (exit %d)" % res.code
    if res.code not in (1, 2):
        return "exit %d" % res.code
    if not any(line.startswith(("error = ", "parse_error = ")) for line in lines):
        return "no error line"
    return None


def run_refusals(ctx, refusals, paths, traced=None):
    """Refusal jobs run outside the timed loop; their outcome is a report
    line, because the program does not yet refuse every such input."""
    report = []
    for job in refusals:
        res = spawn(ctx, cli_argv(ctx, job, paths[job.job_id]))
        report.append((job.job_id, check_refusal(res)))
        if traced is not None:
            traced(job, res)
    return report


def cli_timed(ctx, workload, seed, seconds):
    jobs, refusals = corpus.cli_jobs(workload, seed)
    paths = write_jobs(ctx, jobs + refusals)
    probe = [sys.executable, "-c", "import sys; sys.path.insert(0, %r); import windowalg.cli" % ctx.src]
    setup = setup_times(ctx, probe)
    pinned = load_digests()[workload] if seed == DEFAULT_SEED else None
    seen, times, walls, rss, problems = {}, [], [], [], []
    ref = calib.Reference()

    def one_pass():
        for job in jobs:
            res = spawn(ctx, cli_argv(ctx, job, paths[job.job_id]))
            times.append(res.wall * ref.factor())
            walls.append(res.wall)
            rss.append(res.rss_kb)
            problem = check_cli(job, res, seen, pinned)
            if problem:
                problems.append("%s: %s" % (job.job_id, problem))

    # whole passes, so that every run holds the same mix of jobs; the first
    # pass, reference loops included, sets how many fit into the requested time
    t0 = time.perf_counter()
    one_pass()
    for _ in range(max(1, round(seconds / (time.perf_counter() - t0))) - 1):
        one_pass()
    refused = run_refusals(ctx, refusals, paths)
    summary = summarize(setup, times, sum(walls), len(jobs), max(rss) / 1024.0, problems)
    return summary, refused


def cli_traced(ctx, workload, seed):
    jobs, refusals = corpus.cli_jobs(workload, seed)
    paths = write_jobs(ctx, jobs + refusals)
    pinned = load_digests()[workload] if seed == DEFAULT_SEED else None
    totals = {"plain": 0.0, "traced": 0.0}
    raw = None
    problems = []
    span_dir = ctx.span_dir(workload, seed)

    def traced(job, plain):
        nonlocal raw
        spans = os.path.join(span_dir, job.job_id + ".jsonl")
        res = spawn(ctx, cli_argv(ctx, job, paths[job.job_id], spans))
        totals["plain"] += plain.wall
        totals["traced"] += res.wall
        raw = tracer.merge(raw, tracer.read_raw(spans))
        if (res.code, res.stdout) != (plain.code, plain.stdout):
            problems.append("%s: traced output differs" % job.job_id)
        return res

    seen = {}
    for job in jobs:
        plain = spawn(ctx, cli_argv(ctx, job, paths[job.job_id]))
        problem = check_cli(job, plain, seen, pinned)
        res = traced(job, plain)
        problem = problem or check_cli(job, res, seen, pinned)
        if problem:
            problems.append("%s: %s" % (job.job_id, problem))
    refused = run_refusals(ctx, refusals, paths, traced)
    overhead = totals["traced"] / totals["plain"]
    attempted = len(jobs) + len(refusals)
    return tracer.metrics(raw, overhead), attempted, problems, refused


# -- the library workload ----------------------------------------------------------


def session_argv(ctx, mode, seed, seconds, out, spans=None):
    argv = [sys.executable, os.path.join(HERE, "session.py"), ctx.src, mode, str(seed)]
    argv += [str(seconds), out]
    return argv + ([spans] if spans else [])


def run_session(ctx, mode, seed, seconds, spans=None):
    out = ctx.path("session.json")
    res = spawn(ctx, session_argv(ctx, mode, seed, seconds, out, spans), seconds + JOB_TIMEOUT)
    if res.code != 0 or res.timed_out:
        sys.stderr.write(res.stderr.decode("utf-8", "replace"))
        raise RuntimeError("lib-session process failed with exit code %d" % res.code)
    with open(out, encoding="utf-8") as fh:
        return res, json.load(fh)


def lib_timed(ctx, seed, seconds):
    setup = setup_times(ctx, session_argv(ctx, "setup", seed, 0, ctx.path("setup.json")))
    res, report = run_session(ctx, "timed", seed, seconds)
    return summarize(
        setup, report["times"], report["wall"], report["jobs_per_pass"], res.rss_kb / 1024.0,
        report["failures"],
    )


def lib_traced(ctx, seed):
    _, plain = run_session(ctx, "pass", seed, 0)
    spans = os.path.join(ctx.span_dir("lib-session", seed), "session.jsonl")
    _, traced = run_session(ctx, "pass", seed, 0, spans)
    problems = plain["failures"] + traced["failures"]
    if plain["digest"] != traced["digest"]:
        problems.append("traced results differ from untraced results")
    overhead = sum(traced["times"]) / sum(plain["times"])
    metrics = tracer.metrics(tracer.read_raw(spans), overhead)
    return metrics, len(plain["times"]), problems


# -- metrics and output --------------------------------------------------------------


def summarize(setup, times, wall, per_pass, peak_rss_mb, problems):
    """End-to-end values from the job times of whole passes.

    ``times`` are wall times rescaled to the reference speed (calib.py),
    ``wall`` is their unscaled total.  Throughput and percentiles are
    taken over every job of the run.
    """
    passes = len(times) // per_pass
    q = statistics.quantiles(times, n=10) if len(times) > 1 else times * 9
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": q[8],
        "peak_rss_mb": peak_rss_mb,
    }
    per_job = "%d samples: %d jobs x %d passes" % (len(times), per_pass, passes)
    notes = {
        "setup_s": "median of %d set-ups" % len(setup),
        "jobs_per_s": "%s; %.2f s of job wall time, %.2f s scaled" % (per_job, wall, sum(times)),
        "job_p50_s": per_job,
        "job_p90_s": per_job,
        "peak_rss_mb": "largest peak resident set of a job process, from wait4",
    }
    return values, notes, len(times), problems


def print_timed(workload, summary, refused):
    values, notes, attempted, problems = summary
    print("workload %s (tracing off; times in seconds at reference speed)" % workload)
    for name, unit in END_TO_END:
        print("  %-12s = %.6g %s  (%s)" % (name, values[name], unit, notes[name]))
    print("  fail_ratio   = %d/%d" % (len(problems), attempted))
    for problem in problems[:10]:
        print("    failed: %s" % problem)
    print_refusals(refused)


def print_refusals(refused):
    if refused is None:
        return
    bad = [(job_id, why) for job_id, why in refused if why]
    print("  refusals     = %d/%d not as documented" % (len(bad), len(refused)))
    for job_id, why in bad:
        print("    %s: %s" % (job_id, why))


def result_line(attempted, problems, metrics, units):
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }


def run_workload(ctx, workload, seed, seconds, trace):
    refused = None
    if trace:
        if workload == "lib-session":
            metrics, attempted, problems = lib_traced(ctx, seed)
        else:
            metrics, attempted, problems, refused = cli_traced(ctx, workload, seed)
        units = dict(tracer.metric_names())
        print("workload %s (traced, fixed passes)" % workload)
        for name, unit in tracer.metric_names():
            print("  %s = %.6g %s" % (name, metrics[name], unit))
        for problem in problems[:10]:
            print("    failed: %s" % problem)
        print_refusals(refused)
        return result_line(attempted, problems, metrics, units)
    if workload == "lib-session":
        summary = lib_timed(ctx, seed, seconds)
    else:
        summary, refused = cli_timed(ctx, workload, seed, seconds)
    print_timed(workload, summary, refused)
    values, _, attempted, problems = summary
    return result_line(attempted, problems, values, dict(END_TO_END))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "windowalg", "__init__.py")):
        sys.stderr.write("run.py: no src/windowalg here; run it from a windowalg checkout\n")
        return 2
    ctx = Context(root, args.seconds)
    os.makedirs(ctx.work)
    sys.path.insert(0, ctx.src)
    try:
        if args.workload != "all":
            line = run_workload(ctx, args.workload, args.seed, args.seconds, args.trace)
        else:
            lines = {w: run_workload(ctx, w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
            line = {
                "correct": all(r["correct"] for r in lines.values()),
                "attempted": sum(r["attempted"] for r in lines.values()),
                "failed": sum(r["failed"] for r in lines.values()),
                "metrics": {
                    "%s.%s" % (w, name): m for w, r in lines.items() for name, m in r["metrics"].items()
                },
            }
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
