"""Run-to-run spread of the end-to-end metrics over a set of seeds.

usage: python3 perfbench/spread.py --workload W --seeds 101-110 [--seconds S] [--out FILE]

Run from the root of a checkout.  Makes one untraced run of
``perfbench/run.py`` per seed, one after another, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, the distance between the quartiles as a share
of the median.  A benchmark whose spread on a metric is not well inside
that metric's bound in BENCHMARK.json cannot tell a regression from
noise.  With --out the figures are written as JSON as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    values, correct = {}, True
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (n, v[-1]) for n, v in values.items())))
    summary = {"seeds": args.seeds, "seconds": seconds, "all_correct": correct, "metrics": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        summary["metrics"][name] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals,
        }
        print("%-12s median %-11.5g spread %.3f  (bound %.2f)" % (name, median, spread, bounds[name]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
