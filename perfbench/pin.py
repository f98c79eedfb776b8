"""Pin the stdout of every default-seed CLI job in digests.json.

usage: python3 perfbench/pin.py      (from the root of a checkout)

Byte-identical stdout is an invariant of the CLI, so the benchmark fails
any default-seed job whose stdout no longer matches its pinned sha256.
Pin again only when a change of output is intended.
"""

import hashlib
import json
import os
import shutil
import sys

import run


def main():
    ctx = run.Context(os.getcwd(), 0)
    os.makedirs(ctx.work)
    sys.path.insert(0, ctx.src)
    digests = {}
    try:
        for workload in ("cli-solve", "cli-display"):
            jobs, _ = run.corpus.cli_jobs(workload, run.DEFAULT_SEED)
            paths = run.write_jobs(ctx, jobs)
            digests[workload] = {}
            for job in jobs:
                res = run.spawn(ctx, run.cli_argv(ctx, job, paths[job.job_id]))
                problem = run.check_cli(job, res, {}, None)
                if problem:
                    raise SystemExit("%s %s: %s" % (workload, job.job_id, problem))
                digests[workload][job.job_id] = hashlib.sha256(res.stdout).hexdigest()
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
