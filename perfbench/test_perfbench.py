"""Tests of the benchmark itself.

usage: python3 -m pytest perfbench/test_perfbench.py   (from the checkout root)
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import calib  # noqa: E402
import corpus  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_generator_is_deterministic_per_seed():
    for workload in ("cli-solve", "cli-display"):
        texts = [[j.text for j in sum(corpus.cli_jobs(workload, s), [])] for s in (7, 7, 8)]
        assert texts[0] == texts[1]
        assert texts[0] != texts[2]
    assert repr(session.generate(7)) == repr(session.generate(7))
    assert repr(session.generate(7)) != repr(session.generate(8))


def supports(text):
    from windowalg import blocks

    return [
        [sorted(blocks.parse_poly(cell, 2)) for cell in row.split(",")]
        for b in blocks.parse_blocks(text)
        for row, _, _ in b.rows()
    ]


def test_seed_changes_coefficients_not_shapes():
    # job cost is set by the monomial supports, which SHAPE_SEED fixes
    for x, y in zip(corpus.solve_jobs(7), corpus.solve_jobs(8)):
        assert x.text != y.text
        assert supports(x.text) == supports(y.text)


def test_reference_factor_rescales_the_loop_to_its_nominal_time():
    ref = calib.Reference()
    scaled = calib.loop_seconds() * ref.factor()
    # the loop's own time, scaled by the loops around it, is about nominal
    assert 0.5 * calib.REF_NOMINAL_S < scaled < 2 * calib.REF_NOMINAL_S


def test_install_leaves_no_listed_binding_unwrapped():
    code = (
        "import json, sys; sys.path[:0] = [%r, %r]; import tracer; "
        "before = tracer.unwrapped_bindings(); tracer.Tracer().install(); "
        "print(json.dumps([before, tracer.unwrapped_bindings()]))" % (HERE, SRC)
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    before, after = json.loads(out.stdout)
    # the check sees the bindings made by "from ... import" and the aliases
    for name in ("windowalg.display.kappa", "windowalg.cli.solve_iso", "SeriesElem.__rmul__"):
        assert name in before
    assert after == []


def test_traced_and_untraced_stdout_identical(tmp_path):
    desk = dict(p=3, r=1, e=2, a=3, N=6, D=4)
    head = corpus.frame_text(desk, 2, "u^2 + 3*t1*u + 3*(1 + t1)")
    win = corpus.window_text(1, 1, [["1 + t1*u", "3 + u"], ["u^2", "1 + (1 + t1)^3"]])
    jobs = {
        "display": head + win,
        "solve-iso": head + win + win.replace("1 + (1", "1 + u^2 + (1") + "[solve]\na = 2\n",
    }
    for command, text in jobs.items():
        path = tmp_path / "job.txt"
        path.write_text(text)
        boot = [sys.executable, os.path.join(HERE, "cli_boot.py"), SRC]
        tail = ["--", command, str(path), "--machine"]
        spans = str(tmp_path / "spans.jsonl")
        plain = subprocess.run(boot + tail, capture_output=True, text=True)
        traced = subprocess.run(boot + [spans, "job"] + tail, capture_output=True, text=True)
        assert plain.returncode == 0, plain.stdout + plain.stderr
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
        raw = tracer.read_raw(spans)
        assert raw["stats"]["cli.main"][0] == 1
        assert raw["stats"]["blocks.parse_poly"][0] > 0


def test_metric_lists_match_benchmark_json():
    spec = bench_json()
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_smoke_run_prints_every_metric():
    spec = bench_json()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        out = run_bench("--workload", "lib-session", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names = [m["name"] for m in spec[key]]
        assert sorted(result["metrics"]) == sorted(names)
        for name in names:
            assert name in out.stdout.split("\n{")[0]


def test_cli_smoke_run_checks_outputs():
    out = run_bench("--workload", "cli-solve", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert "refusals" in out.stdout


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = run_bench("--workload", "cli-solve", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout == ""
