import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from windowalg import blocks as blk
from windowalg.cli import main

FRAME = """[frame]
p = 3
r = 0
e = 1
a = 3
N = 6
D = 4
L = 2
E = u + 3
"""

SOLVE_JOB = FRAME + """
[window]
d = 1
c = 0
row = 1

[window]
d = 1
c = 0
row = 1 + u

[solve]
a = 2
"""

MODULE_JOB = FRAME + """
[window]
d = 1
c = 1
row = 1, 0
row = 0, 1

[window]
d = 1
c = 1
row = 1, 0
row = 0, 1

[matrix]
row = 3, 0
row = 0, 3
"""


def run_cli(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_nu_golden(capsys, tmp_path):
    path = write(tmp_path, "f.txt", FRAME.replace("a = 3", "a = 1"))
    code, out = run_cli(capsys, ["nu", path, "--machine"])
    assert code == 0
    assert out == "nu = 1\n"


def test_validate_good_and_bad(capsys, tmp_path):
    good = write(tmp_path, "good.txt", FRAME)
    code, out = run_cli(capsys, ["validate", good, "--machine"])
    assert code == 0
    assert out == "frame = valid\n"
    bad = write(tmp_path, "bad.txt", FRAME.replace("u + 3", "u + 1"))
    code, out = run_cli(capsys, ["validate", bad, "--machine"])
    assert code == 1
    assert "error = a0 not divisible by p" in out
    assert "frame = invalid" in out


def test_validate_window_block(capsys, tmp_path):
    job = FRAME + "\n[window]\nd = 1\nc = 1\nrow = 1, u\nrow = 0, 1\n"
    path = write(tmp_path, "w.txt", job)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 0
    assert "window1 = valid" in out


def test_solve_iso_golden(capsys, tmp_path):
    path = write(tmp_path, "s.txt", SOLVE_JOB)
    code, out = run_cli(capsys, ["solve-iso", path, "--machine"])
    assert code == 0
    assert out == "level = 2\nX[1][1] = 1 + (726)*v\nresidual = 0\n"


def test_module_golden(capsys, tmp_path):
    path = write(tmp_path, "m.txt", MODULE_JOB)
    code, out = run_cli(capsys, ["module", path, "--machine"])
    assert code == 0
    assert "m = 2" in out
    assert "order = 3^2" in out
    assert "module = valid" in out


def test_special_fiber_golden(capsys, tmp_path):
    job = FRAME + "\n[window]\nd = 1\nc = 0\nrow = 1\n"
    path = write(tmp_path, "sf.txt", job)
    code, out = run_cli(capsys, ["special-fiber", path, "--machine"])
    assert code == 0
    assert out == (
        "height = 1\ndim = 1\nnilpotent = true\nA0.row1 = 1\nPhi0.row1 = 1\n"
    )


def test_display_command(capsys, tmp_path):
    job = FRAME + "\n[window]\nd = 0\nc = 1\nrow = 1\n"
    path = write(tmp_path, "d.txt", job)
    code, out = run_cli(capsys, ["display", path, "--machine"])
    assert code == 0
    assert "B[1][1] = (19, 9)" in out
    assert "display = valid" in out


def test_output_is_deterministic(capsys, tmp_path):
    path = write(tmp_path, "s.txt", SOLVE_JOB)
    _, out1 = run_cli(capsys, ["solve-iso", path, "--machine"])
    _, out2 = run_cli(capsys, ["solve-iso", path, "--machine"])
    assert out1 == out2
    _, outh = run_cli(capsys, ["solve-iso", path])
    assert outh == "windowalg solve-iso\n" + out1


def test_parse_error_is_positional(capsys, tmp_path):
    text = FRAME.replace("E = u + 3", "E = u + + 3")
    path = write(tmp_path, "p.txt", text)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 2
    assert "parse_error" in out
    assert "line 9" in out


def test_unknown_variable_is_positional(capsys, tmp_path):
    job = FRAME + "\n[window]\nd = 1\nc = 0\nrow = 1 + t1\n"
    path = write(tmp_path, "v.txt", job)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 2
    assert "parse_error" in out and "line 14" in out


def test_missing_frame_block(capsys, tmp_path):
    path = write(tmp_path, "e.txt", "[window]\nd = 1\nc = 0\nrow = 1\n")
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 2
    assert "missing [frame] block" in out


def test_duplicate_frame_block(capsys, tmp_path):
    path = write(tmp_path, "dup.txt", FRAME + "\n" + FRAME)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 2
    assert "duplicate [frame] block" in out


def test_duplicate_solve_block(capsys, tmp_path):
    # a second [solve] block once won silently: this job ran at level 3
    path = write(tmp_path, "dup.txt", SOLVE_JOB + "\n[solve]\na = 3\n")
    code, out = run_cli(capsys, ["solve-iso", path, "--machine"])
    assert code == 2
    assert out == "parse_error = line 24, col 1: duplicate [solve] block\n"


def test_height_ten_windows_run_in_seconds(tmp_path):
    # each command takes a determinant or an adjugate of the 10 x 10
    # matrix; re-expanding every minor runs for minutes, memoized well under 1 s
    n = 10
    rows = "".join(
        "row = %s\n" % ", ".join("1 + u" if i == j else "u" if j > i else "0" for j in range(n))
        for i in range(n)
    )
    window = "\n[window]\nd = 1\nc = %d\n%s" % (n - 1, rows)
    one = write(tmp_path, "h10.txt", FRAME + window)
    two = write(tmp_path, "h10s.txt", FRAME + window + window + "\n[solve]\na = 2\n")
    for command, path, line in (
        ("validate", one, "window1 = valid"),
        ("display", one, "display = valid"),
        ("special-fiber", one, "height = 10"),
        ("solve-iso", two, "residual = 0"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "windowalg.cli", command, path, "--machine"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert line in proc.stdout.splitlines()


def test_selftest_runs_clean(capsys):
    code, out = run_cli(capsys, ["selftest", "--machine"])
    assert code == 0
    assert out.endswith("selftest = ok\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "windowalg.cli", "selftest", "--machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "selftest = ok" in proc.stdout


def test_hypothesis_failure_exit_code(capsys, tmp_path):
    job = FRAME + """
[window]
d = 0
c = 1
row = 1

[window]
d = 0
c = 1
row = 4
"""
    path = write(tmp_path, "h.txt", job)
    code, out = run_cli(capsys, ["solve-iso", path, "--machine"])
    assert code == 1
    assert "not congruent to I" in out


def test_library_refusals_are_one_error_line(capsys, tmp_path):
    # HypothesisError and IsogenyError end in main's ValueError path
    bad_pair = FRAME + "\n[window]\nd = 0\nc = 1\nrow = 1\n\n[window]\nd = 0\nc = 1\nrow = 4\n"
    not_a_morphism = MODULE_JOB.replace("row = 3, 0\nrow = 0, 3", "row = 1, 1\nrow = 0, 1")
    cases = [
        ("solve-iso", bad_pair, "error = A2^(-1)*A1 is not congruent to I modulo u^e\n"),
        ("module", not_a_morphism, "error = U is not a window morphism\n"),
    ]
    for command, job, line in cases:
        path = write(tmp_path, "job.txt", job)
        assert run_cli(capsys, [command, path, "--machine"]) == (1, line)
        assert run_cli(capsys, [command, path]) == (1, "windowalg %s\n%s" % (command, line))


def test_window_level_past_the_u_cap_is_refused(capsys, tmp_path):
    job = FRAME + "\n[window]\na = 99999\nd = 1\nc = 0\nrow = 1\n"
    path = write(tmp_path, "cap.txt", job)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 1
    assert out == (
        "frame = valid\nerror = a*e exceeds the configured u-cap\nwindow1 = invalid\n"
    )
    code, out = run_cli(capsys, ["display", path, "--machine"])
    assert code == 1
    assert out == "error = a*e exceeds the configured u-cap\n"


def test_frame_past_the_u_cap_is_invalid(capsys, tmp_path):
    path = write(tmp_path, "fcap.txt", FRAME.replace("a = 3", "a = 5000"))
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 1
    assert out == "error = a*e exceeds the configured u-cap\nframe = invalid\n"


def test_missing_input_file_is_an_error_line(capsys, tmp_path):
    path = str(tmp_path / "absent.txt")
    code, out = run_cli(capsys, ["solve-iso", path, "--machine"])
    assert code == 1
    assert out == "error = [Errno 2] No such file or directory: %r\n" % path
    proc = subprocess.run(
        [sys.executable, "-m", "windowalg.cli", "display", path, "--machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout.startswith("error = ") and proc.stderr == ""


def test_negative_r_is_refused_before_parsing(capsys, tmp_path):
    job = FRAME.replace("r = 0", "r = -1") + "\n[window]\nd = 1\nc = 0\nrow = 1\n"
    path = write(tmp_path, "r.txt", job)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 1
    assert out == "error = r must be >= 0\nframe = invalid\n"
    for command in ("display", "special-fiber", "nu"):
        code, out = run_cli(capsys, [command, path, "--machine"])
        assert code == 1
        assert out == "error = r must be >= 0\n"


def test_every_command_checks_the_frame(capsys, tmp_path):
    job = FRAME.replace("p = 3", "p = 4").replace("u + 3", "u + 4")
    path = write(tmp_path, "p4.txt", job + "\n[window]\nd = 0\nc = 1\nrow = 1\n")
    code, out = run_cli(capsys, ["display", path, "--machine"])
    assert code == 1
    assert out == "error = p is not prime\n"
    path = write(tmp_path, "e9.txt", SOLVE_JOB.replace("u + 3", "u + 9"))
    code, validated = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 1
    assert validated == (
        "error = a0/p is not a unit\n"
        "error = epsilon = (E - u^e)/p is not a unit\n"
        "frame = invalid\n"
    )
    code, out = run_cli(capsys, ["solve-iso", path, "--machine"])
    assert code == 1
    assert out == validated.replace("frame = invalid\n", "")


def test_arithmetic_error_is_an_error_line(capsys, tmp_path, monkeypatch):
    def refuse(a, p):
        raise ZeroDivisionError("not a unit")

    monkeypatch.setattr("windowalg.cli.nu", refuse)
    path = write(tmp_path, "f.txt", FRAME)
    code, out = run_cli(capsys, ["nu", path, "--machine"])
    assert code == 1
    assert out == "error = not a unit\n"


DISPLAY_L4_JOB = """[frame]
p = 3
r = 1
e = 2
a = 3
N = 5
D = 3
L = 4
E = u^2 + 3*t1*u + 3

[window]
d = 1
c = 1
row = 1 + u, t1
row = 3*u, 2 + t1*u
"""


def test_display_golden_at_witt_length_4(capsys, tmp_path):
    path = write(tmp_path, "d4.txt", DISPLAY_L4_JOB)
    code, out = run_cli(capsys, ["display", path, "--machine"])
    assert code == 0
    assert out == (
        "d = 1\nc = 1\nwitt_length = 4\nlie_rank = 1\n"
        "B[1][1] = (1 + u, 3 + 26*u + 3*t1*u, 3 + 17*u + 21*t1*u, 3 + 17*u + 21*t1*u)\n"
        "B[1][2] = (19*t1, 9*t1^3, 0, 0)\n"
        "B[2][1] = (3*u, 9*t1 + 24*u + 9*t1^2*u, 0, 0)\n"
        "B[2][2] = (11 + 19*t1*u + 21*t1^3*u, 16 + 6*t1^2 + 23*t1*u + 3*t1^3*u, "
        "12*t1^2 + 12*t1*u + 6*t1^3*u, 21*t1^2 + 21*t1*u + 15*t1^3*u)\n"
        "display = valid\n"
    )


def test_rows_are_parsed_under_the_frame_caps(capsys, tmp_path):
    job = FRAME.replace("r = 0", "r = 1") + "\n[window]\nd = 1\nc = 0\nrow = (1+u+t1)^1500\n"
    path = write(tmp_path, "pow.txt", job)
    start = time.perf_counter()
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert out == "frame = valid\nwindow1 = valid\n"
    spec = blk.parse_blocks(job)
    frame = blk.build_frame(spec[0])
    (row,) = blk.parse_matrix_rows(frame, spec[1])
    assert row == (frame.series("1 + u + t1") ** 1500,)
    # a product past the 32-bit exponent fields is now truncated, not refused
    job = FRAME + "\n[window]\nd = 1\nc = 0\nrow = 1 + u^3000000000*u^3000000000\n"
    path = write(tmp_path, "big.txt", job)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 0
    assert out == "frame = valid\nwindow1 = valid\n"


def test_exact_parse_of_E_is_bounded(capsys, tmp_path):
    # E is multiplied out without caps; (1+u+t1)^400 once ran past 60 s
    E = "(1 + u + t1)^400 - (1 + u + t1)^400 + u + 3"
    job = "[frame]\np = 3\nr = 1\ne = 1\na = 2\nN = 4\nD = 3\nL = 2\nE = %s\n" % E
    path = write(tmp_path, "E.txt", job)
    start = time.perf_counter()
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == "parse_error = line 9, col 18: exponent too large\n"


def test_every_pinned_cli_job_matches_its_digest(capsys, tmp_path):
    # the benchmark's corpus and pins, loaded by path and only read
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    spec = importlib.util.spec_from_file_location("perfbench_corpus", os.path.join(bench, "corpus.py"))
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    with open(os.path.join(bench, "digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    for workload in ("cli-solve", "cli-display"):
        jobs, _ = corpus.cli_jobs(workload, 1)
        assert sorted(job.job_id for job in jobs) == sorted(pinned[workload])
        for job in jobs:
            path = write(tmp_path, job.job_id, job.text)
            code, out = run_cli(capsys, [job.command, path, "--machine"])
            assert code == 0, job.job_id
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert digest == pinned[workload][job.job_id], job.job_id


def test_literal_exponent_past_32_bits_is_refused(capsys, tmp_path):
    job = FRAME + "\n[window]\nd = 1\nc = 0\nrow = u^4294967296\n"
    path = write(tmp_path, "exp.txt", job)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 2
    assert out == "frame = valid\nparse_error = line 14, col 9: exponent too large\n"


def test_over_long_integer_literal_is_a_parse_error(capsys, tmp_path):
    job = FRAME + "\n[window]\nd = 1\nc = 0\nrow = 1 + %s*u\n" % ("7" * 5000)
    path = write(tmp_path, "row.txt", job)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 2
    assert out == "frame = valid\nparse_error = line 14, col 11: integer literal too long\n"
    path = write(tmp_path, "e.txt", FRAME.replace("u + 3", "u + 3 + %s" % ("9" * 5000)))
    code, out = run_cli(capsys, ["display", path, "--machine"])
    assert code == 2
    assert out == "parse_error = line 9, col 13: integer literal too long\n"


def test_digits_and_names_are_ascii(capsys, tmp_path):
    # '²' once joined the name t² and then reached int(): exit 1, not a parse error
    cases = [
        (FRAME.replace("u + 3", "u + 3*t²"), "parse_error = line 9, col 12: unexpected character '²'\n"),
        (
            FRAME + "\n[window]\nd = 1\nc = 0\nrow = t²\n",
            "frame = valid\nparse_error = line 14, col 8: unexpected character '²'\n",
        ),
        (FRAME.replace("u + 3", "u^² + 3"), "parse_error = line 9, col 7: unexpected character '²'\n"),
        # an Arabic-Indic three once parsed as 3
        (FRAME.replace("u + 3", "u + ٣"), "parse_error = line 9, col 9: unexpected character '٣'\n"),
    ]
    for text, expected in cases:
        path = tmp_path / "job.txt"
        path.write_text(text, encoding="utf-8")
        assert run_cli(capsys, ["validate", str(path), "--machine"]) == (2, expected)


def test_parse_error_columns_point_at_the_offending_token(capsys, tmp_path):
    path = write(tmp_path, "p.txt", FRAME.replace("E = u + 3", "E = u + + 3"))
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 2
    assert out == "parse_error = line 9, col 9: expected a polynomial atom\n"
    # each cell of a row is tokenized at its own column
    job = FRAME + "\n[window]\nd = 1\nc = 1\nrow = 1, 1 + t1\nrow = 0, 1\n"
    path = write(tmp_path, "v.txt", job)
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 2
    assert out == "frame = valid\nparse_error = line 14, col 14: variable t1 out of range (r = 0)\n"


def test_cli_import_leaves_fractions_and_selftest_unloaded():
    code = (
        "import sys, windowalg.cli; "
        "print([m for m in ('fractions', 'windowalg.selftest') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    code = (
        "import sys, windowalg.cli; "
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    code = (
        "import sys; from windowalg.cli import main; sys.argv[1:] and main(sys.argv[1:]); "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('windowalg'))))"
    )
    cli = {"windowalg", "blocks", "cli", "matrices", "series", "tframe"}
    display = write(tmp_path, "d.txt", DISPLAY_L4_JOB)
    solve = write(tmp_path, "s.txt", SOLVE_JOB)
    cases = [
        ([], cli),
        (["display", display, "--machine"], cli | {"window", "witt", "display"}),
        (["solve-iso", solve, "--machine"], cli | {"window"}),
    ]
    for args, expected in cases:
        proc = subprocess.run([sys.executable, "-c", code] + args, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.splitlines()[-1].split()
        assert loaded == sorted(m if m == "windowalg" else "windowalg." + m for m in expected)


def test_solve_level_below_one_is_an_error_line(capsys, tmp_path):
    path = write(tmp_path, "a0.txt", SOLVE_JOB.replace("a = 2", "a = 0"))
    code, out = run_cli(capsys, ["solve-iso", path, "--machine"])
    assert code == 1
    assert out == "error = v-level must be at least 1\n"


def test_found_by_the_fuzz_test(capsys, tmp_path):
    # p = 0 once ended in "error = integer modulo by zero"; a window at level 0
    # once validated, and display then blamed tau
    path = write(tmp_path, "p0.txt", FRAME.replace("p = 3", "p = 0"))
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 1
    assert out == "error = p must be an odd prime >= 3\nframe = invalid\n"
    path = write(tmp_path, "w0.txt", FRAME + "\n[window]\na = 0\nd = 0\nc = 1\nrow = 1\n")
    code, out = run_cli(capsys, ["validate", path, "--machine"])
    assert code == 1
    assert out == "frame = valid\nerror = window level must be at least 1\nwindow1 = invalid\n"
    code, out = run_cli(capsys, ["display", path, "--machine"])
    assert code == 1
    assert out == "error = window level must be at least 1\n"


GOOD_ATOMS = ("u", "t1", "u^2", "t1*u", "(1 + u)", "(u + t1)^2")
BAD_ATOMS = ("t2", "u^", "3*", "(1 + u")


@st.composite
def polys(draw, atoms):
    """A short polynomial: up to three signed terms over small integers and atoms."""
    out = ""
    for i in range(draw(st.integers(1, 3))):
        coeff, atom = draw(st.integers(-9, 9)), draw(st.one_of(st.none(), atoms))
        term = str(abs(coeff)) if atom is None else "%d*%s" % (abs(coeff), atom)
        out += ("-" if coeff < 0 else "" if i == 0 else " + ") + term
    return out


def biased(common, full):
    """Every value of full, with those of common drawn more often."""
    return st.one_of(common, full)


@st.composite
def desk_jobs(draw):
    """(command, job text): a desk-size frame (p <= 9, r <= 1, a, N, D <= 4),
    windows whose second matrix often agrees with the first modulo u^e, and a
    [solve] level in -1..5.  Valid frames and window counts come up often."""
    command = draw(st.sampled_from(["validate", "display", "solve-iso"]))
    small = lambda lo: st.integers(lo, 4)
    valid = st.tuples(st.sampled_from([3, 5, 7]), st.integers(0, 1), small(1), small(1), small(2),
                      small(0), small(1), st.just(True))
    full = st.tuples(st.integers(0, 9), st.integers(-1, 1), *[small(0)] * 5, st.just(False))
    p, r, e, a, N, D, L, eisenstein = draw(biased(valid, full))
    # one job in a few may hold a variable the frame lacks or a syntax error
    good = GOOD_ATOMS if r > 0 else tuple(x for x in GOOD_ATOMS if "t1" not in x)
    poly = polys(st.sampled_from(draw(st.sampled_from([good, good + BAD_ATOMS]))))
    if eisenstein:
        E = "u^%d + %d*(1 + t1)" % (e, p) if r > 0 else "u^%d + %d" % (e, p)
    else:
        E = draw(poly)
    text = "[frame]\np = %d\nr = %d\ne = %d\na = %d\nN = %d\nD = %d\nL = %d\nE = %s\n" % (
        p, r, e, a, N, D, L, E)
    d, c = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    n = d + c
    A1 = [[draw(poly) if i != j else "1 + " + draw(poly) for j in range(n)] for i in range(n)]
    congruent = lambda x: st.just("(%s) + u^%d*(%s)" % (x, e, draw(poly)))
    A2 = [[draw(biased(congruent(x), poly)) for x in row] for row in A1]
    count = 1 if command == "display" else 2
    levels = draw(biased(st.just((None, None)), st.tuples(*[st.one_of(st.none(), small(0))] * 2)))
    for A, level in list(zip((A1, A2), levels))[: draw(biased(st.just(count), st.integers(0, 2)))]:
        text += "\n[window]\n" + ("" if level is None else "a = %d\n" % level)
        text += "d = %d\nc = %d\n" % (d, c) + "".join("row = %s\n" % ", ".join(r) for r in A)
    level = draw(st.one_of(st.none(), st.integers(-1, 5)))
    text += "" if level is None else "\n[solve]\na = %d\n" % level
    return command, text


@settings(max_examples=150, deadline=timedelta(seconds=10))
@given(desk_jobs())
def test_cli_fuzz_ends_in_an_exit_code(tmp_path_factory, job):
    # every desk-size job ends in exit 0, 1 or 2, with no exception escaping main
    command, text = job
    path = tmp_path_factory.mktemp("fuzz") / "job.txt"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(path), "--machine"])
    assert code in (0, 1, 2)
