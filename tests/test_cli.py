import subprocess
import sys
import time

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
