"""Deterministic command-line surface.

One input file, explicit blocks, no environment configuration.  Exit
codes: 0 success, 1 validation failure, 2 parse error or usage error.
Machine mode emits one "key = value" fact per line; human mode adds a
title line.  The arguments are COMMAND [INPUT] [--machine], the flag
anywhere; they are read here, so that a job loads no argparse (nor the
gettext and locale it imports).
"""

from __future__ import annotations

import sys

from . import blocks as blk
from .series import validate_frame
from .tframe import nu, solve_iso


class JobSpec:
    """Parsed job: the command, its [window] blocks, and the blocks a job
    holds at most once (None when absent)."""

    SINGLE = ("frame", "matrix", "solve")

    def __init__(self, command):
        self.command = command
        self.windows = []
        self.frame = self.matrix = self.solve = None


def _load(path, command):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    parsed = blk.parse_blocks(text)
    spec = JobSpec(command)
    for b in parsed:
        if b.name == "window":
            spec.windows.append(b)
        elif b.name in JobSpec.SINGLE:
            if getattr(spec, b.name) is not None:
                raise blk.ParseError("duplicate [%s] block" % b.name, b.line, 1)
            setattr(spec, b.name, b)
        else:
            raise blk.ParseError("unknown block [%s]" % b.name, b.line, 1)
    if spec.frame is None:
        raise blk.ParseError("missing [frame] block", 1, 1)
    return spec


def _require_windows(spec, count):
    if len(spec.windows) != count:
        raise blk.ParseError(
            "command %r needs exactly %d window block(s), found %d"
            % (spec.command, count, len(spec.windows)),
            1,
            1,
        )


class Emitter:
    def __init__(self, machine, command):
        self.lines = []
        if not machine:
            self.lines.append("windowalg %s" % command)

    def fact(self, key, value):
        self.lines.append("%s = %s" % (key, value))

    def matrix(self, name, M):
        for i, row in enumerate(M):
            for j, x in enumerate(row):
                self.fact("%s[%d][%d]" % (name, i + 1, j + 1), x)

    def flush(self):
        sys.stdout.write("\n".join(self.lines) + "\n")


class FrameError(ValueError):
    """The job's frame is refused; args holds one message per violation."""


def _frame(spec):
    """The job's frame, checked against every frame invariant."""
    try:
        frame = blk.build_frame(spec.frame)
    except blk.ParseError:
        raise
    except ValueError as err:  # a frame the library refuses to build
        raise FrameError(str(err)) from None
    errors = validate_frame(frame)
    if errors:
        raise FrameError(*errors)
    return frame


def cmd_validate(spec, out):
    try:
        frame = _frame(spec)
    except FrameError as err:
        for msg in err.args:
            out.fact("error", msg)
        out.fact("frame", "invalid")
        return 1
    out.fact("frame", "valid")
    code = 0
    for idx, wb in enumerate(spec.windows, start=1):
        try:
            blk.build_window(frame, wb)
            out.fact("window%d" % idx, "valid")
        except blk.ParseError:
            raise
        except ValueError as err:
            out.fact("error", str(err))
            out.fact("window%d" % idx, "invalid")
            code = 1
    return code


def cmd_special_fiber(spec, out):
    from .window import special_fiber

    frame = _frame(spec)
    _require_windows(spec, 1)
    w = blk.build_window(frame, spec.windows[0])
    fiber = special_fiber(w)
    out.fact("height", fiber.height)
    out.fact("dim", fiber.dim)
    out.fact("nilpotent", "true" if fiber.is_nilpotent else "false")
    for name, M in (("A0", fiber.A0), ("Phi0", fiber.Phi0)):
        for i, row in enumerate(M):
            out.fact("%s.row%d" % (name, i + 1), ", ".join(str(x) for x in row))
    return 0


def cmd_display(spec, out):
    from .display import display_lie, to_display, validate_display

    frame = _frame(spec)
    _require_windows(spec, 1)
    w = blk.build_window(frame, spec.windows[0])
    D = to_display(w)
    report = validate_display(D)
    out.fact("d", D.d)
    out.fact("c", D.c)
    out.fact("witt_length", D.witt_length)
    out.fact("lie_rank", display_lie(D))
    out.matrix("B", D.B)
    for msg in report:
        out.fact("error", msg)
    out.fact("display", "invalid" if report else "valid")
    return 1 if report else 0


def cmd_solve_iso(spec, out):
    frame = _frame(spec)
    _require_windows(spec, 2)
    w1 = blk.build_window(frame, spec.windows[0])
    w2 = blk.build_window(frame, spec.windows[1])
    level = spec.solve.get_int("a", frame.a) if spec.solve else frame.a
    X = solve_iso(w1, w2, level)
    out.fact("level", level)
    out.matrix("X", X)
    # solve_iso raises PrecisionError unless the residual vanishes exactly
    out.fact("residual", "0")
    return 0


def cmd_module(spec, out):
    from .isogeny import make_module, order_string, validate_breuil_module

    frame = _frame(spec)
    _require_windows(spec, 2)
    if spec.matrix is None:
        raise blk.ParseError("command 'module' needs a [matrix] block", 1, 1)
    source = blk.build_window(frame, spec.windows[0])
    target = blk.build_window(frame, spec.windows[1])
    U = blk.parse_matrix_rows(frame.at_level(target.level), spec.matrix)
    module = make_module(source, target, U)
    out.fact("m", module.m)
    out.fact("p_length", module.m)
    out.fact("order", order_string(module))
    report = validate_breuil_module(module)
    for msg in report:
        out.fact("error", msg)
    out.fact("module", "invalid" if report else "valid")
    return 1 if report else 0


def cmd_nu(spec, out):
    frame = _frame(spec)
    out.fact("nu", nu(frame.a, frame.p))
    return 0


def cmd_selftest(out):
    from .selftest import run_selftest

    ok = run_selftest(lambda name, good: out.fact(name.replace(" ", "_"), "ok" if good else "FAIL"))
    out.fact("selftest", "ok" if ok else "FAIL")
    return 0 if ok else 1


COMMANDS = {
    "validate": (cmd_validate, True),
    "special-fiber": (cmd_special_fiber, True),
    "display": (cmd_display, True),
    "solve-iso": (cmd_solve_iso, True),
    "module": (cmd_module, True),
    "nu": (cmd_nu, True),
    "selftest": (cmd_selftest, False),
}


USAGE = "usage: windowalg [-h] [--machine] {%s} [input]\n" % ",".join(sorted(COMMANDS))

HELP = USAGE + """
exact window algebra over truncated power-series frames

  input       block-format input file
  --machine   key = value output only
  -h, --help  show this help message and exit
"""


def _usage_error(message):
    sys.stderr.write("%swindowalg: error: %s\n" % (USAGE, message))
    raise SystemExit(2)


def _parse_argv(argv):
    """(command, input or None, machine) from COMMAND [INPUT] [--machine].

    -h or --help anywhere prints HELP to stdout and exits 0.  A usage
    error writes USAGE and one error line to stderr and exits 2, with
    nothing on stdout.  Options are matched whole: no abbreviations.
    """
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(HELP)
        raise SystemExit(0)
    words = [arg for arg in argv if arg != "--machine"]
    options = [arg for arg in words if arg.startswith("-") and arg != "-"]
    if options or len(words) > 2:
        _usage_error("unrecognized arguments: %s" % " ".join(options or words[2:]))
    if not words:
        _usage_error("the following arguments are required: command")
    command, path = words[0], words[1] if len(words) == 2 else None
    if command not in COMMANDS:
        _usage_error("argument command: invalid choice: %r" % command)
    if path is None and COMMANDS[command][1]:
        _usage_error("command %r needs an input file" % command)
    return command, path, len(words) < len(argv)


def main(argv=None):
    command, path, machine = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    handler, needs_input = COMMANDS[command]
    out = Emitter(machine, command)
    try:
        if needs_input:
            spec = _load(path, command)
            code = handler(spec, out)
        else:
            code = handler(out)
    except blk.ParseError as err:
        out.fact("parse_error", str(err))
        out.flush()
        return 2
    except (ValueError, OSError, ArithmeticError) as err:
        for msg in err.args if isinstance(err, FrameError) else [str(err)]:
            out.fact("error", msg)
        out.flush()
        return 1
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
