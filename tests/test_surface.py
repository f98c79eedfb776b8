"""The public names and the CLI grammar are pinned: removing or renaming
one is a deliberate change to this file."""

import subprocess
import sys

import pytest

import windowalg
from windowalg import cli

PUBLIC = {
    "DDisplay", "DecompositionError", "Frame", "FrameMismatchError",
    "HypothesisError", "IsogenyError", "IsogenyModule", "PrecisionError",
    "SeriesElem", "SpecialFiber", "TElem", "TWindow", "Triple", "Window",
    "WindowMorphism", "WittPolyTable", "WittVec", "base_change_T",
    "check_morphism", "check_rigidity", "compose", "delta", "display_lie",
    "from_int", "ghost", "group_order", "kappa", "lie", "lift_window",
    "make_module", "make_window", "normal_decompose", "nu", "order_string",
    "p_length", "residual", "solve_iso", "special_fiber", "t_add", "t_mul",
    "t_sigma", "tau", "to_display", "triple_of", "validate_breuil_module",
    "validate_display", "validate_frame", "vanishing_hom_dim", "wadd",
    "wfrob", "window_from_phi", "window_of", "witt_polys", "wmul", "wver",
}


def test_public_names_are_pinned():
    assert set(windowalg.__all__) == PUBLIC
    assert len(windowalg.__all__) == len(PUBLIC)
    assert all(hasattr(windowalg, name) for name in PUBLIC)


def test_cli_commands_are_pinned():
    assert sorted(cli.COMMANDS) == [
        "display", "module", "nu", "selftest", "solve-iso", "special-fiber", "validate",
    ]


def test_names_load_their_module_on_first_use():
    # a fresh interpreter, where no other test has loaded a module or read a name
    code = (
        "import sys, windowalg; before = sorted(m for m in sys.modules if 'windowalg.' in m); "
        "sub = windowalg.matrices.__name__; ns = {}; "
        "exec('from windowalg import *', ns); "
        "public = set(windowalg.__all__); "
        "print(before, sub, sorted(public - set(ns)), sorted(public - set(vars(windowalg))))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] windowalg.matrices [] []\n"


def test_dir_and_unknown_names():
    assert set(windowalg.__all__) | {"__all__", "__version__"} <= set(dir(windowalg))
    with pytest.raises(AttributeError, match="module 'windowalg' has no attribute 'no_such_name'"):
        windowalg.no_such_name
