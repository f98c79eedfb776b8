"""The public names and the CLI grammar are pinned: removing or renaming
one is a deliberate change to this file."""

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
