"""windowalg: exact sigma-linear window algebra over truncated power-series frames.

Each public name is listed once, under its home module, and that module
is imported the first time the name is read (PEP 562), so reading a
name compiles only its home module and what that imports.  The CLI
imports blocks, series, matrices and tframe for every command (tframe
for solve-iso and nu); each command imports the rest of what it runs
when it runs, so display, for one, also compiles tframe, which it
does not run.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "series": (
        "Frame",
        "SeriesElem",
        "validate_frame",
        "FrameMismatchError",
        "PrecisionError",
    ),
    "witt": (
        "WittVec",
        "WittPolyTable",
        "witt_polys",
        "wadd",
        "wmul",
        "wfrob",
        "wver",
        "ghost",
        "delta",
        "kappa",
        "tau",
        "from_int",
    ),
    "windowcore": ("Window", "make_window"),
    "window": (
        "WindowMorphism",
        "Triple",
        "SpecialFiber",
        "DecompositionError",
        "normal_decompose",
        "window_from_phi",
        "triple_of",
        "window_of",
        "lift_window",
        "check_morphism",
        "check_rigidity",
        "vanishing_hom_dim",
        "special_fiber",
        "lie",
    ),
    "display": ("DDisplay", "to_display", "validate_display", "display_lie"),
    "tframe": (
        "TElem",
        "TWindow",
        "HypothesisError",
        "t_add",
        "t_mul",
        "t_sigma",
        "base_change_T",
        "solve_iso",
        "residual",
        "nu",
    ),
    "isogeny": (
        "IsogenyModule",
        "IsogenyError",
        "make_module",
        "compose",
        "p_length",
        "group_order",
        "order_string",
        "validate_breuil_module",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:  # a submodule not imported yet, as windowalg.matrices
        try:
            return importlib.import_module("." + name, __name__)
        except ModuleNotFoundError as err:
            if err.name != "%s.%s" % (__name__, name):
                raise
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + home, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
