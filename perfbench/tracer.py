"""Outside-in tracer: wraps the listed windowalg functions from outside.

``install()`` imports every ``windowalg`` module, then replaces each
binding of a listed function (module attributes, the names other
modules made with ``from ... import``, and class attributes, including
aliases such as ``__rmul__``) with a wrapper that records a span.

Self time is a span's duration minus the time its traced children
took.  The wrapper's own bookkeeping, including the per-call counts, is
charged to nobody, so layer self times do not absorb tracing cost.
Spans (name, start, end, parent, job) stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from time import perf_counter

# metric name -> (module, [attribute paths]); "Class.method" wraps the
# method wherever the class dict binds that function.
FUNCTIONS = {
    "blocks.parse_poly": ("windowalg.blocks", ["parse_poly"]),
    "blocks.render_table": ("windowalg.blocks", ["render_table"]),
    "series.mul": ("windowalg.series", ["SeriesElem.__mul__"]),
    "series.add": (
        "windowalg.series",
        ["SeriesElem.__add__", "SeriesElem.__sub__", "SeriesElem.__neg__"],
    ),
    "series.invert": ("windowalg.series", ["SeriesElem.invert"]),
    "series.frobenius": ("windowalg.series", ["SeriesElem.frobenius"]),
    "series.reduce_mod_E": ("windowalg.series", ["SeriesElem.reduce_mod_E"]),
    "series.divide_by_E": ("windowalg.series", ["SeriesElem.divide_by_E"]),
    "witt.delta": ("windowalg.witt", ["delta"]),
    "witt.kappa": ("windowalg.witt", ["kappa"]),
    "witt.tau": ("windowalg.witt", ["tau"]),
    "witt.wmul": ("windowalg.witt", ["wmul"]),
    "witt.wadd": ("windowalg.witt", ["wadd", "WittVec.__neg__"]),
    "witt.ghost": ("windowalg.witt", ["ghost"]),
    "matrices.det": ("windowalg.matrices", ["det"]),
    "matrices.adjugate": ("windowalg.matrices", ["adjugate"]),
    "matrices.inv": ("windowalg.matrices", ["inv"]),
    "matrices.mmul": ("windowalg.matrices", ["mmul"]),
    "window.make_window": ("windowalg.window", ["make_window"]),
    "window.normal_decompose": ("windowalg.window", ["normal_decompose"]),
    "window.special_fiber": ("windowalg.window", ["special_fiber"]),
    "window.vanishing_hom_dim": ("windowalg.window", ["vanishing_hom_dim"]),
    "display.to_display": ("windowalg.display", ["to_display"]),
    "display.validate_display": ("windowalg.display", ["validate_display"]),
    "tframe.mul": ("windowalg.tframe", ["TElem.__mul__"]),
    "tframe.add": ("windowalg.tframe", ["TElem.__add__", "TElem.__neg__"]),
    "tframe.sigma": ("windowalg.tframe", ["TElem.sigma"]),
    "tframe.invert": ("windowalg.tframe", ["TElem.invert"]),
    "tframe.embed": ("windowalg.tframe", ["TElem.embed"]),
    "tframe.solve_iso": ("windowalg.tframe", ["solve_iso"]),
    "tframe.residual": ("windowalg.tframe", ["residual"]),
    "isogeny.make_module": ("windowalg.isogeny", ["make_module"]),
    "isogeny.validate_breuil_module": ("windowalg.isogeny", ["validate_breuil_module"]),
    "cli.main": ("windowalg.cli", ["main"]),
}

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in FUNCTIONS))


def _series_mul_counts(extra, args, out):
    a, b = args
    nb = 1 if isinstance(b, int) else len(b.coeffs)
    extra["pairs"] += len(a.coeffs) * nb
    extra["out"] += len(out.coeffs)


def _tframe_mul_counts(extra, args, out):
    a, b = args
    lvl = a.level
    sizes = [len(t) for t in a.coeffs]
    if isinstance(b, int):
        extra["pairs"] += sum(sizes)
        return
    other = [len(t) for t in b.coeffs]
    extra["pairs"] += sum(
        si * other[j] for i, si in enumerate(sizes) for j in range(lvl - i)
    )


def _parse_counts(extra, args, out):
    extra["terms"] += len(out)


COUNTERS = {
    "series.mul": (_series_mul_counts, ("pairs", "out")),
    "tframe.mul": (_tframe_mul_counts, ("pairs",)),
    "blocks.parse_poly": (_parse_counts, ("terms",)),
}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for name in FUNCTIONS:
        names += [(name + ".calls", "count"), (name + ".self_s", "s")]
        if name == "series.mul":
            names += [(name + ".pairs", "count"), (name + ".fill", "ratio")]
        elif name in COUNTERS:
            names += [(name + "." + key, "count") for key in COUNTERS[name][1]]
    for layer in LAYERS:
        names += [(layer + ".self_s", "s"), (layer + ".errors", "count")]
    names.append(("trace.overhead", "ratio"))
    return names


class Tracer:
    def __init__(self):
        self.on = False
        self.job = None
        self.stack = []  # [span index, layer, child seconds]
        self.spans = []
        self.stats = {name: [0, 0.0, {}] for name in FUNCTIONS}
        for name, (_, keys) in COUNTERS.items():
            self.stats[name][2] = dict.fromkeys(keys, 0)
        self.errors = dict.fromkeys(LAYERS, 0)

    # -- installation ------------------------------------------------------

    def install(self):
        mods = _import_all()
        wrappers = {}  # id(original function) -> wrapper
        for name, (modname, paths) in FUNCTIONS.items():
            mod = sys.modules[modname]
            for path in paths:
                if "." in path:
                    cls_name, attr = path.split(".")
                    raw = vars(getattr(mod, cls_name))[attr]
                else:
                    raw = vars(mod)[path]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrappers[id(fn)] = self._wrap(name, fn)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
                elif isinstance(val, type) and val.__module__.startswith("windowalg"):
                    for cattr, raw in list(vars(val).items()):
                        is_cm = isinstance(raw, classmethod)
                        fn = raw.__func__ if is_cm else raw
                        if id(fn) in wrappers:
                            w = wrappers[id(fn)]
                            setattr(val, cattr, classmethod(w) if is_cm else w)
        self.on = True
        return self

    def _wrap(self, name, fn):
        layer = name.split(".")[0]
        stat = self.stats[name]
        count = COUNTERS.get(name, (None,))[0]
        stack = self.stack
        spans = self.spans
        tracer = self

        def finish(frame, parent, t0, t1):
            stack.pop()
            stat[0] += 1
            stat[1] += (t1 - t0) - frame[2]
            spans[frame[0]] = (name, t0, t1, parent[0] if parent else -1, tracer.job)

        def wrapper(*args, **kw):
            if not tracer.on:
                return fn(*args, **kw)
            entered = perf_counter()
            parent = stack[-1] if stack else None
            frame = [len(spans), layer, 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kw)
            except BaseException:
                finish(frame, parent, t0, perf_counter())
                if parent is None or parent[1] != layer:
                    tracer.errors[layer] += 1
                if parent is not None:
                    parent[2] += perf_counter() - entered
                raise
            finish(frame, parent, t0, perf_counter())
            if count is not None:
                count(stat[2], args, out)
            if parent is not None:
                # the parent's self time excludes this whole call,
                # bookkeeping included
                parent[2] += perf_counter() - entered
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper._perfbench_traced = True
        return wrapper

    # -- results ---------------------------------------------------------

    def dump(self, path):
        """Write the summable counters as the first line, then the spans."""
        self.on = False
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"stats": self.stats, "errors": self.errors}, fh)
            fh.write("\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def merge(total, raw):
    """Add one process's raw counters into ``total`` (same shape)."""
    if total is None:
        return json.loads(json.dumps(raw))
    for name, (calls, self_s, extra) in raw["stats"].items():
        t = total["stats"][name]
        t[0] += calls
        t[1] += self_s
        for key, val in extra.items():
            t[2][key] += val
    for layer, val in raw["errors"].items():
        total["errors"][layer] += val
    return total


def read_raw(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readline())


def metrics(raw, overhead):
    """Per-layer metric values from summed raw counters."""
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, self_s, extra) in raw["stats"].items():
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
        layer_self[name.split(".")[0]] += self_s
        if name == "series.mul":
            out[name + ".pairs"] = extra["pairs"]
            out[name + ".fill"] = extra["out"] / extra["pairs"] if extra["pairs"] else 0.0
        else:
            for key, val in extra.items():
                out[name + "." + key] = val
    for layer in LAYERS:
        out[layer + ".self_s"] = layer_self[layer]
        out[layer + ".errors"] = raw["errors"][layer]
    out["trace.overhead"] = overhead
    return out


def _import_all():
    import windowalg

    mods = [windowalg]
    for info in pkgutil.iter_modules(windowalg.__path__):
        mods.append(importlib.import_module("windowalg." + info.name))
    return mods


def unwrapped_bindings():
    """Bindings of listed functions in windowalg.* that are not wrapped.

    Identifies originals by module and qualified name, independently of
    how ``install`` found them.
    """
    listed = set()
    for modname, paths in FUNCTIONS.values():
        for path in paths:
            listed.add((modname, path))
    missing = []
    for mod in _import_all():
        for attr, val in vars(mod).items():
            candidates = [(mod.__name__ + "." + attr, val)]
            if isinstance(val, type) and val.__module__.startswith("windowalg"):
                candidates += [
                    ("%s.%s" % (val.__qualname__, cattr), raw) for cattr, raw in vars(val).items()
                ]
            for where, raw in candidates:
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                key = (getattr(fn, "__module__", None), getattr(fn, "__qualname__", None))
                if key in listed and not getattr(fn, "_perfbench_traced", False):
                    missing.append(where)
    return missing
