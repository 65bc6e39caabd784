"""Span tracing of the qledger layers from outside the package.

The tracer wraps the public functions and the class constructors of each
layer module, plus the private functions named in ``RENAMED``, by
reassigning module and class attributes: every module of the package that
binds the same function object gets the wrapper, so calls through
``from .x import f`` bindings are seen as well.  ``uninstall`` puts the
originals back.  The package source is never edited.

Each wrapped call records a span ``[name, start, end, parent, folded]``
in memory.  The eigensolver ``_jacobi`` runs tens of thousands of times
per pass, so its calls are folded into counters instead: their time is
added to the ``folded`` slot of the enclosing span and to per-dimension
counters.  A span's self time is its duration minus the durations of its
child spans and its folded time, so the self times of all spans add up to
the root span exactly.

``write`` stores spans and counters as JSON at the end of a pass;
``aggregate`` turns that file into per-layer metrics.  Both sides use only
the standard library, so the aggregating process never imports qledger.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("cli", "models", "dynamics", "measures", "thermo", "sampling", "qcore", "svg")
EIG_DIMS = (1, 2, 3, 4, 8, 16, 32, 64)
"""Dimensions with a per-layer metric of their own; other sizes count in the totals."""

# Every public function and every constructor defined in a layer module gets
# a span named "<layer>.<attribute>", except where this table says otherwise;
# a private function gets a span only when it is listed here.  All of
# sampling is one span name: the audit's random draws.
RENAMED = {
    ("cli", "_read_json"): "cli.json_parse",
    ("dynamics", "_liouvillian"): "dynamics.liouvillian",
    ("measures", "_tables"): "measures.tables",
    ("models", "example1_pseudomode_oracle"): "models.oracle",
    ("dynamics", "lindblad_evolve"): "dynamics.evolve",
    ("dynamics", "schrodinger_evolve"): "dynamics.schrodinger",
    ("measures", "measure_series"): "measures.series",
    ("measures", "dephase"): "measures.coherence",
    ("measures", "Trajectory"): "measures.trajectory",
    ("thermo", "first_law_ledger"): "thermo.ledger",
    ("thermo", "gibbs_state"): "thermo.gibbs",
    ("thermo", "relative_entropy"): "thermo.relent",
    ("thermo", "extractable_work"): "thermo.ext_work",
    ("qcore", "partial_trace_stack"): "qcore.partial_trace",
    ("svg", "line_plot"): "svg.plot",
}


def _span_name(layer: str, attr: str) -> str:
    if layer == "sampling":
        return "sampling.draw"
    return RENAMED.get((layer, attr), f"{layer}.{attr}")


def _targets(mods: dict) -> tuple[list, list]:
    """The functions and the classes to wrap, as (layer, attribute, object)."""
    funcs, classes = [], []
    for layer, mod in mods.items():
        for attr, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue      # bound here by an import; wrapped where it is defined
            if inspect.isfunction(value) and (not attr.startswith("_") or (layer, attr) in RENAMED):
                funcs.append((layer, attr, value))
            elif (inspect.isclass(value) and not issubclass(value, BaseException)
                  and "__init__" in vars(value)):
                classes.append((layer, attr, value))
    return funcs, classes


def _grid_steps(args, kwargs, out):
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    return grid.steps


# counters derived from a call's arguments or result: span name -> (counter, fn)
_NOTES = {
    "dynamics.evolve": ("dynamics.steps", _grid_steps),
    "dynamics.liouvillian": ("dynamics.superop_bytes", lambda a, k, out: out.nbytes),
    "measures.series": ("measures.series.points", lambda a, k, out: len(a[0])),
    "measures.format_csv": ("measures.csv_bytes", lambda a, k, out: len(out.encode())),
    "svg.plot": ("svg.bytes", lambda a, k, out: os.path.getsize(a[0])),
}


class Tracer:
    """Collects spans and counters for one pass; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                counters[note[0]] += note[1](args, kwargs, out)
            return out

        return wrapper

    def _eig_wrapper(self, fn):
        spans, stack, clock, counters = self.spans, self.stack, time.perf_counter, self.counters

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            t0 = clock()
            out = fn(a, *args, **kwargs)
            dt = clock() - t0
            parent = spans[stack[-1]]
            parent[4] += dt
            d = a.shape[0]
            counters[f"qcore.eig.calls.d{d}"] += 1
            counters[f"qcore.eig.s.d{d}"] += dt
            if parent[0] == "dynamics.evolve":
                # the integrator's positivity monitor
                counters["dynamics.psd_checks"] += 1
                counters["dynamics.psd.s"] += dt
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self, package) -> None:
        """Wrap the layer functions of ``package`` (the imported qledger)."""
        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS}
        everywhere = [package, *mods.values()]
        funcs, classes = _targets(mods)
        for layer, attr, fn in funcs:
            self._rebind(everywhere, fn, self._span_wrapper(_span_name(layer, attr), fn))
        for layer, attr, cls in classes:
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._span_wrapper(_span_name(layer, attr), cls.__init__)
        jacobi = mods["qcore"]._jacobi
        self._rebind(everywhere, jacobi, self._eig_wrapper(jacobi))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    @contextlib.contextmanager
    def root(self):
        """The root span of a pass; its self time is the unattributed rest."""
        self.stack.append(len(self.spans))
        self.spans.append(["pass", time.perf_counter(), 0.0, -1, 0.0])
        try:
            yield
        finally:
            self.spans[self.stack.pop()][2] = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# aggregation

EXACT = ("dynamics.steps", "dynamics.psd_checks", "dynamics.superop_bytes", "measures.csv_bytes")


def exact_counts(metrics: dict) -> dict:
    """The counters that must repeat exactly between two traced passes on one seed:
    ``EXACT`` and the eigensolver calls at every dimension that occurred."""
    return {k: v for k, v in metrics.items() if k in EXACT or k.startswith("qcore.eig.calls.d")}


# per-layer metric -> unit; the order is the order in BENCHMARK.json
PER_LAYER = {
    "qcore.eig.calls": "count",
    "qcore.eig.s": "s",
    **{f"qcore.eig.calls.d{d}": "count" for d in EIG_DIMS},
    **{f"qcore.eig.s.d{d}": "s" for d in EIG_DIMS},
    "qcore.partial_trace.s": "s",
    "qcore.self.s": "s",
    "dynamics.evolve.s": "s",
    "dynamics.liouvillian.s": "s",
    "dynamics.schrodinger.s": "s",
    "dynamics.steps": "count",
    "dynamics.step_us": "us",
    "dynamics.psd_checks": "count",
    "dynamics.psd.s": "s",
    "dynamics.superop_bytes": "bytes",
    "dynamics.self.s": "s",
    "measures.series.s": "s",
    "measures.series.points": "count",
    "measures.tables.s": "s",
    "measures.trajectory.s": "s",
    "measures.format_csv.s": "s",
    "measures.csv_bytes": "bytes",
    "measures.coherence.s": "s",
    "measures.self.s": "s",
    "thermo.ledger.calls": "count",
    "thermo.ledger.s": "s",
    "thermo.gibbs.s": "s",
    "thermo.relent.s": "s",
    "thermo.ext_work.s": "s",
    "thermo.self.s": "s",
    "sampling.draw.s": "s",
    "models.self.s": "s",
    "svg.plot.s": "s",
    "svg.bytes": "bytes",
    "cli.self.s": "s",
    "cli.json_parse.s": "s",
    "unattributed.s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
}


def aggregate(path) -> dict[str, float]:
    """Per-layer metrics of one traced pass from the file ``write`` left.

    Every ``<span>.s`` is self time.  ``<layer>.self.s`` sums the self
    times of the layer's spans, folded eigensolver time counting to qcore;
    the root span's self time is ``unattributed.s``.  Adding the eight
    layer totals and ``unattributed.s`` gives the root span's duration.
    """
    with open(path) as fh:
        data = json.load(fh)
    spans, counters = data["spans"], data["counters"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_by_name: dict[str, float] = defaultdict(float)
    calls_by_name: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent, folded) in enumerate(spans):
        self_by_name[name] += (end - start) - child[i] - folded
        calls_by_name[name] += 1

    out: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.self.s"] = 0.0
    for d in EIG_DIMS:
        out[f"qcore.eig.calls.d{d}"] = 0
        out[f"qcore.eig.s.d{d}"] = 0.0
    out["qcore.eig.calls"] = 0
    for key, value in counters.items():
        if key.startswith("qcore.eig."):
            out[key] = value
            out["qcore.eig.calls" if key.startswith("qcore.eig.calls.") else "qcore.eig.s"] += value
    for name, secs in self_by_name.items():
        out[f"{name}.s"] = secs
        out[f"{name}.calls"] = calls_by_name[name]
        layer = name.split(".")[0]
        if layer in LAYERS:
            out[f"{layer}.self.s"] += secs
    out["qcore.self.s"] += out["qcore.eig.s"]
    out["unattributed.s"] = self_by_name["pass"]
    for key in ("dynamics.steps", "dynamics.psd_checks", "dynamics.psd.s",
                "dynamics.superop_bytes", "measures.series.points",
                "measures.csv_bytes", "svg.bytes"):
        out[key] = counters.get(key, 0)
    steps = out["dynamics.steps"]
    out["dynamics.step_us"] = 1e6 * out["dynamics.evolve.s"] / steps if steps else 0.0
    out["root.s"] = spans[0][2] - spans[0][1]
    return dict(out)
