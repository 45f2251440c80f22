"""Span tracing of the kratzerml layers, from outside the package.

`install` wraps the public functions of each module, and the scipy
`quad`, `solve_ivp` and `minimize` bindings the modules call, in every
kratzerml module namespace that holds them.  Each call records a span
(name, start, end, parent, operation id) in flat in-memory columns,
written once by `Tracer.dump`.  `aggregate` turns dumped spans into
per-layer totals: a span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

#: (module, public function) pairs that get a span; the label is
#: "<module short name>.<function>"
FUNCTIONS = (
    ("kratzerml.shell", "main"),
    ("kratzerml.estimate", "fit_parameters"),
    ("kratzerml.estimate", "beta_upper_bound"),
    ("kratzerml.spectrum", "energy_deformed"),
    ("kratzerml.spectrum", "correction_general"),
    ("kratzerml.spectrum", "matrix_element_closed"),
    ("kratzerml.spectrum", "term_decomposition"),
    ("kratzerml.oracle", "expectation_inverse_power"),
    ("kratzerml.oracle", "correction_via_expectations"),
    ("kratzerml.wavefunctions", "radial_wavefunction"),
    ("kratzerml.wavefunctions", "make_radial_state"),
    ("kratzerml.momentum", "integrate_branch"),
    ("kratzerml.momentum", "fit_slope"),
    ("kratzerml.momentum", "heun_params_general"),
)

LAYERS = ("shell", "estimate", "spectrum", "oracle", "wavefunctions", "momentum")

#: the per-operation figures reported for each span label: "calls",
#: "ms" (total time), "self_ms", "errors" or a work counter's name
REPORTED = {
    "shell.main": ("ms",),
    "shell.quad": ("calls", "neval", "ms", "self_ms"),
    "estimate.fit_parameters": ("ms", "self_ms"),
    "estimate.minimize": ("calls", "nfev", "self_ms"),
    "estimate.beta_upper_bound": ("ms",),
    "spectrum.energy_deformed": ("calls", "ms", "errors"),
    "spectrum.correction_general": ("calls", "ms"),
    "spectrum.matrix_element_closed": ("calls", "ms"),
    "spectrum.term_decomposition": ("calls", "ms"),
    "oracle.expectation_inverse_power": ("calls", "ms"),
    "oracle.correction_via_expectations": ("calls", "ms"),
    "oracle.quad": ("calls", "neval", "subintervals", "ms", "self_ms"),
    "wavefunctions.radial_wavefunction": ("calls", "ms"),
    "wavefunctions.make_radial_state": ("calls", "ms"),
    "momentum.integrate_branch": ("calls", "ms"),
    "momentum.solve_ivp": ("nfev", "self_ms"),
    "momentum.fit_slope": ("ms",),
    "momentum.heun_params_general": ("calls", "ms"),
}

#: the trace must show which guarded trials the fit objective threw away
LEVEL_SPAN = "spectrum.energy_deformed"
FIT_SPAN = "estimate.fit_parameters"


class Tracer:
    """In-memory span columns plus work counters of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = 0
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()

    def name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def wrap(self, label: str, fn):
        """fn wrapped in a span named label; raised errors are counted."""
        sid = self.name_id(label)
        start, end, parent, name, op = (
            self.start, self.end, self.parent, self.name, self.op
        )
        stack, errors = self.stack, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(perf_counter())
            end.append(0.0)
            parent.append(stack[-1])
            name.append(sid)
            op.append(self.op_id)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[label] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def dump(self, path: Path) -> None:
        """Write the spans and counters once, as one .npz file."""
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            meta=np.array(json.dumps({
                "names": self.names,
                "errors": dict(self.errors),
                "counters": dict(self.counters),
            })),
        )


# ------------------------------------------------------------- bindings


def _counting_quad(tracer: Tracer, label: str, quad):
    counters = tracer.counters

    def counted(func, *args, **kwargs):
        # neval is counted at the integrand, whatever output the caller
        # asked for; subintervals come from the infodict when it is there
        def integrand(*xs):
            counters[label + ".neval"] += 1
            return func(*xs)

        out = quad(integrand, *args, **kwargs)
        if isinstance(out, tuple) and len(out) >= 3 and isinstance(out[2], dict):
            counters[label + ".subintervals"] += int(out[2].get("last", 0))
        return out

    return counted


def _counting_solve_ivp(tracer: Tracer, label: str, solve_ivp):
    counters = tracer.counters

    def counted(*args, **kwargs):
        result = solve_ivp(*args, **kwargs)
        counters[label + ".nfev"] += int(result.nfev)
        return result

    return counted


def _counting_minimize(tracer: Tracer, label: str, minimize):
    counters = tracer.counters

    def counted(fun, x0, *args, **kwargs):
        # the first objective value is the start point's: a restart is
        # useful when it ends below where it began
        first = []

        def objective(x, *fargs):
            value = fun(x, *fargs)
            if not first:
                first.append(value)
            return value

        result = minimize(objective, x0, *args, **kwargs)
        counters[label + ".nfev"] += int(result.nfev)
        if first and result.fun < first[0]:
            counters[label + ".useful"] += 1
        return result

    return counted


BINDINGS = (
    ("scipy.integrate", "quad", _counting_quad),
    ("scipy.integrate", "solve_ivp", _counting_solve_ivp),
    ("scipy.optimize", "minimize", _counting_minimize),
)


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _package_modules():
    return [
        mod for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "kratzerml" or key.startswith("kratzerml."))
    ]


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced name in the loaded kratzerml modules.

    Returns the span labels installed.  A function or binding that the
    package does not have, or a scipy module not loaded yet, is skipped;
    its metrics then read zero.
    """
    modules = _package_modules()
    installed = []
    for module_name, attr in FUNCTIONS:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if fn is None:
            continue
        label = f"{_short(module_name)}.{attr}"
        wrapper = tracer.wrap(label, fn)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
        installed.append(label)
    for source_name, attr, counting in BINDINGS:
        source = sys.modules.get(source_name)
        if source is None:
            continue  # importing it here would add its cost to the trace
        original = getattr(source, attr)
        for mod in modules:
            label = f"{_short(mod.__name__)}.{attr}"
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, tracer.wrap(label, counting(tracer, label, original)))
                    installed.append(label)
                elif value is source and getattr(source, attr) is original:
                    # the module calls source.attr at run time
                    setattr(source, attr, tracer.wrap(label, counting(tracer, label, original)))
                    installed.append(label)
    return installed


# ------------------------------------------------------------- analysis


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent
    and do not overlap each other; a violation means broken records.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    if np.any(start[child] < start[up]) or np.any(end[child] > end[up]):
        raise ValueError("a child span lies outside its parent")
    covered = np.bincount(up, weights=dur[child], minlength=len(dur))
    return dur - covered


def inside(name, parent, outer_id: int) -> np.ndarray:
    """True for each span that is, or descends from, a span named outer_id."""
    name = np.asarray(name)
    parent = np.asarray(parent)
    flag = name == outer_id
    child = np.flatnonzero(parent >= 0)
    while True:
        grown = flag.copy()
        grown[child] |= flag[parent[child]]
        if np.array_equal(grown, flag):
            return flag
        flag = grown


def aggregate(paths) -> dict:
    """Sum spans and counters over dumped files.

    Returns {label: {"calls", "total_s", "self_s", "errors"}} under
    "spans", the summed "counters", the number of spans, and
    "level_evals": energy_deformed calls made inside fit_parameters.
    """
    spans: dict[str, dict] = {}
    counters: Counter = Counter()
    level_evals = 0
    n_spans = 0
    for path in paths:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            names = meta["names"]
            name, parent = data["name"], data["parent"]
            selfs = self_times(data["start"], data["end"], parent)
            dur = data["end"] - data["start"]
        n_spans += len(name)
        for sid, label in enumerate(names):
            mask = name == sid
            entry = spans.setdefault(
                label, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
            )
            entry["calls"] += int(mask.sum())
            entry["total_s"] += float(dur[mask].sum())
            entry["self_s"] += float(selfs[mask].sum())
            entry["errors"] += int(meta["errors"].get(label, 0))
        counters.update(meta["counters"])
        if FIT_SPAN in names and LEVEL_SPAN in names:
            within = inside(name, parent, names.index(FIT_SPAN))
            level_evals += int(np.sum(within & (name == names.index(LEVEL_SPAN))))
    return {"spans": spans, "counters": dict(counters), "spans_total": n_spans,
            "level_evals": level_evals}


def layer_metrics(agg: dict, n_ops: int) -> dict:
    """Per-operation layer metrics, named as in BENCHMARK.json."""
    spans, counters = agg["spans"], agg["counters"]
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
    out: dict[str, float] = {}

    def per_op(value: float) -> float:
        return value / n_ops

    for label, fields in REPORTED.items():
        s = spans.get(label, zero)
        for field in fields:
            if field == "ms":
                out[f"{label}_ms"] = per_op(s["total_s"]) * 1e3
            elif field == "self_ms":
                out[f"{label}.self_ms"] = per_op(s["self_s"]) * 1e3
            elif field in ("calls", "errors"):
                out[f"{label}.{field}"] = per_op(s[field])
            else:
                out[f"{label}.{field}"] = per_op(counters.get(f"{label}.{field}", 0))
    labels = {f"{_short(m)}.{a}" for m, a in FUNCTIONS}
    for layer in LAYERS:
        own = [s for label, s in spans.items()
               if label in labels and label.startswith(layer + ".")]
        out[f"{layer}.self_ms"] = per_op(sum(s["self_s"] for s in own)) * 1e3
    out["trace.self_sum_ms"] = per_op(sum(s["self_s"] for s in spans.values())) * 1e3
    out["trace.spans"] = per_op(agg["spans_total"])
    out["estimate.level_evals"] = per_op(agg["level_evals"])
    restarts = spans.get("estimate.minimize", zero)["calls"]
    useful = counters.get("estimate.minimize.useful", 0)
    out["estimate.minimize.useful_ratio"] = useful / restarts if restarts else 0.0
    return out
