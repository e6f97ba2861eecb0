"""Span tracing of the doublelambda layers, recorded from outside the package.

Every public function of the nine pipeline modules is wrapped at each module
attribute that refers to it, so calls the pipeline makes through
``experiments.build_generator``, ``fl.linearize`` or ``pr.propagate_covariance``
are all seen.  Spans are kept in memory; self time is a span's duration minus
the durations of its direct children (calls are nested and single-threaded).
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

PACKAGE = "doublelambda"
LAYERS = ("atom", "steady", "fluctuations", "propagation", "entanglement",
          "experiments", "oracle", "io", "cli")

#: timed functions reported per layer: metric prefix -> (span names, unit)
TIMED = {
    "propagation.propagate_covariance": (("propagation.propagate_covariance",), "ms"),
    "propagation.make_setup": (("propagation.make_setup",), "ms"),
    "fluctuations.atomic_response": (("fluctuations.atomic_response",), "ms"),
    "fluctuations.linearize": (("fluctuations.linearize",), "ms"),
    "fluctuations.diffusion": (("fluctuations.diffusion_matrix",
                                "fluctuations.diffusion_matrix_vacuum_reservoir"), "ms"),
    "fluctuations.drift_matrix": (("fluctuations.drift_matrix",), "ms"),
    "fluctuations.field_coupling_matrix": (("fluctuations.field_coupling_matrix",), "ms"),
    "atom.build_generator": (("atom.build_generator",), "ms"),
    "steady.solve_steady_state": (("steady.solve_steady_state",), "ms"),
    "experiments.compute_point": (("experiments.compute_point",), "ms"),
    "entanglement.duan_v12": (("entanglement.duan_v12",), "us"),
    "oracle.cross_validate": (("oracle.cross_validate",), "ms"),
    "oracle.lyapunov_covariance": (("oracle.lyapunov_covariance",), "ms"),
    "oracle.diffusion_channelwise": (("fluctuations.diffusion_matrix_channelwise",), "ms"),
    "io.write_results": (("io.write_results",), "ms"),
    "io.write_manifest": (("io.write_manifest",), "ms"),
}

#: counters and ratios: name -> unit
COUNTERS = {
    "propagation.propagate_covariance.calls": "count/pass",
    "propagation.unconverged_ratio": "ratio",
    "propagation.rk4_steps_computed": "count/item",
    "fluctuations.atomic_response.calls_per_item": "count/item",
    "atom.build_generator.calls": "count/pass",
    "steady.fallback_ratio": "ratio",
    "experiments.evals_per_calibration": "count",
    "experiments.run_sweep.self_s": "s/pass",
    "experiments.dark_ratio": "ratio",
    "oracle.checks_passed_ratio": "ratio",
    "io.bytes_written": "B/pass",
    "cli.main.self_s": "s/pass",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

SCALE = {"ms": 1e3, "us": 1e6}
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def metric_units() -> dict:
    """Every reported per-layer metric with its unit, in report order.

    `layer_metrics` also gives each `<prefix>.tail_pct`, the percentile a
    tail value stands for; it goes to the run record, not the report.
    """
    units = {}
    for prefix, (_, unit) in TIMED.items():
        units[f"{prefix}.{unit}"] = unit
        units[f"{prefix}.tail_{unit}"] = unit
    units.update(COUNTERS)
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    return units


def _solve_requested_auto(args, kwargs) -> bool:
    method = kwargs.get("method", args[2] if len(args) > 2 else "auto")
    return method == "auto"


#: result annotations kept on a span, computed after its end time is taken
OBSERVERS = {
    "propagation.propagate_covariance":
        lambda a, k, r: {"converged": r.converged, "slabs": r.slabs},
    "steady.solve_steady_state":
        lambda a, k, r: {"auto": _solve_requested_auto(a, k), "method": r.method},
    "experiments.compute_point":
        lambda a, k, r: {"dark": r.method.endswith("dark-transparent")},
    "oracle.cross_validate":
        lambda a, k, r: {"checks": len(r.checks),
                         "passed": sum(c.passed for c in r.checks)},
    "io.write_results": lambda a, k, r: {"bytes": os.path.getsize(r)},
    "io.write_manifest": lambda a, k, r: {"bytes": os.path.getsize(r)},
}


@dataclass(slots=True)
class Span:
    """One call: `item` is the id of the harness item span it serves."""

    id: int
    parent: int | None
    name: str
    item: int | None
    start: float
    end: float = 0.0
    note: dict | None = None


class NullTracer:
    """Stands in for a Tracer in untraced passes: records and patches nothing."""

    def span(self, name: str, item: bool = False):
        return nullcontext()

    def install(self):
        return nullcontext()


class Tracer:
    """In-memory span recorder; `install` patches the package while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._item = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self._item,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, item: bool = False):
        """Harness span; an item span gives its id to every span below it."""
        span = self._open(name)
        outer = self._item
        if item or outer is None:
            self._item = span.id
            span.item = span.id
        try:
            yield span
        finally:
            self._close(span)
            self._item = outer

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span.note = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Wrap every public layer function at every attribute bound to it."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        patched = []
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return cuts[int(round(pct * 10)) - 1], pct
    return 0.0, 0.0


def _ancestors(spans: list[Span], span: Span):
    while span.parent is not None:
        span = spans[span.parent]
        yield span


def _scaled(tracer: Tracer, factors: list[float]) -> tuple[list, list]:
    """Inclusive and self span times at nominal speed, without probe time.

    Root spans are the harness's passes, in order; every span is divided by
    the slowdown factor of its pass.  Probe spans keep their own time as
    self time, which no other span then counts.
    """
    spans = tracer.spans
    own = tracer.self_times()
    dur = [s.end - s.start for s in spans]
    for s in spans:
        if s.name == "bench.probe":
            for a in _ancestors(spans, s):
                dur[a.id] -= s.end - s.start
    pass_of = []
    roots = 0
    for s in spans:
        if s.parent is None:
            pass_of.append(roots)
            roots += 1
        else:
            pass_of.append(pass_of[s.parent])
    dur = [d / factors[p] for d, p in zip(dur, pass_of)]
    own = [o / factors[p] for o, p in zip(own, pass_of)]
    return dur, own


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict,
                  items: int) -> dict:
    """Per-layer metrics of the traced passes of `traced`.

    `traced` and `untraced` are the harness's records of the traced and the
    untraced passes; times are at nominal machine speed.
    """
    spans = tracer.spans
    passes = len(traced["walls"])
    dur, own = _scaled(tracer, traced["factors"])
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    out = {}
    for prefix, (names, unit) in TIMED.items():
        durations = [dur[s.id] * SCALE[unit] for s in named(*names)]
        out[f"{prefix}.{unit}"] = statistics.median(durations) if durations else 0.0
        tail, pct = _tail(durations)
        out[f"{prefix}.tail_{unit}"] = tail
        out[f"{prefix}.tail_pct"] = pct

    prop = named("propagation.propagate_covariance")
    out["propagation.propagate_covariance.calls"] = len(prop) / passes
    out["propagation.unconverged_ratio"] = (
        sum(not s.note["converged"] for s in prop) / len(prop) if prop else 0.0)
    out["propagation.rk4_steps_computed"] = (
        sum(3 * s.note["slabs"] for s in prop) / (passes * items))
    out["fluctuations.atomic_response.calls_per_item"] = (
        len(named("fluctuations.atomic_response")) / (passes * items))
    gens = named("atom.build_generator")
    out["atom.build_generator.calls"] = len(gens) / passes
    auto = [s for s in named("steady.solve_steady_state") if s.note["auto"]]
    out["steady.fallback_ratio"] = (
        sum(s.note["method"] != "null-space" for s in auto) / len(auto)
        if auto else 0.0)
    calibrations = named("experiments.calibrate_coupling")
    in_calibration = sum(
        any(a.name == "experiments.calibrate_coupling"
            for a in _ancestors(spans, s)) for s in gens)
    out["experiments.evals_per_calibration"] = (
        in_calibration / len(calibrations) if calibrations else 0.0)
    out["experiments.run_sweep.self_s"] = sum(
        own[s.id] for s in named("experiments.run_sweep")) / passes
    points = named("experiments.compute_point")
    out["experiments.dark_ratio"] = (
        sum(s.note["dark"] for s in points) / len(points) if points else 0.0)
    reports = named("oracle.cross_validate")
    total_checks = sum(s.note["checks"] for s in reports)
    out["oracle.checks_passed_ratio"] = (
        sum(s.note["passed"] for s in reports) / total_checks
        if total_checks else 0.0)
    out["io.bytes_written"] = sum(
        s.note["bytes"] for s in named("io.write_results", "io.write_manifest")
    ) / passes
    out["cli.main.self_s"] = sum(own[s.id] for s in named("cli.main")) / passes

    out["trace.wall_s"] = statistics.median(traced["walls"])
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        untraced["walls"])
    total = sum(dur[s.id] for s in spans if s.parent is None)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = sum(
            own[s.id] for s in spans if s.name.split(".", 1)[0] == layer) / total
    return out
