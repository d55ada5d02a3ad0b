"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces homlab functions with timing wrappers under every
name a homlab module binds them to (so `homlab.cell.minimize_energy` and
`homlab.harness.cell_problem_r` are caught where callers look them up), and
wraps methods on their classes.  `restore()` puts every original back.

Each span records name, start, end, parent, thread and work id.  Spans stay in
memory until `write()`.  Per-iteration calls (value_and_gradient, energy,
gradient and the double-well evaluations) are not spans: they are counted and
timed on the span that made them, so a solve carries its own aggregate.  A span
opened on a pool thread with nothing open on that thread takes the innermost
span of the thread that installed the tracer as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, opens a work item)
FUNCTION_SPANS = (
    ("homlab.cli", "main", "cli.main", True),
    ("homlab.harness", "load_config", "cli.load_config", False),
    ("homlab.harness", "build_manifest", "cli.build_manifest", False),
    ("homlab.harness", "run_cell", "harness.run_cell", False),
    ("homlab.harness", "run_homogenize", "harness.run_homogenize", False),
    ("homlab.harness", "write_cell_csv", "harness.write_cell_csv", False),
    ("homlab.harness", "write_json", "harness.write_json", False),
    ("homlab.cell", "f_hom_estimate", "cell.f_hom_estimate", False),
    ("homlab.cell", "cell_problem_r", "cell.cell_problem_r", True),
    ("homlab.solve", "minimize_energy", "solve.minimize_energy", False),
    ("homlab.grids", "box_grid", "grids.box_grid", False),
    ("homlab.grids", "cube_grid", "grids.cube_grid", False),
    ("homlab.grids", "profile_values", "grids.profile_values", False),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("homlab.grids", "EnergyModel", "__init__", "grids.model_init"),
    ("homlab.environment", "Environment", "coefficients_at_points", "environment.sample"),
)
# (module, class, method, counter name)
METHOD_COUNTERS = (
    ("homlab.grids", "EnergyModel", "value_and_gradient", "grids.vg"),
    ("homlab.grids", "EnergyModel", "energy", "grids.eval"),
    ("homlab.grids", "EnergyModel", "gradient", "grids.eval"),
    ("homlab.core", "DoubleWell", "__call__", "core.well"),
    ("homlab.core", "DoubleWell", "derivative", "core.well"),
)

GRID_BUILD_SPANS = (
    "grids.box_grid",
    "grids.cube_grid",
    "grids.profile_values",
    "grids.model_init",
)
CELL_SPANS = ("cell.f_hom_estimate", "cell.cell_problem_r")
RUN_SPANS = ("harness.run_cell", "harness.run_homogenize")
WRITE_SPANS = ("harness.write_cell_csv", "harness.write_json")
CONFIG_SPANS = ("cli.load_config", "cli.build_manifest")
VG_SIDES = (32, 64, 128)
# counts that repeat exactly for the same inputs; reference.json records them per pool member
EXACT_COUNTS = ("solve.iters", "grids.vg_calls", "cell.solves")


class Span:
    __slots__ = ("id", "name", "t0", "t1", "parent", "thread", "work", "attrs", "counts", "counted_s")

    def __init__(self, span_id: int, name: str, parent: "Span | None", work_item: bool):
        self.id = span_id
        self.name = name
        self.parent = parent.id if parent is not None else None
        self.work = span_id if work_item or parent is None else parent.work
        self.thread = threading.get_ident()
        self.attrs = {}
        self.counts = {}  # counter name -> [calls, seconds]
        self.counted_s = 0.0  # counted time not nested in another counted call
        self.t0 = self.t1 = 0.0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.vg_calls: list[tuple[int, int, float]] = []  # (nodes per side, nodes, seconds)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = self._stack()
        self._patches: list[tuple[object, str, object]] = []
        self.origin = perf_counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list) -> Span | None:
        if stack:
            return stack[-1]
        if threading.get_ident() != self._owner and self._owner_stack:
            return self._owner_stack[-1]
        return None

    def _begin(self, name: str, work_item: bool) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, self._parent(stack), work_item)
        stack.append(span)
        span.t0 = perf_counter()
        return span

    def _end(self, span: Span) -> None:
        span.t1 = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _count(self, name: str, seconds: float, nested: bool) -> None:
        span = self._parent(self._stack())
        if span is None:  # a call outside every span has no layer to charge
            return
        entry = span.counts.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        if not nested:
            span.counted_s += seconds

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str, work_item: bool, attrs=None, result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._begin(name, work_item)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs))
            if result is not None:
                span.attrs.update(result(out))
            return out

        return wrapper

    def _count_wrapper(self, fn, name: str):
        local = self._local
        record_vg = name == "grids.vg"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - t0
                local.depth = depth
                self._count(name, seconds, depth > 0)
                if record_vg:
                    u = args[1]
                    self.vg_calls.append((u.shape[0], u.size, seconds))

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _lookup(self, module: str, *names: str):
        """The object at module.names..., or None (recorded in `missing`) when a name is gone."""
        obj = sys.modules.get(module)
        for name in names:
            obj = vars(obj).get(name) if obj is not None else None
        if obj is None:
            self.missing.append(".".join((module,) + names))
        return obj

    def install(self) -> None:
        homlab_modules = [m for k, m in list(sys.modules.items()) if k == "homlab" or k.startswith("homlab.")]
        attrs = {
            "cell.cell_problem_r": lambda a, k: {"r": float(a[2] if len(a) > 2 else k["r"])},
            "environment.sample": lambda a, k: {"points": len(a[1] if len(a) > 1 else k["x"])},
        }
        solve_result = lambda res: {"iters": res.iters, "converged": bool(res.converged)}
        for module, attr, name, work_item in FUNCTION_SPANS:
            fn = self._lookup(module, attr)
            if fn is None:
                continue
            result = solve_result if name == "solve.minimize_energy" else None
            wrapper = self._span_wrapper(fn, name, work_item, attrs.get(name), result)
            for mod in homlab_modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)
        for module, cls_name, attr, name in METHOD_SPANS:
            fn = self._lookup(module, cls_name, attr)
            if fn is not None:
                self._patch(vars(sys.modules[module])[cls_name], attr, self._span_wrapper(fn, name, False, attrs.get(name)))
        for module, cls_name, attr, name in METHOD_COUNTERS:
            fn = self._lookup(module, cls_name, attr)
            if fn is not None:
                self._patch(vars(sys.modules[module])[cls_name], attr, self._count_wrapper(fn, name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output ------------------------------------------------------------

    def write(self, fh, label: str) -> None:
        """Append every span as one JSON line; times in seconds since the tracer was made."""
        threads = {}
        for span in sorted(self.spans, key=lambda s: s.t0):
            fh.write(
                json.dumps(
                    {
                        "pass": label,
                        "id": span.id,
                        "name": span.name,
                        "start": round(span.t0 - self.origin, 9),
                        "end": round(span.t1 - self.origin, 9),
                        "parent": span.parent,
                        "thread": threads.setdefault(span.thread, len(threads)),
                        "work": span.work,
                        "attrs": span.attrs,
                        "counts": {k: [calls, round(secs, 9)] for k, (calls, secs) in span.counts.items()},
                    }
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _quantile(values, p: float) -> float:
    if not values:
        return 0.0
    xs = sorted(values)
    pos = p * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def self_time(s: Span) -> float:
        covered = _union_length((max(c.t0, s.t0), min(c.t1, s.t1)) for c in children[s.id])
        return s.duration - covered - s.counted_s

    def spans_of(names):
        return [s for name in names for s in by_name.get(name, ())]

    def self_sum(names) -> float:
        return sum((self_time(s) for s in spans_of(names)), 0.0)

    def total(names) -> float:
        return sum((s.duration for s in spans_of(names)), 0.0)

    def counted(name: str) -> tuple[int, float]:
        calls, seconds = 0, 0.0
        for s in spans:
            c = s.counts.get(name)
            if c:
                calls += c[0]
                seconds += c[1]
        return calls, seconds

    def enclosing_r(s: Span):
        while s is not None:
            if s.name == "cell.cell_problem_r":
                return s.attrs.get("r")
            s = by_id.get(s.parent)
        return None

    solves = by_name.get("solve.minimize_energy", [])
    iters = sum(s.attrs.get("iters", 0) for s in solves)
    iters_by_r = defaultdict(int)
    for s in solves:
        iters_by_r[enclosing_r(s)] += s.attrs.get("iters", 0)
    vg_calls, vg_s = counted("grids.vg")
    eval_calls, _ = counted("grids.eval")
    well_calls, well_s = counted("core.well")
    vg_nodes = sum(nodes for _, nodes, _ in tracer.vg_calls)
    vg_by_side = defaultdict(list)
    for side, _, seconds in tracer.vg_calls:
        vg_by_side[side].append(seconds)
    solve_self = self_sum(["solve.minimize_energy"])
    cell_solve_times = [s.duration for s in by_name.get("cell.cell_problem_r", [])]
    run_wall = total(RUN_SPANS)

    metrics = {
        "environment.sample_s": total(["environment.sample"]),
        "environment.points": sum(s.attrs.get("points", 0) for s in by_name.get("environment.sample", [])),
        "grids.build_s": self_sum(GRID_BUILD_SPANS),
        "grids.vg_calls": vg_calls,
        "grids.vg_s": vg_s,
    }
    for side in VG_SIDES:
        metrics[f"grids.vg_ms.n{side}"] = 1000.0 * _quantile(vg_by_side.get(side, []), 0.5)
    metrics.update(
        {
            "grids.vg_ns_per_node": 1e9 * vg_s / vg_nodes if vg_nodes else 0.0,
            "grids.eval_calls": eval_calls,
            "core.well_s": well_s,
            "core.well_calls": well_calls,
            "solve.calls": len(solves),
            "solve.iters": iters,
            "solve.iters.r8": iters_by_r.get(8.0, 0),
            "solve.iters.r16": iters_by_r.get(16.0, 0),
            "solve.iters.r32": iters_by_r.get(32.0, 0),
            "solve.evals_per_iter": vg_calls / iters if iters else 0.0,
            "solve.self_s": solve_self,
            "solve.ms_per_iter": 1000.0 * solve_self / iters if iters else 0.0,
            "solve.converged_frac": sum(bool(s.attrs.get("converged")) for s in solves) / len(solves) if solves else 0.0,
            "cell.solves": len(cell_solve_times),
            "cell.solve_s_p50": _quantile(cell_solve_times, 0.5),
            "cell.solve_s_p80": _quantile(cell_solve_times, 0.8),
            "cell.self_s": self_sum(CELL_SPANS),
            "harness.self_s": self_sum(RUN_SPANS),
            "harness.write_s": total(WRITE_SPANS),
            "harness.overlap": sum(cell_solve_times) / run_wall if run_wall else 0.0,
            "cli.config_s": total(CONFIG_SPANS),
            "cli.self_s": self_sum(["cli.main"]),
        }
    )
    return metrics
