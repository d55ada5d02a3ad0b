"""homlab benchmark: time to solution of cell-problem workloads through `homlab.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports homlab from ./src and writes only
under ./.perfbench_work.  The workload seed picks the inputs (see workloads.py).

--trace 0 repeats the workload in this process for about S seconds (at least
MIN_PASSES passes) and reports the median time to solution, the set-up time and
the peak memory.  --trace 1 alternates untraced passes with passes under the
span recorder (plus one at one worker for `cells_r8_2w`) for about S seconds (at
least MIN_TRACED_ROUNDS rounds) and reports the median per-layer metrics and the
tracing overhead.  Every pass is checked
by the correctness gate; the last line of stdout is one JSON object, and the exit
code is 1 when any output failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

# one process, at most two threads: keep BLAS from adding its own
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads
from tracer import EXACT_COUNTS, Tracer, layer_metrics

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2  # untraced + traced pass pairs of a --trace 1 run
THREADS = 2  # `--threads` of every call: the default on the 2-core machine the workloads were sized on
SETUP_REPEATS = 2  # fresh interpreters before every pass and after the last one

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "environment.sample_s": "s",
    "environment.points": "count",
    "grids.build_s": "s",
    "grids.vg_calls": "count",
    "grids.vg_s": "s",
    "grids.vg_ms.n32": "ms",
    "grids.vg_ms.n64": "ms",
    "grids.vg_ms.n128": "ms",
    "grids.vg_ns_per_node": "ns",
    "grids.eval_calls": "count",
    "core.well_s": "s",
    "core.well_calls": "count",
    "solve.calls": "count",
    "solve.iters": "count",
    "solve.iters.r8": "count",
    "solve.iters.r16": "count",
    "solve.iters.r32": "count",
    "solve.evals_per_iter": "ratio",
    "solve.self_s": "s",
    "solve.ms_per_iter": "ms",
    "solve.converged_frac": "ratio",
    "cell.solves": "count",
    "cell.solve_s_p50": "s",
    "cell.solve_s_p80": "s",
    "cell.self_s": "s",
    "harness.self_s": "s",
    "harness.write_s": "s",
    "harness.overlap": "ratio",
    "harness.speedup_2w": "ratio",
    "cli.config_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Runs in a fresh interpreter: import homlab and load every config of the
# workload the way `homlab.cli.main` does, timed from before the import.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import homlab.cli
for path in sys.argv[2:]:
    homlab.cli.load_config(path, {"out": "out", "seed": None, "threads": 2, "format": "both"})
print(repr(time.perf_counter() - t0))
"""


def measure_setup(config_paths: list[str], repeats: int) -> list[float]:
    """`import homlab` plus config load and validation, each in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, SRC, *config_paths],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_pass(calls, config_paths, out_root: str, threads: int = THREADS) -> tuple[float, dict]:
    """Run every CLI call of the workload once; returns time to solution and output records."""
    cli = sys.modules["homlab.cli"]
    shutil.rmtree(out_root, ignore_errors=True)
    wall = 0.0
    outputs = {}
    for i, (call, config_path) in enumerate(zip(calls, config_paths)):
        out_dir = os.path.join(out_root, f"call{i}")
        argv = call.argv(config_path, out_dir, threads)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # an uncaught error fails every output of the call
                traceback.print_exc()
                code = -1
            wall += perf_counter() - t0
        records = workloads.read_outputs(call, out_dir) if code == 0 else {}
        if code != 0:
            print(f"homlab {' '.join(argv)} exited with {code}", file=sys.stderr)
        outputs.update({rid: records.get(rid) for rid in call.expected})
    return wall, outputs


class Gate:
    """Counts attempted and failed outputs over every pass of one run."""

    def __init__(self, reference: dict, c_eta: float):
        self.reference = reference
        self.c_eta = c_eta
        self.first = None
        self.attempted = 0
        self.failed = 0

    def check(self, outputs: dict, label: str) -> None:
        if self.first is None:
            self.first = outputs
        for rid, record in outputs.items():
            reason = workloads.check_output(rid, record, self.reference, self.c_eta)
            if reason is None and record != self.first.get(rid):
                reason = "differs from the first pass (only wall_ms may change)"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                print(f"FAILED [{label}] {rid}: {reason}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "homlab", "cli.py")):
        print(f"no homlab sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    calls = workloads.workload_calls(args.workload, args.seed, reference)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    config_paths = []
    for i, call in enumerate(calls):
        path = os.path.join(run_dir, f"call{i}.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(call.config)
        config_paths.append(path)

    try:
        setup = measure_setup(config_paths, SETUP_REPEATS) if args.trace == 0 else []
        sys.path.insert(0, SRC)
        import homlab.cli  # noqa: F401  (run_pass looks it up in sys.modules)
        from homlab.core import DoubleWell, compute_c_eta

        if not os.path.abspath(homlab.cli.__file__).startswith(SRC + os.sep):
            raise ImportError(f"homlab imported from {homlab.cli.__file__}, not from {SRC}")
    except (OSError, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"cannot set up homlab from {SRC}: {exc}", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 2

    gate = Gate(reference, compute_c_eta(DoubleWell(), workloads.CHECKERBOARD_Q))
    out_root = os.path.join(run_dir, "out")
    if args.trace == 0:
        walls = []
        t_start = perf_counter()
        while True:
            wall, outputs = run_pass(calls, config_paths, out_root)
            gate.check(outputs, f"pass {len(walls) + 1}")
            walls.append(wall)
            setup += measure_setup(config_paths, SETUP_REPEATS)
            elapsed = perf_counter() - t_start
            if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
                break
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"wall_s per pass: {', '.join(f'{w:.3f}' for w in walls)}", file=sys.stderr)
        print(f"setup_s per interpreter: {', '.join(f'{t:.4f}' for t in setup)}", file=sys.stderr)
    else:
        # Untraced and traced passes alternate, so host drift touches both sides
        # alike; for cells_r8_2w every round adds a traced pass at one worker.
        untraced, traced, single, layers = [], [], [], []
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
        t_start = perf_counter()
        with open(trace_path, "w", encoding="utf-8") as fh:
            while True:
                n = len(traced) + 1
                wall, outputs = run_pass(calls, config_paths, out_root)
                gate.check(outputs, f"untraced {n}")
                untraced.append(wall)
                with Tracer() as tracer:
                    wall, outputs = run_pass(calls, config_paths, out_root)
                tracer.write(fh, f"traced {n}")
                gate.check(outputs, f"traced {n}")
                traced.append(wall)
                layers.append(layer_metrics(tracer))
                if args.workload == "cells_r8_2w":
                    with Tracer() as one:
                        wall, outputs = run_pass(calls, config_paths, out_root, threads=1)
                    one.write(fh, f"traced at 1 worker {n}")
                    gate.check(outputs, f"traced at 1 worker {n}")
                    single.append(wall)
                elapsed = perf_counter() - t_start
                if n >= MIN_TRACED_ROUNDS and elapsed * (n + 1) / n > args.seconds:
                    break
        # counts repeat exactly from pass to pass and stay whole numbers
        values = {}
        for name in layers[0]:
            per_pass = [m[name] for m in layers]
            values[name] = per_pass[0] if len(set(per_pass)) == 1 else statistics.median(per_pass)
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values["harness.speedup_2w"] = statistics.median(single) / statistics.median(traced) if single else 0.0
        recorded = reference.get("counts", {}).get(args.workload, {})
        members = [str(m) for m in workloads.pool_members(args.workload, args.seed, reference)]
        if all(m in recorded for m in members):
            for key in EXACT_COUNTS:
                base = sum(recorded[m][key] for m in members)
                print(f"{key}: {values[key]} (reference commit: {base})", file=sys.stderr)
        if tracer.missing:
            print(f"not traced (names not found): {', '.join(tracer.missing)}", file=sys.stderr)
        for label, walls in (("untraced", untraced), ("traced", traced), ("traced at 1 worker", single)):
            if walls:
                print(f"{label} wall_s per pass: {', '.join(f'{w:.3f}' for w in walls)}", file=sys.stderr)
        print(f"spans in {trace_path}", file=sys.stderr)
        units = PER_LAYER_UNITS
    shutil.rmtree(run_dir, ignore_errors=True)

    for name, unit in units.items():
        print(f"{args.workload:12s} {name:24s} {values[name]:.6g} {unit}")
    frac = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"{args.workload:12s} {'failed_frac':24s} {frac:.6g} ({gate.failed} of {gate.attempted} outputs)")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
