"""Re-record the values and exact solver counts of every pool member in reference.json.

    python3 perfbench/record_reference.py          # record values and counts
    python3 perfbench/record_reference.py --drift  # measure the drift that sets upper_rel

Run it from the repository root, on the commit whose numbers become the
reference.  Every pool member is solved once, traced, and its outputs must pass
the invariants of the correctness gate.

--drift records nothing but `drift`: it solves every pool member again with the
initial step of every descent scaled by each of STEP_FACTORS, which changes the
descent path but not the stopping rule, and stores the largest relative rise and
fall of a cell value against the recorded values.  The tolerances in
`tolerance` are chosen from it by hand.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys

import run
import workloads
from tracer import EXACT_COUNTS, Tracer, layer_metrics

STEP_FACTORS = (0.5, 2.0)


def solve_member(name: str, member, work: str) -> tuple[dict, Tracer]:
    """Outputs of one pool member's calls, run once under the tracer."""
    build, _ = workloads.WORKLOADS[name]
    calls = build([member])
    paths = []
    for i, call in enumerate(calls):
        paths.append(os.path.join(work, f"call{i}.ini"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(call.config)
    with Tracer() as tracer:
        _, outputs = run.run_pass(calls, paths, os.path.join(work, "out"))
    return outputs, tracer


def record(reference: dict, work: str, c_eta: float) -> bool:
    values, counts = {}, {}
    for name, members in reference["pools"].items():
        counts[name] = {}
        for member in members:
            outputs, tracer = solve_member(name, member, work)
            for rid, record in outputs.items():
                reason = workloads.check_invariants(rid, record, c_eta)
                if reason is not None:
                    print(f"{name} {member}: {rid}: {reason}", file=sys.stderr)
                    return False
                values[rid] = workloads.reference_value(rid, record)
            layers = layer_metrics(tracer)
            counts[name][str(member)] = {k: layers[k] for k in EXACT_COUNTS}
            print(f"{name} {member}: {counts[name][str(member)]}", flush=True)
    reference["values"] = values
    reference["counts"] = counts
    return True


def measure_drift(reference: dict, work: str, c_eta: float) -> bool:
    solve = sys.modules["homlab.solve"]
    initial_step = solve._initial_step
    rise = fall = 0.0
    for factor in STEP_FACTORS:
        solve._initial_step = lambda model: factor * initial_step(model)
        try:
            for name, members in reference["pools"].items():
                for member in members:
                    outputs, _ = solve_member(name, member, work)
                    for rid, record in outputs.items():
                        reason = workloads.check_invariants(rid, record, c_eta)
                        if reason is not None:
                            print(f"step x{factor} {name} {member}: {rid}: {reason}", file=sys.stderr)
                            return False
                        if rid.startswith("f_hom "):  # derived from the cells; see workloads.f_hom_band
                            continue
                        ref = reference["values"][rid]
                        rel = (workloads.reference_value(rid, record) - ref) / abs(ref)
                        rise, fall = max(rise, rel), max(fall, -rel)
                        print(f"step x{factor} {rid}: {rel:+.3e}", flush=True)
        finally:
            solve._initial_step = initial_step
    reference["drift"] = {"step_factors": list(STEP_FACTORS), "max_rise_rel": rise, "max_fall_rel": fall}
    print(f"largest rise {rise:.3e}, largest fall {fall:.3e} (relative)")
    return True


def main(argv: list[str]) -> int:
    sys.path.insert(0, run.SRC)
    import homlab.cli  # noqa: F401  (run.run_pass looks it up in sys.modules)
    import numpy
    from homlab.core import DoubleWell, compute_c_eta

    c_eta = compute_c_eta(DoubleWell(), workloads.CHECKERBOARD_Q)
    reference = workloads.load_reference()
    work = os.path.join(run.WORK, "record")
    os.makedirs(work, exist_ok=True)
    ok = measure_drift(reference, work, c_eta) if "--drift" in argv else record(reference, work, c_eta)
    shutil.rmtree(work, ignore_errors=True)
    if not ok:
        return 1
    reference["recorded_with"] = f"python {platform.python_version()}, numpy {numpy.__version__}"
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
