"""Command-line entry point: sigma | cell | homogenize | verify | sweep.

Exit codes: 0 success, 1 property failure, 2 configuration error, 3 numerical
divergence or no converged solve to estimate from.  Every exit after the
config file parses writes manifest.json, also when the config then fails
validation.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .harness import (
    ConfigError,
    build_manifest,
    load_config,
    run_cell,
    run_homogenize,
    run_property_suite,
    run_sigma,
    run_sweep,
    write_json,
)
from .cell import EstimateError
from .solve import DivergenceError

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_DIVERGENCE = 3


@functools.cache  # built on the first call, not at import
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Cell-problem laboratory for homogenized surface energies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sigma", "estimate the optimal transition constants"),
        ("cell", "solve the configured cell problems and emit CSV"),
        ("homogenize", "estimate the homogenized density per direction"),
        ("verify", "run the property suite and report pass/fail per property"),
        ("sweep", "anisotropy sweep: direction angle vs estimated density"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="environment seed override")
        p.add_argument("--threads", type=int, default=None, help="accepted and ignored: cells of one geometry run as one batch")
        p.add_argument("--format", default=None, help="accepted only as both: every command writes all of its outputs")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed, "format": args.format}
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if exc.config is not None:
            manifest = build_manifest(exc.config, args.command)
            write_json(os.path.join(exc.config.out_dir, "manifest.json"), manifest.to_dict())
        return EXIT_CONFIG_ERROR

    manifest = build_manifest(cfg, args.command)
    code = EXIT_OK
    try:
        if args.command == "sigma":
            payload = run_sigma(cfg, manifest)
            print(f"sigma-: {payload['sigma_minus']:.6g}   sigma+: {payload['sigma_plus']:.6g}")
        elif args.command == "cell":
            records = run_cell(cfg, manifest)
            print(f"solved {len(records)} cell problems -> {cfg.out_dir}/cell.csv")
        elif args.command in ("homogenize", "sweep"):
            runner = run_homogenize if args.command == "homogenize" else run_sweep
            payload = runner(cfg, manifest)
            for angle, entry in sorted(payload["f_hom"].items(), key=lambda kv: float(kv[0])):
                print(f"nu = {float(angle):7.2f} deg   f_hom = {entry['estimate']:.6g} +- {entry['stderr']:.2g}")
        elif args.command == "verify":
            results = run_property_suite(cfg)
            hard_fail = False
            for res in results:
                manifest.add(f"verify/{res.name}", cfg.env.seed)
                status = "PASS" if res.passed else "FAIL"
                if res.informational:
                    status = "INFO"
                print(f"[{status}] {res.name}: {res.detail}")
                hard_fail = hard_fail or (not res.passed and not res.informational)
            write_json(
                os.path.join(cfg.out_dir, "verify.json"),
                {
                    "results": [
                        {"name": r.name, "passed": r.passed, "detail": r.detail, "informational": r.informational}
                        for r in results
                    ]
                },
            )
            if hard_fail:
                code = EXIT_PROPERTY_FAILURE
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        code = EXIT_DIVERGENCE
    except EstimateError as exc:
        print(f"no estimate: {exc}", file=sys.stderr)
        code = EXIT_DIVERGENCE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG_ERROR

    write_json(os.path.join(cfg.out_dir, "manifest.json"), manifest.to_dict())
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
