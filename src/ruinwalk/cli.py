"""Batch front door: read a model config, run the pipeline, write reports.

Exit codes: 0 when every enabled check passes, 1 on an internal check or
computation failure, 2 when the input is rejected (malformed config or a
model violating the net profit condition).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import load_config
from .errors import ConfigError, NetProfitViolation, RuinwalkError
from .pipeline import run_model
from .reporting import FORMATS, render_report, write_outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinwalk",
        description=(
            "Survival probabilities for the integer surplus process "
            "u + kappa*n - (X_1 + ... + X_n)"
        ),
    )
    parser.add_argument("--config", required=True, help="path to the JSON model config")
    parser.add_argument("--u-max", type=int, default=None, help="override the table length")
    parser.add_argument("--t-max", type=int, default=None, help="override the finite-time horizon")
    parser.add_argument("--verify", action="store_true", help="run the simulation/oracle checks")
    parser.add_argument("--mc-paths", type=int, default=None, help="override Monte Carlo paths")
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--out", default=None, help="output directory (default: report to stdout)")
    parser.add_argument(
        "--format", choices=FORMATS, default="both", help="which outputs to write"
    )
    parser.add_argument(
        "--no-timings", action="store_true", help="omit timings for byte-reproducible reports"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        overrides = {}
        if args.u_max is not None:
            overrides["u_max"] = args.u_max
        if args.t_max is not None:
            overrides["t_max"] = args.t_max
        if args.mc_paths is not None:
            overrides["mc_paths"] = args.mc_paths
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            config = dataclasses.replace(config, **overrides)
        report = run_model(config, verify=args.verify)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NetProfitViolation as exc:
        print(f"model rejected ({exc})", file=sys.stderr)
        return 2
    except RuinwalkError as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if args.out is None:
        print(render_report(report, include_timings=not args.no_timings))
    else:
        paths = write_outputs(
            report, args.out, fmt=args.format, include_timings=not args.no_timings
        )
        for p in paths:
            print(p)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
