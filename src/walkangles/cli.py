"""Command-line front end.

Verbs:
  simulate <config.json>        run a seeded multi-run experiment, write CSVs
  reproduce <example> [...]     rerun a worked example, report PASS/FAIL
  pruitt <tail> --K 64          dyadic hazard ratios and trend verdict
  shull <points.json>           spherical hull of unit vectors
  plot <csv> -o out.svg         figure from an artifact CSV

Exit codes: 0 success/PASS, 1 FAIL, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

__all__ = ["main"]


def _cmd_simulate(args) -> int:
    from .experiment import ConfigError, load_config, run_experiment
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = load_config(text, out_dir=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(config)
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(result.files)} files to {config.out_dir}")
    for name in result.files:
        print(f"  {name}")
    return 0


def _cmd_reproduce(args) -> int:
    from .examples import EXAMPLE_NAMES, reproduce_example
    if args.name not in EXAMPLE_NAMES:
        print(f"error: unknown example {args.name!r}; choose from "
              f"{', '.join(EXAMPLE_NAMES)}", file=sys.stderr)
        return 2
    try:
        report = reproduce_example(args.name, steps=args.steps, runs=args.runs,
                                   seed=args.seed, alpha=args.alpha)
    except ValueError as exc:       # past argparse, only an unused alpha is refused
        print(f"error: argument --alpha: {exc}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{args.name}-report.json")
        with open(path, "w", newline="\n") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        print(f"report written to {path}")
    return 0 if report.passed else 1


def _cmd_pruitt(args) -> int:
    from .pruitt import TailFunction, pruitt_diagnostic, u_sequence
    spec = args.tail
    try:
        if spec == "log_tail":
            tail = TailFunction("log_tail")
        elif spec.startswith("poly:"):
            tail = TailFunction("poly", float(spec.split(":", 1)[1]))
        elif spec.startswith("stretched:"):
            tail = TailFunction("stretched_exp", float(spec.split(":", 1)[1]))
        elif spec.endswith(".json"):
            with open(spec) as fh:
                rows = json.load(fh)
            tail = TailFunction("custom", table=tuple((float(r), float(p))
                                                      for r, p in rows))
        else:
            print(f"error: unknown tail {spec!r} (use log_tail, poly:A, "
                  "stretched:B, or a .json table)", file=sys.stderr)
            return 2
        u = u_sequence(tail, args.K)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diag = pruitt_diagnostic(u, min_terms=min(16, args.K + 1))
    if args.csv:
        with open(args.csv, "w", newline="\n") as fh:
            fh.write(diag.to_csv(tail))
        print(f"wrote {args.csv}")
    print(f"verdict: {diag.verdict} (fitted slope {diag.fitted_slope:.3f}, "
          f"partial sum {diag.partial_sums[-1]:.6g})")
    return 0


def _cmd_shull(args) -> int:
    from .sphere import s_hull
    try:
        with open(args.points) as fh:
            pts = np.asarray(json.load(fh), dtype=float)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read points: {exc}", file=sys.stderr)
        return 2
    norms = np.linalg.norm(np.atleast_2d(pts), axis=1, keepdims=True)
    if np.any(norms == 0):
        print("error: points must be nonzero vectors", file=sys.stderr)
        return 2
    hull = s_hull(np.atleast_2d(pts) / norms)
    if hull.arcs is not None:
        print(hull.to_json())
        if args.out:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(hull.to_json() + "\n")
    else:
        info = {"dimension": hull.dimension, "full_sphere": hull.is_full_sphere(),
                "generators": hull.generators.tolist()}
        print(json.dumps(info, sort_keys=True))
        if args.out:
            with open(args.out, "w", newline="\n") as fh:
                json.dump(info, fh, sort_keys=True, indent=2)
    return 0


def _cmd_plot(args) -> int:
    from .plots import emit_plot
    try:
        with open(args.csv) as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        print(f"error: cannot read {args.csv}: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("error: no data rows in input", file=sys.stderr)
        return 2
    cols = rows[0].keys()
    kind = args.kind
    if kind is None:
        if "verdict" in cols and "visits_l0" in cols:
            kind = "rose"
        elif "r" in cols and "vertex_count" in cols:
            kind = "radius"
        elif "s_1" in cols:
            kind = "trajectory"
        else:
            print("error: cannot infer plot kind from columns; pass --kind",
                  file=sys.stderr)
            return 2
    try:
        if kind == "trajectory":
            data = np.array([[float(r["s_1"]), float(r["s_2"])] for r in rows])
        elif kind == "rose":
            grid = np.array([[float(r["u_1"]), float(r["u_2"])] for r in rows])
            name_to_code = {"IN": 1, "OUT": -1, "UNDECIDED": 0}
            verdicts = np.array([name_to_code[r["verdict"]] for r in rows])
            data = (grid, verdicts)
        else:
            data = (np.array([float(r["n"]) for r in rows]),
                    np.array([float(r["r"]) for r in rows]))
        emit_plot(kind, data, args.output)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.output}")
    return 0


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``; a smaller one is a
    usage error (exit 2) that names the flag."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _positive_number(text: str) -> float:
    """argparse type: a finite number above 0; anything else is a usage error
    (exit 2) that names the flag."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkangles",
        description="Random-walk direction-set simulation and geometry toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="run an experiment config")
    p.add_argument("config", help="experiment JSON file")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce", help="rerun a worked example")
    p.add_argument("name", help="example name (e.g. ex-10.1)")
    p.add_argument("--steps", type=_int_at_least(1), default=None)
    p.add_argument("--runs", type=_int_at_least(1), default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--alpha", type=_positive_number, default=None,
                   help="tail index of the example's heavy law (not heavytails-demo)")
    p.add_argument("--out", default=None, help="directory for the JSON report")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("pruitt", help="dyadic hazard ratio diagnostic")
    p.add_argument("tail", help="log_tail | poly:ALPHA | stretched:BETA | table.json")
    # the trend fit needs two terms k >= 1 in the sequence's last half
    p.add_argument("--K", type=_int_at_least(2), default=64)
    p.add_argument("--csv", default=None, help="write the u_k table here")
    p.set_defaults(func=_cmd_pruitt)

    p = sub.add_parser("shull", help="spherical hull of points")
    p.add_argument("points", help="JSON file: list of vectors")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_shull)

    p = sub.add_parser("plot", help="SVG figure from an artifact CSV")
    p.add_argument("csv")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--kind", choices=["trajectory", "rose", "radius"], default=None)
    p.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
