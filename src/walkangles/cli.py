"""Command-line front end.

Verbs:
  simulate <config.json>        run a seeded multi-run experiment, write CSVs
  reproduce <example> [...]     rerun a worked example, report PASS/FAIL
  pruitt <tail> --K 64          dyadic hazard ratios and trend verdict
  shull <points.json>           spherical hull of unit vectors
  plot <csv> -o out.svg         figure from an artifact CSV

Exit codes: 0 success/PASS, 1 FAIL, 2 a bad argument, input file or output path.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from .pruitt import MAX_K
from .samplers import KINDS

__all__ = ["main"]

# the package's number rule (a finite int or float, never a boolean) on each list entry
_is_number_list = KINDS["tuple[float, ...]"][0]


class CliError(Exception):
    """A bad argument, input file or output path; ``main`` reports it and exits 2."""


def _read(path: str, parse=json.loads):
    """``parse`` of the text of ``path``; a CliError naming it if that fails."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    # ValueError: JSON or text decoding; RecursionError: JSON nested too deep
    except (OSError, ValueError, RecursionError, csv.Error) as exc:
        raise CliError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _write(path: str, text: str, make_dir: bool = False) -> None:
    """``text`` into ``path``, making its directory first if ``make_dir``; or a CliError."""
    try:
        if make_dir:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


def _cmd_simulate(args) -> int:
    from .experiment import ConfigError, load_config, run_experiment
    try:
        config = load_config(_read(args.config), out_dir=args.out)
        result = run_experiment(config)
    except ConfigError as exc:
        raise CliError(exc) from exc
    except OSError as exc:
        raise CliError(f"cannot write artifacts: {exc}") from exc
    print(f"wrote {len(result.files)} files to {config.out_dir}")
    for name in result.files:
        print(f"  {name}")
    return 0


def _cmd_reproduce(args) -> int:
    from .examples import EXAMPLE_NAMES, reproduce_example
    if args.name not in EXAMPLE_NAMES:
        raise CliError(f"unknown example {args.name!r}; choose from {', '.join(EXAMPLE_NAMES)}")
    try:
        report = reproduce_example(args.name, steps=args.steps, runs=args.runs,
                                   seed=args.seed, alpha=args.alpha)
    except ValueError as exc:       # past argparse, only an unused alpha is refused
        raise CliError(f"argument --alpha: {exc}") from exc
    for line in report.lines():
        print(line)
    if args.out:
        path = os.path.join(args.out, f"{args.name}-report.json")
        _write(path, json.dumps(report.to_dict(), sort_keys=True, indent=2), make_dir=True)
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
            rows = _read(spec)
            if not (isinstance(rows, list) and rows
                    and all(_is_number_list(row) and len(row) == 2 for row in rows)):
                raise CliError(f"{spec} must be a non-empty list of [r, p] pairs "
                               "of finite numbers")
            tail = TailFunction("custom", table=tuple((float(r), float(p)) for r, p in rows))
        else:
            raise CliError(f"unknown tail {spec!r} (use log_tail, poly:A, stretched:B, "
                           "or a .json table)")
        u = u_sequence(tail, args.K)
    except ValueError as exc:
        raise CliError(exc) from exc
    diag = pruitt_diagnostic(u, min_terms=min(16, args.K + 1))
    if args.csv:
        _write(args.csv, diag.to_csv(tail))
        print(f"wrote {args.csv}")
    if tail.kind == "custom" and 2.0 ** args.K >= tail.table[-1][0]:
        # right-continuous: the last value p > 0 holds for every r >= R
        r, p = tail.table[-1]
        k = next(k for k in range(args.K + 1) if 2.0 ** k >= r)
        print(f"note: the table keeps p = {p:.6g} past its last radius R = {r:.6g} "
              f"(mass at infinity), so u_k = 0 for every k >= {k}")
    print(f"verdict: {diag.verdict} (fitted slope {diag.fitted_slope:.3f}, "
          f"partial sum {diag.partial_sums[-1]:.6g})")
    return 0


def _cmd_shull(args) -> int:
    from .sphere import normalize_rows, s_hull
    points = _read(args.points)
    if not (isinstance(points, list) and points and all(map(_is_number_list, points))
            and len({len(p) for p in points}) == 1 and len(points[0]) >= 2):
        raise CliError("points must be a non-empty list of vectors of one dimension "
                       "d >= 2 whose coordinates are finite numbers")
    units, _, log_norms = normalize_rows(np.asarray(points, dtype=float))
    if np.any(log_norms == -math.inf):
        raise CliError("points must be nonzero vectors")
    try:
        hull = s_hull(units)
    except ValueError as exc:
        raise CliError(exc) from exc
    if hull.arcs is not None:
        shown = hull.to_json()
        saved = shown + "\n"
    else:
        info = {"dimension": hull.dimension, "full_sphere": hull.is_full_sphere(),
                "generators": hull.generators.tolist()}
        shown = json.dumps(info, sort_keys=True)
        saved = json.dumps(info, sort_keys=True, indent=2)
    if args.out:
        _write(args.out, saved)
    print(shown)
    return 0


def _column(rows, name: str) -> np.ndarray:
    """Column ``name`` as floats; a value beyond float range is a ValueError."""
    values = np.array([float(r[name]) for r in rows])
    if not np.isfinite(values).all():
        raise ValueError(f"column {name} holds a value that is not a finite float")
    return values


def _vectors(rows, prefix: str) -> np.ndarray:
    """The (n, d) array of columns ``prefix1``, ``prefix2``, ... in index order."""
    more = itertools.takewhile(rows[0].__contains__, (f"{prefix}{i}" for i in itertools.count(2)))
    return np.column_stack([_column(rows, name) for name in (f"{prefix}1", *more)])


# the columns each plot kind reads (``_vectors`` reads s_2, u_2, ... when present)
_PLOT_COLUMNS = {"trajectory": ("s_1",), "rose": ("u_1", "verdict"), "radius": ("n", "r")}


def _cmd_plot(args) -> int:
    from .directions import VERDICT_NAMES
    from .plots import radius_svg, rose_svg, trajectory_svg
    rows = _read(args.csv, lambda text: list(csv.DictReader(io.StringIO(text))))
    if not rows:
        raise CliError("no data rows in input")
    # the hull CSV of a run without hull tracking holds one comment line
    note = rows[0].get("n") or ""
    if note.startswith("# hull tracking"):
        raise CliError(f"the run has no hull series ({note[2:]})")
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
            raise CliError("cannot infer plot kind from columns; pass --kind")
    missing = [name for name in _PLOT_COLUMNS[kind] if name not in cols]
    if missing:
        raise CliError(f"a {kind} plot needs the column(s) {', '.join(missing)}, "
                       f"which {args.csv} lacks")
    try:
        if kind == "trajectory":
            svg = trajectory_svg(_vectors(rows, "s_"))
        elif kind == "rose":
            codes = {name: code for code, name in VERDICT_NAMES.items()}
            bad = next((r["verdict"] for r in rows if r["verdict"] not in codes), None)
            if bad is not None:
                raise CliError(f"a rose plot draws the cap verdicts {', '.join(codes)}, "
                               f"not {bad!r}")
            svg = rose_svg(_vectors(rows, "u_"), [codes[r["verdict"]] for r in rows])
        else:
            svg = radius_svg(_column(rows, "n"), _column(rows, "r"))
    except ValueError as exc:
        raise CliError(exc) from exc
    _write(args.output, svg)
    print(f"wrote {args.output}")
    return 0


def _int_between(low: int, high: int | None = None):
    """argparse type: an integer in ``low..high`` (no upper end when ``high``
    is None); one outside is a usage error (exit 2) that names the flag."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
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
    p.add_argument("--steps", type=_int_between(1), default=None)
    p.add_argument("--runs", type=_int_between(1), default=None)
    p.add_argument("--seed", type=_int_between(0), default=None)
    p.add_argument("--alpha", type=_positive_number, default=None,
                   help="tail index of the example's heavy law (not heavytails-demo)")
    p.add_argument("--out", default=None, help="directory for the JSON report")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("pruitt", help="dyadic hazard ratio diagnostic")
    p.add_argument("tail", help="log_tail | poly:ALPHA | stretched:BETA | table.json")
    # the trend fit needs two terms k >= 1 in the sequence's last half, and
    # 2**(K + 1) must be a finite float
    p.add_argument("--K", type=_int_between(2, MAX_K), default=64)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
