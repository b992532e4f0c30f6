"""Reproducible multi-run experiments with full artifact output.

An experiment is one JSON config: an increment spec, run count, seeds, and
observer knobs.  Running it writes, per run, the trajectory / direction /
projection / hull CSVs, then an aggregated summary JSON (consensus direction
estimate, agreement, coverage, hull flags, classifications) and a manifest
tying the artifact hashes to the config hash and seeds.  Reruns of the same
config produce byte-identical files; nothing time- or host-dependent is ever
written.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .directions import (CapVisitAccumulator, DirectionSetEstimate, EstimatorConfig,
                         combine_runs, IN, OUT, UNDECIDED as NO_VERDICT, VERDICT_NAMES)
from .hull import NO_TREND, HullTracker, hull_growth_report
from .projections import (UNDECIDED, ClassifierThresholds, ProjectionTracker, classify,
                          scan_exceptional)
from .rng import run_seed
from .samplers import (IncrementSpec, InvalidSpecError, check_object, spec_from_json,
                       spec_to_json)
from .sphere import MAX_GRID_M
from .walk import csv_text, dyadic_checkpoints, run_walk

__all__ = ["ExperimentConfig", "ExperimentResult", "RunResult", "run_experiment",
           "load_config", "config_hash"]


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


@dataclass
class ExperimentConfig:
    """One experiment.  ``projection_grid_m`` and ``hull_tracked_m`` are grid
    sizes, at most ``sphere.MAX_GRID_M`` (4096): every block is projected on
    the whole grid in one (block x grid) float64 product, 512 MiB at the
    bound."""

    spec: IncrementSpec
    n_steps: int
    n_runs: int = 1
    base_seed: int = 0
    run_seeds: tuple[int, ...] | None = None     # overrides base_seed spawning
    estimator: EstimatorConfig | None = None
    classifier: ClassifierThresholds = field(default_factory=ClassifierThresholds)
    projection_grid_m: int = 64
    track_hull: bool = True
    hull_tracked_m: int = 16
    out_dir: str = "."

    def __post_init__(self):
        if self.spec.dimension < 2:
            # direction grids, caps and hulls need a sphere of dimension >= 1
            raise ConfigError("spec.dimension must be >= 2")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        if not 1 <= self.projection_grid_m <= MAX_GRID_M:
            raise ConfigError(f"projection_grid_m must be in 1..{MAX_GRID_M}")
        if not 16 <= self.hull_tracked_m <= MAX_GRID_M:
            raise ConfigError(f"hull_tracked_m must be in 16..{MAX_GRID_M}")
        n_cps = len(dyadic_checkpoints(self.n_steps))
        if n_cps < self.classifier.min_checkpoints:
            raise ConfigError(
                f"n_steps={self.n_steps} gives {n_cps} checkpoints, fewer than "
                f"classifier.min_checkpoints={self.classifier.min_checkpoints}")
        if self.run_seeds is not None:
            if len(self.run_seeds) != self.n_runs:
                raise ConfigError("run_seeds must list exactly n_runs seeds")
            if any(s < 0 for s in self.run_seeds):
                raise ConfigError("run_seeds must be non-negative")
        if self.estimator is None:
            self.estimator = EstimatorConfig.defaults_for(self.spec)
        band_axis = self.estimator.band_axis
        if band_axis is not None and len(band_axis) != self.spec.dimension:
            raise ConfigError(f"estimator.band_axis must have "
                              f"{self.spec.dimension} entries, got {len(band_axis)}")
        if self.spec.scale_mode == "log" and self.track_hull:
            # astronomically scaled coordinates have no float hull
            self.track_hull = False

    def seed_for(self, run_index: int) -> int:
        if self.run_seeds is not None:
            return int(self.run_seeds[run_index])
        return run_seed(self.base_seed, run_index)

    def to_json(self) -> str:
        # out_dir is where artifacts go, not experiment identity; it stays
        # out of the canonical form and so out of the config hash.  A None
        # field (run_seeds not given) is left out.  json writes the nested
        # configs through asdict, and their tuples as lists
        obj = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "out_dir" and getattr(self, f.name) is not None}
        obj["spec"] = json.loads(spec_to_json(self.spec))
        return json.dumps(obj, sort_keys=True, indent=2, default=asdict)


def _read(cls, obj, where: str, base=None):
    """A ``cls`` read from the JSON object ``obj`` at path ``where``.

    Every key must name a field of ``cls``, every field without a default
    must be present, and every value must be of the kind its field's
    annotation names in ``KINDS``; a nested config object is read by its
    entry in ``_OBJECT_READERS``, given the fields read before it, and lists
    become tuples.  A field that ``obj`` omits keeps its value in ``base``,
    a ``cls``, when one is given, else takes its default.
    """
    types = {f.name: f.type for f in fields(cls)}
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    check_object(obj, where, {name: "object" if kind in _OBJECT_READERS else kind
                              for name, kind in types.items()}, required)
    values = {}
    for name, kind in types.items():         # in field order: spec comes first
        if name not in obj:
            continue
        value = obj[name]
        if kind in _OBJECT_READERS:
            value = _OBJECT_READERS[kind](value, f"{where}.{name}", values)
        values[name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ValueError as exc:
        # the dataclass messages start with the field path, e.g. "estimator.grid_m"
        raise ConfigError(f"config.{exc}") from exc


# readers of the config's object fields, keyed by field annotation; each
# takes the object, its path and the fields of its parent read so far
_OBJECT_READERS = {
    "IncrementSpec": lambda obj, where, _: spec_from_json(obj, where),
    # the fields an estimator object omits keep the spec's defaults
    "EstimatorConfig | None": lambda obj, where, values: _read(
        EstimatorConfig, obj, where, EstimatorConfig.defaults_for(values["spec"])),
    "ClassifierThresholds": lambda obj, where, _: _read(ClassifierThresholds, obj, where),
}


def load_config(source: str | dict, out_dir: str | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config from JSON text or a dict."""
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        config = _read(ExperimentConfig, source, "config")
    except InvalidSpecError as exc:
        raise ConfigError(str(exc)) from exc
    if out_dir is not None:
        config.out_dir = out_dir
    return config


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(config.to_json().encode()).hexdigest()


@dataclass
class RunResult:
    index: int
    seed: int
    record: object
    estimate: object
    projections: ProjectionTracker
    hull: HullTracker | None
    hull_report: object | None
    verdicts: list[str]


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    runs: list[RunResult]
    consensus: object | None
    summary: dict
    files: list[str] = field(default_factory=list)


def _one_run(config: ExperimentConfig, index: int) -> RunResult:
    spec = config.spec
    seed = config.seed_for(index)
    acc = CapVisitAccumulator(config.estimator, spec.dimension)
    proj = ProjectionTracker(grid_m=config.projection_grid_m)
    observers = [acc, proj]
    hull = None
    if config.track_hull:
        hull = HullTracker(config.hull_tracked_m)
        observers.append(hull)
    record = run_walk(spec, config.n_steps, seed, observers=observers)
    hull_report = hull_growth_report(hull) if hull else None
    if record.overflowed:
        # "never seen beyond a level", a growth trend and a frozen hull are
        # evidence only of a walk that ran its course; the radii it reached
        # are measurements and stay
        verdicts = [UNDECIDED] * len(proj.directions)
        estimate = _no_evidence(acc)
        if hull_report:
            hull_report = replace(hull_report, flag=NO_TREND, stabilized_dirs=[])
    else:
        verdicts = classify(proj.stats, config.classifier)
        estimate = acc.finalize()
    return RunResult(index=index, seed=seed, record=record, estimate=estimate,
                     projections=proj, hull=hull, hull_report=hull_report,
                     verdicts=verdicts)


def _no_evidence(acc: CapVisitAccumulator) -> DirectionSetEstimate:
    """Estimate of a halted walk: the visits and graded maxima it recorded,
    with every grid point UNDECIDED."""
    m = len(acc.grid)
    return DirectionSetEstimate(
        grid=acc.grid, config=acc.config, verdicts=np.full(m, NO_VERDICT, dtype=np.int8),
        top_level=-1, top_level_per_point=np.full(m, -1), visits=acc.visits.copy(),
        graded_in=np.zeros(acc.graded_max.shape, dtype=bool),
        graded_max=acc.graded_max.copy())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute all runs in order and write the artifacts."""
    runs = [_one_run(config, i) for i in range(config.n_runs)]
    consensus = combine_runs([r.estimate for r in runs]) if len(runs) >= 2 else None
    summary = _summarize(config, runs, consensus)
    result = ExperimentResult(config=config, runs=runs, consensus=consensus,
                              summary=summary)
    _write_artifacts(result)
    return result


def _summarize(config, runs, consensus) -> dict:
    from collections import Counter
    summary = {
        "config_sha256": config_hash(config),
        "n_runs": len(runs),
        "seeds": [r.seed for r in runs],
        "thresholds": {
            "estimator": asdict(config.estimator),
            "classifier": asdict(config.classifier),
            "verdict_note": "all membership thresholds are finite-sample "
                            "engineering choices",
        },
        "runs": [],
    }
    for r in runs:
        entry = {
            "index": r.index,
            "seed": r.seed,
            "coverage_fraction": r.estimate.coverage_fraction(),
            "top_level": int(r.estimate.top_level),
            "in_count": int((r.estimate.verdicts == IN).sum()),
            "out_count": int((r.estimate.verdicts == OUT).sum()),
            "classification_counts": dict(Counter(r.verdicts)),
            "exceptional_candidates": len(scan_exceptional(
                r.projections.stats, r.verdicts, config.classifier)),
            "overflowed": r.record.overflowed,
            "saturations": r.record.saturations,
        }
        if not np.isnan(r.estimate.band_fraction_top):
            entry["band_fraction_top"] = r.estimate.band_fraction_top
        if r.hull_report is not None:
            entry["hull_flag"] = r.hull_report.flag
            entry["hull_stabilized_dirs"] = [int(i) for i in r.hull_report.stabilized_dirs]
            entry["r_final"] = r.hull_report.series[-1].r if r.hull_report.series else 0.0
        summary["runs"].append(entry)
    if consensus is not None:
        summary["consensus"] = {
            "coverage_fraction": consensus.coverage_fraction,
            "mean_agreement": consensus.mean_agreement,
            "in_indices": [int(i) for i in np.flatnonzero(consensus.verdicts == IN)],
        }
    return summary


def _write_artifacts(result: ExperimentResult) -> None:
    config = result.config
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    digests = {}        # file name -> SHA-256, in writing order

    def write_text(name: str, text: str):
        data = text.encode()
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(data)
        digests[name] = hashlib.sha256(data).hexdigest()

    for r in result.runs:
        write_text(f"run{r.index}_trajectory.csv", r.record.to_csv())
        write_text(f"run{r.index}_directions.csv", r.estimate.to_csv())
        write_text(f"run{r.index}_projections.csv", r.projections.to_csv(r.verdicts))
        if r.hull is not None:
            write_text(f"run{r.index}_hull.csv", r.hull.to_csv())
        else:
            why = ("unsupported for log-scale walks" if config.spec.scale_mode == "log"
                   else "off (track_hull is false)")
            write_text(f"run{r.index}_hull.csv", f"n,r,vertex_count\n# hull tracking {why}\n")
    if result.consensus is not None:
        cons = result.consensus
        write_text("consensus_directions.csv", csv_text(
            ["index", "u_components", "verdict", "agreement"],
            [range(len(cons.grid)), [";".join(map(str, u)) for u in cons.grid.tolist()],
             [VERDICT_NAMES[v] for v in cons.verdicts.tolist()], cons.agreement]))
    write_text("summary.json", json.dumps(result.summary, sort_keys=True, indent=2))

    manifest = {
        "config_sha256": config_hash(config),
        "config": json.loads(config.to_json()),
        "seeds": [r.seed for r in result.runs],
        "files": dict(digests),
    }
    write_text("manifest.json", json.dumps(manifest, sort_keys=True, indent=2))
    result.files = list(digests)
