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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .directions import (CapVisitAccumulator, EstimatorConfig, combine_runs,
                         IN, OUT)
from .hull import HullTracker, hull_growth_report
from .projections import ClassifierThresholds, ProjectionTracker, classify, scan_exceptional
from .rng import run_seed
from .samplers import IncrementSpec, spec_from_json, spec_to_json
from .walk import run_walk

__all__ = ["ExperimentConfig", "ExperimentResult", "RunResult", "run_experiment",
           "load_config", "config_hash"]


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


@dataclass
class ExperimentConfig:
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
    workers: int = 1
    out_dir: str = "."

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")
        if self.run_seeds is not None and len(self.run_seeds) != self.n_runs:
            raise ConfigError("run_seeds must list exactly n_runs seeds")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.estimator is None:
            self.estimator = EstimatorConfig.defaults_for(self.spec)
        if self.spec.scale_mode == "log" and self.track_hull:
            # astronomically scaled coordinates have no float hull
            self.track_hull = False

    def seed_for(self, run_index: int) -> int:
        if self.run_seeds is not None:
            return int(self.run_seeds[run_index])
        return run_seed(self.base_seed, run_index)

    def to_json(self) -> str:
        # workers and out_dir are execution knobs, not experiment identity;
        # they stay out of the canonical form and so out of the config hash
        obj = {
            "spec": json.loads(spec_to_json(self.spec)),
            "n_steps": self.n_steps,
            "n_runs": self.n_runs,
            "base_seed": self.base_seed,
            "estimator": _estimator_obj(self.estimator),
            "classifier": asdict(self.classifier),
            "projection_grid_m": self.projection_grid_m,
            "track_hull": self.track_hull,
            "hull_tracked_m": self.hull_tracked_m,
        }
        if self.run_seeds is not None:
            obj["run_seeds"] = list(self.run_seeds)
        return json.dumps(obj, sort_keys=True, indent=2)


def _estimator_obj(est: EstimatorConfig) -> dict:
    obj = asdict(est)
    obj["alphas"] = list(est.alphas)
    if est.band_axis is not None:
        obj["band_axis"] = list(est.band_axis)
    return obj


def _require(obj: dict, key: str, kinds, where: str):
    if key not in obj:
        raise ConfigError(f"{where}.{key} is required")
    if not isinstance(obj[key], kinds):
        raise ConfigError(f"{where}.{key} has the wrong type")
    return obj[key]


def load_config(source: str | dict, out_dir: str | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config from JSON text or a dict."""
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        obj = dict(source)
    if "spec" not in obj:
        raise ConfigError("config.spec is required")
    try:
        spec = spec_from_json(obj["spec"])
    except ValueError as exc:
        raise ConfigError(f"config.spec: {exc}") from exc
    n_steps = _require(obj, "n_steps", int, "config")
    n_runs = int(obj.get("n_runs", 1))
    base_seed = int(obj.get("base_seed", 0))
    est = None
    if "estimator" in obj:
        eo = dict(obj["estimator"])
        if "alphas" in eo:
            eo["alphas"] = tuple(eo["alphas"])
        if eo.get("band_axis") is not None:
            eo["band_axis"] = tuple(eo["band_axis"])
        try:
            est = EstimatorConfig(**eo)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.estimator: {exc}") from exc
    cls = ClassifierThresholds()
    if "classifier" in obj:
        try:
            cls = ClassifierThresholds(**obj["classifier"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.classifier: {exc}") from exc
    try:
        return ExperimentConfig(
            spec=spec, n_steps=n_steps, n_runs=n_runs, base_seed=base_seed,
            run_seeds=tuple(obj["run_seeds"]) if "run_seeds" in obj else None,
            estimator=est, classifier=cls,
            projection_grid_m=int(obj.get("projection_grid_m", 64)),
            track_hull=bool(obj.get("track_hull", True)),
            hull_tracked_m=int(obj.get("hull_tracked_m", 16)),
            workers=int(obj.get("workers", 1)),
            out_dir=out_dir if out_dir is not None else obj.get("out_dir", "."))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


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
    acc.seed = seed
    proj = ProjectionTracker(grid_m=config.projection_grid_m)
    observers = [acc, proj]
    hull = None
    if config.track_hull:
        hull = HullTracker(support_m=max(config.hull_tracked_m, 16))
        observers.append(hull)
    record = run_walk(spec, config.n_steps, seed, observers=observers)
    verdicts = [classify(s, config.classifier) for s in proj.all_stats()]
    return RunResult(index=index, seed=seed, record=record, estimate=acc.finalize(),
                     projections=proj, hull=hull,
                     hull_report=hull_growth_report(hull) if hull else None,
                     verdicts=verdicts)


def run_experiment(config: ExperimentConfig, write: bool = True) -> ExperimentResult:
    """Execute all runs (optionally in worker threads) and write artifacts."""
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            runs = list(pool.map(lambda i: _one_run(config, i), range(config.n_runs)))
    else:
        runs = [_one_run(config, i) for i in range(config.n_runs)]
    runs.sort(key=lambda r: r.index)

    consensus = combine_runs([r.estimate for r in runs]) if len(runs) >= 2 else None
    summary = _summarize(config, runs, consensus)
    result = ExperimentResult(config=config, runs=runs, consensus=consensus,
                              summary=summary)
    if write:
        _write_artifacts(result)
    return result


def _summarize(config, runs, consensus) -> dict:
    from collections import Counter
    summary = {
        "config_sha256": config_hash(config),
        "n_runs": len(runs),
        "seeds": [r.seed for r in runs],
        "thresholds": {
            "estimator": _estimator_obj(config.estimator),
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
            "exceptional_candidates": len(scan_exceptional(r.projections,
                                                           config.classifier)),
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
    files = []

    def write_text(name: str, text: str):
        path = os.path.join(out, name)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        files.append(name)

    for r in result.runs:
        write_text(f"run{r.index}_trajectory.csv", r.record.to_csv())
        write_text(f"run{r.index}_directions.csv", r.estimate.to_csv())
        write_text(f"run{r.index}_projections.csv", r.projections.to_csv())
        if r.hull is not None:
            write_text(f"run{r.index}_hull.csv", r.hull.to_csv())
        else:
            write_text(f"run{r.index}_hull.csv",
                       "n,r,vertex_count\n# hull tracking unsupported for "
                       "log-scale walks\n")
    if result.consensus is not None:
        cons = result.consensus
        lines = ["index,u_components,verdict,agreement"]
        names = {IN: "IN", OUT: "OUT", 0: "UNDECIDED"}
        for i in range(len(cons.grid)):
            comp = ";".join(repr(float(x)) for x in cons.grid[i])
            lines.append(f"{i},{comp},{names[int(cons.verdicts[i])]},"
                         f"{repr(float(cons.agreement[i]))}")
        write_text("consensus_directions.csv", "\n".join(lines) + "\n")
    write_text("summary.json", json.dumps(result.summary, sort_keys=True, indent=2))

    manifest = {
        "config_sha256": config_hash(config),
        "config": json.loads(config.to_json()),
        "seeds": [r.seed for r in result.runs],
        "files": {},
    }
    for name in files:
        with open(os.path.join(out, name), "rb") as fh:
            manifest["files"][name] = hashlib.sha256(fh.read()).hexdigest()
    write_text("manifest.json", json.dumps(manifest, sort_keys=True, indent=2))
    result.files = files
