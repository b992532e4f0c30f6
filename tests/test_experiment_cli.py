"""Experiment runner artifacts, config validation, CLI verbs, plots."""
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from walkangles import experiment, projections
from walkangles.cli import main
from walkangles.directions import EstimatorConfig
from walkangles.experiment import (ConfigError, ExperimentConfig, load_config,
                                   run_experiment, config_hash)
from walkangles.plots import rose_svg, trajectory_svg
from walkangles.projections import ClassifierThresholds

from test_golden import BENCH, COMMITTED_CONFIGS, EXTRA_CONFIGS

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MINIMAL = {
    "spec": {"dimension": 2, "form": "coordinate_product",
             "laws": [{"name": "constant", "value": 1}, {"name": "rademacher"}]},
    "n_steps": 1000,
    "n_runs": 1,
    "base_seed": 7,
}


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_minimal_experiment_files(tmp_path):
    config = load_config(dict(MINIMAL), out_dir=str(tmp_path))
    result = run_experiment(config)
    names = {"run0_trajectory.csv", "run0_directions.csv",
             "run0_projections.csv", "run0_hull.csv", "summary.json"}
    assert names <= set(result.files)
    assert len(names) == 5
    assert (tmp_path / "manifest.json").exists()
    manifest = json.loads(read(tmp_path / "manifest.json"))
    assert manifest["config_sha256"] == config_hash(config)
    assert set(manifest["files"]) == set(result.files) - {"manifest.json"}
    for name, digest in manifest["files"].items():
        assert hashlib.sha256(read(tmp_path / name)).hexdigest() == digest, name


def test_projection_csv_uses_configured_classifier(tmp_path):
    # non-default thresholds move some directions between PLUS/MINUS and OSC
    cfg = dict(MINIMAL, n_steps=4096, base_seed=3,
               classifier={"growth": 1.9, "final_scale": 5.0})
    run_experiment(load_config(cfg, out_dir=str(tmp_path)))
    summary = json.loads(read(tmp_path / "summary.json"))
    rows = csv.DictReader(io.StringIO(read(tmp_path / "run0_projections.csv").decode()))
    column = Counter(row["verdict"] for row in rows)
    assert column == summary["runs"][0]["classification_counts"]


def test_each_direction_classified_once(tmp_path, monkeypatch):
    # one call per run, one verdict per direction
    calls = []
    classify = projections.classify

    def counting(*args, **kwargs):
        verdicts = classify(*args, **kwargs)
        calls.append(len(verdicts))
        return verdicts

    for module in (experiment, projections):
        monkeypatch.setattr(module, "classify", counting)
    cfg = dict(MINIMAL, n_runs=3, projection_grid_m=16)
    run_experiment(load_config(cfg, out_dir=str(tmp_path)))
    assert calls == [16] * 3


def test_rerun_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    res_a = run_experiment(load_config(dict(MINIMAL), out_dir=str(out_a)))
    res_b = run_experiment(load_config(dict(MINIMAL), out_dir=str(out_b)))
    for name in res_a.files:
        assert read(out_a / name) == read(out_b / name), name


def test_multi_run_aggregation(tmp_path):
    cfg = dict(MINIMAL, n_runs=10, n_steps=2000)
    result = run_experiment(load_config(cfg, out_dir=str(tmp_path)))
    assert "consensus_directions.csv" in result.files
    summary = json.loads(read(tmp_path / "summary.json"))
    assert "consensus" in summary
    assert 0 <= summary["consensus"]["mean_agreement"] <= 1
    assert len(summary["runs"]) == 10
    # thresholds are echoed so artifacts are self-describing
    assert "estimator" in summary["thresholds"]


def test_config_errors_name_fields():
    with pytest.raises(ConfigError, match="n_steps"):
        load_config({"spec": MINIMAL["spec"]})
    with pytest.raises(ConfigError, match=r"laws\[0\]"):
        bad = dict(MINIMAL)
        bad["spec"] = {"dimension": 2, "form": "coordinate_product",
                       "laws": [{"name": "s_two_sided", "alpha": -2},
                                {"name": "rademacher"}]}
        load_config(bad)
    with pytest.raises(ConfigError, match="estimator"):
        load_config(dict(MINIMAL, estimator={"cap_radius": 3.0}))
    with pytest.raises(ConfigError, match="n_runs"):
        load_config(dict(MINIMAL, n_runs=0))


SPEC = MINIMAL["spec"]
RADIAL_SPEC = {"dimension": 2, "form": "radial_product",
               "laws": [{"name": "s_one_sided", "alpha": 1.0}],
               "atoms": [{"vector": [1.0, 0.0], "p": 0.5}, {"vector": [0.0, 1.0], "p": 0.5}]}

# (key, value) or (key, value, pattern the error must match); without a
# pattern, the error must name the key, or for an object the path to its
# first key, e.g. config.estimator.grid_m
BAD_FIELDS = [
    ("n_runs", "x"), ("n_runs", None), ("n_runs", 2.7), ("n_runs", True),
    ("n_steps", 1000.0), ("base_seed", "7"), ("track_hull", "no"),
    ("run_seeds", 3), ("run_seeds", [1.5]), ("projection_grid_m", 0),
    ("hull_tracked_m", "16"), ("estimator", [1]), ("classifier", "x"),
    ("spec", "x"), ("out_dir", 3), ("workers", 1), ("no_such_key", 1),
    ("hull_tracked_m", 8),
    ("estimator", {"grid_m": 2.5}), ("estimator", {"escape_levels": True}),
    ("estimator", {"alphas": "ab"}), ("estimator", {"band_axis": [1, 0, 0]}),
    ("classifier", {"min_checkpoints": 2.5}), ("classifier", {"min_checkpoints": 2}),
    ("n_steps", 4),
    # knobs under which no grid point could be IN, or no step lies in the band
    ("estimator", {"min_top_level": 9}), ("estimator", {"band_axis": [0, 0]}),
    # null means "not given" only where to_json writes null (estimator.band_axis)
    ("run_seeds", None), ("estimator", None),
    # seeds feed SeedSequence, which takes no negative entropy; kappa is a log's argument
    ("base_seed", -1, r"config\.base_seed must be >= 0"),
    ("run_seeds", [-1], r"config\.run_seeds must be non-negative"),
    ("estimator", {"grid_seed": -1}), ("estimator", {"kappa": 0}),
    # spec, law and atom objects are checked like every other config object
    ("spec", dict(SPEC, drfit=[1, 0]), r"config\.spec has unexpected fields \['drfit'\]"),
    ("spec", dict(SPEC, dimension=True), r"config\.spec\.dimension must be an integer"),
    ("spec", dict(SPEC, laws=[{"name": "s_two_sided", "alpha": True}, {"name": "rademacher"}]),
     r"config\.spec\.laws\[0\]\.alpha must be a finite number"),
    ("spec", dict(RADIAL_SPEC, atoms=[{"vector": [1.0, 0.0], "p": 0.5, "q": 1},
                                      {"vector": [0.0, 1.0], "p": 0.5}]),
     r"config\.spec\.atoms\[0\] has unexpected fields \['q'\]"),
    ("spec", dict(SPEC, atoms=[{"vector": [1, 0]}]),
     "config.spec: coordinate_product takes no atoms"),
    ("spec", {"dimension": 2, "form": "linear_combination",
              "laws": [{"name": "rademacher"}, {"name": "rademacher"}],
              "atoms": [{"vector": "12"}, {"vector": [0, 1]}]},
     r"config\.spec\.atoms\[0\]\.vector must be a list of finite numbers"),
    # json reads NaN and Infinity, and no numeric field takes them
    ("estimator", {"escape_r0": math.nan}), ("estimator", {"escape_r0": math.inf}),
    ("estimator", {"kappa": math.nan}), ("estimator", {"alphas": [0.5, math.nan]}),
    ("classifier", {"growth": math.nan}), ("classifier", {"final_scale": math.inf}),
    ("spec", dict(SPEC, laws=[{"name": "rademacher"}, {"name": "s_two_sided", "alpha": math.nan}]),
     r"config\.spec\.laws\[1\]\.alpha must be a finite number"),
    ("spec", dict(SPEC, laws=[{"name": "constant", "value": math.nan}, {"name": "rademacher"}]),
     r"config\.spec\.laws\[0\]\.value must be a finite number"),
    ("spec", dict(SPEC, drift=[math.inf, 0]), r"config\.spec\.drift must be a list of finite"),
    ("spec", dict(RADIAL_SPEC, atoms=[{"vector": [1.0, 0.0], "p": math.nan},
                                      {"vector": [0.0, 1.0], "p": 0.5}]),
     r"config\.spec\.atoms\[0\]\.p must be a finite number"),
    # json reads integers of any size, and a float holds none past about 1.8e308
    ("spec", dict(SPEC, laws=[{"name": "constant", "value": 10**400}, {"name": "rademacher"}]),
     r"config\.spec\.laws\[0\]\.value must be a finite number"),
    ("classifier", {"final_scale": 10**400}), ("estimator", {"alphas": [10**400]}),
    ("estimator", {"escape_r0": 10**400}), ("estimator", {"kappa": 10**400}),
    # size fields have upper bounds: numpy could not allocate 10**20 grid points,
    # and 10**7 would exhaust memory; no grid is built for a rejected config
    ("projection_grid_m", 10**20, r"config\.projection_grid_m must be in 1\.\.4096"),
    ("projection_grid_m", 4097), ("hull_tracked_m", 10**20),
    ("estimator", {"grid_m": 10**20}, r"config\.estimator\.grid_m must be in 1\.\.4096"),
    ("estimator", {"grid_m": 10**7}), ("estimator", {"grid_m": 4097}),
    ("estimator", {"escape_levels": 10**20},
     r"config\.estimator\.escape_levels must be in 0\.\.1024"),
    ("estimator", {"escape_levels": 1025}),
]


@pytest.mark.parametrize("case", BAD_FIELDS, ids=[f"{c[0]}={c[1]!r}" for c in BAD_FIELDS])
def test_config_rejects_bad_field(case, tmp_path, capsys):
    key, value, *pattern = case
    name = f"config.{key}.{next(iter(value))}" if isinstance(value, dict) else key
    name = pattern[0] if pattern else name
    with pytest.raises(ConfigError, match=name):
        load_config(dict(MINIMAL, **{key: value}))
    # simulate reports it as a config error, before any walk runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(MINIMAL, **{key: value})))
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert re.search(name, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cls, field, value", [
    (EstimatorConfig, "cap_radius", math.nan), (EstimatorConfig, "escape_r0", math.nan),
    pytest.param(EstimatorConfig, "escape_r0", 10**400, id="EstimatorConfig-escape_r0-10**400"),
    (EstimatorConfig, "kappa", math.nan), (EstimatorConfig, "kappa", -math.inf),
    (EstimatorConfig, "alphas", (math.nan,)), (EstimatorConfig, "alphas", (0.5, math.inf)),
    (EstimatorConfig, "band_axis", (math.nan, math.nan)),
    (EstimatorConfig, "band_threshold", math.nan),
    (ClassifierThresholds, "growth", math.nan), (ClassifierThresholds, "final_scale", math.inf),
    (ClassifierThresholds, "osc_scale", math.nan), (ClassifierThresholds, "side_ratio", math.nan),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_python_api_rejects_non_finite_field(cls, field, value):
    # the Python API reaches no JSON check, so each dataclass checks its own floats
    where = "estimator" if cls is EstimatorConfig else "classifier"
    with pytest.raises(ValueError, match=rf"{where}\.{field} must be finite"):
        cls(**{field: value})


def test_size_bounds_from_the_python_api():
    # the dataclasses hold the bounds themselves; constructing one allocates no grid
    EstimatorConfig(grid_m=4096, escape_levels=1024)
    for field, value in (("grid_m", 4097), ("grid_m", 10**20),
                         ("escape_levels", 1025), ("escape_levels", 10**20)):
        with pytest.raises(ValueError, match=rf"estimator\.{field} must be in"):
            EstimatorConfig(**{field: value})
    spec = load_config(MINIMAL).spec
    ExperimentConfig(spec=spec, n_steps=64, projection_grid_m=4096, hull_tracked_m=4096)
    for field, value in (("projection_grid_m", 4097), ("hull_tracked_m", 10**20)):
        with pytest.raises(ConfigError, match=rf"{field} must be in"):
            ExperimentConfig(spec=spec, n_steps=64, **{field: value})


# every config the repository commits or pins, plus one that sets every field
ROUND_TRIP_CONFIGS = {
    **{os.path.basename(path): json.loads(read(path)) for path in COMMITTED_CONFIGS},
    **{f"bench-{name}": BENCH["config_for"](name, BENCH["DEFAULT_SEED"])
       for name in BENCH["WORKLOADS"]},
    **EXTRA_CONFIGS,
    "every-field": dict(MINIMAL, spec=dict(SPEC, drift=[0.5, 0]), n_runs=2, run_seeds=[3, 0],
                        estimator={"band_axis": [0, 1], "alphas": [0.5], "kappa": 2},
                        classifier={"growth": 1.9}, projection_grid_m=8, track_hull=False,
                        hull_tracked_m=32, out_dir="elsewhere"),
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_CONFIGS))
def test_config_json_round_trip(name):
    # the reader accepts everything the writer writes, and reads it back unchanged
    config = load_config(ROUND_TRIP_CONFIGS[name])
    again = load_config(json.loads(config.to_json()))
    assert config_hash(again) == config_hash(config)
    assert again.to_json() == config.to_json()


def test_log_mode_spec_disables_hull(tmp_path):
    cfg = {
        "spec": {"dimension": 2, "form": "radial_product",
                 "laws": [{"name": "log_tail"}],
                 "atoms": [{"vector": [1.0, 0.0], "p": 0.5},
                           {"vector": [0.0, 1.0], "p": 0.5}]},
        "n_steps": 500, "n_runs": 1, "base_seed": 3,
    }
    config = load_config(cfg, out_dir=str(tmp_path))
    assert not config.track_hull
    result = run_experiment(config)
    assert read(tmp_path / "run0_hull.csv") == \
        b"n,r,vertex_count\n# hull tracking unsupported for log-scale walks\n"


def test_hull_placeholder_when_tracking_is_off(tmp_path):
    run_experiment(load_config(dict(MINIMAL, track_hull=False), out_dir=str(tmp_path)))
    assert read(tmp_path / "run0_hull.csv") == \
        b"n,r,vertex_count\n# hull tracking off (track_hull is false)\n"


# ---------------------------------------------------------------------------
# CLI

def test_cli_simulate_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.json").exists()
    # invalid config: exit 2 with the field named
    bad = dict(MINIMAL, n_runs=0)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["simulate", str(bad_path), "--out", str(tmp_path / "o2")]) == 2


def assert_all_undecided(out, n_runs):
    """Every run of the experiment in ``out`` halted, with no verdict at all."""
    summary = json.loads(read(out / "summary.json"))
    assert [(r["overflowed"], r["classification_counts"], r["in_count"], r["out_count"])
            for r in summary["runs"]] == [(True, {"UNDECIDED": 64}, 0, 0)] * n_runs
    for i in range(n_runs):
        for kind in ("projections", "directions"):
            rows = csv.DictReader(io.StringIO(read(out / f"run{i}_{kind}.csv").decode()))
            assert {row["verdict"] for row in rows} == {"UNDECIDED"}, (i, kind)


def test_cli_simulate_halted_runs_are_undecided(tmp_path):
    # a halted walk is judged by the one rule on record.overflowed, however
    # many checkpoints it reached, yet every artifact is written.  The float
    # walk leaves float range at step 2 (one checkpoint, and one recorded step
    # that would put 57 of 64 grid points OUT); the lattice walk leaves int64
    # range at step 16 (four checkpoints, enough to call 32 directions PLUS
    # and 32 MINUS)
    cfg_path = tmp_path / "cfg.json"
    for value, ladder in ((1e308, [1]), (2**59, [1, 2, 4, 8])):
        config = {"spec": {"dimension": 2, "form": "coordinate_product",
                           "laws": [{"name": "constant", "value": value},
                                    {"name": "rademacher"}]},
                  "n_steps": 64, "n_runs": 2}
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / f"out{value}"
        with np.errstate(over="ignore"):
            assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        assert_all_undecided(out, 2)
        # the hull's radii stay, but a halted walk's hull gets no trend either
        summary = json.loads(read(out / "summary.json"))
        assert [(r["hull_flag"], r["hull_stabilized_dirs"]) for r in summary["runs"]] \
            == [("NO_TREND", [])] * 2
        rows = list(csv.reader(io.StringIO(read(out / "run0_projections.csv").decode())))
        assert rows[0] == (["u_1", "u_2"] + [f"min_n{n}" for n in ladder]
                           + [f"max_n{n}" for n in ladder] + ["final", "verdict"])
        assert (out / "manifest.json").exists()
    # these walks leave float range at step 1: no step is recorded, so no
    # checkpoint and no cap-visit evidence, yet every artifact is written
    config = {"spec": {"dimension": 2, "form": "linear_combination",
                       "atoms": [{"vector": [1e300, 0]}, {"vector": [0, 1]}],
                       "laws": [{"name": "s_two_sided", "alpha": 0.01},
                                {"name": "rademacher"}]},
              "n_steps": 64, "n_runs": 4, "base_seed": 0}
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out_step1"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
    assert_all_undecided(out, 4)
    summary = json.loads(read(out / "summary.json"))
    assert [r["exceptional_candidates"] for r in summary["runs"]] == [64] * 4
    manifest = json.loads(read(out / "manifest.json"))
    assert len(manifest["files"]) == 4 * 4 + 2
    for name in manifest["files"]:
        assert (out / name).exists(), name
    rows = csv.DictReader(io.StringIO(read(out / "consensus_directions.csv").decode()))
    assert {row["verdict"] for row in rows} == {"UNDECIDED"}


def test_cli_simulate_bad_field_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(MINIMAL, n_runs="x")))
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "n_runs" in capsys.readouterr().err
    # too few checkpoints to classify: rejected before any walk runs
    cfg_path.write_text(json.dumps(dict(MINIMAL, n_steps=4)))
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "n_steps" in capsys.readouterr().err
    cfg_path.write_text(json.dumps(MINIMAL))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(cfg_path), "--workers", "2"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_reproduce_smoke(tmp_path, capsys):
    code = main(["reproduce", "ex-10.4", "--steps", "20000", "--runs", "2",
                 "--seed", "1200", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert ("PASS" in out) or ("FAIL" in out)
    report = json.loads(read(tmp_path / "ex-10.4-report.json"))
    assert report["name"] == "ex-10.4"
    assert main(["reproduce", "no-such-example"]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["reproduce", "ex-10.4", "--steps", "0"], "--steps"),
    (["reproduce", "ex-10.4", "--runs", "0"], "--runs"),
    (["reproduce", "ex-10.4", "--seed", "-1"], "--seed"),
    (["pruitt", "log_tail", "--K", "-1"], "--K"),
    (["pruitt", "poly:1.5", "--K", "1"], "--K"),
])
def test_cli_bad_integer_flag_exit_2(argv, flag, capsys):
    # exit 1 means a FAILed report, so a bad flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be >=" in capsys.readouterr().err


@pytest.mark.parametrize("tail", ["log_tail", "stretched:0.3"])
def test_cli_pruitt_K_beyond_float_range_exit_2(tail, capsys):
    # u_k reads the tail at 2.0 ** (k + 1), which overflows at k = 1023
    with pytest.raises(SystemExit) as exc:
        main(["pruitt", tail, "--K", "1023"])
    assert exc.value.code == 2
    assert "argument --K: must be <= 1022, got 1023" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["-1", "0", "nan", "inf", "-inf"])
def test_cli_bad_alpha_exit_2(alpha, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "ex-10.4", "--steps", "200", "--runs", "2", f"--alpha={alpha}"])
    assert exc.value.code == 2
    assert "argument --alpha: must be a finite number > 0" in capsys.readouterr().err


def test_cli_alpha_for_example_without_one_exit_2(capsys):
    assert main(["reproduce", "heavytails-demo", "--steps", "200", "--runs", "2",
                 "--alpha", "1"]) == 2
    captured = capsys.readouterr()
    assert "argument --alpha: heavytails-demo has no alpha" in captured.err
    assert captured.out == ""


def test_cli_pruitt(tmp_path, capsys):
    assert main(["pruitt", "log_tail", "--K", "64",
                 "--csv", str(tmp_path / "u.csv")]) == 0
    out = capsys.readouterr().out
    assert "CONVERGENT_TREND" in out
    lines = read(tmp_path / "u.csv").decode().strip().split("\n")
    assert len(lines) == 66
    assert main(["pruitt", "poly:1.5"]) == 0
    assert "DIVERGENT_TREND" in capsys.readouterr().out
    assert main(["pruitt", "nonsense"]) == 2
    assert main(["pruitt", "stretched:0.3", "--K", "1022"]) == 0


@pytest.mark.parametrize("table", [None, [[float("nan"), 0.5]]], ids=["poly", "table"])
def test_cli_pruitt_nan_tail_exit_2(table, tmp_path, capsys):
    tail = "poly:nan"
    if table is not None:
        tail = str(tmp_path / "tail.json")
        with open(tail, "w") as fh:
            json.dump(table, fh)         # writes the NaN literal json.load accepts
    assert main(["pruitt", tail, "--K", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_shull(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[1, 0], [0, 1]]))
    assert main(["shull", str(pts), "--out", str(tmp_path / "arcs.json")]) == 0
    arcs = json.loads(read(tmp_path / "arcs.json"))
    assert len(arcs) == 1
    assert arcs[0][0] == 0.0


@pytest.mark.parametrize("points", [
    [[float("nan"), 1.0]], [[float("inf"), 1.0]],
    [[float("nan"), 0.0, 1.0], [1.0, 0.0, 0.0]],
], ids=["nan-d2", "inf-d2", "nan-d3"])
def test_cli_shull_non_finite_exit_2(points, tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(points))
    assert main(["shull", str(pts)]) == 2
    captured = capsys.readouterr()
    assert "whose coordinates are finite numbers" in captured.err and captured.out == ""


def test_cli_shull_zero_point_exit_2(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
    assert main(["shull", str(pts)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: points must be nonzero vectors\n" and captured.out == ""


@pytest.mark.parametrize("points, arcs", [
    ([[1e308, 1e308]], "[[0.7853981633974483, 0.7853981633974483]]"),
    ([[1e200, 0], [0, 1e200]], "[[0.0, 1.5707963267948966]]"),
], ids=["huge-d2", "huge-axes"])
def test_cli_shull_overflowing_points(points, arcs, tmp_path, capsys):
    # finite points whose squares overflow still have a direction
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(points))
    assert main(["shull", str(pts)]) == 0
    assert capsys.readouterr().out == arcs + "\n"


SHULL_RULE = ("points must be a non-empty list of vectors of one dimension d >= 2 "
              "whose coordinates are finite numbers")
TABLE_RULE = "{file} must be a non-empty list of [r, p] pairs of finite numbers"
WRITE_DIR = "cannot write {dir}: Is a directory"


@pytest.mark.parametrize("argv, text, error", [
    (["shull", "{file}"], "5", SHULL_RULE),
    (["shull", "{file}"], "[[1], [2]]", SHULL_RULE),
    (["shull", "{file}"], "[[[1, 2]]]", SHULL_RULE),
    (["shull", "{file}"], "{}", SHULL_RULE),
    (["shull", "{file}"], "null", SHULL_RULE),
    (["shull", "{file}"], "[]", SHULL_RULE),
    (["shull", "{file}"], "[true, false]", SHULL_RULE),
    (["shull", "{file}"], f"[[{10**400}, 1], [0, 1]]", SHULL_RULE),
    (["shull", "{file}"], "[1, 2]", SHULL_RULE),
    (["shull", "{file}"], "[" * 10**5 + "]" * 10**5, "cannot read {file}: maximum recursion "
     "depth exceeded while decoding a JSON array from a unicode string"),
    (["pruitt", "{file}"], "[1, 2]", TABLE_RULE),
    (["pruitt", "{file}"], "null", TABLE_RULE),
    (["pruitt", "{file}"], '{"a": 1}', TABLE_RULE),
    (["pruitt", "{file}"], "[[1]]", TABLE_RULE),
    (["pruitt", "{file}"], f"[[{10**400}, 0.5]]", TABLE_RULE),
    (["reproduce", "ex-10.4", "--steps", "64", "--runs", "2", "--out", "{file}"], "",
     "cannot write {file}: File exists"),
    (["pruitt", "log_tail", "--csv", "{dir}"], None, WRITE_DIR),
    (["shull", "{file}", "--out", "{dir}"], "[[1, 0], [0, 1]]", WRITE_DIR),
    (["plot", "{file}", "-o", "{dir}/no.svg"], None,
     "cannot read {file}: No such file or directory"),
], ids=["shull-number", "shull-d1", "shull-nested", "shull-object", "shull-null",
        "shull-empty", "shull-booleans", "shull-huge-int", "shull-bare-vector", "shull-deep",
        "pruitt-flat-list", "pruitt-null", "pruitt-object", "pruitt-short-row",
        "pruitt-huge-int", "reproduce-out-is-file", "pruitt-csv-is-dir",
        "shull-out-is-dir", "plot-missing-file"])
def test_cli_bad_input_or_output_path_exit_2(argv, text, error, tmp_path, capsys):
    # every bad argument, input file or output path is one error line and
    # exit 2, never a traceback; exit 1 is kept for a FAILed report.  ``text``
    # (None for no file) is the content of {file}
    paths = {"file": str(tmp_path / "in.json"), "dir": str(tmp_path)}
    if text is not None:
        (tmp_path / "in.json").write_text(text)
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {error.format(**paths)}\n"
    # reproduce prints its report before writing it
    assert (captured.out != "") == (argv[0] == "reproduce")


@pytest.mark.parametrize("name, kind", [("run0_directions.csv", "rose"),
                                        ("run0_trajectory.csv", "trajectory")])
def test_cli_plot_of_d3_run_exit_2(name, kind, tmp_path, capsys):
    # every u_i / s_i column reaches the renderer, which draws planar data only
    config = dict(MINIMAL, n_steps=64, spec={
        "dimension": 3, "form": "coordinate_product",
        "laws": [{"name": "rademacher"}] * 3})
    run_experiment(load_config(config, out_dir=str(tmp_path)))
    out = tmp_path / "no.svg"
    assert main(["plot", str(tmp_path / name), "-o", str(out)]) == 2
    assert f"{kind} plots are planar only" in capsys.readouterr().err
    assert not out.exists()


def test_cli_plot_value_beyond_float_range_exit_2(tmp_path, capsys):
    # log-scale trajectories print magnitudes past float range in extended
    # notation; float() reads them as inf
    csv_path = tmp_path / "traj.csv"
    csv_path.write_text("n,s_1,s_2,norm,shat_1,shat_2\n"
                        "1,3.5,0,3.5,1.0,0.0\n"
                        "2,3.5,6.79854612432e+1512,6.79854612432e+1512,0.0,1.0\n")
    out = tmp_path / "no.svg"
    assert main(["plot", str(csv_path), "-o", str(out)]) == 2
    assert "column s_2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec, track_hull, why", [
    ({"dimension": 2, "form": "radial_product", "laws": [{"name": "log_tail"}],
      "atoms": [{"vector": [1.0, 0.0], "p": 0.5}, {"vector": [0.0, 1.0], "p": 0.5}]},
     True, "unsupported for log-scale walks"),
    (MINIMAL["spec"], False, "off (track_hull is false)"),
], ids=["log-scale", "track-hull-off"])
def test_cli_plot_of_placeholder_hull_exit_2(spec, track_hull, why, tmp_path, capsys):
    config = dict(MINIMAL, n_steps=64, spec=spec, track_hull=track_hull)
    run_experiment(load_config(config, out_dir=str(tmp_path)))
    out = tmp_path / "no.svg"
    assert main(["plot", str(tmp_path / "run0_hull.csv"), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: the run has no hull series (hull tracking {why})\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, track_hull", [
    (MINIMAL["spec"], True),
    ({"dimension": 2, "form": "radial_product", "laws": [{"name": "log_tail"}],
      "atoms": [{"vector": [1.0, 0.0], "p": 0.5}, {"vector": [0.0, 1.0], "p": 0.5}]}, True),
    ({"dimension": 2, "form": "coordinate_product",
      "laws": [{"name": "rademacher"}, {"name": "s_two_sided", "alpha": 1.5}]}, False),
], ids=["lattice", "log-radial", "track-hull-off"])
def test_cli_plot_of_every_artifact_csv(spec, track_hull, tmp_path, capsys):
    # each run CSV either draws or is refused with one error line, never a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(MINIMAL, n_steps=512, spec=spec,
                                        track_hull=track_hull)))
    assert main(["simulate", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    names = sorted(p.name for p in (tmp_path / "out").glob("run0_*.csv"))
    assert len(names) == 4
    capsys.readouterr()
    for name in names:
        out = tmp_path / f"{name}.svg"
        code = main(["plot", str(tmp_path / "out" / name), "-o", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            assert read(out).startswith(b"<svg") and err == "", name
        else:
            assert code == 2 and not out.exists(), name
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)


def test_cli_plot_trajectory_vertices(tmp_path):
    csv_path = tmp_path / "traj.csv"
    csv_path.write_text("n,s_1,s_2,norm,shat_1,shat_2\n"
                        "1,1,0,1.0,1.0,0.0\n"
                        "2,1,1,1.41,0.71,0.71\n"
                        "3,2,1,2.23,0.89,0.44\n")
    out = tmp_path / "t.svg"
    assert main(["plot", str(csv_path), "-o", str(out)]) == 0
    svg = read(out).decode()
    coords = svg.split('points="')[1].split('"')[0]
    assert len(coords.split()) == 3          # one vertex per trajectory point


def test_cli_plot_empty_errors(tmp_path):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("n,s_1,s_2\n")
    out = tmp_path / "no.svg"
    assert main(["plot", str(csv_path), "-o", str(out)]) == 2
    assert not out.exists()


def test_rose_full_circle_wedges():
    from walkangles.sphere import direction_grid
    grid = direction_grid(2, 64)
    svg = rose_svg(grid, np.ones(64, dtype=int))
    assert svg.count('class="in"') == 64


def test_plot_empty_data_raises():
    with pytest.raises(ValueError):
        trajectory_svg(np.empty((0, 2)))


def test_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "walkangles", "pruitt", "poly:0.5"],
                          capture_output=True, text=True,
                          cwd=REPO)
    assert proc.returncode == 0
    assert "DIVERGENT_TREND" in proc.stdout
