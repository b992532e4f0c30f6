"""Experiment runner artifacts, config validation, CLI verbs, plots."""
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from walkangles import experiment, projections
from walkangles.cli import main
from walkangles.experiment import (ConfigError, load_config, run_experiment,
                                   config_hash)
from walkangles.plots import rose_svg, trajectory_svg

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
    calls = []
    classify = projections.classify

    def counting(*args, **kwargs):
        calls.append(1)
        return classify(*args, **kwargs)

    for module in (experiment, projections):
        monkeypatch.setattr(module, "classify", counting)
    cfg = dict(MINIMAL, n_runs=3, projection_grid_m=16)
    run_experiment(load_config(cfg, out_dir=str(tmp_path)))
    assert len(calls) == 3 * 16


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
]


@pytest.mark.parametrize("key, value", BAD_FIELDS,
                         ids=[f"{k}={v!r}" for k, v in BAD_FIELDS])
def test_config_rejects_bad_field(key, value):
    # a nested field is named by its full path, e.g. config.estimator.grid_m
    name = f"config.{key}.{next(iter(value))}" if isinstance(value, dict) else key
    with pytest.raises(ConfigError, match=name):
        load_config(dict(MINIMAL, **{key: value}))


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
    text = read(tmp_path / "run0_hull.csv").decode()
    assert "unsupported" in text


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


def test_cli_shull(tmp_path, capsys):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[1, 0], [0, 1]]))
    assert main(["shull", str(pts), "--out", str(tmp_path / "arcs.json")]) == 0
    arcs = json.loads(read(tmp_path / "arcs.json"))
    assert len(arcs) == 1
    assert arcs[0][0] == 0.0


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
