"""Golden SHA-256 pins for the artifacts the engine, samplers and observers produce.

``golden.json`` holds the ``manifest.json`` digest of each committed config and
of seven small configs that reach the float and heavy-tail paths, the d = 4
hull and the hull's own projection ladder, the digest
of each worked-example report at its committed scale and of each example
regime at a small scale, and the digest of the ``pruitt --csv`` table of
four tails.  A manifest digest covers the config,
the spawned seeds and the SHA-256 of every artifact file, so any change to an
artifact byte shows here.  Such a change needs a deliberate pin update, never
a regeneration switch: a mismatch prints the actual digest.

The benchmark's workloads are pinned in ``perfbench/pins.json`` and checked
here as well; with the extra configs they pin both wirings of the hull's
projection ladder, the run's own tracker and one the hull drives itself.
"""
import glob
import hashlib
import json
import os
import runpy

import pytest

from walkangles.examples import reproduce_example
from walkangles.experiment import load_config, run_experiment
from walkangles.pruitt import TailFunction, pruitt_diagnostic, u_sequence

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO, "tests", "golden.json")) as _fh:
    GOLDEN = json.load(_fh)

COMMITTED_CONFIGS = sorted(glob.glob(os.path.join(REPO, "configs", "*.json")))

BENCH = runpy.run_path(os.path.join(REPO, "perfbench", "workloads.py"))
with open(os.path.join(REPO, "perfbench", "pins.json")) as _fh:
    BENCH_PINS = json.load(_fh)


def _law(name, **param):
    return {"name": name, **param}


def _small(spec: dict) -> dict:
    return {"spec": spec, "n_steps": 5000, "n_runs": 2, "base_seed": 1}


# paths that neither configs/ nor the benchmark pins reach
EXTRA_CONFIGS = {
    "float-coordinate-product": _small({
        "dimension": 2, "form": "coordinate_product",
        "laws": [_law("constant", value=0.5), _law("s_two_sided", alpha=0.8)]}),
    # the only route into the saturating heavy-tail linear sampler
    "heavy-coordinate-product": _small({
        "dimension": 2, "form": "coordinate_product",
        "laws": [_law("log_tail"), _law("stretched_exp", beta=0.3)]}),
    "float-linear-combination": _small({
        "dimension": 2, "form": "linear_combination",
        "laws": [_law("s_one_sided", alpha=0.7), _law("s_one_sided", alpha=0.7)],
        "atoms": [{"vector": [1.0, 0.0]}, {"vector": [0.6, 0.8]}]}),
    "float-radial-product": _small({
        "dimension": 2, "form": "radial_product",
        "laws": [_law("s_one_sided", alpha=1.0)],
        "atoms": [{"vector": [1.0, 0.0], "p": 0.5}, {"vector": [0.0, 1.0], "p": 0.5}]}),
    # the d >= 3 hull sketch at d = 4, read from the projection ladder
    "d4-coordinate-product-hull": _small({
        "dimension": 4, "form": "coordinate_product",
        "laws": [_law("rademacher"), _law("s_two_sided", alpha=1.5),
                 _law("constant", value=0.5), _law("s_two_sided", alpha=0.8)]}),
    # a projection grid the hull's grid does not nest in: the hull drives a
    # ladder of its own
    "d2-hull-own-ladder": {**_small({
        "dimension": 2, "form": "coordinate_product",
        "laws": [_law("rademacher"), _law("s_two_sided", alpha=0.5)]}),
        "projection_grid_m": 8},
    "d3-hull-own-ladder": {**_small({
        "dimension": 3, "form": "coordinate_product",
        "laws": [_law("s_two_sided", alpha=1.5), _law("s_two_sided", alpha=1.5),
                 _law("rademacher")]}),
        "projection_grid_m": 8},
}


def assert_pinned(section: str, key: str, actual: str) -> None:
    expected = GOLDEN[section][key]
    assert actual == expected, (f"golden {section}[{key!r}] changed: "
                                f"expected {expected}, actual {actual}")


def manifest_digest(config, out_dir) -> str:
    run_experiment(load_config(config, out_dir=str(out_dir)))
    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_digest(report) -> str:
    return hashlib.sha256(
        json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


def test_committed_configs_match_golden(tmp_path):
    assert COMMITTED_CONFIGS
    for path in COMMITTED_CONFIGS:
        name = os.path.basename(path)
        with open(path) as fh:
            text = fh.read()
        assert_pinned("configs", name, manifest_digest(text, tmp_path / name))


@pytest.mark.parametrize("name", sorted(EXTRA_CONFIGS))
def test_extra_config_matches_golden(name, tmp_path):
    assert_pinned("extra_configs", name, manifest_digest(EXTRA_CONFIGS[name], tmp_path))


def test_ex_10_4_report_matches_golden():
    # criteria 4-8 pin the other example reports they already build
    assert_pinned("reports", "ex-10.4", report_digest(reproduce_example("ex-10.4")))


# every regime of every example at a scale of about a second in all; these pin
# bytes, not verdicts, and four of the seven reports FAIL at this scale
SMALL_REPORTS = {
    "ex-10.1-alpha0.5": ("ex-10.1", dict(steps=2**14, runs=4, alpha=0.5)),
    "ex-10.1-alpha2": ("ex-10.1", dict(steps=2**14, runs=4, alpha=2.0)),
    "ex-10.2-alpha1.5": ("ex-10.2", dict(steps=2**14, runs=4, alpha=1.5)),
    "ex-10.2-alpha0.5": ("ex-10.2", dict(steps=2**14, runs=4, alpha=0.5)),
    "ex-10.3": ("ex-10.3", dict(steps=2**12, runs=2)),
    "ex-10.4": ("ex-10.4", dict(steps=2**14, runs=4)),
    "heavytails-demo": ("heavytails-demo", dict(steps=2**12, runs=4)),
}


@pytest.mark.parametrize("key", sorted(SMALL_REPORTS))
def test_small_report_matches_golden(key):
    name, overrides = SMALL_REPORTS[key]
    assert_pinned("small_reports", key, report_digest(reproduce_example(name, **overrides)))


# the tails of ``walkangles pruitt <tail> --csv`` at its default --K 64
PRUITT_TAILS = {
    "log_tail": TailFunction("log_tail"),
    "poly:1.5": TailFunction("poly", 1.5),
    "stretched:0.3": TailFunction("stretched_exp", 0.3),
    "custom-3-row": TailFunction("custom", table=((2.0, 0.7), (64.0, 0.3),
                                                  (4096.0, 0.1))),
}


@pytest.mark.parametrize("name", sorted(PRUITT_TAILS))
def test_pruitt_csv_matches_golden(name):
    tail = PRUITT_TAILS[name]
    text = pruitt_diagnostic(u_sequence(tail, 64)).to_csv(tail)
    assert_pinned("pruitt_csv", name, hashlib.sha256(text.encode()).hexdigest())


@pytest.mark.parametrize("name", sorted(BENCH_PINS))
def test_benchmark_workload_matches_pin(name, tmp_path):
    config = BENCH["config_for"](name, BENCH["DEFAULT_SEED"])
    assert manifest_digest(config, tmp_path) == BENCH_PINS[name]
