"""The benchmark's own test.  Run from the root of a checkout::

    python3 perfbench/check.py

It runs every workload at the default seed, once traced and once untraced,
and checks that:

* every repetition's ``manifest.json`` matches the pinned digest;
* every metric named in ``BENCHMARK.json`` is reported;
* the exact counts repeat across repetitions and between the traced and the
  untraced run, and the tracer's counts equal those read from the artifacts;
* each workload loads the layer it was built for (see README.md);
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command fails without printing a result.

The file name keeps pytest from collecting it: it takes about two minutes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import tracer_counts
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# inclusive spans that contain other layers, left out of "largest layer"
AGGREGATES = {"walk.run_walk_s", "experiment.to_csv_s", "trace.wall_s",
              "trace.overhead_s"}
PER_RUN_LAYERS = ("experiment.self_s", "projections.classify_s",
                  "directions.finalize_s", "sphere.direction_grid_s")


def run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(DEFAULT_SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def load_run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = run(workload, trace)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(WORK, f"result-{workload}-seed{DEFAULT_SEED}-trace{trace}.json")
    with open(path) as fh:
        return result, json.load(fh)


def largest_layer(metrics: dict) -> str:
    layers = {k: m["value"] for k, m in metrics.items()
              if k.endswith("_s") and k not in AGGREGATES}
    return max(layers, key=layers.get)


def check_workload(name: str, spec: dict, failures: list) -> None:
    def expect(ok: bool, what: str):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {what}")
        if not ok:
            failures.append(f"{name}: {what}")

    plain, plain_raw = load_run(name, 0)
    traced, traced_raw = load_run(name, 1)
    for label, res, raw in (("untraced", plain, plain_raw), ("traced", traced, traced_raw)):
        expect(res["correct"] and res["failed"] == 0,
               f"{label} run correct, digests pinned ({raw['problems']})")

    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layers = {m["name"] for m in spec["per_layer"]}
    expect(set(plain["metrics"]) == want_e2e, "untraced run reports every end-to-end metric")
    expect(all(m["value"] > 0 for m in plain["metrics"].values()),
           "end-to-end metrics are nonzero")
    expect(set(traced["metrics"]) == want_layers, "traced run reports every per-layer metric")

    reports = [r for _, r in plain_raw["repetitions"] + traced_raw["repetitions"]]
    expect(all(r["counts"] == reports[0]["counts"] for r in reports),
           f"artifact counts repeat over {len(reports)} repetitions, traced and untraced")
    traced_reps = [r for m, r in traced_raw["repetitions"] if m == "trace"]
    expect(all(tracer_counts(r) == tracer_counts(traced_reps[0]) for r in traced_reps),
           "tracer counts repeat across traced repetitions")
    expect(all(r["counts"][k] == v for r in traced_reps for k, v in r["work_counts"].items()),
           "tracer counts equal the counts read from the artifacts")

    m = traced["metrics"]
    top = largest_layer(m)
    if name == "hull2d":
        expect(top == "hull.observe_s", f"hull.observe_s is the largest layer ({top})")
    elif name == "caps3d":
        expect(top == "directions.observe_s", f"directions.observe_s is the largest layer ({top})")
    elif name == "logradial":
        expect(top == "projections.observe_s",
               f"projections.observe_s is the largest layer ({top})")
        hull = [k for k in m if k.startswith("hull.")]
        expect(all(m[k]["value"] == 0 for k in hull), "no hull span or count appears")
    elif name == "manyruns":
        share = sum(m[k]["value"] for k in PER_RUN_LAYERS) / m["trace.wall_s"]["value"]
        expect(share > 0.25, f"per-run layers are {share:.0%} of traced wall time (> 25%)")


def check_bare_directory(failures: list) -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(next(iter(WORKLOADS)), 0, cwd=bare)
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"[{'PASS' if ok else 'FAIL'}] without src/: exit code {proc.returncode}, no result")
    if not ok:
        failures.append("bare directory")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    for name in WORKLOADS:
        check_workload(name, spec, failures)
    check_bare_directory(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
