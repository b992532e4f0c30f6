"""walkangles benchmark: time seeded ``run_experiment`` workloads end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload hull2d --seed 0 --seconds 25 --trace 0

The command generates the workload's experiment config from ``--seed``, then
starts fresh worker processes one after another until ``--seconds`` have
passed: a few that only set up (start, ``import walkangles``,
``load_config``), then repetitions of the whole experiment with artifact
writing on.  Each repetition's ``manifest.json`` digest is checked: against
``pins.json`` at the default seed, and against the first repetition on any
other seed.  The exact work counts read back from the artifacts must repeat
in every repetition.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions).  With ``--trace 1`` untraced and traced repetitions alternate
and the metrics are the per-layer ones; the counts recorded by the tracer
must equal the counts read from the artifacts and repeat across traced
repetitions.  The last line of standard output is one JSON object; the lines
before it print every metric with its unit, the sample count and the
machine.  Raw samples go to ``.perfbench_work/`` in the checkout.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, WORKLOADS, config_for, total_steps

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 4        # set-up-only processes per run, besides the repetitions
MIN_REPS = 3            # repetitions of each mode, however long they take
CHILD_TIMEOUT = 150.0   # seconds; one repetition takes a few
# worker.calibrate() on the reference machine when nothing else loads it
REFERENCE_CALIBRATION_S = 0.006

# per-layer counts that must repeat exactly, and the unit of every count
COUNT_UNITS = {
    "samplers.sample_block_calls": "count", "samplers.saturations": "count",
    "walk.observe_calls": "count", "walk.overflow_halts": "count",
    "hull.final_vertices": "count", "hull.points_in": "count",
    "directions.cap_tests": "count", "projections.dot_products": "count",
    "sphere.direction_grid_calls": "count", "experiment.files_written": "count",
    "experiment.bytes_written": "B",
}


class RepetitionFailed(Exception):
    pass


def spawn(mode: str, config_path: str, out_dir: str):
    """Run one worker; returns (set-up seconds, its JSON report)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, config_path,
           out_dir, mode]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        try:
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RepetitionFailed(f"{mode} worker timed out")
    if proc.returncode != 0 or first.strip() != "ready" or not rest.strip():
        raise RepetitionFailed(f"{mode} worker exited with code {proc.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def speed(calibrations: list[float]) -> float:
    """Factor that scales a timing to the reference machine speed."""
    return REFERENCE_CALIBRATION_S / statistics.mean(calibrations)


def describe(samples: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"median of {n}"
    if n > 10:
        k = n - 10
        text += f"; p{100.0 * k / n:.0f} = {ordered[k - 1]:.6g}"
    return text


def tracer_counts(report: dict) -> dict:
    """The counts only the tracer sees: sampler, observe and grid calls."""
    return {k: v for k, v in report["layers"].items() if not k.endswith("_s")}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "walkangles", "__init__.py")):
        print(f"no walkangles sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)

    os.makedirs(WORK, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    config_path = os.path.join(WORK, f"{tag}.json")
    with open(config_path, "w") as fh:
        json.dump(config_for(args.workload, args.seed), fh)
    out_dir = os.path.join(WORK, f"out-{tag}")

    load_before = os.getloadavg()
    started = time.perf_counter()
    setups, machine = [], None
    for _ in range(SETUP_PROBES):
        try:
            setup, report = spawn("probe", config_path, out_dir)
        except RepetitionFailed as exc:
            print(f"set-up failed: {exc}", file=sys.stderr)
            return 1
        setups.append(setup * speed(report["calibration_s"]))
        machine = report["machine"]

    modes = ("run", "trace") if args.trace else ("run",)
    reps = []                      # (mode, report or None)
    for mode in itertools.cycle(modes):
        done = {m: sum(1 for r in reps if r[0] == m) for m in modes}
        if (time.perf_counter() - started >= args.seconds
                and min(done.values()) >= MIN_REPS and mode == modes[0]):
            break
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            setup, report = spawn(mode, config_path, out_dir)
        except RepetitionFailed as exc:
            print(f"repetition failed: {exc}", file=sys.stderr)
            reps.append((mode, None))
            continue
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        setups.append(setup * speed(report["calibration_s"][:1]))
        reps.append((mode, report))
    load_after = os.getloadavg()

    # correctness: digests, and counts that must repeat exactly
    problems = []
    expected = pins[args.workload] if args.seed == DEFAULT_SEED else None
    failed = 0
    good = []
    for mode, report in reps:
        if report is None:
            failed += 1
            continue
        if expected is None:
            expected = report["manifest_sha256"]
        if report["manifest_sha256"] != expected:
            failed += 1
            problems.append(f"{mode}: manifest sha256 {report['manifest_sha256']} "
                            f"!= {expected}")
            continue
        good.append((mode, report))
    if good and any(r["counts"] != good[0][1]["counts"] for _, r in good):
        problems.append("artifact counts differ between repetitions")
    traced = [r for m, r in good if m == "trace"]
    for r in traced:
        mismatched = {k: (v, r["counts"][k]) for k, v in r["work_counts"].items()
                      if r["counts"][k] != v}
        if mismatched:
            problems.append(f"traced counts != artifact counts: {mismatched}")
    if any(tracer_counts(r) != tracer_counts(traced[0]) for r in traced):
        problems.append("traced counts differ between repetitions")

    untraced = [r for m, r in good if m == "run"]
    metrics, notes = {}, {}

    def scaled(reports, key):
        return [r[key] * speed(r["calibration_s"]) for r in reports]

    if untraced and not args.trace:
        wall = scaled(untraced, "wall_s")
        steps = total_steps(args.workload)
        samples = {
            "wall_s": (wall, "s"),
            "steps_per_s": ([steps / w for w in wall], "1/s"),
            "cpu_s": (scaled(untraced, "cpu_s"), "s"),
            "peak_rss_mb": ([r["peak_rss_mb"] for r in untraced], "MB"),
            "setup_s": (setups, "s"),
        }
        notes["wall_s"] = (f"unscaled median "
                           f"{statistics.median(r['wall_s'] for r in untraced):.6g} s; ")
        notes["cpu_s"] = (f"unscaled median "
                          f"{statistics.median(r['cpu_s'] for r in untraced):.6g} s; ")
    elif untraced and traced:
        samples = {k: ([r["layers"][k] * speed(r["calibration_s"]) for r in traced], "s")
                   for k in traced[0]["layers"] if k.endswith("_s")}
        samples["trace.wall_s"] = (scaled(traced, "wall_s"), "s")
        metrics["trace.overhead_s"] = metric(
            statistics.median(scaled(traced, "wall_s"))
            - statistics.median(scaled(untraced, "wall_s")), "s")
        notes["trace.overhead_s"] = "traced minus untraced median wall_s"
        first = dict(traced[0]["layers"], **traced[0]["counts"])
        for k, unit in COUNT_UNITS.items():
            metrics[k] = metric(first[k], unit)
            notes[k] = "exact"
        cap_tests = first["directions.cap_tests"]
        metrics["directions.hit_ratio"] = metric(
            first["directions.level0_visits"] / cap_tests if cap_tests else 0.0, "ratio")
        notes["directions.hit_ratio"] = "level >= 0 visits / cap_tests, exact"
    else:
        samples = {}
    for k, (values, unit) in samples.items():
        metrics[k] = metric(statistics.median(values), unit)
        notes[k] = notes.get(k, "") + describe(values)

    attempted = len(reps)
    correct = failed == 0 and not problems and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={attempted} set-up samples={len(setups)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items())
          + " loadavg_before=" + "/".join(f"{x:.2f}" for x in load_before)
          + " loadavg_after=" + "/".join(f"{x:.2f}" for x in load_after))
    for k in sorted(metrics):
        m = metrics[k]
        print(f"  {k:32s} {m['value']:.6g} {m['unit']}  ({notes[k]})")
    if not args.trace:
        print(f"  {'failed_ratio':32s} {failed / attempted:.6g} ratio  "
              f"({failed} failed of {attempted})")
    print(f"manifest sha256 {expected} "
          + ("(pinned)" if args.seed == DEFAULT_SEED else "(first repetition)"))
    for p in problems:
        print(f"PROBLEM: {p}")

    with open(os.path.join(WORK, f"result-{tag}.json"), "w") as fh:
        json.dump({"result": result, "machine": machine,
                   "loadavg_before": load_before, "loadavg_after": load_after,
                   "setup_s": setups, "repetitions": reps, "problems": problems},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
