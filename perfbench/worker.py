"""One fresh process of the benchmark: set up, run one experiment, report.

Usage: ``python3 worker.py ROOT CONFIG OUT_DIR MODE`` with MODE one of
``probe`` (set up only, then report the machine), ``run`` (untraced run) or
``trace`` (run with per-layer spans).  ROOT is the checkout whose ``src/``
holds the walkangles package under test.

The worker prints ``ready`` once ``import walkangles`` and ``load_config``
are done, so the parent can time set-up from process start, and ends with
one JSON line describing the run.
"""
import hashlib
import json
import os
import resource
import sys
import time


def machine(package_file: str) -> dict:
    """What the result depends on besides the code: cores, CPU, versions, BLAS."""
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "walkangles": os.path.dirname(package_file),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


def calibrate() -> float:
    """Seconds for a fixed mix of work, to scale timings by machine speed.

    On a shared host, the CPU share a virtual machine gets drifts over tens
    of seconds.  The calibration is the geometric mean of
    the median times of four small kernels shaped like the program's own
    work: interpreter arithmetic, a cap-test style numpy block, a pass over
    an array larger than the L2 cache, and sorting and rebuilding Python
    tuples as the planar hull does.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((2048, 3))
    grid = rng.standard_normal((256, 3))
    big = np.full(2_000_000, 1.5)
    points = [tuple(p) for p in rng.integers(-10**9, 10**9, size=(8000, 2)).tolist()]

    def interpreter():
        x = 0
        for i in range(150_000):
            x += i * i

    def vector():
        rows, cols = np.nonzero((dirs @ grid.T) > 0.5)
        np.argsort(cols, kind="stable")
        np.cumsum(dirs, axis=0)

    def memory():
        np.multiply(big, 1.0000001, out=big)
        big.sum()

    def objects():
        out = []
        for x, y in sorted(points):
            out.append((x + 1, y))

    product = 1.0
    for work in (interpreter, vector, memory, objects):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            work()
            times.append(time.perf_counter() - t0)
        product *= sorted(times)[1]
    return product ** 0.25


def artifact_counts(out: str) -> dict:
    """Exact counts read back from the artifacts of one experiment."""
    from spans import WORK_COUNTS

    names = sorted(os.listdir(out))
    counts = dict.fromkeys(WORK_COUNTS, 0)
    counts["experiment.files_written"] = len(names)
    counts["experiment.bytes_written"] = sum(
        os.path.getsize(os.path.join(out, n)) for n in names)

    def rows(name):
        with open(os.path.join(out, name)) as fh:
            return [line.rstrip("\n").split(",") for line in fh]

    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    for run in summary["runs"]:
        i = run["index"]
        counts["samplers.saturations"] += run["saturations"]
        counts["walk.overflow_halts"] += int(run["overflowed"])
        steps = int(rows(f"run{i}_trajectory.csv")[-1][0])
        directions = rows(f"run{i}_directions.csv")
        col = directions[0].index("visits_l0")
        counts["directions.cap_tests"] += steps * (len(directions) - 1)
        counts["directions.level0_visits"] += sum(int(r[col]) for r in directions[1:])
        counts["projections.dot_products"] += steps * (
            len(rows(f"run{i}_projections.csv")) - 1)
        hull = rows(f"run{i}_hull.csv")
        if not hull[1][0].startswith("#"):        # log-scale walks have no hull
            counts["hull.points_in"] += steps
            counts["hull.final_vertices"] += int(hull[-1][2])
    return counts


def main(root: str, config_path: str, out_dir: str, mode: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import walkangles
    from walkangles import experiment

    if os.path.dirname(os.path.abspath(walkangles.__file__)) != os.path.join(src, "walkangles"):
        sys.exit(f"walkangles was imported from {walkangles.__file__}, not from {src}")
    with open(config_path) as fh:
        config = experiment.load_config(fh.read(), out_dir=out_dir)
    print("ready", flush=True)

    if mode == "probe":
        print(json.dumps({"machine": machine(walkangles.__file__),
                          "calibration_s": [calibrate()]}))
        return
    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    before = calibrate()
    t0, c0 = time.perf_counter(), time.process_time()
    experiment.run_experiment(config)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = calibrate()

    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    report = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
              "calibration_s": [before, after],
              "manifest_sha256": digest, "counts": artifact_counts(out_dir)}
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["work_counts"] = tracer.work_counts()
    print(json.dumps(report))


if __name__ == "__main__":
    main(*sys.argv[1:5])
