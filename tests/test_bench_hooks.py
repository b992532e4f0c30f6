"""The benchmark's tracer still finds every name it wraps.

``perfbench/spans.py`` patches walkangles functions and observer methods by
name.  Renaming or removing one of them breaks the benchmark; this test shows
it in a second instead of in a full benchmark run.
"""
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys, tempfile
from spans import Tracer
from worker import artifact_counts
from walkangles.experiment import load_config, run_experiment

tracer = Tracer()
tracer.install()
config = {"spec": json.loads(sys.argv[1]), "n_steps": 64, "n_runs": 2, "base_seed": 0,
          **json.loads(sys.argv[2])}
with tempfile.TemporaryDirectory() as out:
    run_experiment(load_config(config, out_dir=out))
    artifacts = artifact_counts(out)
json.dump({"layers": tracer.layer_metrics(), "work": tracer.work_counts(),
           "artifacts": artifacts}, sys.stdout)
"""


def traced(spec: dict, **extra) -> tuple[dict, dict]:
    """Layer metrics and work counts of a traced 2-run x 64-step experiment,
    with ``extra`` config keys.  The work counts are checked against the
    ones read back from the artifacts, as the benchmark's traced mode checks
    them; the one difference allowed is that ``projections.dot_products``
    also counts a ladder the hull drives for itself, which writes no
    artifact: 2 runs x 64 steps x its 16 directions."""
    paths = [os.path.join(REPO, "perfbench"), os.path.join(REPO, "src")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(spec), json.dumps(extra)],
                          capture_output=True, text=True, cwd=REPO, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    work, artifacts = out["work"], out["artifacts"]
    assert work.keys() <= artifacts.keys()
    own_ladder = 2 * 64 * 16 if extra.get("projection_grid_m", 64) == 8 else 0
    for key in work:
        extra_work = own_ladder if key == "projections.dot_products" else 0
        assert work[key] == artifacts[key] + extra_work, key
    return out["layers"], work


D2_SPEC = {"dimension": 2, "form": "coordinate_product",
           "laws": [{"name": "rademacher"}, {"name": "s_two_sided", "alpha": 0.5}]}


def test_tracer_installs_and_counts():
    layers, work = traced(D2_SPEC)
    assert layers["samplers.sample_block_calls"] == 2       # one block per run
    # one call per engine block for each of the three observers
    assert layers["walk.observe_calls"] == 2 * 3
    assert layers["sphere.direction_grid_calls"] > 0
    assert layers["experiment.to_csv_s"] > 0
    assert layers["projections.classify_s"] > 0
    assert layers["directions.finalize_s"] > 0
    assert work["directions.cap_tests"] > 0
    assert work["hull.points_in"] == 2 * 64


def test_tracer_counts_through_the_d3_sketch():
    # d = 3 takes the hull's support sketch and the cap cell table
    layers, work = traced({"dimension": 3, "form": "coordinate_product",
                           "laws": [{"name": "s_two_sided", "alpha": 1.5}] * 2
                           + [{"name": "rademacher"}]})
    assert layers["samplers.sample_block_calls"] == 2
    assert layers["walk.observe_calls"] == 2 * 3
    assert work["hull.final_vertices"] > 0
    assert layers["sphere.direction_grid_calls"] > 0
    assert layers["directions.finalize_s"] > 0
    assert work["directions.cap_tests"] > 0
    assert work["hull.points_in"] == 2 * 64


def test_tracer_counts_through_the_hulls_own_ladder():
    # an 8-direction ladder lacks the hull's 16 directions, so the hull
    # drives a ladder of its own, whose products the tracer counts too
    layers, work = traced(D2_SPEC, projection_grid_m=8)
    # the hull's call to its own ladder is one more per block
    assert layers["walk.observe_calls"] == 2 * 4
    assert work["hull.points_in"] == 2 * 64
    assert work["hull.final_vertices"] > 0
    assert work["projections.dot_products"] == 2 * 64 * (8 + 16)
