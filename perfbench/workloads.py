"""The benchmark's workloads: one seeded ``run_experiment`` config each.

Every workload is a plain JSON config, the same thing a user hands to
``walkangles simulate``.  Only ``base_seed`` depends on the benchmark's seed
argument, so the same seed always gives the same walks.  The README in this
directory says which layer each workload loads and which it bypasses.

The walks are split into many short runs rather than a few long ones: the
cost of one heavy-tailed run varies by about 20% from seed to seed, and
averaging over 32 runs brings that to a few percent, so figures taken on
different seeds stay comparable.
"""
from __future__ import annotations

DEFAULT_SEED = 0

_RADEMACHER = {"name": "rademacher"}
# the three unit atoms of the heavytails-demo worked example
_TRIANGLE = [[1.0, 0.0], [-0.5, 0.8660254037844386], [-0.5, -0.8660254037844386]]


def _s(alpha: float) -> dict:
    return {"name": "s_two_sided", "alpha": alpha}


WORKLOADS = {
    # ex-10.2 with alpha < 1: two poles and a space-filling planar hull
    "hull2d": {
        "spec": {"dimension": 2, "form": "coordinate_product",
                 "laws": [_RADEMACHER, _s(0.5)]},
        "n_runs": 16, "n_steps": 2**14,
    },
    # d = 3 band walk with the default M = 256 estimator grid
    "caps3d": {
        "spec": {"dimension": 3, "form": "coordinate_product",
                 "laws": [_s(1.5), _s(1.5), _RADEMACHER]},
        "n_runs": 8, "n_steps": 2**16,
    },
    # heavytails-demo's log-tailed radial walk: log-scale engine, no hull
    "logradial": {
        "spec": {"dimension": 2, "form": "radial_product",
                 "laws": [{"name": "log_tail"}],
                 "atoms": [{"vector": v, "p": 1 / 3} for v in _TRIANGLE]},
        "n_runs": 16, "n_steps": 2**15,
    },
    # diagonal simple random walk: many short runs, per-run cost and I/O
    "manyruns": {
        "spec": {"dimension": 2, "form": "coordinate_product",
                 "laws": [_RADEMACHER, _RADEMACHER]},
        "n_runs": 64, "n_steps": 2**10,
    },
}


def config_for(name: str, seed: int) -> dict:
    """The experiment config of workload ``name`` at benchmark seed ``seed``."""
    return dict(WORKLOADS[name], base_seed=seed)


def total_steps(name: str) -> int:
    w = WORKLOADS[name]
    return w["n_runs"] * w["n_steps"]
