"""Simulation and geometry toolkit for the directional asymptotics of
random walks: exact heavy-tail samplers, a vectorized walk engine with
biggest-jump bookkeeping, spherical-hull geometry, direction-set estimation,
projection trend classification, trajectory-hull tracking, and a
reproducible experiment runner.
"""

from .samplers import (IncrementSampler, IncrementSpec, ScalarLaw,
                       coordinate_product, constant, linear_combination,
                       log_tail, radial_product, rademacher, s_one_sided,
                       s_two_sided, spec_from_json, spec_to_json, stretched_exp)
from .sphere import (Cap, SHull, cap_contains, direction_grid, hat, interpolate,
                     s_hull)
from .walk import (BoundCheckObserver, TrajectoryRecord, WalkState,
                   biggest_jump_bound_check, dyadic_checkpoints, run_walk)
from .directions import (CapVisitAccumulator, DirectionSetEstimate,
                         EstimatorConfig, combine_runs)
from .projections import (ClassifierThresholds, ProjectionStats,
                          ProjectionTracker, classify, project_series,
                          scan_exceptional)
from .hull import HullState, HullTracker, hull_growth_report
from .pruitt import TailFunction, pruitt_diagnostic, u_sequence
from .experiment import ExperimentConfig, load_config, run_experiment
from .examples import reproduce_example
from .plots import emit_plot

__version__ = "0.1.0"
