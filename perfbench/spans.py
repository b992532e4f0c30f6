"""Per-layer spans and counts, recorded from outside the walkangles package.

:class:`Tracer` replaces walkangles' public entry points (module functions
and observer methods) with wrappers that time each call and count the work
it was handed.  Nothing under ``src/`` knows about it.  Spans nest: a span's
self time is its duration minus the spans it encloses, and a layer's self
time is the sum over that layer's spans.  A span name counts towards its
inclusive total only at its outermost level, so ``classify`` called from
``scan_exceptional`` is not counted twice.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# counts the tracer records that the artifacts of the same run also determine
WORK_COUNTS = ("samplers.saturations", "walk.overflow_halts", "hull.final_vertices",
               "hull.points_in", "directions.cap_tests", "directions.level0_visits",
               "projections.dot_products")


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)     # span name -> seconds
        self.layer_self = defaultdict(float)    # layer -> seconds
        self.counts = Counter()
        self._stack = []                        # [name, start, child seconds]
        self._open = Counter()

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self._open[name] -= 1
        if self._open[name] == 0:
            self.inclusive[name] += duration
        self.layer_self[name.split(".", 1)[0]] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn, name: str, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if on_return is not None:
                on_return(tracer.counts, args, result)
            return result
        return wrapper

    def _patch(self, owners, attr: str, name: str, on_return=None) -> None:
        wrapper = self._wrap(getattr(owners[0], attr), name, on_return)
        for owner in owners:
            setattr(owner, attr, wrapper)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the entry points that ``run_experiment`` reaches, for the rest
        of the process's life."""
        from walkangles import directions, experiment, hull, projections, sphere, walk
        from walkangles.samplers import IncrementSampler

        self._patch([experiment], "run_experiment", "experiment.run_experiment")
        self._patch([experiment, walk], "run_walk", "walk.run_walk", _count_run_walk)
        self._patch([IncrementSampler], "sample_block", "samplers.sample_block",
                    _count_call("samplers.sample_block_calls"))
        for cls, layer, on_observe in (
                (directions.CapVisitAccumulator, "directions", _count_cap_tests),
                (projections.ProjectionTracker, "projections", _count_dot_products),
                (hull.HullTracker, "hull", _count_hull_points)):
            self._patch([cls], "observe", f"{layer}.observe", on_observe)
            self._patch([cls], "begin", f"{layer}.begin_finish")
            self._patch([cls], "finish", f"{layer}.begin_finish",
                        _count_hull_vertices if cls is hull.HullTracker else None)
        self._patch([directions.CapVisitAccumulator], "finalize",
                    "directions.finalize", _count_level0_visits)
        self._patch([experiment], "combine_runs", "directions.combine")
        self._patch([experiment, projections], "classify", "projections.classify")
        self._patch([experiment, projections], "scan_exceptional",
                    "projections.classify")
        self._patch([experiment], "hull_growth_report", "hull.report")
        self._patch([sphere, directions, projections, hull], "direction_grid",
                    "sphere.direction_grid",
                    _count_call("sphere.direction_grid_calls"))
        for cls in (walk.TrajectoryRecord, directions.DirectionSetEstimate,
                    projections.ProjectionTracker, hull.HullTracker):
            self._patch([cls], "to_csv", "experiment.to_csv")

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer seconds and exact counts, keyed by metric name."""
        inc = self.inclusive
        c = self.counts
        return {
            "samplers.sample_block_s": inc["samplers.sample_block"],
            "samplers.sample_block_calls": c["samplers.sample_block_calls"],
            "walk.run_walk_s": inc["walk.run_walk"],
            "walk.engine_self_s": self.layer_self["walk"],
            "walk.observe_calls": c["walk.observe_calls"],
            "hull.observe_s": inc["hull.observe"],
            "hull.begin_finish_s": inc["hull.begin_finish"],
            "hull.report_s": inc["hull.report"],
            "directions.observe_s": inc["directions.observe"],
            "directions.begin_finish_s": inc["directions.begin_finish"],
            "directions.finalize_s": inc["directions.finalize"],
            "directions.combine_s": inc["directions.combine"],
            "projections.observe_s": inc["projections.observe"],
            "projections.begin_finish_s": inc["projections.begin_finish"],
            "projections.classify_s": inc["projections.classify"],
            "sphere.direction_grid_s": inc["sphere.direction_grid"],
            "sphere.direction_grid_calls": c["sphere.direction_grid_calls"],
            "experiment.self_s": self.layer_self["experiment"],
            "experiment.to_csv_s": inc["experiment.to_csv"],
        }

    def work_counts(self) -> dict:
        return {k: int(self.counts[k]) for k in WORK_COUNTS}


# -- count hooks: (counts, call arguments, return value) ---------------------

def _count_call(key):
    def hook(counts, args, result):
        counts[key] += 1
    return hook


def _count_run_walk(counts, args, record):
    counts["samplers.saturations"] += record.saturations
    counts["walk.overflow_halts"] += int(record.overflowed)


def _count_cap_tests(counts, args, result):
    acc, block = args
    counts["walk.observe_calls"] += 1
    counts["directions.cap_tests"] += len(block) * len(acc.grid)


def _count_dot_products(counts, args, result):
    tracker, block = args
    counts["walk.observe_calls"] += 1
    counts["projections.dot_products"] += len(block) * len(tracker.directions)


def _count_hull_points(counts, args, result):
    counts["walk.observe_calls"] += 1
    counts["hull.points_in"] += len(args[1])


def _count_hull_vertices(counts, args, result):
    counts["hull.final_vertices"] += args[0].state.vertex_count()


def _count_level0_visits(counts, args, estimate):
    # visits at level 0 count every hit at level 0 or beyond
    counts["directions.level0_visits"] += int(estimate.visits[:, 0].sum())
