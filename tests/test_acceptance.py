"""Acceptance suite: thirteen criteria, each printing one PASS/FAIL line.

Every criterion runs at its stated scale and tolerance with seeds committed
here.  The statistical thresholds were calibrated once against these seeds;
rerunning this module reproduces the identical numbers.
"""
import math
import os

import numpy as np

from walkangles.directions import (IN, CapVisitAccumulator, EstimatorConfig,
                                   combine_runs)
from walkangles.examples import (TRIANGLE_ATOMS, reproduce_example,
                                 symmetric_axis_spec)
from walkangles.hull import (CONFINED, FULL_SPACE_TREND, HullState,
                             HullTracker, hull_growth_report)
from walkangles.projections import (MINUS, OSC, PLUS, ProjectionTracker,
                                    classify, scan_exceptional)
from walkangles.pruitt import (CONVERGENT_TREND, DIVERGENT_TREND, TailFunction,
                               pruitt_diagnostic, u_sequence)
from walkangles.rng import stream
from walkangles.samplers import (coordinate_product, constant, log_tail,
                                 radial_product, rademacher, s_two_sided)
from walkangles.sphere import interpolate, s_hull
from walkangles.walk import BoundCheckObserver, run_walk

from test_golden import assert_pinned, report_digest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E1 = np.array([1.0, 0.0])


def _criterion(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {label} -- {detail}")
    assert ok, f"criterion {num}: {label} -- {detail}"


def _report_example(num: int, label: str, report, pin: str) -> None:
    detail = "; ".join(f"{c.label}: {c.detail}" for c in report.checks)
    _criterion(num, label, report.passed, detail)
    assert_pinned("reports", pin, report_digest(report))


# ---------------------------------------------------------------------------

def test_criterion_01_exact_geometry():
    hull = HullState()
    hull.update([(1, 0), (-1, 0), (0, 1), (0, -1)])
    r = hull.inscribed_radius()
    ok_r = abs(r - 1.0 / math.sqrt(2.0)) <= 1e-12
    ok_mid = np.array_equal(interpolate(E1, -E1, 0.5), np.zeros(2))
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((10**4, 3))
    us = rng.standard_normal((10**4, 3))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    hats = xs / np.linalg.norm(xs, axis=1, keepdims=True)
    gap = np.max(np.abs(np.linalg.norm(hats - us, axis=1) ** 2
                        - (2.0 - 2.0 * np.sum(hats * us, axis=1))))
    ok_chord = gap < 1e-9
    _criterion(1, "exact geometry", ok_r and ok_mid and ok_chord,
               f"diamond radius err {abs(r - 2**-0.5):.2e}, antipodal midpoint "
               f"zero: {ok_mid}, chord identity max gap {gap:.2e}")


# Bound on |chord - np.linalg.norm distance| for unit vectors u, v in d <= 4.
# Normalized floats have | |u|^2 - 1 | <= 2(d + 2) 2^-53 < 1.4e-15, the dot
# errs by at most d 2^-53 |u||v| < 5e-16 and 2 - 2 u.v adds under 5e-16, so
# chord^2 is within 1e-14 of |u - v|^2 and, as |sqrt a - sqrt b| <= sqrt|a - b|,
# chord within 1e-7 of |u - v|; np.linalg.norm is within 1e-15 of it.  The
# nearest point's chord is the max dot's, as the chord falls as the dot rises.
CHORD_ERR = 1e-6


def test_criterion_02_shull_oracle_equivalence():
    rng = np.random.default_rng(12345)

    def make_set():
        # clustered sets keep the sampled oracle dense within 0.05 of the
        # true region; full-sphere hulls have no exterior to probe and are
        # redrawn
        while True:
            d = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            center = rng.standard_normal(d)
            center /= np.linalg.norm(center)
            gens = center + rng.choice([0.3, 0.6]) * rng.standard_normal((m, d))
            gens /= np.linalg.norm(gens, axis=1, keepdims=True)
            h = s_hull(gens)
            if not h.is_full_sphere():
                return d, gens, h

    false_neg = 0
    far_total = far_rejected = 0
    d2_total = d2_rejected = 0
    for _ in range(200):
        d, gens, h = make_set()
        half = 5000
        lam = np.vstack([rng.dirichlet(np.ones(len(gens)), size=half),
                         rng.dirichlet(np.full(len(gens), 0.3), size=half)])
        pts = (lam + 1e-12) @ gens
        keep = np.linalg.norm(pts, axis=1) > 1e-9
        pts = pts[keep] / np.linalg.norm(pts[keep], axis=1, keepdims=True)
        false_neg += int((~h.contains_many(pts)).sum())
        probes = rng.standard_normal((500, d))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        # nearest-point chord from chord^2 = 2 - 2 u.v; probes within
        # CHORD_ERR of 0.05 get the np.linalg.norm distance instead
        dmin = np.sqrt(np.maximum(2.0 - 2.0 * (probes @ pts.T).max(axis=1), 0.0))
        for k in np.flatnonzero(np.abs(dmin - 0.05) <= CHORD_ERR):
            dmin[k] = np.linalg.norm(probes[k] - pts, axis=1).min()
        far = probes[dmin > 0.05]
        rejected = int((~h.contains_many(far)).sum())
        far_total += len(far)
        far_rejected += rejected
        if d == 2:
            d2_total += len(far)
            d2_rejected += rejected
    rate = far_rejected / far_total
    ok = false_neg == 0 and rate >= 0.99 and d2_rejected == d2_total
    _criterion(2, "spherical-hull oracle equivalence", ok,
               f"false negatives {false_neg} (need 0), far-probe rejection "
               f"{rate:.4f} (need >= 0.99), d=2 exact {d2_rejected}/{d2_total}")


def test_criterion_03_dominance_bound():
    spec = radial_product(TRIANGLE_ATOMS, [1 / 3] * 3, log_tail())
    violations = applicable = 0
    for seed in range(800, 850):
        obs = BoundCheckObserver()
        run_walk(spec, 10**4, seed=seed, observers=[obs])
        violations += obs.violations
        applicable += obs.applicable
    _criterion(3, "biggest-jump bound holds at every step",
               violations == 0,
               f"{applicable} applicable steps across 50 runs, "
               f"{violations} violations (zero allowed)")


def test_criterion_04_two_pole_directions():
    _report_example(4, "heavy vertical coordinate concentrates on the poles",
                    reproduce_example("ex-10.1"), "ex-10.1")


def test_criterion_05_drift_regime():
    _report_example(5, "drift regime locks onto e1",
                    reproduce_example("ex-10.1", alpha=2.0), "ex-10.1-alpha2")


def test_criterion_06_full_circle():
    _report_example(6, "symmetric moderate tails cover the circle",
                    reproduce_example("ex-10.2"), "ex-10.2")


def test_criterion_07_atom_direction_set():
    report = reproduce_example("heavytails-demo")
    picked = [c for c in report.checks if "atom caps" in c.label
              or "stray" in c.label]
    ok = all(c.passed for c in picked)
    _criterion(7, "log-tail radial walk explores exactly its atoms", ok,
               "; ".join(f"{c.label}: {c.detail}" for c in picked))
    assert_pinned("reports", "heavytails-demo", report_digest(report))


def test_criterion_08_band_concentration():
    _report_example(8, "four-dimensional equatorial band",
                    reproduce_example("ex-10.3"), "ex-10.3")


def test_criterion_09_projection_trichotomy():
    sym = coordinate_product([rademacher(), rademacher()])
    all_osc = scan_empty = 0
    for seed in range(100, 120):
        tr = ProjectionTracker(grid_m=64)
        run_walk(sym, 10**6, seed=seed, observers=[tr])
        verdicts = classify(tr.stats)
        all_osc += int(all(v == OSC for v in verdicts))
        scan_empty += int(len(scan_exceptional(tr.stats, verdicts)) == 0)
    drift = coordinate_product([constant(1), rademacher()])
    drift_ok = 0
    for seed in range(200, 220):
        tr = ProjectionTracker(grid_m=64)
        run_walk(drift, 10**6, seed=seed, observers=[tr])
        good = True
        for u, v in zip(tr.directions, classify(tr.stats)):
            if u[0] > 0.1 and v != PLUS:
                good = False
            if u[0] < -0.1 and v != MINUS:
                good = False
        drift_ok += int(good)
    ok = all_osc >= 18 and drift_ok >= 19 and scan_empty >= 18
    _criterion(9, "projection trichotomy", ok,
               f"all-64-OSC in {all_osc}/20 (>=18), drift trichotomy in "
               f"{drift_ok}/20 (>=19), empty exceptional scan in "
               f"{scan_empty}/20 (>=18)")


def test_criterion_10_hull_behaviour():
    sym = coordinate_product([rademacher(), rademacher()])
    full = cross_ok = 0
    for seed in range(900, 920):
        ht = HullTracker()
        tr = ProjectionTracker(directions=None, grid_m=16)
        run_walk(sym, 10**6, seed=seed, observers=[ht, tr])
        rep = hull_growth_report(ht)
        if rep.flag == FULL_SPACE_TREND:
            full += 1
            # cross-module consistency: a space-filling hull means every
            # tracked projection oscillates (statistical at finite n, like
            # every limit statement here)
            cross_ok += int(all(v == OSC for v in classify(tr.stats)))
    drift = coordinate_product([constant(1), rademacher()])
    confined = 0
    for seed in range(1000, 1020):
        ht = HullTracker()
        run_walk(drift, 10**5, seed=seed, observers=[ht])
        rep = hull_growth_report(ht)
        e1_idx = int(np.argmin(np.linalg.norm(rep.tracked_dirs - E1, axis=1)))
        last = [cp.confinements[e1_idx] for cp in rep.series[-4:]]
        confined += int(rep.flag == CONFINED and len(set(last)) == 1)
    heavy = symmetric_axis_spec(0.5)
    full_heavy = 0
    for seed in range(1100, 1120):
        ht = HullTracker()
        run_walk(heavy, 10**6, seed=seed, observers=[ht])
        full_heavy += int(hull_growth_report(ht).flag == FULL_SPACE_TREND)
    ok = (full >= 18 and cross_ok >= math.ceil(0.9 * full) and confined == 20
          and full_heavy >= 18)
    _criterion(10, "hull growth vs confinement", ok,
               f"symmetric FULL {full}/20 (>=18, all-OSC cross-check "
               f"{cross_ok}/{full}), drift CONFINED+stable {confined}/20 "
               f"(=20), heavy two-pole spec FULL {full_heavy}/20 (>=18)")


def test_criterion_11_pruitt_exactness():
    u_log = u_sequence(TailFunction("log_tail"), 64)
    err_log = max(abs(u_log[k] - 1.0 / (k + 1)) for k in range(2, 65))
    alpha = 1.5
    u_poly = u_sequence(TailFunction("poly", alpha), 64)
    err_poly = float(np.max(np.abs(u_poly - (1 - 2.0 ** -alpha))))
    v_log = pruitt_diagnostic(u_log).verdict
    v_poly = pruitt_diagnostic(u_poly).verdict
    ok = (err_log < 1e-12 and err_poly < 1e-12
          and v_log == CONVERGENT_TREND and v_poly == DIVERGENT_TREND)
    _criterion(11, "dyadic hazard ratios exact", ok,
               f"log-tail err {err_log:.2e}, poly err {err_poly:.2e}, "
               f"verdicts {v_log}/{v_poly}")


def test_criterion_12_sampler_tails():
    n = 10**6
    worst = 0.0
    ok = True
    details = []
    for alpha, seed in ((0.5, 5000), (1.5, 5001)):
        draws = np.abs(s_two_sided(alpha).sample(stream(seed), n))
        for r in (2, 4, 8):
            p = r ** -alpha
            bound = 6.0 * math.sqrt(p * (1 - p) / n)
            gap = abs(float(np.mean(draws >= r)) - p)
            worst = max(worst, gap - bound)
            ok &= gap <= bound
            details.append(f"a={alpha} r={r}: gap {gap:.5f} vs {bound:.5f}")
    _criterion(12, "sampler tail frequencies within 6-sigma", ok,
               "; ".join(details[:3]) + " ...")


def test_criterion_13_byte_identical_reruns(tmp_path):
    from walkangles.experiment import load_config, run_experiment
    identical = True
    checked = 0
    for name in ("determinism-drift.json", "determinism-heavy.json"):
        with open(os.path.join(REPO, "configs", name)) as fh:
            text = fh.read()
        a = run_experiment(load_config(text, out_dir=str(tmp_path / name / "a")))
        run_experiment(load_config(text, out_dir=str(tmp_path / name / "b")))
        for f in a.files:
            with open(tmp_path / name / "a" / f, "rb") as fa, \
                    open(tmp_path / name / "b" / f, "rb") as fb:
                same = fa.read() == fb.read()
            identical &= same
            checked += 1
    _criterion(13, "committed configs replay byte-identically", identical,
               f"{checked} artifact files compared across reruns")
