"""Spherical geometry: hat map, interpolation, caps, hulls, grids."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walkangles.sphere import (MAX_GRID_M, Cap, cap_contains, chord, direction_grid,
                               hat, interpolate, normalize, normalize_rows, s_hull)

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_hat_examples():
    assert np.allclose(hat([3, 4]), [0.6, 0.8])
    assert np.array_equal(hat([0, 0]), [0.0, 0.0])
    assert np.allclose(hat([-2, 0]), [-1.0, 0.0])


# ---------------------------------------------------------------------------
# the normalizer: bit for bit the expressions it replaced

def one_vector_reference(x):
    """``(direction, norm, log-norm)`` from the walk's former ``_norm_parts``
    and the ``WalkState`` expressions that combined its parts."""
    v = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(v))
    peak = 1.0
    if math.isinf(r) and np.isfinite(v).all():
        peak = float(np.abs(v).max())
        r = float(np.linalg.norm(v / peak))
    if r == 0.0:
        return np.zeros(len(v)), peak * r, -math.inf
    return v / peak / r, peak * r, math.log(peak) + math.log(r)


def left_to_right_norms(fpos):
    """Each row's ``sqrt((x0*x0 + x1*x1) + ...)``, summed in Python floats."""
    sums = []
    for row in fpos.tolist():
        total = 0.0
        for x in row:
            total += x * x
        sums.append(total)
    return np.sqrt(np.array(sums).reshape(len(fpos)))


def rows_reference(fpos, norm):
    """``(dirs, log_norms)`` from the engine's former block code, with
    ``norm(rows)`` in place of its ``np.linalg.norm(rows, axis=1)``."""
    with np.errstate(over="ignore"):
        norms = norm(fpos)
    with np.errstate(divide="ignore"):
        log_norms = np.where(norms > 0.0, np.log(np.where(norms > 0, norms, 1.0)), -math.inf)
    dirs = np.where(norms[:, None] > 0.0,
                    fpos / np.where(norms[:, None] > 0, norms[:, None], 1.0), 0.0)
    huge = np.isinf(norms)
    if huge.any():
        peak = np.abs(fpos[huge]).max(axis=1, keepdims=True)
        scaled = fpos[huge] / peak
        sub = norm(scaled)[:, None]
        dirs[huge] = scaled / sub
        log_norms[huge] = np.log(peak[:, 0]) + np.log(sub[:, 0])
    return dirs, log_norms


# coordinates up to 1e300 keep every norm finite at d <= 9, while their
# squares overflow past about 1.3e154 and take the rescaled branch
COORD = st.one_of(st.floats(-1e300, 1e300), st.integers(-2**62, 2**62).map(float),
                  st.sampled_from([0.0, -0.0, 5e-324, 1e160, -3e200]))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(COORD, min_size=1, max_size=5))
def test_normalize_is_the_former_expressions(x):
    got, ref = normalize(x), one_vector_reference(x)
    assert all(same_bits(g, r) for g, r in zip(got, ref))
    with np.errstate(over="ignore"):
        n = np.linalg.norm(x)       # the former hat: x / n
    if 0.0 < n < math.inf:
        assert same_bits(hat(x), np.asarray(x) / n)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda d: st.lists(st.lists(COORD, min_size=d, max_size=d), min_size=1, max_size=12)))
def test_normalize_rows_is_the_former_block_code(rows):
    # the row norm is the left-to-right sum at every d; below 8 coordinates
    # that is numpy's row reduction, so the former block code's bytes hold
    rows = np.array(rows)
    dirs, norms, log_norms = normalize_rows(rows)
    with np.errstate(over="ignore"):
        fixed = left_to_right_norms(rows)
        plain = np.linalg.norm(rows, axis=1)
    if rows.shape[1] <= 7:
        assert same_bits(fixed, plain)
    ref_dirs, ref_logs = rows_reference(rows, left_to_right_norms)
    assert same_bits(dirs, ref_dirs) and same_bits(log_norms, ref_logs)
    fits = np.isfinite(fixed)
    assert same_bits(norms[fits], fixed[fits])
    # the former grid candidates and log-engine rows: rows / norms, c + log
    nonzero = fits & (fixed > 0)
    assert same_bits(dirs[nonzero], rows[nonzero] / fixed[nonzero, None])
    assert same_bits(2.5 + log_norms[nonzero], 2.5 + np.log(fixed[nonzero]))


@pytest.mark.parametrize("d", [8, 9])
def test_row_norms_stay_left_to_right_past_seven_coordinates(d):
    # from 8 entries on numpy's row reduction sums in another order, which
    # rows of mixed magnitudes tell apart; the row norm does not change order
    rng = np.random.default_rng(d)
    rows = rng.standard_normal((2000, d)) * 10.0 ** rng.uniform(-3, 3, (2000, d))
    fixed = left_to_right_norms(rows)
    assert not same_bits(np.linalg.norm(rows, axis=1), fixed)
    assert same_bits(normalize_rows(rows)[1], fixed)


def test_normalize_zero_vector():
    assert same_bits(normalize([0.0, 0.0])[0], [0.0, 0.0])
    assert normalize([0, 0, 0])[1:] == (0.0, -math.inf)
    dirs, norms, log_norms = normalize_rows([[0.0, 0.0], [3.0, 4.0]])
    assert same_bits(dirs, [[0.0, 0.0], [0.6, 0.8]])
    assert same_bits(norms, [0.0, 5.0]) and same_bits(log_norms, [-math.inf, math.log(5.0)])


@pytest.mark.parametrize("x", [[1e200, 1e200], [1e308, -1e308, 3.0]])
def test_hat_of_overflowing_vector_is_unit(x):
    # |x|^2 overflows; the suite turns the overflow warning into an error
    u = hat(x)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-15
    assert np.allclose(u, np.sign(x) * (np.abs(x) == max(np.abs(x))) / math.sqrt(2.0))
    assert np.array_equal(normalize_rows([x])[0][0], u)


def test_cap_contains_overflowing_point():
    center = np.array([math.sqrt(0.5), math.sqrt(0.5)])
    assert cap_contains(Cap(tuple(center), 0.1), 1e200 * center)


def test_interpolate_examples():
    mid = interpolate(E1, E2, 0.5)
    assert np.allclose(mid, [1 / math.sqrt(2)] * 2, atol=1e-15)
    assert np.array_equal(interpolate(E1, -E1, 0.5), [0.0, 0.0])
    v = np.array([0.8, 0.6])
    assert np.array_equal(interpolate(E1, v, 0.0), v)


def test_interpolate_antipodal_off_half():
    # alpha != 1/2 on an antipodal pair still has a direction
    assert np.allclose(interpolate(E1, -E1, 0.75), E1)
    assert np.allclose(interpolate(E1, -E1, 0.25), -E1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 2**20), st.integers(0, 10**6))
def test_interpolate_swap_symmetry_dyadic(num, angle_seed):
    # for dyadic alpha the complement 1 - alpha is exact, so the swapped
    # call must agree bitwise
    alpha = num / 2**20
    theta = angle_seed * 2.0 * math.pi / 10**6
    u = np.array([math.cos(theta), math.sin(theta)])
    v = np.array([math.cos(2.7 * theta + 0.3), math.sin(2.7 * theta + 0.3)])
    a = interpolate(u, v, alpha)
    b = interpolate(v, u, 1.0 - alpha)
    assert np.array_equal(a, b)


def test_chord_identity_random_pairs():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((10**4, 3))
    us = rng.standard_normal((10**4, 3))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    hats = xs / np.linalg.norm(xs, axis=1, keepdims=True)
    lhs = np.linalg.norm(hats - us, axis=1) ** 2
    rhs = 2.0 - 2.0 * np.sum(hats * us, axis=1)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_cap_semantics():
    assert not cap_contains(Cap((1.0, 0.0), 2.0), -E1)   # strict at chord 2
    rng = np.random.default_rng(1)
    wide = Cap((1.0, 0.0), 2.1)
    for _ in range(50):
        x = rng.standard_normal(2)
        assert cap_contains(wide, x)
    assert not cap_contains(wide, [0.0, 0.0])
    assert not cap_contains(Cap((1.0, 0.0), 0.5), [0.0, 0.0])
    with pytest.raises(ValueError):
        Cap((1.0, 0.0), 0.0)


# ---------------------------------------------------------------------------
# planar hulls

def test_singleton_hull():
    h = s_hull([E1])
    assert h.contains(E1)
    assert not h.contains(E2)
    assert h.arcs == [(0.0, 0.0)]


def test_antipodal_pair_hull():
    h = s_hull([E1, -E1])
    assert h.contains(E1) and h.contains(-E1)
    assert not h.contains(E2) and not h.contains(-E2)
    assert not h.contains(unit([1, 0.01]))
    assert len(h.arcs) == 2


def test_quarter_arc_hull_brute_force():
    h = s_hull([E1, E2])
    rng = np.random.default_rng(2)
    lam = rng.random(10**4)
    pts = lam[:, None] * E1 + (1 - lam[:, None]) * E2
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert h.contains_many(pts).all()
    # the normalized combinations densely fill the arc
    angles = np.sort(np.arctan2(pts[:, 1], pts[:, 0]))
    gaps = np.diff(np.concatenate([[0.0], angles, [math.pi / 2]]))
    assert gaps.max() < 0.02
    assert h.contains(unit([1, 1]))
    assert not h.contains(-E1)
    assert not h.contains(unit([1, -0.1]))


def test_half_disc_hull_excludes_minus_e2():
    h = s_hull([E1, -E1, E2])
    assert h.contains(E2) and h.contains(E1) and h.contains(-E1)
    assert h.contains(unit([0.3, 0.95]))
    assert not h.contains(-E2)
    assert not h.contains(unit([0.5, -0.5]))


def test_full_circle_hull():
    h = s_hull([E1, -E1, E2, -E2])
    assert h.is_full_sphere()
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((100, 2))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert h.contains_many(pts).all()


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        s_hull(np.empty((0, 2)))


@pytest.mark.parametrize("gens", [
    [[math.nan, 1.0]], [[math.inf, 1.0]], [[math.nan, 0.0, 1.0], [1.0, 0.0, 0.0]],
], ids=["nan-d2", "inf-d2", "nan-d3"])
def test_non_finite_generators_rejected(gens):
    with pytest.raises(ValueError, match="finite unit vectors"):
        s_hull(gens)


def test_boundary_descriptions():
    b = s_hull([E1, E2]).boundary()
    ends = sorted(tuple(np.round(p, 9)) for p in b)
    assert len(ends) == 2
    assert np.allclose(ends[0], [0.0, 1.0], atol=1e-9)
    assert np.allclose(ends[1], [1.0, 0.0], atol=1e-9)
    assert s_hull([E1, -E1, E2, -E2]).boundary() == []
    pair = s_hull([E1, -E1]).boundary()
    assert len(pair) == 2     # two isolated points are their own boundary


def test_boundary_3d_facet_arcs():
    h = s_hull(np.eye(3))
    edges = h.boundary()
    assert len(edges) == 3
    for e in edges:
        assert abs(np.linalg.norm(e["start"]) - 1) < 1e-9
        assert abs(np.linalg.norm(e["via"]) - 1) < 1e-9


def test_arcs_json():
    import json
    arcs = json.loads(s_hull([E1, E2]).to_json())
    assert arcs == [[0.0, math.pi / 2]]
    full = json.loads(s_hull([E1, -E1, E2, -E2]).to_json())
    assert full == [[0.0, 2 * math.pi]]


# ---------------------------------------------------------------------------
# conical membership, higher dimensions

@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 10**6))
def test_conical_combination_closure(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    m = int(rng.integers(1, 7))
    gens = rng.standard_normal((m, d))
    gens /= np.linalg.norm(gens, axis=1, keepdims=True)
    h = s_hull(gens)
    beta = rng.exponential(size=(200, m))
    pts = beta @ gens
    keep = np.linalg.norm(pts, axis=1) > 1e-9
    pts = pts[keep] / np.linalg.norm(pts[keep], axis=1, keepdims=True)
    assert h.contains_many(pts).all()


def test_membership_idempotent_under_resampling():
    rng = np.random.default_rng(7)
    gens = rng.standard_normal((4, 3))
    gens /= np.linalg.norm(gens, axis=1, keepdims=True)
    h = s_hull(gens)
    sample = rng.dirichlet(np.ones(4), size=500) @ gens
    sample /= np.linalg.norm(sample, axis=1, keepdims=True)
    h2 = s_hull(sample)
    probes = rng.standard_normal((500, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    a = h.contains_many(probes)
    b = h2.contains_many(probes)
    # the resampled hull is a subset; disagreements sit near the boundary
    assert not np.any(b & ~a)
    disagree = probes[a & ~b]
    if len(disagree):
        dist = np.min(np.linalg.norm(disagree[:, None, :] - sample[None], axis=2),
                      axis=1)
        assert dist.max() < 0.25


def test_membership_matches_lp_oracle():
    # independent route: w is a member iff G^T beta = w has a solution with
    # beta >= 0, decided here by an LP solver instead of facet geometry
    from scipy.optimize import linprog
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(25):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        gens = rng.standard_normal((m, d))
        gens /= np.linalg.norm(gens, axis=1, keepdims=True)
        h = s_hull(gens)
        probes = rng.standard_normal((40, d))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        for w in probes:
            res = linprog(np.zeros(m), A_eq=gens.T, b_eq=w,
                          bounds=[(0, None)] * m, method="highs")
            lp_member = res.status == 0
            ours = h.contains(w)
            # skip hair-thin boundary cases where the two tolerances differ
            if lp_member != ours:
                res2 = linprog(np.zeros(m), A_eq=gens.T, b_eq=w * (1 - 1e-6),
                               bounds=[(0, None)] * m, method="highs")
                assert res2.status == 0 or not ours
                continue
            checked += 1
    assert checked > 500


def test_generators_always_members():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        gens = rng.standard_normal((int(rng.integers(1, 7)), d))
        gens /= np.linalg.norm(gens, axis=1, keepdims=True)
        h = s_hull(gens)
        assert h.contains_many(gens).all()
        # permutation and duplication do not change membership
        doubled = np.vstack([gens[::-1], gens])
        h2 = s_hull(doubled)
        probes = rng.standard_normal((100, d))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        assert np.array_equal(h.contains_many(probes), h2.contains_many(probes))


def test_3d_line_and_halfplane():
    h = s_hull([[1.0, 0, 0], [-1.0, 0, 0]])
    assert h.contains([1, 0, 0]) and h.contains([-1, 0, 0])
    assert not h.contains([0, 1, 0])
    h2 = s_hull([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])
    assert h2.contains(unit([0.5, 0.5, 0]))
    assert not h2.contains([0, -1.0, 0])
    assert not h2.contains([0, 0, 1.0])


# ---------------------------------------------------------------------------
# direction grids

def test_grid_2d_m4_exact():
    g = direction_grid(2, 4)
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(g, expected, atol=1e-12)


def test_grid_unit_norm():
    for d, m in ((2, 64), (3, 100), (4, 256)):
        g = direction_grid(d, m, seed=0)
        assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1)) < 1e-12


def test_grid_3d_separation_pinned():
    g = direction_grid(3, 100, seed=0)
    dists = np.linalg.norm(g[:, None, :] - g[None, :, :], axis=2)
    np.fill_diagonal(dists, 10.0)
    # measured once for this generator and pinned: 0.2329
    assert dists.min() > 0.15


def test_grid_deterministic():
    a = direction_grid(4, 64, seed=9)
    b = direction_grid(4, 64, seed=9)
    assert np.array_equal(a, b)
    c = direction_grid(4, 64, seed=10)
    assert not np.array_equal(a, c)


def test_grid_built_once_per_key():
    g = direction_grid(3, 16)
    assert direction_grid(3, 16) is g
    # the key is normalized to plain ints, so a default seed and numpy ints share it
    assert direction_grid(3, 16, 0) is g
    assert direction_grid(np.int64(3), np.int32(16), np.int64(0)) is g
    assert direction_grid(3, 16, 1) is not g
    assert direction_grid(2, 16) is direction_grid(2, 16)


@pytest.mark.parametrize("d", [2, 3])
def test_grid_read_only(d):
    g = direction_grid(d, 16)
    with pytest.raises(ValueError, match="read-only"):
        g[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        g *= 2.0
    assert np.max(np.abs(np.linalg.norm(direction_grid(d, 16), axis=1) - 1)) < 1e-12


# sha256 of the grids' bytes as built before grids were cached, so a cache
# that outlived a change of the generator could not hide it
GRID_SHA256 = {
    (3, 256, 0): "51fe046b946212d465551f9eff93fc8fca27a698b44dee0e740446baabe55e62",
    (3, 64, 0): "f9d81a4035db0bbe69a7133db674ed64cf9cd5b27b5c98699d9ad4c99e0eed91",
}


@pytest.mark.parametrize("key", sorted(GRID_SHA256), ids=str)
def test_grid_bytes_pinned(key):
    g = direction_grid(*key)
    assert g.dtype == np.float64 and g.shape == key[1::-1]
    assert hashlib.sha256(g.tobytes()).hexdigest() == GRID_SHA256[key]


@pytest.mark.parametrize("m", [0, MAX_GRID_M + 1, 10**20])
def test_grid_size_bounded(m):
    # rejected before anything is allocated
    with pytest.raises(ValueError, match="grid size"):
        direction_grid(3, m)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_grids_nest_bitwise(d):
    # a hull reads its grid's columns from the projection ladder only where
    # its rows are rows of the ladder's grid, byte for byte
    big = direction_grid(d, 64)
    for m, step in ((16, 4), (32, 2)):
        rows = big[::step] if d == 2 else big[:m]
        assert rows.tobytes() == direction_grid(d, m).tobytes()

def test_functional_op_surface():
    h = s_hull([E1, E2])
    assert h.contains(unit([1, 1]))
    assert not h.contains(-E1)
    assert chord(E1, E2) == pytest.approx(math.sqrt(2.0))
