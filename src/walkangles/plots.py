"""Self-contained SVG emitters; no plotting library, deterministic bytes.

Three figure kinds: a planar trajectory trace (polyline through checkpoint
or dense positions), a direction rose (one wedge per grid point colored by
verdict), and an inscribed-radius growth curve.
"""
from __future__ import annotations

import math

import numpy as np

from .directions import VERDICT_NAMES

__all__ = ["trajectory_svg", "rose_svg", "radius_svg"]

_SIZE = 480
_PAD = 24

_HEADER = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
           f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">\n')
_STYLE = ('<style>.trace{fill:none;stroke:#1f77b4;stroke-width:1.5}'
          '.axis{stroke:#999;stroke-width:1}'
          '.in{fill:#2ca02c}.out{fill:#d62728}.undecided{fill:#bbbbbb}'
          '.curve{fill:none;stroke:#d62728;stroke-width:2}</style>\n')


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def trajectory_svg(positions) -> str:
    """Polyline through planar positions, scaled into the viewport."""
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    if pts.size == 0:
        raise ValueError("cannot plot an empty trajectory")
    if pts.shape[1] != 2:
        raise ValueError("trajectory plots are planar only")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = (_SIZE - 2 * _PAD) / span.max()
    mid = (hi + lo) / 2.0
    xy = (pts - mid) * scale
    xy[:, 1] *= -1.0
    xy += _SIZE / 2.0
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in xy)
    return (_HEADER + _STYLE
            + f'<polyline class="trace" points="{coords}"/>\n</svg>\n')


def rose_svg(grid, verdicts) -> str:
    """One wedge per planar grid direction, colored by verdict."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("cannot plot an empty direction estimate")
    if grid.shape[1] != 2:
        raise ValueError("rose plots are planar only")
    cx = cy = _SIZE / 2.0
    r_in, r_out = 0.35 * _SIZE / 2.0, 0.92 * _SIZE / 2.0
    m = len(grid)
    width = math.pi / m   # half the angular spacing
    parts = [_HEADER, _STYLE]
    for i, g in enumerate(grid):
        theta = math.atan2(g[1], g[0])
        a0, a1 = theta - width, theta + width
        x0, y0 = cx + r_in * math.cos(a0), cy - r_in * math.sin(a0)
        x1, y1 = cx + r_out * math.cos(a0), cy - r_out * math.sin(a0)
        x2, y2 = cx + r_out * math.cos(a1), cy - r_out * math.sin(a1)
        x3, y3 = cx + r_in * math.cos(a1), cy - r_in * math.sin(a1)
        cls = VERDICT_NAMES[int(verdicts[i])].lower()
        parts.append(
            f'<path class="{cls}" d="M {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y1)} '
            f'A {_fmt(r_out)} {_fmt(r_out)} 0 0 0 {_fmt(x2)} {_fmt(y2)} '
            f'L {_fmt(x3)} {_fmt(y3)} '
            f'A {_fmt(r_in)} {_fmt(r_in)} 0 0 1 {_fmt(x0)} {_fmt(y0)} Z"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)


def radius_svg(ns, radii) -> str:
    """Inscribed-radius growth curve over log2(n)."""
    ns = np.asarray(ns, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if ns.size == 0:
        raise ValueError("cannot plot an empty radius series")
    xs = np.log2(np.maximum(ns, 1.0))
    x_span = max(float(xs.max() - xs.min()), 1e-12)
    y_span = max(float(radii.max()), 1e-12)
    px = _PAD + (xs - xs.min()) / x_span * (_SIZE - 2 * _PAD)
    py = _SIZE - _PAD - radii / y_span * (_SIZE - 2 * _PAD)
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(px, py))
    axis = (f'<line class="axis" x1="{_PAD}" y1="{_SIZE-_PAD}" '
            f'x2="{_SIZE-_PAD}" y2="{_SIZE-_PAD}"/>\n'
            f'<line class="axis" x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" '
            f'y2="{_SIZE-_PAD}"/>\n')
    return (_HEADER + _STYLE + axis
            + f'<polyline class="curve" points="{coords}"/>\n</svg>\n')

