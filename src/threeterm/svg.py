"""Static SVG rendering of a four-circle configuration.

Draws the unit circle, the four tangent circles, the six chords (labeled
d_ij), the six exterior bitangent segments (labeled t_ij), and the six
hyperbolic geodesics between tangency points as circular arcs orthogonal to
the unit circle.  Output is deterministic: fixed element order and fixed
6-decimal coordinate formatting, so golden-file comparisons are stable.
"""

from __future__ import annotations

import math

from .measurements import ConcyclicConfig
from .relations import PAIRS

# Unit circle maps to a 1000x1000 viewport: radius 480 px centered at
# (500, 500), y axis flipped to mathematical orientation.
VIEW = 1000.0
SCALE = 480.0
CENTER = 500.0

# Geodesics between nearly antipodal boundary points degenerate to diameters.
_DIAMETER_TOL = 1e-12


# The prolog, the style sheet and the boundary circle: the same in every document.
_HEAD = "\n".join([
    '<?xml version="1.0" encoding="UTF-8"?>',
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW:.0f}" '
    f'height="{VIEW:.0f}" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">',
    "<style>"
    "circle,line,path{fill:none;stroke:black;stroke-width:1.5}"
    ".chord{stroke:#0088aa}.bitangent{stroke:#aa00aa}"
    ".geodesic{stroke:#aa6600}"
    ".label{font:20px sans-serif;fill:#333;stroke:none}"
    "</style>",
    f'<circle class="boundary" cx="{CENTER:.6f}" cy="{CENTER:.6f}" r="{SCALE:.6f}"/>',
])


def bitangent_segment(
    cfg: ConcyclicConfig, i: int, j: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Endpoints of the exterior bitangent segment between circles i and j.

    The tangent line has unit normal m with <C_j - C_i, m> = r_j - r_i and
    both circles on the same side; of the two such lines we draw the one
    whose segment midpoint lies farther from the origin (the outer one).
    """
    ci, cj = cfg.centers[i - 1], cfg.centers[j - 1]
    ri, rj = cfg.r[i - 1], cfg.r[j - 1]
    dx, dy = cj[0] - ci[0], cj[1] - ci[1]
    c = math.hypot(dx, dy)
    ux, uy = dx / c, dy / c
    cos_psi = (rj - ri) / c
    sin_psi = math.sqrt(max(0.0, 1.0 - cos_psi * cos_psi))
    best = None
    best_dist = -1.0
    for sign in (1.0, -1.0):
        mx = cos_psi * ux - sign * sin_psi * uy
        my = cos_psi * uy + sign * sin_psi * ux
        ti = (ci[0] - ri * mx, ci[1] - ri * my)
        tj = (cj[0] - rj * mx, cj[1] - rj * my)
        mid = math.hypot((ti[0] + tj[0]) / 2.0, (ti[1] + tj[1]) / 2.0)
        if mid > best_dist:
            best_dist = mid
            best = (ti, tj)
    return best


def _geodesic_arc(ai: tuple[float, float], aj: tuple[float, float]):
    """Center and radius of the circle orthogonal to the unit circle through
    the boundary points ai and aj, or None when the geodesic is a diameter.

    The center M solves <A_i, M> = <A_j, M> = 1 (the orthogonality
    condition) and the radius is sqrt(|M|^2 - 1).
    """
    det = ai[0] * aj[1] - ai[1] * aj[0]
    if abs(det) < _DIAMETER_TOL:
        return None
    mx = (aj[1] - ai[1]) / det
    my = (ai[0] - aj[0]) / det
    return (mx, my), math.sqrt(mx * mx + my * my - 1.0)


def render_svg(cfg: ConcyclicConfig) -> str:
    """Render a configuration to a complete SVG document.

    Points map to pixels as (CENTER + SCALE*x, CENTER - SCALE*y); every
    coordinate is written with 6 decimals.
    """
    parts = [_HEAD]
    for (cx, cy), r in zip(cfg.centers, cfg.r):
        parts.append(
            f'<circle class="horocycle" cx="{CENTER + SCALE * cx:.6f}" '
            f'cy="{CENTER - SCALE * cy:.6f}" r="{SCALE * r:.6f}"/>'
        )
    tangency = (None,) + cfg.tangency_points
    px = [None] + [(CENTER + SCALE * x, CENTER - SCALE * y) for x, y in cfg.tangency_points]
    for i, j in PAIRS:
        (ax, ay), (bx, by) = tangency[i], tangency[j]
        (x1, y1), (x2, y2) = px[i], px[j]
        parts.append(
            f'<line class="chord" x1="{x1:.6f}" y1="{y1:.6f}" x2="{x2:.6f}" y2="{y2:.6f}"/>\n'
            f'<text class="label" x="{CENTER + SCALE * ((ax + bx) / 2.0):.6f}" '
            f'y="{CENTER - SCALE * ((ay + by) / 2.0):.6f}">d{i}{j}</text>'
        )
    for i, j in PAIRS:
        (ax, ay), (bx, by) = bitangent_segment(cfg, i, j)
        parts.append(
            f'<line class="bitangent" x1="{CENTER + SCALE * ax:.6f}" '
            f'y1="{CENTER - SCALE * ay:.6f}" x2="{CENTER + SCALE * bx:.6f}" '
            f'y2="{CENTER - SCALE * by:.6f}"/>\n'
            f'<text class="label" x="{CENTER + SCALE * ((ax + bx) / 2.0):.6f}" '
            f'y="{CENTER - SCALE * ((ay + by) / 2.0):.6f}">t{i}{j}</text>'
        )
    for i, j in PAIRS:
        (x1, y1), (x2, y2) = px[i], px[j]
        arc = _geodesic_arc(tangency[i], tangency[j])
        if arc is None:
            parts.append(
                f'<line class="geodesic" x1="{x1:.6f}" y1="{y1:.6f}" '
                f'x2="{x2:.6f}" y2="{y2:.6f}"/>'
            )
            continue
        (mx, my), radius = arc
        (ax, ay), (bx, by) = tangency[i], tangency[j]
        # Minor arc; math-counterclockwise becomes sweep 0 after the y flip.
        sweep = 0 if (ax - mx) * (by - my) - (ay - my) * (bx - mx) > 0 else 1
        rpx = f"{SCALE * radius:.6f}"
        parts.append(
            f'<path class="geodesic" d="M {x1:.6f} {y1:.6f} '
            f'A {rpx} {rpx} 0 0 {sweep} {x2:.6f} {y2:.6f}"/>'
        )
    parts.append("</svg>\n")
    # Every "-" before a digit is a number's sign, so this maps each
    # negative zero to "0.000000" without touching any other number.
    return "\n".join(parts).replace("-0.000000", "0.000000")
