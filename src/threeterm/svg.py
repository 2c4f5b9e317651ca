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
from .relations import _PAIRS0, PAIRS, _minors

# Unit circle maps to a 1000x1000 viewport: radius 480 px centered at
# (500, 500), y axis flipped to mathematical orientation.
VIEW = 1000.0
SCALE = 480.0
CENTER = 500.0

# A geodesic whose boundary points A_i, A_j have |det| = |A_i x A_j| below
# this is drawn as a straight line.  With phi the angle between them, its arc
# departs from the chord by |det| / (2 (1 + sin(phi/2))) < |det|/2 in the
# disk: nearly antipodal points give an orthogonal circle of radius above
# 1e12, nearly coincident ones a chord shorter than about |det|.  That is
# below 5e-13, or 2.4e-10 px, far under the 1e-6 px the SVG prints.
_DIAMETER_TOL = 1e-12


def _segment(cls: str, label: str, end: str) -> str:
    return (f'<line class="{cls}" x1="{end}" y1="{end}" x2="{end}" y2="{end}"/>\n'
            f'<text class="label" x="%.6f" y="%.6f">{label}</text>')


# Everything up to the geodesics, which choose between a line and an arc:
# the prolog, the style sheet and the boundary circle, then the 4 horocycles
# (cx, cy, r), the 6 chords and the 6 bitangents (two endpoints and a label
# position each), filled from one flat tuple.  The chords' endpoints are the
# tangency points, each formatted once and filled in as strings.
_TEMPLATE = "\n".join([
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
    *['<circle class="horocycle" cx="%.6f" cy="%.6f" r="%.6f"/>'] * 4,
    *[_segment("chord", f"d{i}{j}", "%s") for i, j in PAIRS],
    *[_segment("bitangent", f"t{i}{j}", "%.6f") for i, j in PAIRS],
    "",
])
_GEODESIC_LINE = '<line class="geodesic" x1="%s" y1="%s" x2="%s" y2="%s"/>'
_GEODESIC_ARC = '<path class="geodesic" d="M %s %s A %s %s 0 0 %d %s %s"/>'


def _bitangent_segments(cfg: ConcyclicConfig, values: list) -> None:
    """Append the six exterior bitangent segments to values, in pixels and pair order.

    Each segment is (x_i, y_i, x_j, y_j, hx, hy): the points of tangency on
    circles i and j and the segment's midpoint.  The tangent line has unit
    normal m with <C_j - C_i, m> = r_j - r_i and both circles on the same
    side; of the two such lines we take the one whose segment midpoint lies
    strictly farther from the origin (the outer one), else the first.
    """
    centers, r = cfg.centers, cfg.r
    hypot, sqrt = math.hypot, math.sqrt
    for i, j in _PAIRS0:
        (cix, ciy), (cjx, cjy) = centers[i], centers[j]
        ri, rj = r[i], r[j]
        dx, dy = cjx - cix, cjy - ciy
        c = hypot(dx, dy)
        ux, uy = dx / c, dy / c
        cos_psi = (rj - ri) / c
        sin_psi = sqrt(max(0.0, 1.0 - cos_psi * cos_psi))
        a, b = cos_psi * ux, sin_psi * uy
        e, f = cos_psi * uy, sin_psi * ux
        mx, my = a - b, e + f
        tix, tiy, tjx, tjy = cix - ri * mx, ciy - ri * my, cjx - rj * mx, cjy - rj * my
        hx, hy = (tix + tjx) / 2.0, (tiy + tjy) / 2.0
        mx, my = a + b, e - f
        six, siy, sjx, sjy = cix - ri * mx, ciy - ri * my, cjx - rj * mx, cjy - rj * my
        gx, gy = (six + sjx) / 2.0, (siy + sjy) / 2.0
        if hypot(gx, gy) > hypot(hx, hy):
            tix, tiy, tjx, tjy, hx, hy = six, siy, sjx, sjy, gx, gy
        values += (CENTER + SCALE * tix, CENTER - SCALE * tiy, CENTER + SCALE * tjx,
                   CENTER - SCALE * tjy, CENTER + SCALE * hx, CENTER - SCALE * hy)


def render_svg(cfg: ConcyclicConfig) -> str:
    """Render a configuration to a complete SVG document.

    Points map to pixels as (CENTER + SCALE*x, CENTER - SCALE*y); every
    coordinate is written with 6 decimals.
    """
    values = []
    for (cx, cy), r in zip(cfg.centers, cfg.r):
        values += (CENTER + SCALE * cx, CENTER - SCALE * cy, SCALE * r)
    points = cfg.tangency_points
    px = [("%.6f" % (CENTER + SCALE * x), "%.6f" % (CENTER - SCALE * y)) for x, y in points]
    geodesics = []
    for (i, j), det in zip(_PAIRS0, _minors(*points)):
        (ax, ay), (bx, by) = points[i], points[j]
        values += (*px[i], *px[j],
                   CENTER + SCALE * ((ax + bx) / 2.0), CENTER - SCALE * ((ay + by) / 2.0))
        # The circle orthogonal to the unit circle through A_i and A_j has the
        # center M = (b_y - a_y, a_x - b_x) / det, where <A_i, M> = <A_j, M> = 1,
        # and radius sqrt(|M|^2 - 1).  With |A_i| = |A_j| = 1, |M|^2 - 1 is
        # (|A_j - A_i|^2 - det^2) / det^2 = (|A_j - A_i|^2 / (2 det))^2, so the
        # radius is |A_j - A_i|^2 / (2 |det|), with no |M|^2 - 1 to cancel.
        if abs(det) < _DIAMETER_TOL:
            geodesics.append(_GEODESIC_LINE % (*px[i], *px[j]))
            continue
        dx, dy = bx - ax, by - ay
        rpx = "%.6f" % (SCALE * (dx * dx + dy * dy) / (2.0 * abs(det)))
        # Minor arc.  (A_i - M) x (A_j - M) = (det^2 - |A_j - A_i|^2) / det has
        # the sign of -det: the arc is math-counterclockwise, sweep 0 after the
        # y flip, exactly when det < 0.
        sweep = 1 if det > 0 else 0
        geodesics.append(_GEODESIC_ARC % (*px[i], rpx, rpx, sweep, *px[j]))
    _bitangent_segments(cfg, values)
    geodesics.append("</svg>\n")
    # Every "-" before a digit is a number's sign, so this maps each
    # negative zero to "0.000000" without touching any other number.
    return (_TEMPLATE % tuple(values) + "\n".join(geodesics)).replace("-0.000000", "0.000000")
