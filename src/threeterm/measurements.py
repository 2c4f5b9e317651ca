"""Measurements of a four-circle configuration inside the unit circle.

A configuration is four circles internally tangent to the unit circle at
points (cos 2a_i, sin 2a_i), arranged counterclockwise and pairwise disjoint.
From it we read off the four families of quantities that each satisfy the
3-term relation: chords d, exterior bitangent lengths t, lambda lengths,
and the 2x2 determinants of the unit half-angle columns.  The families are
connected entrywise by

    t_ij = sqrt(1-r_i) * sqrt(1-r_j) * d_ij
    t_ij = lambda_ij * sqrt(2 r_i) * sqrt(2 r_j)
    d_ij = 2 * P_ij

so each is a torus rescaling of the others, and measure_all() builds them
that way: the chords d once, t as the torus image of d, lambda from t.  The
determinants P, the minors of the half-angle columns, check d = 2P.  The
oracles bitangent_direct and lambda_minkowski return whole families by
independent paths (circle centres, light-cone pairings of the horocycles).

A configuration computes its tangency points and centres once, at
construction.  On first use it builds its four horocycles from those stored
tangency points, with no second cos/sin of the boundary angles, into a slot.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConfigurationError
from .horocycles import _horocycle_at, horocycle_to_circle, lambda_length
from .models import LightConePoint, lightcone_to_boundary
from .relations import _PAIRS0, SixTuple, TorusElement, _Frozen, _minors, torus_apply

# Circles must clear each other by this much to count as disjoint.
DISJOINT_MARGIN = 1e-9


class ConcyclicConfig(_Frozen):
    """Four half-angles (strictly increasing in [0, pi]) and four radii in (0, 1).

    Construction rejects overlapping or tangent circle pairs; every
    measurement below assumes disjointness.  It also sets tangency_points
    (A_i) and centers (C_i), 0-based tuples of (x, y) pairs.  Only alpha
    and r take part in equality and hashing.
    """

    __slots__ = ("alpha", "r", "tangency_points", "centers", "_horocycles")

    def __init__(self, alpha, r):
        alpha, r = tuple(map(float, alpha)), tuple(map(float, r))
        if len(alpha) != 4 or len(r) != 4:
            raise ConfigurationError("expected four half-angles and four radii")
        if not all(map(math.isfinite, alpha + r)):
            raise ConfigurationError("non-finite configuration values")
        a1, a2, a3, a4 = alpha
        if not (0.0 <= a1 and a4 <= math.pi):
            raise ConfigurationError(f"half-angles must lie in [0, pi]: {alpha}")
        if not (a1 < a2 < a3 < a4):
            raise ConfigurationError(f"half-angles must increase strictly: {alpha}")
        if not (0.0 < min(r) and max(r) < 1.0):
            raise ConfigurationError(f"radii must lie in (0, 1): {r}")
        points, centers = [], []
        for a, rk in zip(alpha, r):
            x, y = math.cos(2.0 * a), math.sin(2.0 * a)
            points.append((x, y))
            centers.append(((1.0 - rk) * x, (1.0 - rk) * y))
        for i, j in _PAIRS0:
            (xi, yi), (xj, yj) = centers[i], centers[j]
            gap = math.hypot(xi - xj, yi - yj) - (r[i] + r[j])
            if gap <= DISJOINT_MARGIN:
                raise ConfigurationError(
                    f"circles {i + 1} and {j + 1} overlap (gap {gap:.3e})"
                )
        init = object.__setattr__
        init(self, "alpha", alpha)
        init(self, "r", r)
        init(self, "tangency_points", tuple(points))
        init(self, "centers", tuple(centers))
        init(self, "_horocycles", None)

    def _key(self) -> tuple:
        return self.alpha, self.r

    @classmethod
    def from_lightcone(cls, vectors) -> ConcyclicConfig:
        """The configuration of four horocycles given as light-cone vectors (x, y, z).

        Each half-angle is half the boundary angle of its vector and each
        radius that of its tangent circle.  Boundary angle 0 in last place is
        the wrap of 2*pi, so its half-angle is pi.
        """
        alpha, r = [], []
        for vec in vectors:
            point = LightConePoint(*vec)
            alpha.append(lightcone_to_boundary(point).theta / 2.0)
            r.append(horocycle_to_circle(point).radius)
        if alpha[3] == 0.0:
            alpha[3] = math.pi
        return cls(alpha, r)

    def horocycle(self, i: int) -> LightConePoint:
        """The circle H_i as a horocycle of the Poincare disk: its light-cone point (1-based)."""
        if not 1 <= i <= 4:
            raise IndexError(f"index out of range: {i}")
        horocycles = self._horocycles
        if horocycles is None:
            r1, r2, r3, r4 = self.r
            (x1, y1), (x2, y2), (x3, y3), (x4, y4) = self.tangency_points
            if self.alpha[3] == math.pi:
                # Boundary angle 2*pi is the point (1, 0), as BoundaryPoint
                # wraps it to 0; its stored sine is -2.4e-16.
                y4 = 0.0
            horocycles = (_horocycle_at(x1, y1, r1), _horocycle_at(x2, y2, r2),
                          _horocycle_at(x3, y3, r3), _horocycle_at(x4, y4, r4))
            object.__setattr__(self, "_horocycles", horocycles)
        return horocycles[i - 1]


class MeasurementTable(namedtuple("MeasurementTable", ("d", "t", "lam", "p"))):
    """The four measurement families of a configuration, one SixTuple each."""

    __slots__ = ()


def bitangent_direct(cfg: ConcyclicConfig) -> SixTuple:
    """Independent bitangent oracle: sqrt(c^2 - (r_i - r_j)^2) from the centers, per pair.

    Kept deliberately free of the chord shortcut so it can cross-check
    measure_all's t; c is the distance between the two circle centers.
    """
    values = []
    for i, j in _PAIRS0:
        (xi, yi), (xj, yj) = cfg.centers[i], cfg.centers[j]
        dr = cfg.r[i] - cfg.r[j]
        arg = (xi - xj) ** 2 + (yi - yj) ** 2 - dr * dr
        if arg <= 0.0:
            raise ConfigurationError(f"circles {i + 1} and {j + 1} admit no exterior bitangent")
        values.append(math.sqrt(arg))
    return SixTuple(*values)


def lambda_minkowski(cfg: ConcyclicConfig) -> SixTuple:
    """Lambda lengths via the light-cone pairing; independent of the bitangent path."""
    h1, h2, h3, h4 = cfg.horocycle(1), cfg.horocycle(2), cfg.horocycle(3), cfg.horocycle(4)
    return SixTuple(lambda_length(h1, h2), lambda_length(h1, h3), lambda_length(h1, h4),
                    lambda_length(h2, h3), lambda_length(h2, h4), lambda_length(h3, h4))


def measure_all(cfg: ConcyclicConfig) -> MeasurementTable:
    """All four measurement families, indexed in the order 12,13,14,23,24,34.

    d_ij = 2 sin(a_j - a_i); t is the torus image of d under
    q_i = sqrt(1 - r_i); lambda_ij = t_ij / (sqrt(2 r_i) sqrt(2 r_j)); and
    P_ij = cos a_i sin a_j - cos a_j sin a_i, the minors of the unit
    half-angle columns, which equal d_ij / 2.
    """
    a1, a2, a3, a4 = cfg.alpha
    r1, r2, r3, r4 = cfg.r
    sin, cos, sqrt = math.sin, math.cos, math.sqrt
    d = SixTuple(2.0 * sin(a2 - a1), 2.0 * sin(a3 - a1), 2.0 * sin(a4 - a1),
                 2.0 * sin(a3 - a2), 2.0 * sin(a4 - a2), 2.0 * sin(a4 - a3))
    t = torus_apply(TorusElement(sqrt(1.0 - r1), sqrt(1.0 - r2), sqrt(1.0 - r3), sqrt(1.0 - r4)), d)
    s1, s2, s3, s4 = sqrt(2.0 * r1), sqrt(2.0 * r2), sqrt(2.0 * r3), sqrt(2.0 * r4)
    t12, t13, t14, t23, t24, t34 = t
    # Divide by s_i*s_j rather than multiply by the torus inverse, which
    # would round differently and change the reported lambda lengths.
    lam = SixTuple(t12 / (s1 * s2), t13 / (s1 * s3), t14 / (s1 * s4),
                   t23 / (s2 * s3), t24 / (s2 * s4), t34 / (s3 * s4))
    p = SixTuple(*_minors((cos(a1), sin(a1)), (cos(a2), sin(a2)),
                          (cos(a3), sin(a3)), (cos(a4), sin(a4))))
    return MeasurementTable(d, t, lam, p)
