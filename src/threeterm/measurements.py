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
"""

from __future__ import annotations

import math

from .errors import ConfigurationError
from .horocycles import _horocycle_at, horocycle_to_circle, lambda_length
from .models import LightConePoint, lightcone_to_boundary
from .relations import _PAIRS0, SixTuple, TorusElement, _minors, _Named, torus_apply

# Circles must clear each other by this much to count as disjoint.  It is
# absolute because every length here is at most 2, the disk's diameter.  Its
# basis: the computed gap errs by a few u (about 20u at most; 3.6u was the
# worst of 20 000 random pairs), some 1e-15, and a change of e in a half-angle
# or a radius moves the gap by at most 2e.  1e-9 sits some 1e6 times above that
# rounding error, and a tangent pair whose four inputs are given to ten
# decimal places (e up to 5e-11, the gap moved by at most 4e-10) still fails.
DISJOINT_MARGIN = 1e-9


class ConcyclicConfig:
    """Four half-angles (strictly increasing in [0, pi]) and four radii in (0, 1).

    Construction rejects overlapping or tangent circle pairs; every
    measurement below assumes disjointness.  It also sets tangency_points
    (A_i) and centers (C_i), 0-based tuples of (x, y) pairs, once.  As
    tuple entries they would take part in equality, and a tuple subclass has
    no slots, so it is the one value type that is not a _Named tuple.  It
    equals, hashes and rebuilds by __reduce__: ConcyclicConfig(alpha, r).
    """

    __slots__ = ("alpha", "r", "tangency_points", "centers")

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
                raise ConfigurationError(f"circles {i + 1} and {j + 1} overlap (gap {gap:.3e})")
        init = object.__setattr__
        init(self, "alpha", alpha)
        init(self, "r", r)
        init(self, "tangency_points", tuple(points))
        init(self, "centers", tuple(centers))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ConcyclicConfig is immutable: {name}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = type(other) is type(self)
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        return f"{type(self).__name__}({self.alpha!r}, {self.r!r})"

    def __reduce__(self):
        return type(self), (self.alpha, self.r)

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
        """The circle H_i as a horocycle, from its stored tangency point, no cos/sin (1-based)."""
        if not 1 <= i <= 4:
            raise IndexError(f"index out of range: {i}")
        x, y = self.tangency_points[i - 1]
        if i == 4 and self.alpha[3] == math.pi:
            # Boundary angle 2*pi is the point (1, 0), as BoundaryPoint wraps
            # it to 0; its stored sine is -2.4e-16.
            y = 0.0
        return _horocycle_at(x, y, self.r[i - 1])


class MeasurementTable(_Named):
    """The four measurement families of a configuration, one SixTuple each."""

    __slots__ = ()
    _fields = ("d", "t", "lam", "p")

    def __new__(cls, d, t, lam, p):
        return tuple.__new__(cls, (SixTuple(*d), SixTuple(*t), SixTuple(*lam), SixTuple(*p)))


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
    d = (2.0 * sin(a2 - a1), 2.0 * sin(a3 - a1), 2.0 * sin(a4 - a1),
         2.0 * sin(a3 - a2), 2.0 * sin(a4 - a2), 2.0 * sin(a4 - a3))
    t = torus_apply(TorusElement(sqrt(1.0 - r1), sqrt(1.0 - r2), sqrt(1.0 - r3), sqrt(1.0 - r4)), d)
    s1, s2, s3, s4 = sqrt(2.0 * r1), sqrt(2.0 * r2), sqrt(2.0 * r3), sqrt(2.0 * r4)
    t12, t13, t14, t23, t24, t34 = t
    # Divide by s_i*s_j rather than multiply by the torus inverse, which
    # would round differently and change the reported lambda lengths.
    lam = (t12 / (s1 * s2), t13 / (s1 * s3), t14 / (s1 * s4),
           t23 / (s2 * s3), t24 / (s2 * s4), t34 / (s3 * s4))
    p = _minors((cos(a1), sin(a1)), (cos(a2), sin(a2)), (cos(a3), sin(a3)), (cos(a4), sin(a4)))
    # The table makes each family a checked SixTuple.
    return MeasurementTable(d, t, lam, p)
