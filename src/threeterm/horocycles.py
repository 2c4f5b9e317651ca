"""Horocycles as light-cone points, Euclidean circle views, and lambda lengths.

A horocycle is its point u of the positive light cone: horocycle_from_tangency
returns that LightConePoint, a checked (x, y, z) tuple, and
horocycle_to_circle derives the tangent EuclideanCircle in the disk from it.
The Minkowski pairing does all the metric work: lambda(u1, u2) =
sqrt(-<u1, u2>), a plain float that exceeds 1 exactly when the two
horocycles are disjoint.
"""

from __future__ import annotations

import math

from .errors import DegenerateError, DomainError
from .models import BoundaryPoint, LightConePoint
from .relations import _Named

SQRT2 = math.sqrt(2.0)

# Pairings smaller than this times z1*z2 count as a common ray.
COMMON_RAY_TOL = 1e-12


class EuclideanCircle(_Named):
    """A Euclidean circle in the unit-disk picture: its center (x, y) and radius."""

    __slots__ = ()
    _fields = ("center", "radius")

    def __new__(cls, center, radius):
        if radius <= 0.0 or not math.isfinite(radius):
            raise DomainError(f"circle radius must be positive: {radius}")
        return tuple.__new__(cls, (center, radius))


def horocycle_to_circle(h: LightConePoint) -> EuclideanCircle:
    """The tangent circle in the disk: radius 1/(1 + z*sqrt(2)), tangent at u's ideal point."""
    x, y, z = h
    radius = 1.0 / (1.0 + z * SQRT2)
    cx, cy = x / z, y / z
    return EuclideanCircle(((1.0 - radius) * cx, (1.0 - radius) * cy), radius)


def horocycle_from_tangency(theta: BoundaryPoint, r: float) -> LightConePoint:
    """Horocycle tangent to the unit circle at angle theta with Euclidean radius r.

    Inverts the radius formula: z = (1/r - 1)/sqrt(2).  r = 1 would force
    z = 0, which is not on the open cone, so r must lie in (0, 1).
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"tangent circle radius must lie in (0, 1): {r}")
    c = theta.as_complex()
    return _horocycle_at(c.real, c.imag, r)


def _horocycle_at(x: float, y: float, r: float) -> LightConePoint:
    """The horocycle tangent at the unit boundary point (x, y) with radius r in (0, 1)."""
    z = (1.0 / r - 1.0) / SQRT2
    x, y = z * x, z * y
    # The third component is hypot(x, y) already, so LightConePoint keeps this tuple.
    return LightConePoint(x, y, math.hypot(x, y))


def lambda_length(h1: LightConePoint, h2: LightConePoint) -> float:
    """Lambda length sqrt(-<u1, u2>) between two horocycles.

    Horocycles on a common light-cone ray have pairing zero and no lambda
    length; the threshold is proportional to z1*z2 so it is invariant under
    rescaling either representative.
    """
    (x1, y1, z1), (x2, y2, z2) = h1, h2
    pairing = x1 * x2 + y1 * y2 - z1 * z2
    if abs(pairing) <= COMMON_RAY_TOL * z1 * z2:
        raise DegenerateError("horocycles lie on a common light-cone ray")
    return math.sqrt(-pairing)
