"""Horocycles as light-cone points, Euclidean circle views, and lambda lengths.

A horocycle is its point u of the positive light cone: horocycle_from_tangency
returns that LightConePoint, a checked (x, y, z) tuple, and
horocycle_to_circle derives the tangent EuclideanCircle in the disk from it.
The Minkowski pairing does all the metric work: lambda(u1, u2) =
sqrt(-<u1, u2>), a plain float that exceeds 1 exactly when the two
horocycles are disjoint, for any heights and any two distinct ideal points.
"""

from __future__ import annotations

import math
from numbers import Real

from .errors import DegenerateError, DomainError
from .models import BoundaryPoint, LightConePoint
from .relations import _HI, _LO, _Named

SQRT2 = math.sqrt(2.0)

# Pairings smaller than this times z1*z2 are beyond what the plain pairing
# resolves, and lambda_length takes the gap of the ideal points instead.  Its
# basis: on the cone |x1*x2| + |y1*y2| <= z1*z2 (Cauchy-Schwarz), so the
# computed pairing errs by at most 2*gamma_3*z1*z2, about 6.7e-16*z1*z2
# (Higham sec. 3.1; 4.1u was the worst of 20 000 random pairs), and a relative
# change d in the components moves it by up to 4d*z1*z2.  1e-12 sits some 1500
# times above that rounding error: a pairing formed as it stands keeps three
# digits or more, and no component error below 2.5e-13 relative, about twelve
# significant digits, can move it across zero.
COMMON_RAY_TOL = 1e-12
# Ideal points closer than this, a few roundings of a unit vector, count as
# a common ray.
COMMON_RAY_GAP = 8 * 2.0**-53


class EuclideanCircle(_Named):
    """A Euclidean circle in the unit-disk picture: its center (x, y) and radius, floats."""

    __slots__ = ()
    _fields = ("center", "radius")

    def __new__(cls, center, radius):
        x, y = center
        if not (isinstance(x, Real) and isinstance(y, Real) and isinstance(radius, Real)):
            raise DomainError(f"circle center and radius must be real: {center!r}, {radius!r}")
        x, y, radius = float(x), float(y), float(radius)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"non-finite circle center: ({x}, {y})")
        if radius <= 0.0 or not math.isfinite(radius):
            raise DomainError(f"circle radius must be positive: {radius}")
        return tuple.__new__(cls, ((x, y), radius))


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

    While z1*z2 lies in relations' window [_LO, _HI] and |pairing| exceeds
    COMMON_RAY_TOL*z1*z2, it is formed as it stands.  Elsewhere it would
    overflow, lose digits or cancel, and lambda = sqrt(z1)*sqrt(z2)*g/sqrt(2)
    instead, g = |e1 - e2| the gap of the ideal points e_i = (x_i, y_i)/z_i,
    since -<u1, u2> = z1*z2*g^2/2 on the cone.  Both forms are invariant
    under rescaling either representative.  Horocycles on a common light-cone
    ray have g = 0 and no lambda length; an overflowing one comes back inf.
    """
    (x1, y1, z1), (x2, y2, z2) = h1, h2
    zz = z1 * z2
    if _LO <= zz <= _HI:
        pairing = x1 * x2 + y1 * y2 - zz
        if abs(pairing) > COMMON_RAY_TOL * zz:
            return math.sqrt(-pairing)
    gap = math.hypot(x1 / z1 - x2 / z2, y1 / z1 - y2 / z2)
    if gap <= COMMON_RAY_GAP:
        raise DegenerateError("horocycles lie on a common light-cone ray")
    return math.sqrt(z1) * math.sqrt(z2) * (gap / SQRT2)
