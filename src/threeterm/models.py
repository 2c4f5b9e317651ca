"""Minkowski 3-space and the three models of the hyperbolic plane.

Points live on the upper hyperboloid sheet, in the Poincare disk, or in the
upper half plane; the conversions between models are exact isometries, and
each model's distance is one closed form, 2*asinh(sinh(d/2)), with no case
split.  All operations are pure functions.

Every value type is a relations._Named tuple; LightConePoint and
HyperboloidPoint are MinkowskiVecs on a sheet.  MinkowskiVec.__new__ makes
the components floats and checks them finite, and it and BoundaryPoint
return self.__post_init__(): each sheet's hook tests its sheet and keeps
self or a copy with z snapped, as BoundaryPoint's canonicalizes the angle.
The benchmark's tracer patches the hook by name (bench/workloads.py).
"""

from __future__ import annotations

import cmath
import math

from .errors import DegenerateError, DomainError
from .relations import _Named

TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)

# Type invariants (<u,u>=0, <v,v>=-1) are enforced at construction to this
# tolerance, relative to the largest squared component (see _on_sheet);
# passing vectors get z recomputed from x and y.  Its basis: the computed
# miss errs by a few u (2^-53) of the largest square (gamma_3 times the sum
# of the squares, Higham sec. 3.1), and a relative change d in the components
# moves it by about 2d, so 1e-9 is a margin for nine or ten significant digits.
CONSTRUCTION_TOL = 1e-9


class MinkowskiVec(_Named):
    """A vector (x, y, z) in Minkowski 3-space, its components floats."""

    __slots__ = ()
    _fields = ("x", "y", "z")

    def __new__(cls, x, y, z):
        x, y, z = v = tuple.__new__(cls, (float(x), float(y), float(z)))
        # 0.0*v is 0 for finite v and NaN otherwise, as in SixTuple.
        if not math.isfinite(0.0 * x + 0.0 * y + 0.0 * z):
            raise DomainError(f"Minkowski vector has non-finite components: {v}")
        return v.__post_init__()

    def __post_init__(self):
        return self


def mink_pair(u: MinkowskiVec, v: MinkowskiVec) -> float:
    """Indefinite pairing xx' + yy' - zz' of Minkowski 3-space."""
    (x1, y1, z1), (x2, y2, z2) = u, v
    return x1 * x2 + y1 * y2 - z1 * z2


def _on_sheet(v: MinkowskiVec, target: float, sheet: str, name: str) -> MinkowskiVec:
    """v checked for z > 0 and <v,v> = target, with z snapped to sqrt(x^2 + y^2 - target).

    The miss |<v,v> - target| is relative to the largest square, taken for
    v/p, p the power of two at or below the largest |component|: exact, so
    the miss of 2^k*v is that of v while the components are normal, and it
    is the plain pairing's while the squares are.  The snap keeps the boundary
    angle of a light-cone vector, and on the hyperboloid it stands in for the
    pairing, which cancels past z of about 1e4.  (0, 0, z) misses the cone
    by 1.  A new tuple is built only when z changes.
    """
    x, y, z = v
    if z <= 0.0:
        raise DomainError(f"not on the {sheet}: {v}")
    m = max(abs(x), abs(y), z)
    p = math.ldexp(1.0, math.frexp(m)[1] - 1)
    xp, yp, zp, mp = x / p, y / p, z / p, m / p
    miss = abs(xp * xp + yp * yp - zp * zp - target / p / p) / (mp * mp)
    if not miss <= CONSTRUCTION_TOL:
        raise DomainError(f"<{name},{name}> misses {target:g} by {miss:.3e} of the largest square: {v}")
    snapped = math.hypot(-target, x, y)
    return v if snapped == z else tuple.__new__(type(v), (x, y, snapped))


class HyperboloidPoint(MinkowskiVec):
    """A point (x, y, z) of the upper hyperboloid sheet: <v,v> = -1, z > 0."""

    __slots__ = ()

    def __post_init__(self):
        return _on_sheet(self, -1.0, "upper hyperboloid sheet", "v")


class LightConePoint(MinkowskiVec):
    """A point (x, y, z) of the open positive light cone: <u,u> = 0, z > 0."""

    __slots__ = ()

    def __post_init__(self):
        return _on_sheet(self, 0.0, "positive light cone", "u")


class DiskPoint(_Named):
    """A point (x, y) of the open Poincare disk."""

    __slots__ = ()
    _fields = ("x", "y")

    def __new__(cls, x, y):
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"non-finite disk point: ({x}, {y})")
        if x * x + y * y >= 1.0:
            raise DomainError(f"point not inside the unit disk: ({x}, {y})")
        return tuple.__new__(cls, (x, y))

    def as_complex(self) -> complex:
        return complex(*self)


class BoundaryPoint(_Named):
    """An ideal point (cos theta, sin theta) of the unit circle.

    The angle is canonicalized to [0, 2*pi) so equal points compare equal.
    """

    __slots__ = ()
    _fields = ("theta",)

    def __new__(cls, theta):
        return tuple.__new__(cls, (theta,)).__post_init__()

    def __post_init__(self):
        (theta,) = self
        if not math.isfinite(theta):
            raise DomainError(f"non-finite boundary angle: {theta}")
        theta = float(theta) % TWO_PI
        if theta >= TWO_PI:  # float mod of tiny negatives can round up to 2*pi
            theta = 0.0
        return tuple.__new__(type(self), (theta,))

    def as_complex(self) -> complex:
        return complex(math.cos(self.theta), math.sin(self.theta))


class UhpPoint(_Named):
    """A point of the closed upper half plane.

    Interior points have im > 0; ideal points have im == 0 or carry the
    distinguished at_infinity flag (re/im are zeroed in that case).
    """

    __slots__ = ()
    _fields = ("re", "im", "at_infinity")

    def __new__(cls, re=0.0, im=0.0, at_infinity=False):
        if at_infinity:
            return tuple.__new__(cls, (0.0, 0.0, True))
        re, im = float(re), float(im)
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DomainError(f"non-finite half-plane point: ({re}, {im})")
        if im < 0.0:
            raise DomainError(f"point below the real axis: ({re}, {im})")
        return tuple.__new__(cls, (re, im, False))

    @classmethod
    def infinity(cls) -> "UhpPoint":
        return cls(at_infinity=True)

    @property
    def is_ideal(self) -> bool:
        return self.at_infinity or self.im == 0.0

    def as_complex(self) -> complex:
        if self.at_infinity:
            raise DomainError("point at infinity has no complex coordinate")
        return complex(self.re, self.im)


def disk_to_hyperboloid(p: DiskPoint) -> HyperboloidPoint:
    """Lift a disk point to the hyperboloid: (x,y) -> (2x, 2y, 1+x^2+y^2)/(1-x^2-y^2)."""
    x, y = p
    s = x * x + y * y
    f = 1.0 / (1.0 - s)
    return HyperboloidPoint(2.0 * x * f, 2.0 * y * f, (1.0 + s) * f)


def hyperboloid_to_disk(v: HyperboloidPoint) -> DiskPoint:
    """Central projection from (0,0,-1): (x,y,z) -> (x,y)/(1+z)."""
    x, y, z = v
    f = 1.0 / (1.0 + z)
    return DiskPoint(x * f, y * f)


def lightcone_to_boundary(u: LightConePoint) -> BoundaryPoint:
    """Project a light-cone point to its ideal point on the unit circle."""
    x, y, _ = u
    return BoundaryPoint(math.atan2(y, x))


def cayley_uhp_to_disk(w: UhpPoint):
    """Cayley transform z -> (z-i)/(z+i).

    Interior points map to DiskPoints, ideal points to BoundaryPoints
    (infinity goes to angle 0, i.e. the point 1).
    """
    if w.at_infinity:
        return BoundaryPoint(0.0)
    z = w.as_complex()
    image = (z - 1j) / (z + 1j)
    if w.is_ideal:
        return BoundaryPoint(cmath.phase(image))
    return DiskPoint(image.real, image.imag)


def cayley_disk_to_uhp(p) -> UhpPoint:
    """Inverse Cayley transform w -> i(1+w)/(1-w).

    Accepts a DiskPoint or BoundaryPoint.  The boundary point 1, and one whose
    image overflows (a subnormal angle), map to the point at infinity.
    """
    z = p.as_complex()
    ideal = isinstance(p, BoundaryPoint)
    image = 1j * (1.0 + z) / (1.0 - z) if z != 1.0 else math.inf
    if ideal and not math.isfinite(image.real):
        return UhpPoint.infinity()
    return UhpPoint(image.real, 0.0 if ideal else image.imag)


def hyp_distance_crossratio(w1: UhpPoint, w2: UhpPoint) -> float:
    """Hyperbolic distance 2*asinh(x), x = |w1 - w2| / (2*sqrt(im1*im2)) (Beardon, sec. 7.2).

    The paper's route, |log(-CR)| for the cross-ratio of (w1, e1, w2, e2)
    with e1, e2 the geodesic's ideal endpoints, is tests/test_models.py's
    oracle.  Every finite float is an integer times 2^-1074, so x^2 is
    num/den for integers, exactly, and s = isqrt(floor(x^2 * 4^-e)) is
    floor(x * 2^-e), with e chosen to give s 64 bits or more: s * 2^e is x
    correctly rounded but for a tie within 2^-63.  So asinh's own error
    (about an ulp) is the closed form's only one, and nothing under- or
    overflows; beyond x = 2^1000, asinh(x) = log(2x).  Every pair of
    distinct interior points gets its distance, within 4u (and, for a
    subnormal distance, a few of the smallest subnormal).
    """
    if w1.is_ideal or w2.is_ideal:
        raise DomainError("distance requires interior points")
    if w1 == w2:
        raise DegenerateError(f"coincident points: {w1}")
    (re1, im1, _), (re2, im2, _) = w1, w2
    a1, b1, a2, b2 = (n << 1075 - d.bit_length()  # the coordinates times 2^1074
                      for n, d in map(float.as_integer_ratio, (re1, im1, re2, im2)))
    num, den = (a1 - a2) ** 2 + (b1 - b2) ** 2, 4 * b1 * b2
    e = (num.bit_length() - den.bit_length()) // 2 - 64
    s = math.isqrt((num << max(-2 * e, 0)) // (den << max(2 * e, 0)))  # in [2^63, 2^65)
    if e > 936:
        return 2.0 * (math.log(s) + (e + 1) * _LN2)
    return 2.0 * math.asinh(math.ldexp(float(s), e))


def hyp_distance_hyperboloid(v1: HyperboloidPoint, v2: HyperboloidPoint) -> float:
    """Hyperbolic distance 2*asinh(|p - q| * sqrt(1 + z1) * sqrt(1 + z2) / 2) on the sheet.

    p = (x1, y1)/(1 + z1) and q are the points' disk coordinates, and the
    form is the disk's sinh(d/2) = |p - q| / sqrt((1 - |p|^2)(1 - |q|^2)),
    since 1 - |p|^2 = 2/(1 + z1).  Nothing is squared or cancels but p - q,
    so for two points a distance d apart at height z the relative error is
    about u*z/d (u = 2^-53): p is rounded to about u, and |p - q| is about
    d/z.  Against 50-digit mpmath it stays within 8u*(1 + z/d).
    """
    (x1, y1, z1), (x2, y2, z2) = v1, v2
    s1, s2 = 1.0 + z1, 1.0 + z2
    gap = math.hypot(x1 / s1 - x2 / s2, y1 / s1 - y2 / s2)
    return 2.0 * math.asinh(0.5 * gap * math.sqrt(s1) * math.sqrt(s2))
