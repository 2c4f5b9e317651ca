"""Minkowski 3-space and the three models of the hyperbolic plane.

Points live on the upper hyperboloid sheet, in the Poincare disk, or in the
upper half plane; the conversions between models are exact isometries, so any
distance can be computed in whichever model is most convenient.  All
operations are pure functions.

Every value type is a relations._Named tuple; LightConePoint and
HyperboloidPoint are MinkowskiVecs on a sheet.  The vector types and
BoundaryPoint return self.__post_init__() from __new__, which checks and
keeps self or a copy with z snapped or the angle canonicalized.  The hook
keeps that name because the benchmark's tracer patches it by name
(bench/workloads.py, instrument), until the package traces itself.
"""

from __future__ import annotations

import cmath
import math

from .errors import DegenerateError, DomainError
from .relations import _HUGE, _TINY, _Named, cross_ratio_points

TWO_PI = 2.0 * math.pi

# Type invariants (<u,u>=0, <v,v>=-1) are enforced at construction to this
# tolerance, relative to the largest squared component (see _on_sheet);
# passing vectors get z recomputed from x and y.
CONSTRUCTION_TOL = 1e-9


class MinkowskiVec(_Named):
    """A vector (x, y, z) in Minkowski 3-space, its components floats."""

    __slots__ = ()
    _fields = ("x", "y", "z")

    def __new__(cls, x, y, z):
        if not (type(x) is float and type(y) is float and type(z) is float):
            x, y, z = float(x), float(y), float(z)
        return tuple.__new__(cls, (x, y, z)).__post_init__()

    def __post_init__(self):
        x, y, z = self
        # 0.0*v is 0 for finite v and NaN otherwise, as in SixTuple.
        if not math.isfinite(0.0 * x + 0.0 * y + 0.0 * z):
            raise DomainError(f"Minkowski vector has non-finite components: {self}")
        return self


def mink_pair(u: MinkowskiVec, v: MinkowskiVec) -> float:
    """Indefinite pairing xx' + yy' - zz' of Minkowski 3-space."""
    (x1, y1, z1), (x2, y2, z2) = u, v
    return x1 * x2 + y1 * y2 - z1 * z2


def _on_sheet(v: MinkowskiVec, target: float, sheet: str, name: str) -> MinkowskiVec:
    """v checked finite, with z > 0 and <v,v> = target, and z snapped to sqrt(x^2 + y^2 - target).

    The miss |<v,v> - target| is relative to the largest square, and is
    taken for v/m, m the largest |component|, when that square is not a
    normal float (the pairing overflowed or lost digits).  The snap keeps
    the boundary angle of a light-cone vector, and on the hyperboloid it
    stands in for the pairing, which cancels past z of about 1e4.  (0, 0, z)
    misses the cone by 1.  A new tuple is built only when z changes.
    """
    x, y, z = v
    if not math.isfinite(0.0 * x + 0.0 * y + 0.0 * z):
        raise DomainError(f"Minkowski vector has non-finite components: {v}")
    if z <= 0.0:
        raise DomainError(f"not on the {sheet}: {v}")
    xx, yy, zz = x * x, y * y, z * z
    scale = max(xx, yy, zz)
    if _TINY <= scale <= _HUGE:
        miss = abs(xx + yy - zz - target) / scale
    else:
        m = max(abs(x), abs(y), z)
        xm, ym, zm = x / m, y / m, z / m
        miss = abs(xm * xm + ym * ym - zm * zm - target / m / m)
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

    def projective(self) -> tuple[complex, complex]:
        """Homogeneous coordinates: (w, 1) for finite points, (1, 0) at infinity."""
        if self.at_infinity:
            return (1.0 + 0.0j, 0.0 + 0.0j)
        return (complex(self.re, self.im), 1.0 + 0.0j)


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


def geodesic_ideal_endpoints(w1: UhpPoint, w2: UhpPoint) -> tuple[UhpPoint, UhpPoint]:
    """Ideal endpoints of the half-plane geodesic through two interior points.

    The first endpoint returned is the one beyond w1, the second beyond w2,
    so the order along the geodesic is (first, w1, w2, second).  Nothing
    cancels: c = (re1+re2)/2 + (im1-im2)(im1+im2)/(2(re1-re2)), the far end
    is c + sign(c)*R and the near one re1*((2c - re1)/far) - im1*(im1/far),
    the product of the roots over far, never forming that product.  Where c
    or 2c - re1 overflows (a height above about 1.3e154, |im1^2 - im2^2|
    above 1.8e308*|re1 - re2|, or |c| above 9e307), UhpPoint raises DomainError.
    """
    if w1.is_ideal or w2.is_ideal:
        raise DomainError("geodesic endpoints require interior points")
    if w1 == w2:
        raise DegenerateError(f"coincident points: {w1}")
    if w1.re == w2.re:
        foot = UhpPoint(w1.re, 0.0)
        if w1.im < w2.im:
            return (foot, UhpPoint.infinity())
        return (UhpPoint.infinity(), foot)
    # Semicircle centered on the real axis through both points.
    c = 0.5 * (w1.re + w2.re) + (w1.im - w2.im) * (w1.im + w2.im) / (2.0 * (w1.re - w2.re))
    far = c + math.copysign(math.hypot(w1.re - c, w1.im), c)
    near = w1.re * ((2.0 * c - w1.re) / far) - w1.im * (w1.im / far)
    left, right = (UhpPoint(v, 0.0) for v in sorted((near, far)))
    if w1.re < w2.re:
        return (left, right)
    return (right, left)


def hyp_distance_crossratio(w1: UhpPoint, w2: UhpPoint) -> float:
    """Hyperbolic distance |log(-CR)| via the cross-ratio CR of (w1, e1, w2, e2).

    e1 and e2 are the ideal endpoints of the geodesic; cross-ratios are
    taken on homogeneous coordinate vectors, with the point at infinity as
    (1, 0).  Near d = 0, CR is near -1 and its log cancels.  There the
    Pluecker relation P12*P34 + P14*P23 = P13*P24 gives -CR = 1 + X, with X
    the cross-ratio of (w1, w2, e1, e2), which is -P13*P24/(P23*P14) and
    small exactly when w1 is near w2; so d = |log1p(Re X)|.  Once -CR < 1/2
    the log of CR itself loses nothing and log1p(X) would cancel instead.
    A vertical pair needs no cross-ratio: d = log(hi/lo) of its heights,
    through log1p while hi <= 2*lo (where hi - lo is exact) and as
    log(hi) - log(lo) once hi/lo overflows (d > 709, so the two logs' errors
    stay near u*d); each way d is within a few u of the exact distance.
    Domain limit: a cross-ratio that underflows to 0 or is not finite (too
    distant points, or minors whose products overflow) raises DomainError.
    """
    e1, e2 = geodesic_ideal_endpoints(w1, w2)
    if w1.re == w2.re:
        lo, hi = sorted((w1.im, w2.im))
        if hi <= 2.0 * lo:
            return math.log1p((hi - lo) / lo)
        ratio = hi / lo
        return math.log(ratio) if ratio <= _HUGE else math.log(hi) - math.log(lo)
    w1h, e1h, w2h, e2h = (p.projective() for p in (w1, e1, w2, e2))
    try:
        x = cross_ratio_points(w1h, w2h, e1h, e2h).real
        if x > -0.5:
            return abs(math.log1p(x))
        cr = abs(cross_ratio_points(w1h, e1h, w2h, e2h))
    except DegenerateError as exc:  # a product of minors overflowed or underflowed
        raise DomainError(f"distance out of float range: {exc}") from None
    if cr == 0.0:
        raise DomainError(f"distance out of float range: cross-ratio of {w1}, {w2} underflows to 0")
    return abs(math.log(cr))


def hyp_distance_hyperboloid(v1: HyperboloidPoint, v2: HyperboloidPoint) -> float:
    """Hyperbolic distance on the hyperboloid sheet: 2*asinh(sqrt(<w,w>)/2), w = v1 - v2.

    Equal to arccosh(-<v1,v2>), since <w,w> = -2 - 2<v1,v2> = 4 sinh^2(d/2),
    but without the cancellation of arccosh near 1 that loses small distances.
    """
    (x1, y1, z1), (x2, y2, z2) = v1, v2
    dx, dy, dz = x1 - x2, y1 - y2, z1 - z2
    return 2.0 * math.asinh(math.sqrt(max(dx * dx + dy * dy - dz * dz, 0.0)) / 2.0)
