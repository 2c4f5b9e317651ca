"""Core geometry: Minkowski pairing, model conversions, distances."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from threeterm.errors import DegenerateError, DomainError
from threeterm.models import (
    BoundaryPoint,
    DiskPoint,
    HyperboloidPoint,
    LightConePoint,
    MinkowskiVec,
    UhpPoint,
    cayley_disk_to_uhp,
    cayley_uhp_to_disk,
    disk_to_hyperboloid,
    geodesic_ideal_endpoints,
    hyp_distance_crossratio,
    hyp_distance_hyperboloid,
    hyperboloid_to_disk,
    lightcone_to_boundary,
    mink_pair,
)
from threeterm.relations import cross_ratio_points


def lift_uhp(w: UhpPoint) -> HyperboloidPoint:
    """Independent route to the hyperboloid: Cayley to the disk, then lift."""
    return disk_to_hyperboloid(cayley_uhp_to_disk(w))


def projective(w: UhpPoint) -> tuple[complex, complex]:
    """Homogeneous coordinates: (w, 1) for a finite point, (1, 0) at infinity."""
    return (1.0 + 0.0j, 0.0j) if w.at_infinity else (w.as_complex(), 1.0 + 0.0j)


def arccosh_oracle(w1: UhpPoint, w2: UhpPoint) -> float:
    """Textbook half-plane distance: cosh d = 1 + |w1-w2|^2 / (2 y1 y2)."""
    dx, dy = w1.re - w2.re, w1.im - w2.im
    return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * w1.im * w2.im))


# Unit roundoff of a float: one correctly rounded operation is off by at most U.
U = 2.0**-53
ETA = 2.0**-1074  # the smallest subnormal

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=5e-324, allow_infinity=False)

angles = st.floats(min_value=0.0, max_value=2 * math.pi)


def polar(radius: float, phi: float) -> DiskPoint:
    return DiskPoint(radius * math.cos(phi), radius * math.sin(phi))


class TestMinkPair:
    def test_hyperboloid_normalization(self):
        assert mink_pair(MinkowskiVec(0, 0, 1), MinkowskiVec(0, 0, 1)) == -1.0

    def test_lightcone_vector(self):
        assert mink_pair(MinkowskiVec(1, 0, 1), MinkowskiVec(1, 0, 1)) == 0.0

    def test_mixed(self):
        # 1*0 + 0*1 - 1*1
        assert mink_pair(MinkowskiVec(1, 0, 1), MinkowskiVec(0, 1, 1)) == -1.0

    def test_symmetric_and_bilinear(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u, v, w = (MinkowskiVec(*rng.uniform(-5, 5, size=3)) for _ in range(3))
            s = rng.uniform(-3, 3)
            assert mink_pair(u, v) == mink_pair(v, u)
            lhs = mink_pair(MinkowskiVec(u.x + s * v.x, u.y + s * v.y, u.z + s * v.z), w)
            rhs = mink_pair(u, w) + s * mink_pair(v, w)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            MinkowskiVec(math.nan, 0, 1)


class TestDiskHyperboloid:
    def test_origin_to_apex(self):
        v = disk_to_hyperboloid(DiskPoint(0, 0))
        assert (v.x, v.y, v.z) == (0.0, 0.0, 1.0)

    def test_half_point(self):
        v = disk_to_hyperboloid(DiskPoint(0.5, 0))
        assert abs(v.x - 4 / 3) < 1e-15
        assert v.y == 0.0
        assert abs(v.z - 5 / 3) < 1e-15
        assert abs(mink_pair(v, v) + 1.0) < 1e-12

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            DiskPoint(1.0, 0.0)
        with pytest.raises(DomainError):
            DiskPoint(0.8, 0.7)

    def test_apex_to_origin(self):
        p = hyperboloid_to_disk(HyperboloidPoint(0, 0, 1))
        assert (p.x, p.y) == (0.0, 0.0)

    def test_inverse_of_half_point(self):
        p = hyperboloid_to_disk(HyperboloidPoint(4 / 3, 0, 5 / 3))
        assert abs(p.x - 0.5) < 1e-15 and p.y == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            radius = math.sqrt(rng.uniform(0, 0.999**2))
            phi = rng.uniform(0, 2 * math.pi)
            p = DiskPoint(radius * math.cos(phi), radius * math.sin(phi))
            q = hyperboloid_to_disk(disk_to_hyperboloid(p))
            assert abs(q.x - p.x) < 1e-12 and abs(q.y - p.y) < 1e-12

    def test_range_is_open_disk(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            x, y = rng.uniform(-4, 4, size=2)
            z = math.sqrt(1 + x * x + y * y)
            p = hyperboloid_to_disk(HyperboloidPoint(x, y, z))
            assert p.x**2 + p.y**2 < 1.0

    @given(log_gap=st.floats(min_value=-12.0, max_value=0.0), phi=angles)
    def test_round_trip_up_to_the_boundary(self, log_gap, phi):
        # 1 - |p| = 10**log_gap.  The lift scales by f = 1/(1 - |p|^2), whose
        # relative error grows like U/(1 - |p|), but the projection back is
        # damped by 1/z = (1 - |p|^2)/(1 + |p|^2), so the round trip costs only
        # the handful of roundings of the two maps: fewer than eight U.
        p = polar(1.0 - 10.0**log_gap, phi)
        q = hyperboloid_to_disk(disk_to_hyperboloid(p))
        assert math.hypot(q.x - p.x, q.y - p.y) <= 8 * U * math.hypot(p.x, p.y)

    def test_construction_tolerance(self):
        # slightly off the sheet: accepted and snapped onto it
        v = HyperboloidPoint(4 / 3, 0, 5 / 3 * (1 + 1e-11))
        assert abs(mink_pair(v, v) + 1.0) < 1e-14
        with pytest.raises(DomainError):
            HyperboloidPoint(4 / 3, 0, 5 / 3 * (1 + 1e-3))
        with pytest.raises(DomainError):
            HyperboloidPoint(0, 0, -1)


class TestLightCone:
    def test_boundary_projection(self):
        b = lightcone_to_boundary(LightConePoint(3, 4, 5))
        assert abs(b.theta - math.atan2(4, 3)) < 1e-15
        assert abs(b.as_complex().real - 0.6) < 1e-15 and abs(b.as_complex().imag - 0.8) < 1e-15

    @pytest.mark.parametrize("z", [1.0, 1e-320, 1e300])
    def test_axis_vector_rejected(self, z):
        # (0, 0, z) misses the cone by exactly 1, whether its square is
        # normal, underflows or overflows.
        with pytest.raises(DomainError, match="misses 0 by 1.000e[+]00"):
            LightConePoint(0.0, 0.0, z)

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            theta = rng.uniform(0, 2 * math.pi)
            z = rng.uniform(0.1, 10)
            s = rng.uniform(0.01, 100)
            u = MinkowskiVec(z * math.cos(theta), z * math.sin(theta), z)
            b1 = lightcone_to_boundary(LightConePoint(*u))
            b2 = lightcone_to_boundary(LightConePoint(s * u.x, s * u.y, s * u.z))
            assert abs(b1.theta - b2.theta) < 1e-12

    def test_unit_ray(self):
        assert lightcone_to_boundary(LightConePoint(1, 0, 1)).theta == 0.0

    def test_rejects_off_cone(self):
        with pytest.raises(DomainError):
            LightConePoint(1, 0, 2)
        with pytest.raises(DomainError):
            LightConePoint(0, 0, 0)
        with pytest.raises(DomainError):
            LightConePoint(-1, 0, -1)

    @pytest.mark.parametrize("cls", [LightConePoint, HyperboloidPoint])
    def test_overflowing_pairing_rejected(self, cls):
        # The squares overflow, so the pairing is NaN or inf and cannot vouch
        # for the vector.  Divided by its largest component, each vector
        # misses the cone by 0.75, 0.96 and 1.
        for v in ((1e200, 0, 2e200), (1e200, 0, 5e200), (1e200, 0, 1)):
            with pytest.raises(DomainError):
                cls(*v)

    @pytest.mark.parametrize("cls,name", [(LightConePoint, "u"), (HyperboloidPoint, "v")])
    def test_overflowing_pairing_checked_at_unit_scale(self, cls, name):
        # (1e200, 0, 1e200) is on the cone, and -1 is below 1e-400 of its
        # squares, so it lies on the hyperboloid within the tolerance too.
        # Each sheet names its vector in the miss it reports.
        u = cls(1e200, 0, 1e200)
        assert (u.x, u.y, u.z) == (1e200, 0.0, 1e200)
        with pytest.raises(DomainError, match=f"<{name},{name}> misses"):
            cls(1e200, 0, 2e200)

    def test_underflowing_squares_checked_at_unit_scale(self):
        # Squares below the normal floats lose digits or vanish, so the
        # pairing cannot tell (1e-160, 0, 1.00001e-160) from the cone.
        u = LightConePoint(3e-200, 4e-200, 5e-200)
        assert (u.x, u.y, u.z) == (3e-200, 4e-200, 5e-200)
        for v in ((1e-200, 0, 5e-200), (1e-160, 0, 1.00001e-160)):
            with pytest.raises(DomainError):
                LightConePoint(*v)
        with pytest.raises(DomainError):
            HyperboloidPoint(1e-200, 0, 1e-200)


class TestBoundaryPoint:
    def test_canonical_range(self):
        assert BoundaryPoint(2 * math.pi).theta == 0.0
        assert abs(BoundaryPoint(-math.pi / 2).theta - 3 * math.pi / 2) < 1e-15
        # float mod of a tiny negative must not land on 2*pi itself
        assert BoundaryPoint(-1e-20).theta < 2 * math.pi

    def test_equality_after_wrap(self):
        assert BoundaryPoint(0.5) == BoundaryPoint(0.5 + 2 * math.pi)


class TestCayley:
    def test_center_fixed(self):
        p = cayley_uhp_to_disk(UhpPoint(0, 1))
        assert abs(p.x) < 1e-15 and abs(p.y) < 1e-15

    def test_zero_to_minus_one(self):
        b = cayley_uhp_to_disk(UhpPoint(0, 0))
        assert isinstance(b, BoundaryPoint)
        assert abs(b.theta - math.pi) < 1e-15

    def test_infinity_to_one(self):
        b = cayley_uhp_to_disk(UhpPoint.infinity())
        assert isinstance(b, BoundaryPoint)
        assert b.theta == 0.0

    def test_disk_one_to_infinity(self):
        w = cayley_disk_to_uhp(BoundaryPoint(0.0))
        assert w.at_infinity

    @pytest.mark.parametrize("theta", [1e-16, 1e-300, 2e-308])
    def test_tiny_angle_round_trip(self, theta):
        # Only the point 1 itself is at infinity: a tiny angle has the finite image -2/theta.
        w = cayley_disk_to_uhp(BoundaryPoint(theta))
        assert not w.at_infinity
        assert abs(cayley_uhp_to_disk(w).theta - theta) <= 1e-15 * theta

    def test_subnormal_angle_to_infinity(self):
        # -2/theta overflows for a subnormal angle; its image is the point at infinity.
        assert cayley_disk_to_uhp(BoundaryPoint(5e-324)).at_infinity

    @settings(max_examples=300, deadline=None)
    @given(re=st.floats(min_value=-1.0, max_value=1.0), log_re=st.floats(min_value=-3.0, max_value=3.0),
           log_im=st.floats(min_value=-3.0, max_value=3.0))
    def test_interior_round_trip(self, re, log_re, log_im):
        # w with |re| below 1e3 and im in [1e-3, 1e3].  Each map is within 8u of
        # the exact image of its input (50-digit mpmath), relative to that
        # image's modulus.  The round trip moves w by the forward error times
        # |dw/dp| = |w + i|^2/2, so by at most 8u*(|w - i|*|w + i| + |w|).
        # The worst of 20 000 random points was 3.0u, 3.2u and 2.0u.  A
        # subnormal part is coarser than that, and each bound allows 4 ETA.
        w = UhpPoint(re * 10.0**log_re, 10.0**log_im)
        p = cayley_uhp_to_disk(w)
        back = cayley_disk_to_uhp(p)
        with mpmath.workdps(50):
            z, pz = mpmath.mpc(w.re, w.im), mpmath.mpc(p.x, p.y)
            want_p = (z - 1j) / (z + 1j)
            want_back = 1j * (1 + pz) / (1 - pz)
            assert abs(pz - want_p) <= 8 * U * abs(want_p) + 4 * ETA
            assert abs(mpmath.mpc(back.re, back.im) - want_back) <= 8 * U * abs(want_back) + 4 * ETA
            trip = abs(z - 1j) * abs(z + 1j) + abs(z)
            assert abs(mpmath.mpc(back.re, back.im) - z) <= 8 * U * trip + 4 * ETA

    @settings(max_examples=300, deadline=None)
    @given(log_theta=st.floats(min_value=-12.0, max_value=0.79), below_two_pi=st.booleans())
    def test_boundary_round_trip(self, log_theta, below_two_pi):
        # theta = 10**log_theta, or 2*pi less that: every angle at least 1e-12
        # from the point 1.  The image x is within 8u of -cot(theta/2), and the
        # angle of x back within 8u of phase((x - i)/(x + i)), each relative and
        # against 50-digit mpmath; the round trip is within 8u*theta.  The
        # worst of 20 000 random angles was 2.7u, 2.5u and 3.9u.
        b = BoundaryPoint(2 * math.pi - 10.0**log_theta if below_two_pi else 10.0**log_theta)
        assume(b.theta != 0.0)
        w = cayley_disk_to_uhp(b)
        assert w.is_ideal and not w.at_infinity
        back = cayley_uhp_to_disk(w)
        with mpmath.workdps(50):
            want_x = -mpmath.cot(mpmath.mpf(b.theta) / 2)
            x = mpmath.mpf(w.re)
            want_theta = mpmath.arg((x - 1j) / (x + 1j)) % (2 * mpmath.pi)
            assert abs(x - want_x) <= 8 * U * abs(want_x)
            assert abs(back.theta - want_theta) <= 8 * U * want_theta
        assert abs(back.theta - b.theta) <= 8 * U * b.theta


class TestGeodesicEndpoints:
    def test_vertical(self):
        e1, e2 = geodesic_ideal_endpoints(UhpPoint(0, 1), UhpPoint(0, 2))
        assert (e1.re, e1.im) == (0.0, 0.0) and not e1.at_infinity
        assert e2.at_infinity

    def test_semicircle(self):
        e1, e2 = geodesic_ideal_endpoints(UhpPoint(-1, 1), UhpPoint(1, 1))
        assert abs(e1.re + math.sqrt(2)) < 1e-15
        assert abs(e2.re - math.sqrt(2)) < 1e-15

    def test_swap_reverses(self):
        w1, w2 = UhpPoint(0.3, 0.7), UhpPoint(-1.2, 2.5)
        a = geodesic_ideal_endpoints(w1, w2)
        b = geodesic_ideal_endpoints(w2, w1)
        assert abs(a[0].re - b[1].re) < 1e-12 and abs(a[1].re - b[0].re) < 1e-12

    def test_swap_reverses_vertical(self):
        a = geodesic_ideal_endpoints(UhpPoint(2, 1), UhpPoint(2, 5))
        b = geodesic_ideal_endpoints(UhpPoint(2, 5), UhpPoint(2, 1))
        assert a == (b[1], b[0])

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateError):
            geodesic_ideal_endpoints(UhpPoint(1, 1), UhpPoint(1, 1))

    def test_ideal_input_rejected(self):
        with pytest.raises(DomainError):
            geodesic_ideal_endpoints(UhpPoint(0, 0), UhpPoint(0, 1))


class TestDistances:
    def test_log_two(self):
        d = hyp_distance_crossratio(UhpPoint(0, 1), UhpPoint(0, 2))
        assert abs(d - math.log(2)) < 1e-12

    def test_coincident_rejected(self):
        with pytest.raises(DegenerateError):
            hyp_distance_crossratio(UhpPoint(2, 3), UhpPoint(2, 3))

    def test_ideal_rejected(self):
        for w in (UhpPoint(0, 0), UhpPoint.infinity()):
            with pytest.raises(DomainError):
                hyp_distance_crossratio(w, UhpPoint(0, 1))

    def test_side_by_side_at_tiny_height(self):
        # Side by side at height 1e-200: the geodesic's endpoints are 0 and 1,
        # so the cross-ratio, about (1e-200)^2, underflows, but the closed form
        # answers.  The value is correctly rounded from 100-digit mpmath.
        d = hyp_distance_crossratio(UhpPoint(0.0, 1e-200), UhpPoint(1.0, 1e-200))
        assert abs(d - 921.0340371976183) <= 8 * U * d

    def test_side_by_side_far_from_the_origin(self):
        # The product of the roots, re1*(2c - re1) - im1^2 = -1e600, overflows,
        # but the near endpoint is formed without it.  The cross-ratio's minors
        # would overflow; the closed form gives d = 2 asinh(1e300), correctly
        # rounded from 100-digit mpmath.
        w1, w2 = UhpPoint(1e300, 1), UhpPoint(-1e300, 1)
        e1, e2 = geodesic_ideal_endpoints(w1, w2)
        assert (e1.re, e2.re) == (1e300, -1e300)
        d = hyp_distance_crossratio(w1, w2)
        assert abs(d - 1382.9373501575474) <= 8 * U * d

    def test_vertical_pair_beyond_cross_ratio_range(self):
        # About 400 decades apart, one above the other: log(im2/im1) needs
        # no cross-ratio, though im2/im1 itself overflows.
        w1 = UhpPoint(1.7139994621560496e173, 2.0689598579217e-244)
        w2 = UhpPoint(1.7139994621560496e173, 2.3337239046314507e157)
        with mpmath.workdps(30):
            want = float(mpmath.log(mpmath.mpf(w2.im) / mpmath.mpf(w1.im)))
        assert want == pytest.approx(923.457041527797, rel=1e-15)
        assert hyp_distance_crossratio(w1, w2) == hyp_distance_crossratio(w2, w1)
        assert abs(hyp_distance_crossratio(w1, w2) - want) <= 4 * U * want

    @settings(max_examples=300, deadline=None)
    @given(re=st.floats(min_value=-1e300, max_value=1e300),
           low=st.floats(min_value=5e-324, max_value=1e300),
           log_d=st.floats(min_value=-15.0, max_value=3.2), up=st.booleans())
    def test_vertical_pair_against_mpmath(self, re, low, log_d, up):
        # Heights low and low * exp(10**log_d) (rounded), anywhere in the
        # float range, from an ulp apart to over 600 decades apart.  x is
        # correctly rounded, so asinh's own error and the rounding of want
        # remain: 4 U.  The worst of 90 000 random pairs was 2.5 U.
        with mpmath.workdps(30):
            high = float(low * mpmath.exp(mpmath.power(10, log_d)))
            assume(low < high < math.inf)
            want = float(mpmath.log(mpmath.mpf(high) / mpmath.mpf(low)))
        w1, w2 = UhpPoint(re, low), UhpPoint(re, high)
        if not up:
            w1, w2 = w2, w1
        assert abs(hyp_distance_crossratio(w1, w2) - want) <= 4 * U * want

    def test_nearly_coincident_is_nearly_zero(self):
        d = hyp_distance_crossratio(UhpPoint(0.5, 1.0), UhpPoint(0.5 + 1e-9, 1.0))
        assert 0.0 <= d < 1e-8

    def test_self_distance_on_hyperboloid(self):
        v = HyperboloidPoint(4 / 3, 0, 5 / 3)
        assert hyp_distance_hyperboloid(v, v) == 0.0

    def test_apex_distance(self):
        apex = HyperboloidPoint(0, 0, 1)
        v = HyperboloidPoint(4 / 3, 0, 5 / 3)
        assert abs(hyp_distance_hyperboloid(apex, v) - math.acosh(5 / 3)) < 1e-12

    @settings(deadline=None)
    @given(radius=st.floats(min_value=0.0, max_value=0.85), phi=angles,
           log_step=st.floats(min_value=-10.0, max_value=-1.0), theta=angles)
    def test_small_distances_against_mpmath(self, radius, phi, log_step, theta):
        # Two points 10**log_step apart, against the disk distance
        # 2 atanh(|p-q| / |1 - conj(p) q|) at 50 digits.  The lift and the
        # projection back to the disk coordinates round p to about U, while
        # |p - q| is about d/z for points a distance d apart at height z; so d
        # is off by about U*z/d, relative.  The bound allows 8 of that, with z
        # the larger height of the two lifts; the worst of 20 000 random pairs
        # was 3.5U*(1 + z/d).
        p = polar(radius, phi)
        step = 10.0**log_step
        q = DiskPoint(p.x + step * math.cos(theta), p.y + step * math.sin(theta))
        assume((q.x, q.y) != (p.x, p.y))
        v1, v2 = disk_to_hyperboloid(p), disk_to_hyperboloid(q)
        with mpmath.workdps(50):
            a, b = mpmath.mpc(p.x, p.y), mpmath.mpc(q.x, q.y)
            want = float(2 * mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(a) * b)))
        z = max(v1.z, v2.z)
        got = hyp_distance_hyperboloid(v1, v2)
        assert abs(got - want) <= 8 * U * (1.0 + z / want) * want

    @settings(max_examples=300, deadline=None)
    @given(re=st.floats(min_value=-2.0, max_value=2.0), im=st.floats(min_value=0.5, max_value=2.0),
           log_d=st.floats(min_value=-9.0, max_value=1.5), vertical=st.booleans())
    def test_crossratio_against_mpmath(self, re, im, log_d, vertical):
        # Pairs at distance d = 10**log_d in [1e-9, 30], one above the other
        # or side by side, against 2 asinh(|w1-w2| / (2 sqrt(y1 y2))) at 50
        # digits.  The closed form leaves asinh's own error, about an ulp: 8 U.
        d = 10.0**log_d
        w1 = UhpPoint(re, im)
        w2 = UhpPoint(re, im * math.exp(d)) if vertical else UhpPoint(re + 2 * im * math.sinh(d / 2), im)
        with mpmath.workdps(50):
            x1, y1, x2, y2 = (mpmath.mpf(v) for v in (w1.re, w1.im, w2.re, w2.im))
            dist = mpmath.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2)
            want = float(2 * mpmath.asinh(dist / (2 * mpmath.sqrt(y1 * y2))))
        assert abs(hyp_distance_crossratio(w1, w2) - want) <= 8 * U * want

    @settings(max_examples=300, deadline=None)
    @given(re=st.floats(min_value=-10.0, max_value=10.0),
           log_im=st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                            st.floats(min_value=-3.0, max_value=3.0)),
           log_dre=st.floats(min_value=-9.0, max_value=1.0), left=st.booleans())
    def test_side_by_side_against_mpmath(self, re, log_im, log_dre, left):
        # Heights in [1e-3, 1e3] and |re1 - re2| in [1e-9, 10], against
        # 2 asinh(|w1-w2| / (2 sqrt(y1 y2))) at 50 digits: 8 U.
        dre = 10.0**log_dre
        w1 = UhpPoint(re, 10.0 ** log_im[0])
        w2 = UhpPoint(re - dre if left else re + dre, 10.0 ** log_im[1])
        assume(w1.re != w2.re)
        with mpmath.workdps(50):
            x1, y1, x2, y2 = (mpmath.mpf(v) for v in (w1.re, w1.im, w2.re, w2.im))
            dist = mpmath.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2)
            want = float(2 * mpmath.asinh(dist / (2 * mpmath.sqrt(y1 * y2))))
        assert abs(hyp_distance_crossratio(w1, w2) - want) <= 8 * U * want

    @settings(max_examples=500, deadline=None)
    @given(re=st.tuples(finite, finite), im=st.tuples(positive, positive))
    def test_whole_float_range_against_mpmath(self, re, im):
        # Any two distinct interior points with finite coordinates, the float
        # range's ends included, against 50-digit mpmath: 8 U, and for a
        # subnormal distance 4 ETA more, since such a float is coarser than
        # 8 U.  The worst of 30 000 random pairs was 2.3 U.  500 examples.
        w1, w2 = UhpPoint(re[0], im[0]), UhpPoint(re[1], im[1])
        assume(w1 != w2)
        got = hyp_distance_crossratio(w1, w2)
        with mpmath.workdps(50):
            x1, y1, x2, y2 = (mpmath.mpf(v) for v in (re[0], im[0], re[1], im[1]))
            dist = mpmath.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2)
            want = 2 * mpmath.asinh(dist / (2 * mpmath.sqrt(y1 * y2)))
            assert abs(got - want) <= 8 * U * want + 4 * ETA

    @settings(max_examples=300, deadline=None)
    @given(re=st.floats(min_value=-10.0, max_value=10.0),
           log_im=st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                            st.floats(min_value=-3.0, max_value=3.0)),
           log_dre=st.one_of(st.none(), st.floats(min_value=-9.0, max_value=1.0)))
    def test_paper_cross_ratio_route(self, re, log_im, log_dre):
        # The paper's route: with e1, e2 the geodesic's ideal endpoints, the
        # cross-ratio CR of (w1, e1, w2, e2) and X of (w1, w2, e1, e2) satisfy
        # the Pluecker relation -CR = 1 + X, and d = |log(-CR)|.  Heights in
        # [1e-3, 1e3], |re1 - re2| in [1e-9, 10] or 0.  Each of CR, X and the
        # endpoints takes a few roundings, so the relation holds within 8 U of
        # its terms and the log within 8 U*(1 + d) of the closed form; the
        # worst of 50 000 random pairs was 4.3 U for each.
        w1 = UhpPoint(re, 10.0 ** log_im[0])
        w2 = UhpPoint(re if log_dre is None else re + 10.0**log_dre, 10.0 ** log_im[1])
        assume(w1 != w2)
        e1, e2 = geodesic_ideal_endpoints(w1, w2)
        w1h, e1h, w2h, e2h = (projective(p) for p in (w1, e1, w2, e2))
        cr = cross_ratio_points(w1h, e1h, w2h, e2h)
        x = cross_ratio_points(w1h, w2h, e1h, e2h)
        assert abs(-cr - (1 + x)) <= 8 * U * max(abs(cr), 1 + abs(x))
        d = hyp_distance_crossratio(w1, w2)
        assert abs(abs(math.log(abs(cr))) - d) <= 8 * U * (1 + d)

    def test_crossratio_matches_hyperboloid(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            w1 = UhpPoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            w2 = UhpPoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            if w1 == w2:
                continue
            d1 = hyp_distance_crossratio(w1, w2)
            d2 = hyp_distance_hyperboloid(lift_uhp(w1), lift_uhp(w2))
            assert abs(d1 - d2) <= 1e-10 * max(d1, 1.0)

    def test_crossratio_matches_arccosh_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            w1 = UhpPoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            w2 = UhpPoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            if w1 == w2:
                continue
            d1 = hyp_distance_crossratio(w1, w2)
            d2 = arccosh_oracle(w1, w2)
            assert abs(d1 - d2) <= 1e-10 * max(d2, 1.0)
