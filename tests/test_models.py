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


def lift_uhp(w: UhpPoint) -> HyperboloidPoint:
    """Independent route to the hyperboloid: Cayley to the disk, then lift."""
    return disk_to_hyperboloid(cayley_uhp_to_disk(w))


def arccosh_oracle(w1: UhpPoint, w2: UhpPoint) -> float:
    """Textbook half-plane distance: cosh d = 1 + |w1-w2|^2 / (2 y1 y2)."""
    dx, dy = w1.re - w2.re, w1.im - w2.im
    return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * w1.im * w2.im))


# Unit roundoff of a float: one correctly rounded operation is off by at most U.
U = 2.0**-53

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
        v = disk_to_hyperboloid(DiskPoint(0, 0)).v
        assert (v.x, v.y, v.z) == (0.0, 0.0, 1.0)

    def test_half_point(self):
        v = disk_to_hyperboloid(DiskPoint(0.5, 0)).v
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
        p = hyperboloid_to_disk(HyperboloidPoint(MinkowskiVec(0, 0, 1)))
        assert (p.x, p.y) == (0.0, 0.0)

    def test_inverse_of_half_point(self):
        p = hyperboloid_to_disk(HyperboloidPoint(MinkowskiVec(4 / 3, 0, 5 / 3)))
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
            p = hyperboloid_to_disk(HyperboloidPoint(MinkowskiVec(x, y, z)))
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
        v = HyperboloidPoint(MinkowskiVec(4 / 3, 0, 5 / 3 * (1 + 1e-11))).v
        assert abs(mink_pair(v, v) + 1.0) < 1e-14
        with pytest.raises(DomainError):
            HyperboloidPoint(MinkowskiVec(4 / 3, 0, 5 / 3 * (1 + 1e-3)))
        with pytest.raises(DomainError):
            HyperboloidPoint(MinkowskiVec(0, 0, -1))


class TestLightCone:
    def test_boundary_projection(self):
        b = lightcone_to_boundary(LightConePoint(MinkowskiVec(3, 4, 5)))
        assert abs(b.theta - math.atan2(4, 3)) < 1e-15
        assert abs(b.as_complex().real - 0.6) < 1e-15 and abs(b.as_complex().imag - 0.8) < 1e-15

    @pytest.mark.parametrize("z", [1.0, 1e-320, 1e300])
    def test_axis_vector_rejected(self, z):
        # (0, 0, z) misses the cone by exactly 1, whether its square is
        # normal, underflows or overflows.
        with pytest.raises(DomainError, match="misses 0 by 1.000e[+]00"):
            LightConePoint(MinkowskiVec(0.0, 0.0, z))

    def test_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            theta = rng.uniform(0, 2 * math.pi)
            z = rng.uniform(0.1, 10)
            s = rng.uniform(0.01, 100)
            u = MinkowskiVec(z * math.cos(theta), z * math.sin(theta), z)
            b1 = lightcone_to_boundary(LightConePoint(u))
            b2 = lightcone_to_boundary(LightConePoint(MinkowskiVec(s * u.x, s * u.y, s * u.z)))
            assert abs(b1.theta - b2.theta) < 1e-12

    def test_unit_ray(self):
        assert lightcone_to_boundary(LightConePoint(MinkowskiVec(1, 0, 1))).theta == 0.0

    def test_rejects_off_cone(self):
        with pytest.raises(DomainError):
            LightConePoint(MinkowskiVec(1, 0, 2))
        with pytest.raises(DomainError):
            LightConePoint(MinkowskiVec(0, 0, 0))
        with pytest.raises(DomainError):
            LightConePoint(MinkowskiVec(-1, 0, -1))

    @pytest.mark.parametrize("cls", [LightConePoint, HyperboloidPoint])
    def test_overflowing_pairing_rejected(self, cls):
        # The squares overflow, so the pairing is NaN or inf and cannot vouch
        # for the vector.  Divided by its largest component, each vector
        # misses the cone by 0.75, 0.96 and 1.
        for v in ((1e200, 0, 2e200), (1e200, 0, 5e200), (1e200, 0, 1)):
            with pytest.raises(DomainError):
                cls(MinkowskiVec(*v))

    @pytest.mark.parametrize("cls,field", [(LightConePoint, "u"), (HyperboloidPoint, "v")])
    def test_overflowing_pairing_checked_at_unit_scale(self, cls, field):
        # (1e200, 0, 1e200) is on the cone, and -1 is below 1e-400 of its
        # squares, so it lies on the hyperboloid within the tolerance too.
        u = getattr(cls(MinkowskiVec(1e200, 0, 1e200)), field)
        assert (u.x, u.y, u.z) == (1e200, 0.0, 1e200)

    def test_underflowing_squares_checked_at_unit_scale(self):
        # Squares below the normal floats lose digits or vanish, so the
        # pairing cannot tell (1e-160, 0, 1.00001e-160) from the cone.
        u = LightConePoint(MinkowskiVec(3e-200, 4e-200, 5e-200)).u
        assert (u.x, u.y, u.z) == (3e-200, 4e-200, 5e-200)
        for v in ((1e-200, 0, 5e-200), (1e-160, 0, 1.00001e-160)):
            with pytest.raises(DomainError):
                LightConePoint(MinkowskiVec(*v))
        with pytest.raises(DomainError):
            HyperboloidPoint(MinkowskiVec(1e-200, 0, 1e-200))


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

    def test_interior_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            w = UhpPoint(rng.uniform(-5, 5), rng.uniform(0.05, 5))
            p = cayley_uhp_to_disk(w)
            assert p.x**2 + p.y**2 < 1.0
            back = cayley_disk_to_uhp(p)
            assert abs(back.re - w.re) < 1e-12 and abs(back.im - w.im) < 1e-12

    def test_boundary_round_trip(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            b = BoundaryPoint(rng.uniform(0.01, 2 * math.pi - 0.01))
            w = cayley_disk_to_uhp(b)
            assert w.is_ideal and not w.at_infinity
            back = cayley_uhp_to_disk(w)
            assert abs(back.theta - b.theta) < 1e-12


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

    def test_underflowing_cross_ratio_rejected(self):
        # Side by side at height 1e-200, about 921 apart: the geodesic's
        # endpoints are 0 and 1, so the cross-ratio is about (1e-200)^2 and
        # underflows to 0.
        with pytest.raises(DomainError, match="underflows"):
            hyp_distance_crossratio(UhpPoint(0.0, 1e-200), UhpPoint(1.0, 1e-200))

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
        # float range, from an ulp apart to over 600 decades apart.  The
        # answer comes from log1p, the log of the ratio, or the difference of
        # two logs, each within a few roundings of d: 4 U relative.
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
        v = HyperboloidPoint(MinkowskiVec(4 / 3, 0, 5 / 3))
        assert hyp_distance_hyperboloid(v, v) == 0.0

    def test_apex_distance(self):
        apex = HyperboloidPoint(MinkowskiVec(0, 0, 1))
        v = HyperboloidPoint(MinkowskiVec(4 / 3, 0, 5 / 3))
        assert abs(hyp_distance_hyperboloid(apex, v) - math.acosh(5 / 3)) < 1e-12

    @settings(deadline=None)
    @given(radius=st.floats(min_value=0.0, max_value=0.85), phi=angles,
           log_step=st.floats(min_value=-10.0, max_value=-1.0), theta=angles)
    def test_small_distances_against_mpmath(self, radius, phi, log_step, theta):
        # Two points 10**log_step apart, against the disk distance
        # 2 atanh(|p-q| / |1 - conj(p) q|) at 50 digits.  Each lifted
        # component is off by a few U*z, while the difference of two lifts a
        # distance d apart has components of about d*z; so <w,w> = 4 sinh^2(d/2)
        # is off by about U*z^2*d and d by about U*z^2/d, relative.  The
        # bound allows 8 of that, with z the larger height of the two lifts.
        p = polar(radius, phi)
        step = 10.0**log_step
        q = DiskPoint(p.x + step * math.cos(theta), p.y + step * math.sin(theta))
        assume((q.x, q.y) != (p.x, p.y))
        v1, v2 = disk_to_hyperboloid(p), disk_to_hyperboloid(q)
        with mpmath.workdps(50):
            a, b = mpmath.mpc(p.x, p.y), mpmath.mpc(q.x, q.y)
            want = float(2 * mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(a) * b)))
        z = max(v1.v.z, v2.v.z)
        got = hyp_distance_hyperboloid(v1, v2)
        assert abs(got - want) <= 8 * U * (1.0 + z * z / want) * want

    @settings(max_examples=300, deadline=None)
    @given(re=st.floats(min_value=-2.0, max_value=2.0), im=st.floats(min_value=0.5, max_value=2.0),
           log_d=st.floats(min_value=-9.0, max_value=1.5), vertical=st.booleans())
    def test_crossratio_against_mpmath(self, re, im, log_d, vertical):
        # Pairs at distance d = 10**log_d in [1e-9, 30], one above the other
        # or side by side, against 2 asinh(|w1-w2| / (2 sqrt(y1 y2))) at 50
        # digits.  Vertical pairs have exact endpoints, so only the handful
        # of roundings of the cross-ratio and its log remain: 8 U.  Side by
        # side, the endpoints' centre c = (|w1|^2 - |w2|^2)/(2 (re1 - re2))
        # cancels: it is off by about U*s/(im*d), s the larger |w|^2, and
        # moves d by the square of that over im, relative; the bound allows
        # 2 of that term, which was below 1 in 10 000 samples.
        d = 10.0**log_d
        w1 = UhpPoint(re, im)
        w2 = UhpPoint(re, im * math.exp(d)) if vertical else UhpPoint(re + 2 * im * math.sinh(d / 2), im)
        with mpmath.workdps(50):
            x1, y1, x2, y2 = (mpmath.mpf(v) for v in (w1.re, w1.im, w2.re, w2.im))
            dist = mpmath.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2)
            want = float(2 * mpmath.asinh(dist / (2 * mpmath.sqrt(y1 * y2))))
        bound = 8 * U
        if not vertical:
            s = max(w1.re**2, w2.re**2) + im * im
            bound += 2 * (U * s / (im * im * want)) ** 2
        assert abs(hyp_distance_crossratio(w1, w2) - want) <= bound * want

    @settings(max_examples=300, deadline=None)
    @given(re=st.floats(min_value=-10.0, max_value=10.0),
           log_im=st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                            st.floats(min_value=-3.0, max_value=3.0)),
           log_dre=st.floats(min_value=-9.0, max_value=1.0), left=st.booleans())
    def test_side_by_side_against_mpmath(self, re, log_im, log_dre, left):
        # Heights in [1e-3, 1e3] and |re1 - re2| in [1e-9, 10], against
        # 2 asinh(|w1-w2| / (2 sqrt(y1 y2))) at 50 digits.  Both endpoints are
        # formed without cancellation (see geodesic_ideal_endpoints), so a
        # few roundings remain in them, the cross-ratio and its log: 8 U.  The
        # worst of 23 000 random pairs and 20 000 drawn here was 5.7 U; with
        # the centre taken from |w1|^2 - |w2|^2 it was 1e15 U.
        dre = 10.0**log_dre
        w1 = UhpPoint(re, 10.0 ** log_im[0])
        w2 = UhpPoint(re - dre if left else re + dre, 10.0 ** log_im[1])
        assume(w1.re != w2.re)
        with mpmath.workdps(50):
            x1, y1, x2, y2 = (mpmath.mpf(v) for v in (w1.re, w1.im, w2.re, w2.im))
            dist = mpmath.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2)
            want = float(2 * mpmath.asinh(dist / (2 * mpmath.sqrt(y1 * y2))))
        assert abs(hyp_distance_crossratio(w1, w2) - want) <= 8 * U * want

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
