"""Horocycles, their circle views, and lambda lengths."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threeterm.errors import DegenerateError, DomainError
from threeterm.horocycles import (
    EuclideanCircle,
    horocycle_from_tangency,
    horocycle_to_circle,
    lambda_length,
)
from threeterm.measurements import ConcyclicConfig
from threeterm.models import BoundaryPoint, LightConePoint

SQRT2 = math.sqrt(2.0)
U = 2.0**-53  # the unit roundoff of a float


def horocycle_at(theta: float, z: float) -> LightConePoint:
    return LightConePoint(z * math.cos(theta), z * math.sin(theta), z)


class TestCircleView:
    def test_worked_example(self):
        circle = horocycle_to_circle(LightConePoint(SQRT2, 0, SQRT2))
        assert abs(circle.radius - 1 / 3) < 1e-15
        assert abs(circle.center[0] - 2 / 3) < 1e-15 and circle.center[1] == 0.0

    def test_radius_shrinks_under_scaling(self):
        u = horocycle_at(1.0, 1.0)
        radii = [
            horocycle_to_circle(LightConePoint(s * u.x, s * u.y, s * u.z)).radius
            for s in (1.0, 10.0, 1e4, 1e8)
        ]
        assert radii == sorted(radii, reverse=True)
        assert radii[-1] < 1e-7

    def test_internal_tangency(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            circle = horocycle_to_circle(horocycle_at(rng.uniform(0, 2 * math.pi),
                                                      rng.uniform(0.05, 50)))
            gap = math.hypot(*circle.center) + circle.radius - 1.0
            assert abs(gap) < 1e-12

    def test_invalid_radius_rejected(self):
        with pytest.raises(DomainError):
            EuclideanCircle((0.0, 0.0), 0.0)


class TestFromTangency:
    def test_worked_example(self):
        u = horocycle_from_tangency(BoundaryPoint(0.0), 1 / 3)
        assert abs(u.x - SQRT2) < 1e-15 and u.y == 0.0 and abs(u.z - SQRT2) < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            theta = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(1e-4, 1 - 1e-4)
            circle = horocycle_to_circle(horocycle_from_tangency(BoundaryPoint(theta), r))
            assert abs(circle.radius - r) < 1e-12
            assert abs(circle.center[0] - (1 - r) * math.cos(theta)) < 1e-12
            assert abs(circle.center[1] - (1 - r) * math.sin(theta)) < 1e-12

    @given(theta=st.floats(min_value=-10.0, max_value=10.0),
           r=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
    def test_same_vector_as_snapping_z(self, theta, r):
        # The light-cone point built directly with z = hypot(x, y) equals,
        # component for component, the one LightConePoint snaps z to from
        # (z cos theta, z sin theta, z).
        b = BoundaryPoint(theta)
        z = (1.0 / r - 1.0) / SQRT2
        old = LightConePoint(z * math.cos(b.theta), z * math.sin(b.theta), z)
        u = horocycle_from_tangency(b, r)
        assert type(u) is LightConePoint
        assert (u.x, u.y, u.z) == (old.x, old.y, old.z)

    def test_one_vector_per_horocycle(self, monkeypatch):
        # A horocycle is one LightConePoint, checked once and kept as built:
        # its z is hypot(x, y) already, so the check returns the tuple itself.
        calls = []
        post_init = LightConePoint.__post_init__
        monkeypatch.setattr(LightConePoint, "__post_init__",
                            lambda self: calls.append(self) or post_init(self))
        cfg = ConcyclicConfig((0.1, 0.7, 1.6, 2.9), (1e-4, 0.2, 0.05, 0.4))
        horocycles = [cfg.horocycle(i) for i in range(1, 5)]
        assert len(calls) == 4
        assert all(h is v for h, v in zip(horocycles, calls))

    @pytest.mark.parametrize("r", [1.0, 0.0, -0.2, 1.5])
    def test_radius_domain(self, r):
        with pytest.raises(DomainError):
            horocycle_from_tangency(BoundaryPoint(0.0), r)


class TestLambdaLength:
    def test_worked_example(self):
        h1 = horocycle_from_tangency(BoundaryPoint(0.0), 0.25)
        h2 = horocycle_from_tangency(BoundaryPoint(math.pi / 2), 0.25)
        lam = lambda_length(h1, h2)
        assert abs(lam - 3 / SQRT2) < 1e-14

    def test_symmetric(self):
        h1 = horocycle_at(0.3, 2.0)
        h2 = horocycle_at(2.9, 0.7)
        assert lambda_length(h1, h2) == lambda_length(h2, h1)

    def test_common_ray_rejected(self):
        h = horocycle_at(1.2, 3.0)
        scaled = LightConePoint(4.5 * h.x, 4.5 * h.y, 4.5 * h.z)
        with pytest.raises(DegenerateError):
            lambda_length(h, scaled)

    @given(
        r1=st.floats(min_value=0.01, max_value=0.99),
        r2=st.floats(min_value=0.01, max_value=0.99),
        phi=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_value_encodes_delta(self, r1, r2, phi):
        # Horocycles tangent at antipodal points phi and phi + pi meet the
        # diameter between them at distances 1 - 2r from the centre, so their
        # signed distance along it is delta = 2 atanh(1 - 2r1) + 2 atanh(1 - 2r2)
        # and the lambda length is exp(delta / 2).
        lam = lambda_length(horocycle_from_tangency(BoundaryPoint(phi), r1),
                            horocycle_from_tangency(BoundaryPoint(phi + math.pi), r2))
        delta = 2 * math.atanh(1 - 2 * r1) + 2 * math.atanh(1 - 2 * r2)
        assert abs(lam - math.exp(delta / 2)) <= 1e-12 * lam

    @given(
        s=st.floats(min_value=1e-3, max_value=1e3),
        theta=st.floats(min_value=0.2, max_value=6.0),
        z1=st.floats(min_value=0.05, max_value=20.0),
        z2=st.floats(min_value=0.05, max_value=20.0),
    )
    def test_scaling_law(self, s, theta, z1, z2):
        # replacing u1 by s*u1 multiplies the lambda length by sqrt(s)
        h1, h2 = horocycle_at(0.0, z1), horocycle_at(theta, z2)
        base = lambda_length(h1, h2)
        scaled = lambda_length(LightConePoint(s * h1.x, s * h1.y, s * h1.z), h2)
        assert abs(scaled - math.sqrt(s) * base) <= 1e-12 * scaled

    @settings(max_examples=300, deadline=None)
    @given(theta=st.floats(min_value=0.0, max_value=2 * math.pi),
           gap=st.floats(min_value=0.2, max_value=2 * math.pi - 0.2),
           log_z=st.tuples(st.floats(min_value=-308.0, max_value=308.0),
                           st.floats(min_value=-308.0, max_value=308.0)))
    def test_whole_float_range_against_mpmath(self, theta, gap, log_z):
        # Heights z over 10^+-308, ideal points at least 0.2 apart: z1*z2 and
        # the plain pairing leave the float range.  Lambda is never NaN, it is
        # infinite exactly where it exceeds the float range, and elsewhere it
        # is within 8u*(1 + z1*z2/lambda^2) of 50-digit mpmath: the pairing
        # takes a few roundings of the size of z1*z2, and lambda^2 = -pairing.
        # The worst of 20 000 random pairs was 2.2u of that.
        h1, h2 = horocycle_at(theta, 10.0 ** log_z[0]), horocycle_at(theta + gap, 10.0 ** log_z[1])
        lam = lambda_length(h1, h2)
        assert not math.isnan(lam)
        with mpmath.workdps(50):
            x1, y1, z1, x2, y2, z2 = (mpmath.mpf(v) for v in (*h1, *h2))
            square = z1 * z2 - x1 * x2 - y1 * y2
            want = mpmath.sqrt(square)
            if lam == math.inf:
                assert want > sys.float_info.max * (1 - 8 * U)
            else:
                assert abs(lam - want) <= 8 * U * (1 + z1 * z2 / square) * want

    @pytest.mark.parametrize("gap", [2e-9, 1e-12])
    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.5])
    def test_nearby_ideal_points(self, theta, gap):
        # Ideal points gap apart: the pairing's relative size, gap^2/2, is below
        # COMMON_RAY_TOL and its own rounding, and the gap of the ideal points
        # answers.  The directions are rounded to about u, which moves that gap
        # by about u: lambda is sqrt(2*z1*z2)*sin(gap/2) within 4u/gap, relative.
        z1, z2 = 7e8, 7e9
        lam = lambda_length(horocycle_at(theta, z1), horocycle_at(theta + gap, z2))
        want = math.sqrt(2 * z1 * z2) * math.sin(gap / 2)
        assert abs(lam - want) <= 4 * U / gap * want

    def test_sign_semantics(self):
        # lambda > 1 exactly when the horocycles are disjoint
        far = lambda_length(
            horocycle_from_tangency(BoundaryPoint(0.0), 0.2),
            horocycle_from_tangency(BoundaryPoint(math.pi), 0.2),
        )
        assert far > 1.0
        near = lambda_length(
            horocycle_from_tangency(BoundaryPoint(0.0), 0.45),
            horocycle_from_tangency(BoundaryPoint(0.1), 0.45),
        )
        c1 = horocycle_to_circle(horocycle_from_tangency(BoundaryPoint(0.0), 0.45))
        c2 = horocycle_to_circle(horocycle_from_tangency(BoundaryPoint(0.1), 0.45))
        centers = math.hypot(c1.center[0] - c2.center[0], c1.center[1] - c2.center[1])
        assert centers < c1.radius + c2.radius  # really overlapping
        assert near < 1.0

    def test_ptolemy_for_four_horocycles(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            thetas = np.sort(rng.uniform(0, 2 * math.pi, size=4))
            if np.min(np.diff(thetas)) < 1e-6:
                continue
            zs = rng.uniform(0.05, 20.0, size=4)
            h = [horocycle_at(t, z) for t, z in zip(thetas, zs)]
            lam = {
                (i, j): lambda_length(h[i], h[j])
                for i in range(4)
                for j in range(i + 1, 4)
            }
            lhs = lam[0, 1] * lam[2, 3] + lam[1, 2] * lam[0, 3]
            rhs = lam[0, 2] * lam[1, 3]
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
