"""Four-circle configurations and the d / t / lambda / P measurement families."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_config, square_config
from threeterm.errors import ConfigurationError
from threeterm.horocycles import horocycle_from_tangency
from threeterm.measurements import (
    ConcyclicConfig,
    bitangent_direct,
    lambda_minkowski,
    measure_all,
)
from threeterm.models import BoundaryPoint
from threeterm.relations import PAIRS, relative_residual

SQRT2 = math.sqrt(2.0)


@st.composite
def configs(draw) -> ConcyclicConfig:
    """Valid configurations: half-angles from positive gaps, log-uniform radii.

    The first half-angle may be pinned to 0 or the last to pi, the ends of
    the range (boundary angles 0 and 2*pi, the same point).  Draws whose
    circles overlap are dropped.
    """
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=5, max_size=5))
    total = sum(weights)
    alpha = [math.pi * sum(weights[:k + 1]) / total for k in range(4)]
    end = draw(st.sampled_from([None, 0, 3]))
    if end is not None:
        alpha[end] = 0.0 if end == 0 else math.pi
    r = [10.0 ** e for e in draw(st.lists(st.floats(min_value=-9.0, max_value=-0.25),
                                          min_size=4, max_size=4))]
    try:
        return ConcyclicConfig(tuple(alpha), tuple(r))
    except ConfigurationError:
        assume(False)


class TestConfigValidation:
    def test_square_is_valid(self):
        cfg = square_config()
        assert cfg.alpha[0] == math.pi / 4

    def test_ordering_required(self):
        with pytest.raises(ConfigurationError):
            ConcyclicConfig((0.5, 0.4, 1.0, 2.0), (0.1,) * 4)
        with pytest.raises(ConfigurationError):
            ConcyclicConfig((0.5, 0.5, 1.0, 2.0), (0.1,) * 4)

    def test_range_required(self):
        with pytest.raises(ConfigurationError):
            ConcyclicConfig((-0.1, 0.4, 1.0, 2.0), (0.1,) * 4)
        with pytest.raises(ConfigurationError):
            ConcyclicConfig((0.1, 0.4, 1.0, math.pi + 0.1), (0.1,) * 4)

    def test_radius_domain(self):
        with pytest.raises(ConfigurationError):
            ConcyclicConfig((0.1, 0.4, 1.0, 2.0), (0.0, 0.1, 0.1, 0.1))
        with pytest.raises(ConfigurationError):
            ConcyclicConfig((0.1, 0.4, 1.0, 2.0), (0.1, 0.1, 0.1, 1.0))

    def test_overlap_rejected_and_named(self):
        with pytest.raises(ConfigurationError, match="circles 1 and 2"):
            ConcyclicConfig((0.5, 0.52, 1.5, 2.5), (0.2, 0.2, 0.1, 0.1))

    def test_tangent_circles_rejected(self):
        # antipodal circles with r1 + r3 = 1 touch exactly; strict margin rejects
        alpha = (0.0, 0.3, math.pi / 2, 2.5)
        with pytest.raises(ConfigurationError):
            ConcyclicConfig(alpha, (0.5, 0.05, 0.5, 0.05))

    @pytest.mark.parametrize("index", [0, 5, -1])
    def test_horocycle_index_range(self, index):
        # The package's one 1..4 index check; -1 would otherwise read H_3.
        with pytest.raises(IndexError):
            square_config().horocycle(index)


class TestFromLightcone:
    @settings(max_examples=300, deadline=None)
    @given(cfg=configs())
    def test_own_horocycles_give_back_the_config(self, cfg):
        # configs() draws half-angles 0 and pi too: tangencies at boundary
        # angles 0 and 2*pi, the wrap that reads back as pi.
        vectors = [tuple(cfg.horocycle(i)) for i in range(1, 5)]
        back = ConcyclicConfig.from_lightcone(vectors)
        for got, want in zip(back.alpha + back.r, cfg.alpha + cfg.r):
            assert abs(got - want) <= 4 * math.ulp(want)


class TestChord:
    def test_diameter(self):
        cfg = ConcyclicConfig((0.1, 0.2, 0.1 + math.pi / 2, 2.9), (0.01,) * 4)
        assert abs(measure_all(cfg).d.a13 - 2.0) < 1e-15

    def test_square_values(self):
        d = measure_all(square_config()).d
        assert abs(d.a12 - SQRT2) < 1e-15
        assert abs(d.a13 - 2.0) < 1e-15
        assert abs(d.a14 - SQRT2) < 1e-15

    def test_coordinate_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            cfg = random_config(rng)
            for (i, j), d in zip(PAIRS, measure_all(cfg).d):
                ai = cfg.tangency_points[i - 1]
                aj = cfg.tangency_points[j - 1]
                norm = math.hypot(ai[0] - aj[0], ai[1] - aj[1])
                assert abs(d - norm) < 1e-12


class TestEuclideanCenter:
    def test_worked_example(self):
        cfg = ConcyclicConfig((0.0, 0.9, 1.8, 2.7), (1 / 3, 0.1, 0.1, 0.1))
        cx, cy = cfg.centers[0]
        assert abs(cx - 2 / 3) < 1e-15 and cy == 0.0

    def test_tiny_radius_approaches_tangency(self):
        cfg = ConcyclicConfig((0.3, 0.9, 1.8, 2.7), (1e-9, 0.1, 0.1, 0.1))
        cx, cy = cfg.centers[0]
        ax, ay = cfg.tangency_points[0]
        assert math.hypot(cx - ax, cy - ay) < 2e-9

    def test_tangency_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            cfg = random_config(rng)
            for (cx, cy), r in zip(cfg.centers, cfg.r):
                assert abs(math.hypot(cx, cy) + r - 1.0) < 1e-15


class TestBitangent:
    def test_square_value(self):
        assert abs(measure_all(square_config()).t.a12 - 0.75 * SQRT2) < 1e-15

    def test_point_degeneration(self):
        table = measure_all(ConcyclicConfig((0.3, 0.9, 1.8, 2.7), (1e-9,) * 4))
        for t, d in zip(table.t, table.d):
            assert abs(t - d) <= 1e-8

    def test_direct_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            cfg = random_config(rng)
            for t, oracle in zip(measure_all(cfg).t, bitangent_direct(cfg)):
                assert abs(t - oracle) <= 1e-10 * oracle


class TestLambdaMeasure:
    def test_square_value(self):
        assert abs(measure_all(square_config()).lam.a12 - 3 / SQRT2) < 1e-14

    def test_half_radius_unit_factor(self):
        # two half-radius circles fit only antipodally and only in the limit
        # r -> 1/2, where sqrt(2r_i)*sqrt(2r_j) -> 1 and lambda -> t
        r = 0.4999
        cfg = ConcyclicConfig((0.05, 0.8, 0.05 + math.pi / 2, 2.8), (r, 0.01, r, 0.01))
        table = measure_all(cfg)
        lam, t = table.lam.a13, table.t.a13
        assert abs(lam - t) <= 5e-4 * t
        assert abs(lam * 2.0 * r - t) < 1e-14

    def test_minkowski_oracle(self):
        rng = np.random.default_rng(47)
        for _ in range(1000):
            cfg = random_config(rng)
            for lam, oracle in zip(measure_all(cfg).lam, lambda_minkowski(cfg)):
                assert abs(lam - oracle) <= 1e-10 * oracle


class TestPluckerMeasure:
    def test_right_angle(self):
        cfg = ConcyclicConfig((0.1, 0.2, 0.1 + math.pi / 2, 2.9), (0.01,) * 4)
        assert abs(measure_all(cfg).p.a13 - 1.0) < 1e-15

    def test_square_value(self):
        assert abs(measure_all(square_config()).p.a12 - SQRT2 / 2) < 1e-15

    def test_equals_half_chord(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            table = measure_all(random_config(rng))
            for p, d in zip(table.p, table.d):
                assert abs(2.0 * p - d) < 1e-12


class TestMeasureAll:
    def test_square_table(self):
        table = measure_all(square_config())
        expected_d = (SQRT2, 2.0, SQRT2, SQRT2, 2.0, SQRT2)
        for got, want in zip(table.d.values(), expected_d):
            assert abs(got - want) < 1e-14
        for got, want in zip(table.t.values(), expected_d):
            assert abs(got - 0.75 * want) < 1e-14
        for got, t in zip(table.lam.values(), table.t.values()):
            assert abs(got - 2.0 * t) < 1e-14
        for got, want in zip(table.p.values(), expected_d):
            assert abs(got - want / 2.0) < 1e-14

    def test_all_residuals_small(self):
        rng = np.random.default_rng(59)
        for _ in range(500):
            table = measure_all(random_config(rng))
            for tup in (table.d, table.t, table.lam, table.p):
                assert relative_residual(tup) <= 1e-10

    def test_positive_entries(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            table = measure_all(random_config(rng))
            for tup in (table.d, table.t, table.lam, table.p):
                assert all(v > 0.0 for v in tup.values())


class TestRescalingConstruction:
    """measure_all builds t and lambda from d; its stored geometry must equal fresh geometry."""

    @settings(max_examples=50, deadline=None)
    @given(cfg=configs())
    def test_stored_geometry_equals_fresh(self, cfg):
        for i in range(1, 5):
            two_alpha = 2.0 * cfg.alpha[i - 1]
            point = (math.cos(two_alpha), math.sin(two_alpha))
            assert cfg.tangency_points[i - 1] == point
            scale = 1.0 - cfg.r[i - 1]
            assert cfg.centers[i - 1] == (scale * point[0], scale * point[1])
            first = cfg.horocycle(i)
            assert first == horocycle_from_tangency(BoundaryPoint(two_alpha), cfg.r[i - 1])
            assert cfg.horocycle(i) == first
