"""Quadric residuals, torus action, cross-ratios, and the rescaling solver."""

import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_config, square_config
from threeterm.errors import DegenerateError, NotSameOrbitError, OffQuadricError
from threeterm.grassmann import reconstruct
from threeterm.measurements import measure_all
from threeterm.relations import (
    PAIRS,
    SixTuple,
    TorusElement,
    _ldexp,
    _residual_and_scale,
    cross_ratio_invariant,
    cross_ratio_points,
    is_on_quadric,
    quadric_scale,
    relative_residual,
    rescaling_solve,
    residual,
    torus_apply,
)

SQRT2 = math.sqrt(2.0)
SQUARE_CHORDS = SixTuple(SQRT2, 2.0, SQRT2, SQRT2, 2.0, SQRT2)

nonzero_scalar = st.floats(min_value=0.2, max_value=5.0).flatmap(
    lambda m: st.sampled_from([m, -m])
)


@st.composite
def six_tuples(draw) -> SixTuple:
    """The minors of a drawn 2x4 matrix (on the quadric up to rounding), or six drawn entries."""
    if draw(st.booleans()):
        v = draw(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=8, max_size=8))
        return SixTuple(*[v[i - 1] * v[j + 3] - v[j - 1] * v[i + 3] for i, j in PAIRS])
    return SixTuple(*draw(st.lists(nonzero_scalar, min_size=6, max_size=6)))


moderate = st.one_of(st.just(0.0), st.floats(min_value=2.0**-20, max_value=2.0**20)).flatmap(
    lambda m: st.sampled_from([m, -m])
)


def _bits(*values) -> list:
    """The values' exact bit patterns, the sign of a zero included."""
    return [(v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex() for v in values]


def away_from_band(t: SixTuple) -> bool:
    """Whether membership at tol 1e-10 is clear: within a few rounding errors
    of the tolerance the test may flip either way under a rescaling."""
    rr = relative_residual(t)
    return rr < 1e-12 or rr > 1e-8


def random_on_quadric(rng, complex_mode=False, min_entry=0.05) -> SixTuple:
    """On-quadric tuple with entries bounded away from zero, via 2x4 minors."""
    while True:
        if complex_mode:
            m = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        else:
            m = rng.normal(size=(2, 4))
        x, y = m[0], m[1]
        vals = [x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1] for i, j in PAIRS]
        if min(abs(v) for v in vals) > min_entry:
            return SixTuple(*(complex(v) if complex_mode else float(v) for v in vals))


def random_torus(rng, complex_mode=False) -> TorusElement:
    if complex_mode:
        parts = [
            rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(4)
        ]
    else:
        parts = [rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]) for _ in range(4)]
    return TorusElement(*parts)


def assert_plus_minus(q: TorusElement, expected, tol=1e-9):
    for flip in (1.0, -1.0):
        if all(
            abs(got - flip * want) <= tol * max(abs(want), 1e-30)
            for got, want in zip(q.values(), expected)
        ):
            return
    raise AssertionError(f"{q.values()} is not ±{tuple(expected)}")


class TestResidual:
    def test_square_chords(self):
        assert abs(residual(SQUARE_CHORDS)) < 1e-14

    def test_ones(self):
        assert residual(SixTuple(1, 1, 1, 1, 1, 1)) == 1.0

    def test_zeros(self):
        assert residual(SixTuple(0, 0, 0, 0, 0, 0)) == 0.0

    def test_thresholding(self):
        assert is_on_quadric(SQUARE_CHORDS, 1e-10)
        assert not is_on_quadric(SixTuple(1, 1, 1, 1, 1, 1), 1e-10)
        assert is_on_quadric(SixTuple(0, 0, 0, 0, 0, 0), 1e-10)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            is_on_quadric(SQUARE_CHORDS, 0.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError):
            is_on_quadric(SixTuple(1, 2, 3, 4, 5, 6), math.nan)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_positive_and_finite_for_every_caller(self, tol):
        # Also for the all-zero tuple, whose margin tol*0 is NaN at tol = inf.
        zero = SixTuple(0, 0, 0, 0, 0, 0)
        calls = [lambda: is_on_quadric(zero, tol), lambda: is_on_quadric(SQUARE_CHORDS, tol),
                 lambda: rescaling_solve(SQUARE_CHORDS, SQUARE_CHORDS, tol),
                 lambda: reconstruct(zero, tol), lambda: reconstruct(SQUARE_CHORDS, tol)]
        for call in calls:
            with pytest.raises(ValueError, match="tolerance must be positive and finite"):
                call()

    def test_scale_is_largest_monomial(self):
        # No floor at 1: a tuple of tiny entries is judged by its own monomials.
        tiny = SixTuple(1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6)
        assert quadric_scale(tiny) == pytest.approx(12e-12)
        assert relative_residual(tiny) == pytest.approx(2.0 / 3.0)
        assert not is_on_quadric(tiny, 1e-10)

    def test_zero_tuple_relative_residual(self):
        assert relative_residual(SixTuple(0, 0, 0, 0, 0, 0)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(t=six_tuples(), s=st.floats(min_value=1e-8, max_value=1e8))
    def test_membership_invariant_under_scaling(self, t, s):
        assume(quadric_scale(t) > 1e-6 and away_from_band(t))
        scaled = SixTuple(*[s * v for v in t])
        assert is_on_quadric(scaled, 1e-10) == is_on_quadric(t, 1e-10)

    @settings(max_examples=200, deadline=None)
    @given(t=six_tuples(), k=st.integers(min_value=-600, max_value=600))
    def test_membership_invariant_under_powers_of_two(self, t, k):
        # 2^k*t has monomials 2^(2k) times those of t, far beyond the float
        # range at the ends of k; the answer must not change.
        assume(quadric_scale(t) > 1e-6 and away_from_band(t))
        scaled = SixTuple(*[math.ldexp(v, k) for v in t])
        assert is_on_quadric(scaled, 1e-10) == is_on_quadric(t, 1e-10)

    def test_monomials_beyond_float_range(self):
        # Entries near 1e-170 have monomials that underflow to zero, and
        # entries near 1e170 monomials that overflow.
        tiny = SixTuple(1e-170, 2e-170, 3e-170, 4e-170, 5e-170, 6e-170)
        assert relative_residual(tiny) == pytest.approx(2.0 / 3.0)
        assert not is_on_quadric(tiny, 1e-10)
        huge = SixTuple(*[1e170 * v for v in SQUARE_CHORDS])
        assert relative_residual(huge) < 1e-15
        assert is_on_quadric(huge, 1e-10)
        on = random_on_quadric(np.random.default_rng(67), complex_mode=True)
        for s in (1e-170, 1e170):
            assert is_on_quadric(SixTuple(*[s * v for v in on]), 1e-10)
            assert not is_on_quadric(SixTuple(s, s, s, s, s, s * 1j), 1e-10)

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(moderate, min_size=12, max_size=12), is_complex=st.booleans(),
           k=st.integers(min_value=-540, max_value=510))
    def test_residual_and_scale_bit_for_bit(self, parts, is_complex, k):
        # base has monomials in [2^-40, 2^42] (or 0) and 2^k*base, entries
        # exact, monomials anywhere from 2^-1120 to 2^1062.  Where the
        # largest lies in the window the pair is (residual, quadric_scale)
        # of the tuple itself; outside it, that of base times one power of
        # two, which the frexp branch forms without rounding anew.
        if is_complex:
            base = SixTuple(*[complex(re, im) for re, im in zip(parts[:6], parts[6:])])
        else:
            base = SixTuple(*parts[:6])
        t = SixTuple(*[_ldexp(v, k) for v in base])
        got = _residual_and_scale(t)
        if 2.0**-969 <= quadric_scale(t) <= 2.0**1022:
            assert _bits(*got) == _bits(residual(t), quadric_scale(t))
        else:
            res, scale = residual(base), quadric_scale(base)
            j = math.frexp(got[1])[1] - math.frexp(scale)[1]
            assert _bits(*got) == _bits(_ldexp(res, j), math.ldexp(scale, j))


class TestTorusAction:
    def test_identity(self):
        q = TorusElement(1, 1, 1, 1)
        assert torus_apply(q, SQUARE_CHORDS) == SQUARE_CHORDS

    def test_worked_example(self):
        b = torus_apply(TorusElement(1, 2, 3, 4), SQUARE_CHORDS)
        expected = (2 * SQRT2, 6.0, 4 * SQRT2, 6 * SQRT2, 16.0, 12 * SQRT2)
        for got, want in zip(b.values(), expected):
            assert abs(got - want) < 1e-13
        assert relative_residual(b) < 1e-14

    def test_zero_component_rejected(self):
        with pytest.raises(DegenerateError):
            TorusElement(1, 0, 1, 1)

    @given(qs=st.tuples(*[nonzero_scalar] * 8))
    def test_composition(self, qs):
        q1 = TorusElement(*qs[:4])
        q2 = TorusElement(*qs[4:])
        composed = TorusElement(*(a * b for a, b in zip(q1.values(), q2.values())))
        lhs = torus_apply(q1, torus_apply(q2, SQUARE_CHORDS))
        rhs = torus_apply(composed, SQUARE_CHORDS)
        for a, b in zip(lhs.values(), rhs.values()):
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    def test_residual_scaling_law(self):
        # residual(q.t) = q1*q2*q3*q4 * residual(t): on-quadric is preserved
        # both ways, off-quadric stays off
        rng = np.random.default_rng(67)
        for _ in range(300):
            t = SixTuple(*rng.uniform(-3, 3, size=6))
            q = random_torus(rng)
            factor = math.prod(q.values())
            res_b = residual(torus_apply(q, t))
            res_a = residual(t)
            assert abs(res_b - factor * res_a) <= 1e-10 * max(abs(res_b), abs(res_a), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(t=six_tuples(), q=st.tuples(*[nonzero_scalar] * 4))
    def test_preserves_quadric_membership(self, t, q):
        assume(quadric_scale(t) > 1e-6 and away_from_band(t))
        image = torus_apply(TorusElement(*q), t)
        assert is_on_quadric(image, 1e-10) == is_on_quadric(t, 1e-10)


class TestCrossRatioInvariant:
    def test_square_value(self):
        assert abs(cross_ratio_invariant(SQUARE_CHORDS) - 1.0) < 1e-14

    def test_invariant_under_action(self):
        rng = np.random.default_rng(73)
        for _ in range(200):
            t = random_on_quadric(rng)
            q = random_torus(rng)
            a = cross_ratio_invariant(t)
            b = cross_ratio_invariant(torus_apply(q, t))
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0)

    def test_plus_one_identity(self):
        # on the quadric, invariant + 1 = a13*a24 / (a23*a14)
        rng = np.random.default_rng(79)
        for _ in range(200):
            t = random_on_quadric(rng)
            lhs = cross_ratio_invariant(t) + 1.0
            rhs = t.a13 * t.a24 / (t.a23 * t.a14)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateError):
            cross_ratio_invariant(SixTuple(1, 1, 0, 0, 1, 1))

    @settings(max_examples=200, deadline=None)
    @given(t=six_tuples(), k=st.integers(min_value=-600, max_value=600), turn=st.booleans())
    def test_invariant_under_powers_of_two(self, t, k, turn):
        # Beyond the float range the products come from frexp mantissas, which
        # 2^k leaves alone; within it they are the plain products, whose
        # quotient may differ from the mantissas' by a few ulps.
        assume(all(abs(v) > 1e-100 for v in t))
        if turn:
            t = SixTuple(*[1j * v for v in t])
        want = cross_ratio_invariant(t)
        got = cross_ratio_invariant(SixTuple(*[v * 2.0 ** k for v in t]))
        assert abs(got - want) <= 1e-15 * abs(want)

    def test_products_beyond_float_range(self):
        # Entries near 1e-170 have products that underflow to zero, and
        # entries near 1e170 products that overflow.
        for s in (1e-170, 1e170):
            assert cross_ratio_invariant(SixTuple(*[s * v for v in SQUARE_CHORDS])) == 1.0
            other = SixTuple(*[s * v for v in (1, 2, 1, 1, 2, 3)])
            assert cross_ratio_invariant(other) == pytest.approx(3.0, rel=1e-15)


class TestRescalingSolve:
    def test_round_trip_square(self):
        q = TorusElement(1, 2, 3, 4)
        b = torus_apply(q, SQUARE_CHORDS)
        assert_plus_minus(rescaling_solve(SQUARE_CHORDS, b), (1, 2, 3, 4))

    def test_identity_orbit(self):
        q = rescaling_solve(SQUARE_CHORDS, SQUARE_CHORDS)
        assert_plus_minus(q, (1, 1, 1, 1))

    def test_principal_representative_is_positive(self):
        b = torus_apply(TorusElement(1, 2, 3, 4), SQUARE_CHORDS)
        q = rescaling_solve(SQUARE_CHORDS, b)
        assert q.q1 > 0

    def test_chords_to_bitangents(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            cfg = random_config(rng)
            table = measure_all(cfg)
            q = rescaling_solve(table.d, table.t)
            assert_plus_minus(q, [math.sqrt(1 - v) for v in cfg.r])

    def test_lambdas_to_bitangents(self):
        rng = np.random.default_rng(89)
        cfg = random_config(rng)
        table = measure_all(cfg)
        q = rescaling_solve(table.lam, table.t)
        assert_plus_minus(q, [math.sqrt(2 * v) for v in cfg.r])

    def test_doubled_plucker_to_chords(self):
        rng = np.random.default_rng(97)
        cfg = random_config(rng)
        table = measure_all(cfg)
        doubled = SixTuple(*(2.0 * v for v in table.p))
        assert_plus_minus(rescaling_solve(doubled, table.d), (1, 1, 1, 1))

    def test_complex_round_trip(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            t = random_on_quadric(rng, complex_mode=True)
            q = random_torus(rng, complex_mode=True)
            recovered = rescaling_solve(t, torus_apply(q, t))
            assert_plus_minus(recovered, q.values())

    def test_negative_radicand_gives_complex_q(self):
        # real orbit pair linked only by an imaginary rescaling
        q = TorusElement(1j, -1j, 1j, 1j)
        b = torus_apply(q, SQUARE_CHORDS)
        assert all(isinstance(v, complex) and abs(v.imag) < 1e-15 for v in b.values())
        real_b = SixTuple(*(v.real for v in b))
        recovered = rescaling_solve(SQUARE_CHORDS, real_b)
        assert_plus_minus(recovered, q.values())

    def test_orbit_mismatch(self):
        # on-quadric (1*3 + 1*1 = 2*2) but invariant 3 instead of 1
        other = SixTuple(1, 2, 1, 1, 2, 3)
        assert is_on_quadric(other, 1e-12)
        with pytest.raises(NotSameOrbitError) as info:
            rescaling_solve(SQUARE_CHORDS, other)
        assert abs(info.value.invariant_a - 1.0) < 1e-12
        assert abs(info.value.invariant_b - 3.0) < 1e-12

    def test_postcondition_names_the_entry(self):
        # b34 is off by 1e-9 of itself: the quadric residual (1e-11 of the
        # largest monomial) and the invariant gap (1e-11) both pass at 1e-10,
        # and only the entrywise check of q against b catches it.
        a = SixTuple(0.01, 1.01, 1.0, 1.0, 1.0, 1.0)
        b12, b13, b14, b23, b24, b34 = torus_apply(TorusElement(2.0, 0.5, 3.0, 1.5), a)
        b = SixTuple(b12, b13, b14, b23, b24, b34 * (1.0 + 1e-9))
        assert is_on_quadric(a, 1e-10) and is_on_quadric(b, 1e-10)
        with pytest.raises(NotSameOrbitError, match="entry 34") as info:
            rescaling_solve(a, b)
        assert info.value.invariant_a == 0.01
        assert abs(info.value.invariant_b - 0.01) <= 1e-10

    def test_zero_entry_rejected(self):
        with pytest.raises(DegenerateError):
            rescaling_solve(SixTuple(0, 2, 1, 1, 2, 1), SixTuple(1, 2, 1, 1, 2, 1))

    @pytest.mark.parametrize("zero", [0.0, -0.0, 0j, complex(-0.0, 0.0)])
    def test_zero_entry_rejected_at_every_position(self, zero):
        for k in range(12):
            entries = [*SQUARE_CHORDS, *SQUARE_CHORDS]
            entries[k] = zero
            with pytest.raises(DegenerateError, match="all twelve entries nonzero"):
                rescaling_solve(SixTuple(*entries[:6]), SixTuple(*entries[6:]))

    def test_off_quadric_rejected(self):
        good = SQUARE_CHORDS
        bad = SixTuple(1, 1, 1, 1, 1, 1)
        with pytest.raises(OffQuadricError, match="first tuple is off the quadric"):
            rescaling_solve(bad, good)
        with pytest.raises(OffQuadricError, match="second tuple is off the quadric") as info:
            rescaling_solve(good, bad, 1e-6)
        # The margins behind the verdict: residual, relative residual, tolerance.
        assert (info.value.residual, info.value.relative_residual, info.value.tol) == (1, 1.0, 1e-6)

    def test_off_quadric_margins_at_underflow(self):
        # The monomials underflow: the residual is the plain one, 0.0, and the
        # relative residual is formed at unit scale.
        bad = SixTuple(1e-170, 2e-170, 3e-170, 4e-170, 5e-170, 6e-170)
        with pytest.raises(OffQuadricError) as info:
            rescaling_solve(bad, bad)
        exc = info.value
        assert exc.residual == residual(bad) == 0.0
        assert exc.relative_residual == relative_residual(bad) == pytest.approx(2 / 3)
        assert str(exc) == f"first tuple is off the quadric: relative residual {exc.relative_residual}"

    def test_uniqueness_up_to_sign(self):
        # both roots of q1^2 solve the system; the solver's answer is one of
        # them and matches the injected q up to the global sign
        rng = np.random.default_rng(103)
        t = random_on_quadric(rng)
        q = random_torus(rng)
        b = torus_apply(q, t)
        got = rescaling_solve(t, b)
        for candidate in (got, TorusElement(*(-v for v in got))):
            qs = (None,) + candidate.values()
            for (i, j), av, bv in zip(PAIRS, t.values(), b.values()):
                assert abs(qs[i] * qs[j] * av - bv) <= 1e-9 * abs(bv)
        assert_plus_minus(got, q.values())

    def test_ratio_tuple_implied_identities(self):
        # equal invariants force c12*c34 = c23*c14 = c13*c24
        rng = np.random.default_rng(107)
        for _ in range(100):
            t = random_on_quadric(rng)
            b = torus_apply(random_torus(rng), t)
            c12, c13, c14, c23, c24, c34 = (bv / av for av, bv in zip(t, b))
            scale = max(abs(v) for v in (c12, c13, c14, c23, c24, c34)) ** 2
            assert abs(c12 * c34 - c23 * c14) <= 1e-10 * scale
            assert abs(c23 * c14 - c13 * c24) <= 1e-10 * scale

    def test_beyond_float_range(self):
        tiny = SixTuple(*[1e-170 * v for v in SQUARE_CHORDS])
        huge = SixTuple(*[1e170 * v for v in SQUARE_CHORDS])
        assert_plus_minus(rescaling_solve(tiny, tiny), (1, 1, 1, 1))
        assert_plus_minus(rescaling_solve(huge, huge), (1, 1, 1, 1))
        # q1^2 = c12*c13/c23 = 1e-170, though c12*c13 underflows.
        assert_plus_minus(rescaling_solve(SQUARE_CHORDS, tiny), (1e-85,) * 4)
        with pytest.raises(NotSameOrbitError) as info:
            rescaling_solve(huge, SixTuple(*[1e170 * v for v in (1, 2, 1, 1, 2, 3)]))
        assert info.value.invariant_a == 1.0
        assert info.value.invariant_b == pytest.approx(3.0, rel=1e-15)

    def test_ratios_beyond_float_range_rejected(self):
        # b_ij/a_ij underflows to 0 or overflows to inf: no float q_i*q_j
        # exists, and either way the error says so.
        a = SixTuple(*[1e300 * v for v in SQUARE_CHORDS])
        b = SixTuple(*[1e-300 * v for v in SQUARE_CHORDS])
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DegenerateError, match="rescaling leaves the float range"):
                rescaling_solve(x, y)

    def test_ratio_tuple_zero_rejected(self):
        # a zero entry in the target tuple makes a zero ratio b_ij/a_ij
        with pytest.raises(DegenerateError):
            rescaling_solve(SQUARE_CHORDS, SixTuple(0, 1, 1, 1, 1, 1))


class TestCrossRatioPoints:
    def test_standard_triple(self):
        # [0, 1, inf, w] with the determinant convention gives -1/w
        zero, one, inf = (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)
        for w in (2.5, -1.25, 0.4):
            value = cross_ratio_points(zero, one, inf, (w, 1.0))
            assert abs(value - (-1.0 / w)) < 1e-14

    def test_single_vector_rescaling_invariance(self):
        rng = np.random.default_rng(109)
        pts = [tuple(rng.normal(size=2)) for _ in range(4)]
        base = cross_ratio_points(*pts)
        for k in range(4):
            s = rng.uniform(0.2, 5.0)
            scaled = list(pts)
            scaled[k] = (s * pts[k][0], s * pts[k][1])
            assert abs(cross_ratio_points(*scaled) - base) <= 1e-12 * max(abs(base), 1.0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateError):
            cross_ratio_points((1.0, 0.0), (0.0, 1.0), (0.0, 2.0), (1.0, 1.0))

    def test_matches_sixtuple_invariant(self):
        # same formula as the orbit invariant of the minors of [X1 X2 X3 X4]
        rng = np.random.default_rng(113)
        for _ in range(100):
            cols = rng.normal(size=(2, 4))
            pts = [tuple(cols[:, k]) for k in range(4)]
            minors = [
                cols[0, i - 1] * cols[1, j - 1] - cols[0, j - 1] * cols[1, i - 1]
                for i, j in PAIRS
            ]
            t = SixTuple(*minors)
            if abs(t.a23 * t.a14) < 1e-3:
                continue
            assert abs(
                cross_ratio_points(*pts) - cross_ratio_invariant(t)
            ) <= 1e-12 * max(abs(cross_ratio_invariant(t)), 1.0)


# Each way to build a value again from an existing one, by name.
REBUILDS = {"copy": copy.copy, "deepcopy": copy.deepcopy} | {
    f"pickle{k}": (lambda v, k=k: pickle.loads(pickle.dumps(v, protocol=k)))
    for k in range(pickle.HIGHEST_PROTOCOL + 1)
}


class TestSixTuple:
    def test_iteration(self):
        assert list(SixTuple(1, 2, 3, 4, 5, 6)) == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                     complex(1.0, math.inf), complex(math.nan, 0.0)])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(DegenerateError):
            SixTuple(1.0, 2.0, 3.0, 4.0, 5.0, bad)

    def test_large_finite_entries_accepted(self):
        t = SixTuple(1e308, -1e308, 1e308, complex(1e308, -1e308), 1.0, 2.0)
        assert t.a12 == 1e308

    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(0.0, math.inf)])
    def test_torus_element_non_finite_rejected(self, bad):
        with pytest.raises(DegenerateError):
            TorusElement(1.0, bad, 1.0, 1.0)

    def test_six_tuple_is_a_tuple(self):
        t = SixTuple(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert isinstance(t, tuple)
        assert t == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert (t.a12, t.a13, t.a14, t.a23, t.a24, t.a34) == tuple(t)
        # + and * concatenate and repeat, as for any tuple
        assert t + t == tuple(t) * 2

    def test_torus_element_is_a_tuple(self):
        q = TorusElement(1.0, -2.0, 3j, 4.0)
        assert isinstance(q, tuple)
        assert q == (1.0, -2.0, 3j, 4.0)
        assert (q.q1, q.q2, q.q3, q.q4) == tuple(q)

    def test_repr_names_the_entries(self):
        assert repr(SixTuple(1, 2, 3, 4, 5, 6)) == "SixTuple(a12=1, a13=2, a14=3, a23=4, a24=5, a34=6)"
        assert repr(TorusElement(1, 2, 3, 4)) == "TorusElement(q1=1, q2=2, q3=3, q4=4)"

    def test_values_is_a_plain_tuple(self):
        for v in (SixTuple(1, 2, 3, 4, 5, 6), TorusElement(1, 2, 3, 4)):
            assert type(v.values()) is tuple
            assert v.values() == v

    def test_immutable(self):
        t = SixTuple(1, 2, 3, 4, 5, 6)
        with pytest.raises(AttributeError):
            t.a12 = 7.0
        with pytest.raises(TypeError):
            t[0] = 7.0

    def test_wrong_arity_rejected(self):
        with pytest.raises(TypeError):
            SixTuple(1, 2, 3)
        with pytest.raises(TypeError):
            TorusElement(1, 2, 3, 4, 5)

    def test_no_unvalidated_constructors(self):
        # namedtuple's _make and _replace would build through tuple.__new__.
        for cls in (SixTuple, TorusElement):
            assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")

    @pytest.mark.parametrize("rebuild", REBUILDS.values(), ids=list(REBUILDS))
    def test_rebuild_keeps_type_and_entries(self, rebuild):
        for v in (SixTuple(1.0, 2j, 3.0, 4.0, 5.0, 6.0), TorusElement(1.0, 2.0, -3.0, 4j)):
            again = rebuild(v)
            assert type(again) is type(v) and again == v

    @pytest.mark.parametrize("rebuild", REBUILDS.values(), ids=list(REBUILDS))
    @pytest.mark.parametrize("forged", [
        tuple.__new__(SixTuple, (1.0, 2.0, 3.0, 4.0, 5.0, math.nan)),
        tuple.__new__(SixTuple, (complex(0.0, math.inf), 2.0, 3.0, 4.0, 5.0, 6.0)),
        tuple.__new__(TorusElement, (1.0, math.inf, 1.0, 1.0)),
        tuple.__new__(TorusElement, (1.0, 1.0, 0.0, 1.0)),
    ], ids=["six-nan", "six-complex-inf", "torus-inf", "torus-zero"])
    def test_rebuild_validates(self, rebuild, forged):
        # A value built around the checks is caught as soon as it is copied
        # or unpickled, because both go through the validating constructor.
        with pytest.raises(DegenerateError):
            rebuild(forged)
