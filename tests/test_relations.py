"""Quadric residuals, torus action, cross-ratios, and the rescaling solver."""

import cmath
import copy
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import random_config, square_config
from threeterm import relations
from threeterm.errors import DegenerateError, NotSameOrbitError, OffQuadricError
from threeterm.grassmann import reconstruct
from threeterm.measurements import measure_all
from threeterm.relations import (
    PAIRS,
    SixTuple,
    TorusElement,
    _balanced,
    _fit,
    _ldexp,
    _residual_and_scale,
    cross_ratio_invariant,
    cross_ratio_points,
    is_on_quadric,
    relative_residual,
    rescaling_fit,
    rescaling_solve,
    residual,
    torus_apply,
)

SQRT2 = math.sqrt(2.0)
SQUARE_CHORDS = SixTuple(SQRT2, 2.0, SQRT2, SQRT2, 2.0, SQRT2)
PAIRS0 = [(i - 1, j - 1) for i, j in PAIRS]

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


@st.composite
def exact_tuples(draw) -> SixTuple:
    """Entries that are integers or Gaussian integers, parts at most 2^7: the
    minors of a drawn 2x4 matrix of parts at most 8, on the quadric exactly,
    or six drawn entries.  Every product of two parts is exact, and 0 or at
    least 1 in magnitude."""
    part = st.integers(min_value=-8, max_value=8).map(float)
    entry = st.builds(complex, part, part) if draw(st.booleans()) else part
    if draw(st.booleans()):
        x, y = (draw(st.lists(entry, min_size=4, max_size=4)) for _ in range(2))
        return SixTuple(*[x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1] for i, j in PAIRS])
    return SixTuple(*draw(st.lists(entry, min_size=6, max_size=6)))


_HUGE = sys.float_info.max
# Moduli at the edges: zeros, subnormals, the normal limits and ties near 1.
MONOMIALS = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0, _HUGE, -_HUGE,
             2.0**-969, 2.0**1022)


def _bits(*values) -> list:
    """The values' exact bit patterns, the sign of a zero included."""
    return [(v.real.hex(), v.imag.hex()) if isinstance(v, complex) else v.hex() for v in values]


def largest_monomial(t: SixTuple) -> float:
    """max(|a12*a34|, |a14*a23|, |a13*a24|), the scale of the relative quadric tests."""
    a12, a13, a14, a23, a24, a34 = t
    return max(abs(a12 * a34), abs(a14 * a23), abs(a13 * a24))


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
        assert largest_monomial(tiny) == pytest.approx(12e-12)
        assert relative_residual(tiny) == pytest.approx(2.0 / 3.0)
        assert not is_on_quadric(tiny, 1e-10)

    def test_zero_tuple_relative_residual(self):
        assert relative_residual(SixTuple(0, 0, 0, 0, 0, 0)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(t=six_tuples(), s=st.floats(min_value=1e-8, max_value=1e8))
    def test_membership_invariant_under_scaling(self, t, s):
        assume(largest_monomial(t) > 1e-6 and away_from_band(t))
        scaled = SixTuple(*[s * v for v in t])
        assert is_on_quadric(scaled, 1e-10) == is_on_quadric(t, 1e-10)

    @settings(max_examples=200, deadline=None)
    @given(t=six_tuples(), k=st.integers(min_value=-600, max_value=600))
    def test_membership_invariant_under_powers_of_two(self, t, k):
        # 2^k*t has monomials 2^(2k) times those of t, far beyond the float
        # range at the ends of k; the answer must not change.
        assume(largest_monomial(t) > 1e-6 and away_from_band(t))
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

    def test_complex_monomial_modulus_beyond_float_range(self):
        # a14*a23 has finite parts but a modulus beyond the float range, where
        # abs() raises OverflowError; the balanced tuple answers instead.
        t = SixTuple(1, 1, complex(1.7976931348623157e308, -0.22), complex(-1, 0.94), 1, 1)
        assert relative_residual(t) == 1.0
        assert not is_on_quadric(t, 1e-10)
        big = complex(1.7e308, 1.7e308)
        on = SixTuple(1, 1, big, 1, 1, 1 - big)
        assert is_on_quadric(on, 1e-10)

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(moderate, min_size=12, max_size=12), is_complex=st.booleans(),
           k=st.integers(min_value=-540, max_value=510))
    def test_residual_and_scale_bit_for_bit(self, parts, is_complex, k):
        # base has monomials in [2^-40, 2^42] (or 0) and 2^k*base, entries
        # exact, monomials anywhere from 2^-1120 to 2^1062.  Where the
        # largest lies in the window the pair is (residual, largest monomial)
        # of the tuple itself, with exponent 0; outside it, that of base times
        # 2^(2k - e): the balanced tuple is a power-of-two torus image of
        # base, so its products and sums round as base's do.
        if is_complex:
            base = SixTuple(*[complex(re, im) for re, im in zip(parts[:6], parts[6:])])
        else:
            base = SixTuple(*parts[:6])
        t = SixTuple(*[_ldexp(v, k) for v in base])
        *got, e = _residual_and_scale(t)
        if 2.0**-969 <= largest_monomial(t) <= 2.0**1022:
            assert e == 0
            assert _bits(*got) == _bits(residual(t), largest_monomial(t))
        else:
            res, scale = residual(base), largest_monomial(base)
            j = math.frexp(got[1])[1] - math.frexp(scale)[1]
            assert _bits(*got) == _bits(_ldexp(res, j), math.ldexp(scale, j))
            if scale:
                assert e == 2 * k - j


    @settings(max_examples=300, deadline=None)
    @given(m=st.lists(st.one_of(st.sampled_from(MONOMIALS),
                                st.floats(allow_nan=False, allow_infinity=False),
                                st.builds(complex, st.sampled_from(MONOMIALS[:9]),
                                          st.sampled_from(MONOMIALS[:9]))),
                      min_size=3, max_size=3))
    @example(m=[1.0, 1.0, 1.0])
    @example(m=[0.0, -0.0, 0j])
    @example(m=[5e-324, 2.0**-1022, 5e-324])
    @example(m=[3.0, -3.0, 3j])
    @example(m=[1.0, complex(_HUGE, _HUGE), 2.0])
    def test_kernel_scale_is_max(self, m):
        # t's monomials a12*a34, a14*a23 and a13*a24 are m, exactly.  The scale
        # is max(abs(m1), abs(m2), abs(m3)) bit for bit where it lies in the
        # window, ties, zeros and subnormals included; beyond it, and where a
        # complex modulus leaves the float range, that of the balanced tuple.
        t = SixTuple(m[0], m[2], m[1], 1.0, 1.0, 1.0)
        _, scale, e = _residual_and_scale(t)
        try:
            plain = max(abs(m[0]), abs(m[1]), abs(m[2]))
        except OverflowError:
            plain = math.inf
        if 2.0**-969 <= plain <= 2.0**1022:
            assert e == 0 and _bits(scale) == _bits(plain)
        else:
            assert _bits(scale) == _bits(largest_monomial(_balanced(t)[0]))

    @settings(max_examples=300, deadline=None)
    @given(t=exact_tuples(), k=st.lists(st.integers(min_value=-700, max_value=700),
                                        min_size=4, max_size=4))
    # Complex invariants whose image's den has modulus about 2^-1019: a plain
    # quotient there forms a product below 2^-1022 and loses bits.
    @example(t=SixTuple(1j, 0j, 1j, 1 + 3j, 0j, 1j), k=[0, 0, -321, -700])
    @example(t=SixTuple(1 + 0j, 1 + 0j, 1 + 0j, -3 + 1j, -1 + 0j, 2 - 1j), k=[0, 0, -321, -700])
    def test_torus_beyond_float_range(self, t, k):
        # q_i = 2^k_i maps t exactly to an image of normal entries while every
        # k_i + k_j lies in [-1022, 1015]; its monomials are those of t times
        # 2^(k1+k2+k3+k4), anywhere from 2^-2800 to 2^2800.  Each answer is
        # that of t, bit for bit, and the solver finds q itself.
        assume(all(-1022 <= k[i] + k[j] <= 1015 for i, j in PAIRS0))
        image = SixTuple(*[_ldexp(v, k[i] + k[j]) for (i, j), v in zip(PAIRS0, t)])
        assert is_on_quadric(image, 1e-10) == is_on_quadric(t, 1e-10)
        assert _bits(relative_residual(image)) == _bits(relative_residual(t))
        try:
            invariant = cross_ratio_invariant(t)
        except DegenerateError:
            with pytest.raises(DegenerateError):
                cross_ratio_invariant(image)
        else:
            assert _bits(cross_ratio_invariant(image)) == _bits(invariant)
        if 0.0 in t or not is_on_quadric(t, 1e-10):
            return
        q = rescaling_solve(t, image)
        sign = 1.0 if q.q1.real > 0 else -1.0
        for got, e in zip(q, k):
            assert abs(got - sign * 2.0**e) <= 4 * 2.0**-53 * 2.0**e

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
        assume(largest_monomial(t) > 1e-6 and away_from_band(t))
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
        # Beyond the float range the products come from the balanced tuple, a
        # power-of-two image of t; within it they are the plain products.  The
        # two quotients agree within an ulp or so.
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

    def test_complex_products_beyond_float_range(self):
        # a12*a34 has finite parts but a modulus beyond the float range.
        big = complex(1.7e308, 1.7e308)
        assert cross_ratio_invariant(SixTuple(1, 1, big, 1, 1, 1 - big)) == pytest.approx(-1.0)

    def test_quotient_near_float_max(self):
        # Products beyond the float range and a quotient of about 2^1023: the
        # balanced denominator, near 2^-1023, must not lose bits as a subnormal.
        t = SixTuple(2.0**878, 1, 1.0181513517581922 * 2.0**285,
                     1.022572959901218 * 2.0**54, 1, 2.0**484)
        exact = Fraction(t.a12) * Fraction(t.a34) / (Fraction(t.a23) * Fraction(t.a14))
        error = abs(Fraction(cross_ratio_invariant(t)) - exact)
        assert error <= 3 * Fraction(2.0**-53) * exact

    def test_invariant_beyond_float_range_rejected(self):
        t = SixTuple(1e300, 1e300, 1, 1, 1e300, 1e300)
        with pytest.raises(DegenerateError, match="invariant leaves the float range"):
            cross_ratio_invariant(t)

    @pytest.mark.parametrize("a12", [2.0**500, 2.0**500 * 1j])
    def test_normal_products_overflowing_quotient_rejected(self, a12):
        # a12*a34 = 2^1000 and a23*a14 = 2^-960 are normal; their quotient is not.
        t = SixTuple(a12, 1, 2.0**-480, 2.0**-480, 1, 2.0**500)
        with pytest.raises(DegenerateError, match="invariant leaves the float range"):
            cross_ratio_invariant(t)


    @pytest.mark.parametrize("t,value", [
        (SixTuple(2.0**-480, 1, 2.0**500, 2.0**500, 1, 2.0**-480), 0.0),
        (SixTuple(2.0**-480, 2.0**500, 2.0**500, 2.0**500, 2.0**500, 2.0**-480), 0.0),
        (SixTuple(2.0**-535, 1, 1, 1, 1, 2.0**-535), 2.0**-1070),
    ], ids=["zero", "zero_on_quadric", "subnormal"])
    def test_underflow_as_quotient(self, t, value):
        # Invariants of 2^-1960 and 2^-1070: a quotient's underflow, not DegenerateError.
        assert cross_ratio_invariant(t) == value

    @settings(max_examples=300, deadline=None)
    @given(e=st.floats(min_value=-1080.0, max_value=-1015.0),
           parts=st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=3, max_size=3))
    def test_subnormal_within_bound(self, e, parts):
        # The balanced numerator is rounded to the spacing 2^-1074 before the
        # division by a denominator of at least 1/4.
        a12, a14, a23 = (2.0**x for x in parts)
        a34 = 2.0**e * a14 * a23 / a12
        assume(a34 and math.isfinite(a34))
        t = SixTuple(a12, 1, a14, a23, 1, a34)
        exact = Fraction(a12) * Fraction(a34) / (Fraction(a14) * Fraction(a23))
        assume(exact < Fraction(2.0**-1022))
        error = abs(Fraction(cross_ratio_invariant(t)) - exact)
        assert error <= Fraction(5, 2) * Fraction(2.0**-1074)

    def test_orbits_of_vanishing_invariant(self):
        # Both invariants are 0.0, so they agree; the fit tells the orbits apart.
        on = SixTuple(2.0**-480, 2.0**500, 2.0**500, 2.0**500, 2.0**500, 2.0**-480)
        other = SixTuple(2.0**-470, 2.0**500, 2.0**500, 2.0**500, 2.0**500, 2.0**-480)
        with pytest.raises(NotSameOrbitError) as info:
            rescaling_solve(on, other)
        assert (info.value.invariant_a, info.value.invariant_b) == (0.0, 0.0)
        assert info.value.pair == (3, 4)
        q = TorusElement(2.0**-3, 2.0**5, 3.0, 0.5)
        got = rescaling_solve(on, torus_apply(q, on))
        assert got in (q, TorusElement(*[-v for v in q]))


SUBNORMAL_RATIO_PAIR = (
    SixTuple(1.414213562373095e+200, 2.0, 1.4142135623730951, 1.4142135623730951, 2.0,
             1.414213562373095e-200),
    SixTuple(1.4142135623730907e-110, 1.9999999999999998e-05, 1.414213562373095e-05,
             1.414213562373095e-05, 1.9999999999999998e-05, 1.4142135623730948e+100),
)


def _parts(v) -> tuple[float, ...]:
    return (v.real, v.imag) if isinstance(v, complex) else (v,)


def _is_normal(v) -> bool:
    """Whether v is nonzero, finite and each of its nonzero parts a normal float."""
    return any(_parts(v)) and all(p == 0.0 or sys.float_info.min <= abs(p) <= sys.float_info.max
                                  for p in _parts(v))


@st.composite
def far_orbit_pairs(draw) -> tuple[SixTuple, SixTuple]:
    """(a, b): a the minors of a drawn real or complex 2x4 matrix times 2^m, and
    b_ij = q_i*q_j*a_ij, formed as 2^(k_i+k_j)*(u_i*(u_j*a_ij)), with
    q_i = u_i*2^k_i, u_i in [1, 2) and k_1 + k_2 in [-1100, -1023], k permuted.
    Every entry of both is a normal float (nonzero parts of a complex one), and
    both lie on the quadric."""
    part = st.floats(min_value=-4.0, max_value=4.0)
    entry = st.builds(complex, part, part) if draw(st.booleans()) else part
    x, y = (draw(st.lists(entry, min_size=4, max_size=4)) for _ in range(2))
    t = [x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1] for i, j in PAIRS]
    assume(all(map(_is_normal, t)))
    total = draw(st.integers(min_value=-1100, max_value=-1023))
    k1 = draw(st.integers(min_value=-1000, max_value=total + 1000))
    k = draw(st.permutations([k1, total - k1, *(draw(st.integers(-300, 300)) for _ in range(2))]))
    u = draw(st.lists(st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
                      min_size=4, max_size=4))
    s = [k[i] + k[j] for i, j in PAIRS0]
    # m keeps every part of a and b within [2^-1022, 2^1021); u_i*u_j < 4.
    exponents = [[math.frexp(p)[1] for p in _parts(v) if p] for v in t]
    low = max(-1021 - min(ev) - min(0, sv) for ev, sv in zip(exponents, s))
    high = min(1019 - max(ev) - max(0, sv) for ev, sv in zip(exponents, s))
    assume(low <= high)
    m = draw(st.integers(min_value=low, max_value=high))
    a = SixTuple(*[_ldexp(v, m) for v in t])
    b = SixTuple(*[_ldexp(u[i] * (u[j] * v), sv) for (i, j), v, sv in zip(PAIRS0, a, s)])
    assume(is_on_quadric(a, 1e-10) and is_on_quadric(b, 1e-10))
    return a, b


# a14 and a34 are complex with parts near 2^1023: Python's division b14/a14
# overflows inside (nan), which sends the fit to the balanced frame.
BIG_COMPLEX = SixTuple(1.0, 1.0, complex(1.7e308, 1.7e308), 1.0, 1.0, complex(-1.7e308, -1.7e308))


@st.composite
def solver_inputs(draw) -> tuple[SixTuple, SixTuple]:
    """(a, b) for every verdict of the solver: same-orbit pairs anywhere in
    the float range, a real or complex minors tuple or six drawn entries
    against its torus image, perturbed or not (off-quadric, zero entries),
    two drawn tuples (other orbits), and the fixed pairs that send the fit to
    the balanced frame."""
    kind = draw(st.sampled_from(["far", "image", "other", "fixed"]))
    if kind == "far":
        return draw(far_orbit_pairs())
    if kind == "other":
        return draw(six_tuples()), draw(six_tuples())
    if kind == "fixed":
        big = BIG_COMPLEX[2]
        return draw(st.sampled_from([
            SUBNORMAL_RATIO_PAIR, (BIG_COMPLEX, BIG_COMPLEX),
            (BIG_COMPLEX, SixTuple(1, 1, big / 2, 1, 0.5, -big / 2)),
            (torus_apply(TorusElement(1.0, 1e-300, 1.0, 1.0), BIG_COMPLEX),
             torus_apply(TorusElement(1.0, 2.5, 1.0, 1.0), BIG_COMPLEX))]))
    a = draw(st.one_of(six_tuples(), exact_tuples()))
    phase = st.floats(min_value=0.0, max_value=2 * math.pi).map(lambda t: cmath.exp(1j * t))
    unit = st.one_of(nonzero_scalar, phase) if draw(st.booleans()) else nonzero_scalar
    q = [_ldexp(draw(unit), draw(st.integers(-400, 400))) for _ in range(4)]
    try:
        b = list(torus_apply(TorusElement(*q), a))
    except DegenerateError:  # an image entry beyond the float range
        assume(False)
    k = draw(st.integers(0, 5))
    b[k] *= draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, -1.0]))
    return a, SixTuple(*b)


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
        assert info.value.pair is info.value.deviation is None

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

    def test_postcondition_carries_pair_and_deviation(self):
        # The invariants 1e-6 and 1.001e-6 agree within tol*1 and both tuples
        # are on the quadric, but q = (1, 1, 1, 1) misses b34 by 1e-3 of it.
        a = SixTuple(1e-3, 1.0, 1.0, 1.0, 1.0 + 1e-6, 1e-3)
        b = SixTuple(*a[:5], 1e-3 * (1.0 + 1e-3))
        with pytest.raises(NotSameOrbitError) as info:
            rescaling_solve(a, b, 1e-5)
        exc = info.value
        assert str(exc) == "no rescaling reproduces entry 34 within tolerance 1e-05"
        assert exc.invariant_a == pytest.approx(1e-6) and exc.invariant_b == pytest.approx(1.001e-6)
        assert exc.pair == (3, 4) and exc.tol == 1e-5
        assert exc.deviation == pytest.approx(1e-3, rel=1e-3)
        assert exc.deviation == abs(a[5] - b[5]) / abs(b[5])

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

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(st.one_of(nonzero_scalar, st.builds(complex, nonzero_scalar,
                                                                nonzero_scalar)),
                            min_size=6, max_size=6),
           s=st.sampled_from([1.0, 1e-170, 1e170]))
    def test_rejection_margins_bit_for_bit(self, entries, s):
        # One pass gives the margins: plain monomials (s = 1), and ones that
        # underflow (1e-170) or overflow (1e170), where the pass rescales and
        # the residual is formed anew.  Each is the bits of the public functions.
        t = SixTuple(*[s * v for v in entries])
        assert (_residual_and_scale(t)[2] == 0) == (s == 1.0)
        assume(not is_on_quadric(t, 1e-10))
        want = _bits(residual(t), relative_residual(t))
        for call in (lambda: rescaling_solve(t, t), lambda: rescaling_solve(SQUARE_CHORDS, t),
                     lambda: reconstruct(t)):
            with pytest.raises(OffQuadricError) as info:
                call()
            assert _bits(info.value.residual, info.value.relative_residual) == want
            assert info.value.tol == 1e-10

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(st.one_of(nonzero_scalar, st.builds(complex, nonzero_scalar,
                                                                nonzero_scalar)),
                            min_size=6, max_size=6),
           k=st.sampled_from([0, 600, -600]), second=st.booleans(),
           tol=st.sampled_from([1e-10, 1e-3, 0.3]))
    def test_rejection_args_from_one_pass(self, entries, k, second, tol):
        # An off-quadric tuple, in range or 2^+-600 beyond it, rejected as the
        # first tuple or behind an on-quadric one: both entries raise the
        # margins of residual() and relative_residual(), bit for bit.
        bad = SixTuple(*[_ldexp(v, k) for v in entries])
        assume(not is_on_quadric(bad, tol))
        good = SixTuple(*[math.ldexp(v, -k) for v in SQUARE_CHORDS])
        a, b, what = (good, bad, "second tuple") if second else (bad, good, "first tuple")
        want = repr((None, residual(bad), relative_residual(bad), tol, what))
        for entry in (rescaling_solve, rescaling_fit):
            with pytest.raises(OffQuadricError) as info:
                entry(a, b, tol)
            assert repr(info.value.args) == want

    @pytest.mark.parametrize("entry", [rescaling_solve, rescaling_fit])
    def test_one_residual_pass_per_tuple(self, monkeypatch, entry):
        # The solver tests each tuple by one pass and raises from it.
        passes = []
        kernel = relations._residual_and_scale
        monkeypatch.setattr(relations, "_residual_and_scale",
                            lambda t: passes.append(t) or kernel(t))
        bad, huge = SixTuple(1, 1, 1, 1, 1, 1), SixTuple(*[2.0**600] * 6)
        good = SQUARE_CHORDS
        for a, b in ((bad, good), (huge, bad), (good, bad), (good, huge)):
            passes.clear()
            with pytest.raises(OffQuadricError):
                entry(a, b)
            assert passes == ([a] if a in (bad, huge) else [a, b])

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
        # c12, c13, c14, c23 and q are normal, but q2*q4 = c24 is about 1e400:
        # the complex product is NaN, and so was its deviation, which passed.
        w = cmath.exp(0.3j)
        c = torus_apply(TorusElement(1, 1e-150 * w, 1, 1e-150 * w), SQUARE_CHORDS)
        q = (None, 1, 1e200 * w, 1, 1e200 * w)
        d = SixTuple(*[q[i] * (q[j] * v) for (i, j), v in zip(PAIRS, c)])
        for x, y in ((a, b), (b, a), (c, d), (d, c)):
            with pytest.raises(DegenerateError, match="rescaling leaves the float range"):
                rescaling_solve(x, y)

    def test_complex_moduli_beyond_float_range(self):
        # b has entries of finite parts whose modulus abs() cannot return: the
        # invariant gap compares quarters, and the postcondition's deviations
        # come from the balanced tuples.
        big = complex(1.7e308, 1.7e308)
        a = SixTuple(1, 2, 1, 1, 1, 1)
        b = SixTuple(1, 2, big, 1, big, big)
        assert rescaling_solve(a, b).values() == (1, 1, 1, big)
        # As in test_postcondition_names_the_entry, b34 is off by 1e-9 of itself.
        a = SixTuple(0.01, 1.01, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(NotSameOrbitError, match="entry 34") as info:
            rescaling_solve(a, SixTuple(0.01, 1.01, big, 1.0, big, big * (1.0 + 1e-9)))
        assert info.value.deviation == pytest.approx(1e-9, rel=1e-6)
        # At tol 1e308, image 23 is inf+infj against a b23 whose modulus
        # overflows; it passes, and image 24 misses b24 by 1.27e308.
        m = 1.7976931348623157e308
        with pytest.raises(NotSameOrbitError, match="entry 24"):
            rescaling_solve(SixTuple(1.0, 0.5, m, 2.0, m, 1.0),
                            SixTuple(0.5, 0.5, 1.0, complex(m, m), 1.0, 1.0), tol=1e308)
        z = complex(1.3e308, 1.3e308)
        # q1^2 = z itself.
        root = cmath.sqrt(z)
        q = rescaling_solve(SixTuple(1, 1, 1, 1, 2, 1), SixTuple(root, root, root, 1, 2, 1))
        assert q.values() == (root, 1, 1, 1)
        with pytest.raises(NotSameOrbitError, match="invariants differ") as info:
            rescaling_solve(SixTuple(z, z, 1, 1, 1, 1), SixTuple(1, 2, 1, 1, 2, 3))
        assert info.value.invariant_a == z

    def test_complex_division_beyond_float_range(self):
        # b13/a13 with both (1.7e308, 1.7e308) is nan in Python's complex
        # division, which overflows inside; from the balanced tuples it is 1.
        big = complex(1.7e308, 1.7e308)
        t = SixTuple(1, 1, big, 1, 1, -big)
        assert rescaling_solve(t, t).values() == (1, 1, 1, 1)
        b = SixTuple(1, 1, big / 2, 1, 0.5, -big / 2)
        assert_plus_minus(rescaling_solve(t, b), (1, 1, 1, 0.5))
        q = TorusElement(0.5, 2.0, 1j, 1.0)
        assert_plus_minus(rescaling_solve(t, torus_apply(q, t)), q.values())

    def test_fit_ratios_are_plain_quotients(self, monkeypatch):
        # c_ij is b_ij/a_ij bit for bit wherever that quotient is a normal
        # float, small parts included: in the plain fit, and where another
        # pair (14, whose complex division overflows inside) sends the fit to
        # the balanced tuples, whose quotients differ by powers of two.  There
        # that division gives 1, not nan.
        fits = []
        monkeypatch.setattr(relations, "_fit", lambda a, b: fits.append(a) or _fit(a, b))
        big = complex(1.7e308, 1.7e308)
        cases = [(3 + 4j, 0.1 - 7j), (2.5, 1e-300), (1e-300j, 3e-200 + 1j)]
        for base, frames, pairs in ((SQUARE_CHORDS, 1, cases + [(complex(1e300, 1e-300), 1.0)]),
                                    (SixTuple(1.0, 1.0, big, 1.0, 1.0, -big), 2, cases)):
            for y, x in pairs:
                a = torus_apply(TorusElement(1.0, x, 1.0, 1.0), base)
                b = torus_apply(TorusElement(1.0, y, 1.0, 1.0), base)
                fits.clear()
                rows = rescaling_fit(a, b)[1]
                assert len(fits) == frames
                plain = [bv / av for av, bv in zip(a, b)]
                # All six are normal but the nan quotients 14 and 34 of big.
                assert [_is_normal(c) for c in plain] == [True, True, frames == 1] * 2
                for (_, c, _), want in zip(rows, plain):
                    if _is_normal(want):
                        assert _bits(c) == _bits(want)
                if frames == 2:
                    assert rows[2] == rows[5] == (1, 1, 0.0)
                    assert _bits(rows[2][1]) == _bits(1 + 0j)

    def test_subnormal_ratio(self):
        # b is a's image under q = (1e-155, 1e-155, 1e150, 1e150): every entry
        # and every q_i is normal, but c12 = q1*q2 = 1e-310 is subnormal.  The
        # plain q, built from it, misses entry 23 by 1.5e-9; the balanced fit
        # answers, with the subnormal c12 and q1*q2 in its rows.
        a, b = SUBNORMAL_RATIO_PAIR
        q, rows = rescaling_fit(a, b)
        assert rescaling_solve(a, b) == q
        assert_plus_minus(q, (1e-155, 1e-155, 1e150, 1e150))
        assert max(deviation for _, _, deviation in rows) <= 4e-15
        product, ratio, _ = rows[0]
        assert 0.0 < product < sys.float_info.min and 0.0 < ratio < sys.float_info.min
        assert abs(product - 1e-310) <= 1e-12 * 1e-310
        assert _bits(ratio) == _bits(b[0] / a[0])

    @settings(max_examples=150, deadline=None)
    @given(far_orbit_pairs())
    def test_same_orbit_anywhere_in_the_float_range(self, pair):
        # Same-orbit pairs are answered, or rejected as leaving the float range
        # where a q_i*q_j underflows to 0; never NotSameOrbitError.
        a, b = pair
        try:
            q = rescaling_solve(a, b)
        except DegenerateError:
            return
        # q_i*q_j*a_ij formed from q_i = m_i*2^e_i, so that no product leaves the range.
        e = [math.frexp(abs(v))[1] for v in q]
        m = [_ldexp(v, -ei) for v, ei in zip(q, e)]
        for (i, j), av, bv in zip(PAIRS0, a, b):
            image = _ldexp(m[i] * (m[j] * av), e[i] + e[j])
            assert abs(image - bv) <= 1e-10 * abs(bv)

    @settings(max_examples=300, deadline=None)
    @given(solver_inputs(), st.one_of(st.just(1e-10), st.floats(min_value=1e-15, max_value=0.5),
                                      st.sampled_from([0.0, -1e-10, math.nan, math.inf])))
    def test_solve_is_the_fit_q(self, pair, tol):
        # rescaling_solve and rescaling_fit run one body: the same q, bit for
        # bit, or the same exception with equal args.
        def outcome(entry):
            try:
                return _bits(*entry(*pair, tol))
            except (ValueError, DegenerateError, OffQuadricError, NotSameOrbitError) as exc:
                return type(exc), repr(exc.args)

        assert outcome(rescaling_solve) == outcome(lambda a, b, t: rescaling_fit(a, b, t)[0])

    def test_ratio_tuple_zero_rejected(self):
        # a zero entry in the target tuple makes a zero ratio b_ij/a_ij
        with pytest.raises(DegenerateError):
            rescaling_solve(SQUARE_CHORDS, SixTuple(0, 1, 1, 1, 1, 1))


# Point components log-uniform over the float range, of either sign, and the
# exact 0.0 and 1.0 of the points (x, 1) and (1, 0).
component = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.builds(lambda m, e, sign: sign * math.ldexp(m, e),
              st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
              st.integers(min_value=-1074, max_value=1023), st.sampled_from([1.0, -1.0])))
points = st.lists(st.tuples(component, component), min_size=4, max_size=4)
# The points of tests/data/crossratio_overflow_infinity.json: P12*P34 = -2e400
# overflows, and the cross-ratio is -1e200.
OVERFLOWING_PRODUCTS = [(1e200, 1.0), (0.0, 1.0), (1.0, 1.0), (2e200, 1e-200)]


def _outcome(pts) -> list | type:
    """cross_ratio_points(*pts) as bits, or DegenerateError."""
    try:
        return _bits(cross_ratio_points(*pts))
    except DegenerateError:
        return DegenerateError


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

    @settings(max_examples=1000, deadline=None)
    @given(pts=points)
    @example(pts=OVERFLOWING_PRODUCTS)
    def test_exact_over_float_range(self, pts):
        # Against the exact quotient of the float minors: within the subnormal
        # bound 2.5*2^-1074 plus a few ulps, or DegenerateError exactly when
        # P23*P14 is zero or the quotient is beyond the float range.
        minors = relations._minors(*pts)
        assume(all(map(math.isfinite, minors)))
        p12, _, p14, p23, _, p34 = map(Fraction, minors)
        if not (p23 and p14):
            assert _outcome(pts) is DegenerateError
            return
        exact = p12 * p34 / (p23 * p14)
        # Within a few ulps of the largest float, rounding decides either way.
        if abs(exact) > Fraction(_HUGE) * (1 + Fraction(2.0**-50)):
            assert _outcome(pts) is DegenerateError
        elif abs(exact) < Fraction(_HUGE) * (1 - Fraction(2.0**-50)):
            error = abs(Fraction(cross_ratio_points(*pts)) - exact)
            ulps = 4 * Fraction(2.0**-53) * abs(exact)
            assert error <= Fraction(5, 2) * Fraction(2.0**-1074) + ulps

    @settings(max_examples=1000, deadline=None)
    @given(pts=points, which=st.integers(min_value=0, max_value=3),
           k=st.integers(min_value=-1100, max_value=1100))
    @example(pts=OVERFLOWING_PRODUCTS, which=0, k=-600)
    def test_point_scaling_keeps_bits(self, pts, which, k):
        # Scaling a point by 2^k scales its three minors by 2^k, exactly where
        # nothing under- or overflows, and so is a torus action q_i = 2^k.
        x, y = pts[which]
        assume(Fraction(max(abs(x), abs(y))) * Fraction(2) ** k <= Fraction(_HUGE))
        scaled = list(pts)
        scaled[which] = (math.ldexp(x, k), math.ldexp(y, k))
        assume(Fraction(scaled[which][0]) == Fraction(x) * Fraction(2) ** k
               and Fraction(scaled[which][1]) == Fraction(y) * Fraction(2) ** k)
        minors, images = relations._minors(*pts), relations._minors(*scaled)
        assume(all(map(math.isfinite, minors + images)))
        assume(all(Fraction(b) == Fraction(a) * Fraction(2) ** (k if which in pair else 0)
                   for pair, a, b in zip(PAIRS0, minors, images)))
        got, want = _outcome(scaled), _outcome(pts)
        if want is DegenerateError or abs(float.fromhex(want[0])) >= 2.0**-1022:
            assert got == want
        else:
            # A subnormal is rounded twice, each within 2.5*2^-1074 of the exact value.
            assert abs(float.fromhex(got[0]) - float.fromhex(want[0])) <= 5 * 2.0**-1074

    def test_matches_sixtuple_invariant(self):
        # cross_ratio_points forms its minors with _minors: this checks their
        # pair order and sign against the minors of [X1 X2 X3 X4] formed here.
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
