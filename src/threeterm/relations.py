"""The 3-term quadric, the rescaling torus action, and the orbit solver.

Six-tuples are indexed by the pairs 12, 13, 14, 23, 24, 34 and may hold real
or complex scalars.  The quadric is the locus a12*a34 + a14*a23 = a13*a24;
the torus (q1, q2, q3, q4) acts by a_ij -> q_i*q_j*a_ij and preserves it.
Two nonvanishing on-quadric tuples lie in the same orbit exactly when their
cross-ratio invariants a12*a34/(a23*a14) agree, and in that case the solver
below constructs the rescaling, unique up to a global sign.

SixTuple and TorusElement are tuples that check their entries on every
construction path, so the functions below unpack and iterate them directly.
_minors is the package's one routine for the 2x2 minors of four columns.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import itemgetter

from .errors import DegenerateError, NotSameOrbitError, OffQuadricError

Scalar = float | complex

#: Index pairs in storage order.
PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
# The same pairs, 0-based.
_PAIRS0 = tuple((i - 1, j - 1) for i, j in PAIRS)

# Default tolerance of the quadric and orbit tests, relative to the largest
# monomial, invariant or entry.  It is not a rounding bound: rounding gives a
# relative residual of about 1e-15, since the three products and two sums
# err by at most gamma_3 = 3u/(1 - 3u) times the sum of the three monomials
# (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1).  It is
# a margin for inputs given to about ten significant digits.
DEFAULT_TOL = 1e-10

# The normal floats: a product in this range carries its full precision.
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


class _Named(tuple):
    """An immutable tuple of scalars whose entries also have names (_fields)."""

    __slots__ = ()

    def __repr__(self):
        entries = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self))
        return f"{type(self).__name__}({entries})"

    def __reduce__(self):
        # copy and every pickle protocol rebuild through __new__, which validates.
        return type(self), tuple(self)

    def values(self) -> tuple[Scalar, ...]:
        """The entries as a plain tuple."""
        return tuple(self)


class SixTuple(_Named):
    """Values indexed by the six pairs from {1,2,3,4}, in storage order.

    A SixTuple is a tuple: it unpacks and iterates as its six entries, and it
    equals a plain tuple of the same entries.  So + and * concatenate and
    repeat it, as for any tuple; they do not act entrywise.
    """

    __slots__ = ()
    _fields = ("a12", "a13", "a14", "a23", "a24", "a34")
    a12, a13, a14, a23, a24, a34 = (property(itemgetter(k)) for k in range(6))

    def __new__(cls, a12, a13, a14, a23, a24, a34):
        self = tuple.__new__(cls, (a12, a13, a14, a23, a24, a34))
        # 0.0*x is 0 for finite x and NaN for an infinite or NaN x, so the
        # sum is finite exactly when every entry is (real or complex).
        if not cmath.isfinite(0.0 * a12 + 0.0 * a13 + 0.0 * a14
                              + 0.0 * a23 + 0.0 * a24 + 0.0 * a34):
            raise DegenerateError(f"six-tuple has a non-finite entry: {self}")
        return self


class TorusElement(_Named):
    """Four nonzero scalars acting on six-tuples by a_ij -> q_i*q_j*a_ij; a tuple too."""

    __slots__ = ()
    _fields = ("q1", "q2", "q3", "q4")
    q1, q2, q3, q4 = (property(itemgetter(k)) for k in range(4))

    def __new__(cls, q1, q2, q3, q4):
        self = tuple.__new__(cls, (q1, q2, q3, q4))
        if q1 == 0 or q2 == 0 or q3 == 0 or q4 == 0:
            raise DegenerateError(f"torus element has a zero component: {self}")
        if not cmath.isfinite(0.0 * q1 + 0.0 * q2 + 0.0 * q3 + 0.0 * q4):
            raise DegenerateError(f"torus element has a non-finite component: {self}")
        return self


def residual(t: SixTuple) -> Scalar:
    """a12*a34 + a14*a23 - a13*a24; zero exactly on the quadric."""
    a12, a13, a14, a23, a24, a34 = t
    return a12 * a34 + a14 * a23 - a13 * a24


def quadric_scale(t: SixTuple) -> float:
    """Scale for relative residual tests: the largest of the three monomials.

    No floor: scaling every entry by s multiplies the residual and this scale
    alike by s^2, so the relative tests do not depend on the tuple's units.
    """
    a12, a13, a14, a23, a24, a34 = t
    return max(abs(a12 * a34), abs(a14 * a23), abs(a13 * a24))


def _ldexp(v: Scalar, e: int) -> Scalar:
    """v * 2**e, exact unless it underflows."""
    if isinstance(v, complex):
        return complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))
    return math.ldexp(v, e)


def _scaled_product(x: Scalar, y: Scalar) -> tuple[Scalar, int]:
    """(m, e) with x*y = m * 2**e, m formed from frexp mantissas (|m| below 2).

    Neither overflows nor underflows, whatever the exponents of x and y.
    """
    ex, ey = (math.frexp(max(abs(v.real), abs(v.imag)))[1] for v in (x, y))
    return _ldexp(x, -ex) * _ldexp(y, -ey), ex + ey


def _residual_and_scale(t: SixTuple) -> tuple[Scalar, float]:
    """residual(t) and quadric_scale(t), divided alike by a power of two.

    The power is 1 while the largest monomial lies in [2^-969, 2^1022], where
    no sum overflows and one below 2^-1022 is under 2^-53 of the largest.
    Outside it, the monomials are formed from frexp mantissas and exponents,
    scaled so that the largest is near 1: t and 2^k*t give the same answers.
    """
    a12, a13, a14, a23, a24, a34 = t
    m1, m2, m3 = a12 * a34, a14 * a23, a13 * a24
    scale = max(abs(m1), abs(m2), abs(m3))
    if 2.0 ** -969 <= scale <= 2.0 ** 1022:
        return m1 + m2 - m3, scale
    parts = [_scaled_product(a12, a34), _scaled_product(a14, a23), _scaled_product(a13, a24)]
    top = max((e for m, e in parts if m), default=0)
    m1, m2, m3 = (_ldexp(m, e - top) for m, e in parts)
    return m1 + m2 - m3, max(abs(m1), abs(m2), abs(m3))


def relative_residual(t: SixTuple) -> float:
    """|residual| over the largest monomial; 0.0 when every monomial is zero."""
    res, scale = _residual_and_scale(t)
    if scale == 0.0:
        return 0.0
    return abs(res) / scale


def is_on_quadric(t: SixTuple, tol: float) -> bool:
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive: {tol}")
    res, scale = _residual_and_scale(t)
    return abs(res) <= tol * scale


def torus_apply(q: TorusElement, t: SixTuple) -> SixTuple:
    """The six-tuple q_i*q_j*a_ij, each entry rounded as (q_i*q_j)*a_ij."""
    q1, q2, q3, q4 = q
    a12, a13, a14, a23, a24, a34 = t
    return SixTuple(q1 * q2 * a12, q1 * q3 * a13, q1 * q4 * a14,
                    q2 * q3 * a23, q2 * q4 * a24, q3 * q4 * a34)


def cross_ratio_invariant(t: SixTuple) -> Scalar:
    """The complete orbit invariant a12*a34 / (a23*a14) of a nonvanishing tuple.

    While both products are normal floats they are used as they are.
    Otherwise they are formed from frexp mantissas and exponents, so t and
    2^k*t give the same invariant anywhere in the float range.
    """
    a12, _, a14, a23, _, a34 = t
    num, den = a12 * a34, a23 * a14
    if _TINY <= abs(num) <= _HUGE and _TINY <= abs(den) <= _HUGE:
        return num / den
    (m_num, e_num), (m_den, e_den) = _scaled_product(a12, a34), _scaled_product(a23, a14)
    if m_den == 0:
        raise DegenerateError("cross-ratio invariant undefined: a23*a14 = 0")
    return _ldexp(m_num / m_den, e_num - e_den)


def _principal_sqrt(x: Scalar) -> Scalar:
    if isinstance(x, complex) or x < 0.0:
        return cmath.sqrt(x)
    return math.sqrt(x)


def rescaling_solve(a: SixTuple, b: SixTuple, tol: float = DEFAULT_TOL) -> TorusElement:
    """Find q with q_i*q_j*a_ij = b_ij, or prove the tuples are in different orbits.

    Both tuples must be nonvanishing and on the quadric within tol.  The
    criterion for solvability is equality of the cross-ratio invariants;
    on success q1 is the principal square root of c12*c13/c23 and the rest
    follow as q_j = c_1j/q1.  The other valid answer is -q.

    Raises DegenerateError on zero entries, OffQuadricError when either
    tuple misses the quadric, and NotSameOrbitError when the invariants
    disagree (or the reconstructed q fails to match within tol).
    """
    if 0 in a or 0 in b:
        raise DegenerateError("rescaling requires all twelve entries nonzero")
    (a12, a13, a14, a23, a24, a34), (b12, b13, b14, b23, _, _) = a, b
    c12, c13, c14, c23 = b12 / a12, b13 / a13, b14 / a14, b23 / a23
    for name, t in (("first", a), ("second", b)):
        if not is_on_quadric(t, tol):
            raise OffQuadricError(
                f"{name} tuple is off the quadric: relative residual {relative_residual(t)}",
                residual=residual(t),
            )
    inv_a = cross_ratio_invariant(a)
    inv_b = cross_ratio_invariant(b)
    if abs(inv_a - inv_b) > tol * max(abs(inv_a), abs(inv_b), 1.0):
        raise NotSameOrbitError(
            f"cross-ratio invariants differ: {inv_a} vs {inv_b}",
            invariant_a=inv_a,
            invariant_b=inv_b,
        )
    # A ratio c_ij that under- or overflowed gives a zero divisor here or a
    # zero or non-finite q_i, which TorusElement rejects.
    try:
        q1_squared = c12 * c13 / c23
        if not _TINY <= abs(q1_squared) <= _HUGE:
            q1_squared = c12 * (c13 / c23)  # c12*c13 alone left the float range
        q1 = _principal_sqrt(q1_squared)
        q = TorusElement(q1, c12 / q1, c13 / q1, c14 / q1)
    except (ZeroDivisionError, DegenerateError):
        raise DegenerateError(
            "rescaling leaves the float range: a ratio b_ij/a_ij or q_i is 0 or not finite"
        ) from None
    # Postcondition: every pair product matches within tol, else the inputs
    # were not genuinely orbit-equivalent at this tolerance.
    q1, q2, q3, q4 = q
    images = (q1 * q2 * a12, q1 * q3 * a13, q1 * q4 * a14,
              q2 * q3 * a23, q2 * q4 * a24, q3 * q4 * a34)
    for (i, j), qa, bv in zip(PAIRS, images, b):
        if abs(qa - bv) > tol * abs(bv):
            raise NotSameOrbitError(
                f"no rescaling reproduces entry {i}{j} within tolerance {tol}",
                invariant_a=inv_a,
                invariant_b=inv_b,
            )
    return q


def _minors(x1, x2, x3, x4) -> tuple[Scalar, ...]:
    """The six 2x2 minors x_i[0]*x_j[1] - x_i[1]*x_j[0] of four columns, in pair order."""
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = x1, x2, x3, x4
    return (a1 * b2 - b1 * a2, a1 * b3 - b1 * a3, a1 * b4 - b1 * a4,
            a2 * b3 - b2 * a3, a2 * b4 - b2 * a4, a3 * b4 - b3 * a4)


def cross_ratio_points(x1, x2, x3, x4) -> Scalar:
    """Cross-ratio of four points of the projective line.

    Points are 2-component homogeneous vectors (finite x as (x, 1), infinity
    as (1, 0)); the value is P12*P34/(P23*P14) with P_ij their 2x2 minors.
    Rescaling any single vector leaves the value unchanged.  Coincidences are
    allowed only while the denominator stays nonzero.  A value that is not
    finite (from an infinite component or an overflow) raises DegenerateError.
    """
    p12, _, p14, p23, _, p34 = _minors(x1, x2, x3, x4)
    den = p23 * p14
    if den == 0:
        raise DegenerateError("cross-ratio undefined: P23*P14 = 0")
    value = p12 * p34 / den
    if not cmath.isfinite(value):
        raise DegenerateError(f"cross-ratio is not finite: {value}")
    return value
