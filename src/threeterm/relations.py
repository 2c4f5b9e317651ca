"""The 3-term quadric, the rescaling torus action, and the orbit solver.

Six-tuples are indexed by the pairs 12, 13, 14, 23, 24, 34 and may hold real
or complex scalars.  The quadric is the locus a12*a34 + a14*a23 = a13*a24;
the torus (q1, q2, q3, q4) acts by a_ij -> q_i*q_j*a_ij and preserves it.
Two nonvanishing on-quadric tuples lie in the same orbit exactly when their
cross-ratio invariants a12*a34/(a23*a14) agree, and in that case the solver
below constructs the rescaling, unique up to a global sign.

SixTuple and TorusElement are tuples that check their entries on every
construction path, so the functions below unpack and iterate them directly.
_Named is the package's value idiom for a few named entries, and _Frozen, a
slotted value that rebuilds through its checks, the one for the rest.
_minors is the package's one routine for the 2x2 minors of four columns.
A rejection raises OffQuadricError or NotSameOrbitError with its margins as
fields, built by _new_error so that no Python code runs for it; the error
builds its message from them only when it is read.
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

# Builds an error from its complete args without calling its __init__: see
# errors._MarginError.
_new_error = BaseException.__new__

# The normal floats: a product in this range carries its full precision.
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


class _Named(tuple):
    """An immutable tuple whose entries also have names (_fields).

    A subclass that sets _fields gets a read-only property per name.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        for k, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, property(itemgetter(k)))

    def __repr__(self):
        entries = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self))
        return f"{type(self).__name__}({entries})"

    def __reduce__(self):
        # copy and every pickle protocol rebuild through __new__, which validates.
        return type(self), tuple(self)

    def values(self) -> tuple[Scalar, ...]:
        """The entries as a plain tuple."""
        return tuple(self)


class _Frozen:
    """A value in __slots__ that cannot be assigned; it equals, hashes and
    rebuilds (copy, pickle) by _key(), its constructor's arguments."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: {name}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}{self._key()}"

    def __reduce__(self):
        return type(self), self._key()


class SixTuple(_Named):
    """Values indexed by the six pairs from {1,2,3,4}, in storage order.

    A SixTuple is a tuple: it unpacks and iterates as its six entries, and it
    equals a plain tuple of the same entries.  So + and * concatenate and
    repeat it, as for any tuple; they do not act entrywise.
    """

    __slots__ = ()
    _fields = ("a12", "a13", "a14", "a23", "a24", "a34")

    def __new__(cls, a12, a13, a14, a23, a24, a34):
        self = tuple.__new__(cls, (a12, a13, a14, a23, a24, a34))
        # 0.0*x is 0 for finite x and NaN for an infinite or NaN x, so the
        # sum is finite exactly when every entry is (real or complex).
        zero = 0.0 * a12 + 0.0 * a13 + 0.0 * a14 + 0.0 * a23 + 0.0 * a24 + 0.0 * a34
        if not cmath.isfinite(zero):
            raise DegenerateError(f"six-tuple has a non-finite entry: {self}")
        # Unless an entry is a numpy scalar the sum is a Python float or complex;
        # numpy entries are stored as Python numbers, so complex64 is complex.
        if type(zero) is not float and type(zero) is not complex:
            self = tuple.__new__(cls, [v.item() if hasattr(v, "item") else v for v in self])
        return self


class TorusElement(_Named):
    """Four nonzero scalars acting on six-tuples by a_ij -> q_i*q_j*a_ij; a tuple too."""

    __slots__ = ()
    _fields = ("q1", "q2", "q3", "q4")

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


def _quarter_modulus(z: Scalar) -> float:
    """|z|/4, for where abs(z) raised OverflowError: a complex z with finite parts
    can have a modulus beyond the float range.  math.hypot, not abs: after such an
    error, CPython's abs() of a complex NaN raises it again from the stale errno."""
    return math.hypot(z.real * 0.25, z.imag * 0.25)


def _residual_and_scale(t: SixTuple) -> tuple[Scalar, float, int]:
    """(r, s, e): residual(t) and the scale of the relative tests, the largest
    monomial (no floor, so the tests do not depend on units), divided by 2^e.

    e is 0, and r is residual(t) bit for bit, while s lies in [2^-969, 2^1022],
    where no sum overflows and one below 2^-1022 is under 2^-53 of the largest.
    Outside it, the monomials are formed from frexp mantissas and exponents,
    scaled so that the largest is near 1: t and 2^k*t give the same answers.
    """
    a12, a13, a14, a23, a24, a34 = t
    m1, m2, m3 = a12 * a34, a14 * a23, a13 * a24
    try:
        scale = max(abs(m1), abs(m2), abs(m3))
    except OverflowError:  # a complex monomial of modulus beyond the float range
        scale = math.inf
    if 2.0 ** -969 <= scale <= 2.0 ** 1022:
        return m1 + m2 - m3, scale, 0
    parts = [_scaled_product(a12, a34), _scaled_product(a14, a23), _scaled_product(a13, a24)]
    top = max((e for m, e in parts if m), default=0)
    m1, m2, m3 = (_ldexp(m, e - top) for m, e in parts)
    return m1 + m2 - m3, max(abs(m1), abs(m2), abs(m3)), top


def relative_residual(t: SixTuple) -> float:
    """|residual| over the largest monomial; 0.0 when every monomial is zero."""
    res, scale, _ = _residual_and_scale(t)
    if scale == 0.0:
        return 0.0
    return abs(res) / scale


def is_on_quadric(t: SixTuple, tol: float) -> bool:
    """Whether |residual| <= tol times the largest monomial; tol positive and finite."""
    if not 0.0 < tol <= _HUGE:
        raise ValueError(f"tolerance must be positive and finite: {tol}")
    res, scale, _ = _residual_and_scale(t)
    return abs(res) <= tol * scale


def _off_quadric(t: SixTuple, tol: float, what: str = "tuple") -> OffQuadricError:
    """The error for a tuple that is_on_quadric(t, tol) rejected, so of scale > 0."""
    res, scale, e = _residual_and_scale(t)
    return _new_error(OffQuadricError, None, residual(t) if e else res, abs(res) / scale, tol, what)


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
    2^k*t give the same invariant anywhere in the float range.  An invariant
    beyond the float range raises DegenerateError.
    """
    a12, _, a14, a23, _, a34 = t
    num, den = a12 * a34, a23 * a14
    try:
        if _TINY <= abs(num) <= _HUGE and _TINY <= abs(den) <= _HUGE:
            return num / den
    except OverflowError:  # a complex product of modulus beyond the float range
        pass
    (m_num, e_num), (m_den, e_den) = _scaled_product(a12, a34), _scaled_product(a23, a14)
    if m_den == 0:
        raise DegenerateError("cross-ratio invariant undefined: a23*a14 = 0")
    try:
        return _ldexp(m_num / m_den, e_num - e_den)
    except OverflowError:
        raise DegenerateError("cross-ratio invariant leaves the float range") from None


def _ratio(b: Scalar, a: Scalar) -> Scalar:
    """b/a for a nonzero a, formed from frexp parts as in _scaled_product.

    Python's complex division overflows inside for parts above about 2^1022,
    and gives nan or 0 where the quotient is a float.  Each of b and a is
    scaled by its larger part's power of two, exactly unless its smaller part
    lies more than 2^1021 below: that part then loses bits, or goes to 0
    beyond 2^1074 (complex(1e300, 1e-300)/1.0 gives (1e300, 0.0), not
    (1e300, 1e-300)).  Elsewhere the bits are those of b/a.  A quotient
    beyond the float range raises DegenerateError.
    """
    eb, ea = (math.frexp(max(abs(v.real), abs(v.imag)))[1] for v in (b, a))
    try:
        return _ldexp(_ldexp(b, -eb) / _ldexp(a, -ea), eb - ea)
    except OverflowError:
        raise DegenerateError(f"ratio {b!r}/{a!r} leaves the float range") from None


def _principal_sqrt(x: Scalar) -> Scalar:
    if isinstance(x, complex) or x < 0.0:
        return cmath.sqrt(x)
    return math.sqrt(x)


def _from_ratios(c12: Scalar, c13: Scalar, c14: Scalar, c23: Scalar) -> TorusElement:
    """q with q1 the principal square root of c12*c13/c23 and q_j = c_1j/q1."""
    q1_squared = c12 * c13 / c23
    try:
        in_range = _TINY <= abs(q1_squared) <= _HUGE
    except OverflowError:
        in_range = False
    if not in_range:
        q1_squared = c12 * (c13 / c23)  # c12*c13 alone left the float range
    q1 = _principal_sqrt(q1_squared)
    return TorusElement(q1, c12 / q1, c13 / q1, c14 / q1)


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
    if 0.0 in a or 0.0 in b:
        raise DegenerateError("rescaling requires all twelve entries nonzero")
    if not is_on_quadric(a, tol):
        raise _off_quadric(a, tol, "first tuple")
    if not is_on_quadric(b, tol):
        raise _off_quadric(b, tol, "second tuple")
    inv_a = cross_ratio_invariant(a)
    inv_b = cross_ratio_invariant(b)
    try:
        differ = abs(inv_a - inv_b) > tol * max(abs(inv_a), abs(inv_b), 1.0)
    except OverflowError:  # compare quarters; the 1.0 is negligible beside such a modulus
        differ = _quarter_modulus(inv_a - inv_b) > tol * max(_quarter_modulus(inv_a),
                                                              _quarter_modulus(inv_b))
    if differ:
        raise _new_error(NotSameOrbitError, None, inv_a, inv_b, None, None, None)
    (a12, a13, a14, a23, a24, a34), (b12, b13, b14, b23, _, _) = a, b
    # A ratio c_ij that under- or overflowed gives a zero divisor or a zero or
    # non-finite q_i, which TorusElement rejects.  So does a complex division
    # that overflowed inside, and the ratios are then formed by _ratio.
    try:
        try:
            q = _from_ratios(b12 / a12, b13 / a13, b14 / a14, b23 / a23)
        except (ZeroDivisionError, DegenerateError):
            q = _from_ratios(_ratio(b12, a12), _ratio(b13, a13), _ratio(b14, a14), _ratio(b23, a23))
    except (ZeroDivisionError, DegenerateError):
        raise DegenerateError(
            "rescaling leaves the float range: a ratio b_ij/a_ij or q_i is 0 or not finite"
        ) from None
    # Postcondition: every pair product matches within tol, else the inputs
    # were not genuinely orbit-equivalent at this tolerance.
    q1, q2, q3, q4 = q
    images = (q1 * q2 * a12, q1 * q3 * a13, q1 * q4 * a14,
              q2 * q3 * a23, q2 * q4 * a24, q3 * q4 * a34)
    for pair, qa, bv in zip(PAIRS, images, b):
        try:
            gap, size = abs(qa - bv), abs(bv)
        except OverflowError:
            gap, size = _quarter_modulus(qa - bv), _quarter_modulus(bv)
        if gap > tol * size:
            raise _new_error(NotSameOrbitError, None, inv_a, inv_b, pair, gap / size, tol)
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
