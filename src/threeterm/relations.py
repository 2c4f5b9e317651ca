"""The 3-term quadric, the rescaling torus action, and the orbit solver.

Where a plain product or quotient leaves the float range, the quadric test,
the invariant and the solver work on _balanced(t), the image of t under
q_i = 2^k_i with its largest monomial near 1: all three monomials change by
one power of two, exactly, barring underflow below 2^-1022 of the largest.
The solver fits in one frame: the plain one where it stays in range and
meets tol on every pair, else, once, the balanced one, whose verdict stands.
So it balances each tuple at most once.

SixTuple and TorusElement check their entries on every construction path,
so the functions below unpack and iterate them directly.  reconstruct tests
by is_on_quadric, under the name the benchmark's tracer patches in
grassmann, and forms the pass again for the error's fields.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import itemgetter, sub, truediv

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

# The largest finite float.
_HUGE = sys.float_info.max
# The window of plain arithmetic: while the largest of three terms lies in it,
# no sum overflows and one below 2^-1022 is under 2^-53 of the largest.
_LO, _HI = 2.0 ** -969, 2.0 ** 1022


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


def _balanced(t: SixTuple) -> tuple[SixTuple, tuple[int, ...]]:
    """(t', k): the image t'_ij = 2^(k_i+k_j)*t_ij of t under q_i = 2^k_i in
    which each monomial's two factors have about equal exponents and the
    largest monomial lies near 1.  These four conditions on k have the
    orthogonal rows of a Hadamard matrix H, so k = H^T r/4, rounded.  A zero
    entry takes the exponent -9999: its monomial, zero anyway, sets no level.
    """
    e12, e13, e14, e23, e24, e34 = [math.frexp(max(abs(v.real), abs(v.imag)))[1] if v else -9999
                                    for v in t]
    r1, r2, r3 = e34 - e12, e23 - e14, e24 - e13
    level = max(e12 + e34, e14 + e23, e13 + e24)
    # H's rows: (1, 1, -1, -1), (1, -1, -1, 1), (1, -1, 1, -1) and (1, 1, 1, 1).
    k = ((r1 + r2 + r3 - level + 2) // 4, (r1 - r2 - r3 - level + 2) // 4,
         (r3 - r1 - r2 - level + 2) // 4, (r2 - r1 - r3 - level + 2) // 4)
    return SixTuple(*[_ldexp(v, k[i] + k[j]) for (i, j), v in zip(_PAIRS0, t)]), k


def _residual_and_scale(t: SixTuple) -> tuple[Scalar, float, int]:
    """(r, s, e): residual(t) and the scale of the relative tests, the largest
    monomial (no floor, so the tests do not depend on units), divided by 2^e.

    e is 0, and r is residual(t) bit for bit, while s lies in [_LO, _HI].
    Outside it, r and s are those of _balanced(t): exact powers of two times
    those of t, barring underflow below 2^-1022 of the largest monomial, so t
    and its images under q_i = 2^k_i answer alike.
    """
    a12, a13, a14, a23, a24, a34 = t
    m1, m2, m3 = a12 * a34, a14 * a23, a13 * a24
    try:
        scale, s2, s3 = abs(m1), abs(m2), abs(m3)
    except OverflowError:  # a complex monomial of modulus beyond the float range
        scale = s2 = s3 = math.inf
    # max(scale, s2, s3), compared in max's order, without the builtin's call.
    if s2 > scale:
        scale = s2
    if s3 > scale:
        scale = s3
    if _LO <= scale <= _HI:
        return m1 + m2 - m3, scale, 0
    (a12, a13, a14, a23, a24, a34), k = _balanced(t)
    m1, m2, m3 = a12 * a34, a14 * a23, a13 * a24
    return m1 + m2 - m3, max(abs(m1), abs(m2), abs(m3)), -sum(k)


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


def _off_quadric(t: SixTuple, res: Scalar, scale: float, e: int, tol: float,
                 what: str = "tuple") -> OffQuadricError:
    """The error for a tuple that is_on_quadric(t, tol) rejected, from the
    (res, scale, e) = _residual_and_scale(t) that decided, so of scale > 0."""
    return _new_error(OffQuadricError, None, residual(t) if e else res, abs(res) / scale, tol, what)


def torus_apply(q: TorusElement, t: SixTuple) -> SixTuple:
    """The six-tuple q_i*q_j*a_ij, each entry rounded as (q_i*q_j)*a_ij."""
    q1, q2, q3, q4 = q
    a12, a13, a14, a23, a24, a34 = t
    return SixTuple(q1 * q2 * a12, q1 * q3 * a13, q1 * q4 * a14,
                    q2 * q3 * a23, q2 * q4 * a24, q3 * q4 * a34)


def cross_ratio_invariant(t: SixTuple) -> Scalar:
    """The complete orbit invariant a12*a34 / (a23*a14) of a nonvanishing tuple.

    Both products are used as they are while their moduli lie in [_LO, _HI]
    and their quotient is finite.  Otherwise they are taken from _balanced(t)
    with a13 and a24 (which do not enter) set to 0, and times 16, which keeps
    the smaller normal for any quotient below 2^1024.  They are powers of two
    times those of t, exact barring underflow, so t's images under
    q_i = 2^k_i give the same.  (Just above 2^-1022, complex division forms a
    product of the divisor's parts below 2^-1022, which loses bits.)  One
    beyond the float range raises DegenerateError, and only such an overflow
    does: one below 2^-1022 underflows as a quotient does, to a subnormal or
    to 0.0, though not always to the nearest.  The balanced numerator is
    rounded to the subnormal spacing 2^-1074 before it is divided by a
    denominator in [4, 64), so the result lies within 2.5*2^-1074 of the
    exact quotient.  The solver takes any two invariants below its tol as
    agreeing, so for such tuples the fit's deviations decide.
    """
    a12, _, a14, a23, _, a34 = t
    num, den = a12 * a34, a23 * a14
    try:
        if _LO <= abs(num) <= _HI and _LO <= abs(den) <= _HI:
            value = num / den
            if abs(value) <= _HUGE:
                return value
    except OverflowError:  # a complex product of modulus beyond the float range
        pass
    if not (a23 and a14):
        raise DegenerateError("cross-ratio invariant undefined: a23*a14 = 0")
    (a12, _, a14, a23, _, a34), _ = _balanced(SixTuple(a12, 0.0, a14, a23, 0.0, a34))
    num, den = 16.0 * a12 * a34, 16.0 * a23 * a14
    # Where den, the smaller product, underflowed, the quotient is beyond 2^1024.
    if not den or not cmath.isfinite(num / den):
        raise DegenerateError("cross-ratio invariant leaves the float range")
    return num / den


def _fit(a: SixTuple, b: SixTuple) -> tuple[TorusElement, tuple, list[float]]:
    """q, the q_i*q_j and the deviations |q_i*q_j*a_ij - b_ij|/|b_ij|, with
    q1 the principal square root of c12*c13/c23 and q_j = c_1j/q1 for
    c_ij = b_ij/a_ij: only the four quotients that q needs are formed."""
    a12, a13, a14, a23, a24, a34 = a
    b12, b13, b14, b23, b24, b34 = b
    c12, c13, c14 = b12 / a12, b13 / a13, b14 / a14
    q1_sq = c12 * c13 / (b23 / a23)
    q1 = (cmath.sqrt if isinstance(q1_sq, complex) or q1_sq < 0.0 else math.sqrt)(q1_sq)
    q2, q3, q4 = c12 / q1, c13 / q1, c14 / q1
    products = p12, p13, p14, p23, p24, p34 = (q1 * q2, q1 * q3, q1 * q4,
                                               q2 * q3, q2 * q4, q3 * q4)
    return TorusElement(q1, q2, q3, q4), products, [
        abs(p12 * a12 - b12) / abs(b12), abs(p13 * a13 - b13) / abs(b13),
        abs(p14 * a14 - b14) / abs(b14), abs(p23 * a23 - b23) / abs(b23),
        abs(p24 * a24 - b24) / abs(b24), abs(p34 * a34 - b34) / abs(b34)]


def _solve(a: SixTuple, b: SixTuple, tol: float) -> tuple[TorusElement, tuple, list, list | None]:
    """(q, the q_i*q_j, the deviations, the c_ij): the one body of
    rescaling_solve and rescaling_fit.  The c_ij are None from a plain fit,
    whose verdict does not read them, and the balanced fit's quotients moved
    back by powers of two, whose zeros make it raise DegenerateError."""
    if not (all(a) and all(b)):
        raise DegenerateError("rescaling requires all twelve entries nonzero")
    if not 0.0 < tol <= _HUGE:
        raise ValueError(f"tolerance must be positive and finite: {tol}")
    # is_on_quadric's test, raising from the pass that decided.
    res, scale, e = _residual_and_scale(a)
    if not abs(res) <= tol * scale:
        raise _off_quadric(a, res, scale, e, tol, "first tuple")
    res, scale, e = _residual_and_scale(b)
    if not abs(res) <= tol * scale:
        raise _off_quadric(b, res, scale, e, tol, "second tuple")
    inv_a = cross_ratio_invariant(a)
    inv_b = cross_ratio_invariant(b)
    try:
        differ = abs(inv_a - inv_b) > tol * max(abs(inv_a), abs(inv_b), 1.0)
    except OverflowError:  # compare quarters; the 1.0 is negligible beside such a modulus
        differ = abs(inv_a / 4 - inv_b / 4) > tol * max(abs(inv_a / 4), abs(inv_b / 4))
    if differ:
        raise _new_error(NotSameOrbitError, None, inv_a, inv_b, None, None, None)
    try:
        q, products, deviations = _fit(a, b)
        # A sum within tol has no NaN term.
        if sum(deviations) <= tol:
            return q, products, deviations, None
    except (ZeroDivisionError, DegenerateError, OverflowError):
        pass
    (a_bal, ka), (b_bal, kb) = _balanced(a), _balanced(b)
    shift = list(map(sub, ka, kb))
    try:
        q, products, deviations = _fit(a_bal, b_bal)
        q = TorusElement(*map(_ldexp, q, shift))
        shifts = [shift[i] + shift[j] for i, j in _PAIRS0]
        products = list(map(_ldexp, products, shifts))
        ratios = list(map(_ldexp, map(truediv, b_bal, a_bal), shifts))
        if 0.0 in products or 0.0 in ratios:
            raise DegenerateError
    except (ZeroDivisionError, DegenerateError, OverflowError):
        raise DegenerateError(
            "rescaling leaves the float range: a ratio b_ij/a_ij or q_i is 0 or not finite"
        ) from None
    # Postcondition: every pair matches within tol, else the inputs were not
    # orbit-equivalent at this tolerance.
    for pair, deviation in zip(PAIRS, deviations):
        if not deviation <= tol:
            raise _new_error(NotSameOrbitError, None, inv_a, inv_b, pair, deviation, tol)
    return q, products, deviations, ratios


def rescaling_fit(a: SixTuple, b: SixTuple, tol: float = DEFAULT_TOL
                  ) -> tuple[TorusElement, list[tuple[Scalar, Scalar, float]]]:
    """(q, rows): rescaling_solve's q, from the same fit and with the same
    errors, and, per pair in storage order, the q_i*q_j, c_ij = b_ij/a_ij and
    deviation |q_i*q_j*a_ij - b_ij|/|b_ij| it tested.  It forms all six c_ij:
    after a plain fit as b_ij/a_ij, and after a balanced one from the balanced
    tuples, moved back by the powers of two that q_i*q_j are, so a c_ij that
    is a normal float is b_ij/a_ij bit for bit either way."""
    q, products, deviations, ratios = _solve(a, b, tol)
    return q, list(zip(products, ratios or map(truediv, b, a), deviations))


def rescaling_solve(a: SixTuple, b: SixTuple, tol: float = DEFAULT_TOL) -> TorusElement:
    """Find q with q_i*q_j*a_ij = b_ij, or prove the tuples are in different orbits.

    Both tuples must be nonvanishing and on the quadric within tol.  The
    criterion for solvability is equality of the cross-ratio invariants;
    on success q1 is the principal square root of c12*c13/c23, with
    c_ij = b_ij/a_ij, and the rest follow as q_j = c_1j/q1.  The other valid
    answer is -q.  Where the plain fit leaves the float range or misses a
    pair, q' is fitted once to _balanced(a) = 2^ka * a and _balanced(b) =
    2^kb * b, and q = q' * 2^(ka - kb): exact barring underflow below 2^-1022
    of either tuple's largest monomial.  A plain fit forms only the four
    quotients c12, c13, c14 and c23, with the six q_i*q_j and deviations it
    tests; rescaling_fit returns the same q with every c_ij.

    Raises DegenerateError on zero entries, OffQuadricError when either tuple
    misses the quadric, and NotSameOrbitError when the invariants disagree
    (or q misses a pair).  A subnormal c_ij or q_i*q_j is answered; only one
    that underflows to 0 or overflows, or such a q_i, raises DegenerateError.
    """
    return _solve(a, b, tol)[0]


def _minors(x1, x2, x3, x4) -> tuple[Scalar, ...]:
    """The six 2x2 minors x_i[0]*x_j[1] - x_i[1]*x_j[0] of four columns, in pair order."""
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = x1, x2, x3, x4
    return (a1 * b2 - b1 * a2, a1 * b3 - b1 * a3, a1 * b4 - b1 * a4,
            a2 * b3 - b2 * a3, a2 * b4 - b2 * a4, a3 * b4 - b3 * a4)


def cross_ratio_points(x1, x2, x3, x4) -> Scalar:
    """Cross-ratio P12*P34/(P23*P14) of four points of the projective line:
    the orbit invariant of their 2x2 minors P_ij.

    Points are 2-component homogeneous vectors (finite x as (x, 1), infinity
    as (1, 0)).  Rescaling one vector, a torus action on the minors, keeps it.
    DegenerateError: P23 or P14 is zero, the value is beyond the float range,
    or a minor is not finite, as P14 = 2e308 of (1e308, 1), (0, 1), (1, 1),
    (-1e308, 1), whose cross-ratio is -5e307.
    """
    return cross_ratio_invariant(SixTuple(*_minors(x1, x2, x3, x4)))
