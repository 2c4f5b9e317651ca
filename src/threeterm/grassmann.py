"""Plucker minors of 2x4 matrices and reconstruction from the quadric.

The six 2x2 minors of a 2x4 matrix always satisfy the 3-term relation, and
conversely every six-tuple on the quadric arises as the minors of some
matrix; reconstruct() realizes that converse constructively.  Column
rescaling acts on minors exactly as the torus action, and column
permutation relabels them with the antisymmetric sign P_ji = -P_ij.

A matrix is the tuple of its two rows: floats, or complex numbers if any
entry is.  The finiteness check, minors() and reconstruct() read only these;
numpy serves only the public constructor and the rows array.  This is the
package's one numpy import, and it loads with this module, which the package
imports, like every submodule, when one of its names is first read.  As in
models, Matrix2x4.__post_init__ returns self and keeps its name for the
benchmark's tracer.  reconstruct() reads P_kl from a table of slots and signs.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from .errors import DomainError
from .relations import (DEFAULT_TOL, PAIRS, SixTuple, _Named, _ldexp, _minors, _off_quadric,
                        _residual_and_scale, is_on_quadric)


class Matrix2x4(_Named):
    """A 2x4 matrix: the tuple of its two rows, checked finite by 0.0*v as
    SixTuple is; rows, a read-only ndarray of them.  Rows that are ragged, not
    numbers (a string, None) or beyond the float range raise DomainError.  Its
    repr and pickle call Matrix2x4(rows).  It equals and hashes as the plain
    tuple of its rows, the _Named rule that every value type but one keeps."""

    __slots__ = ()

    def __new__(cls, rows):
        try:
            arr = np.array(rows)
        except ValueError as exc:  # ragged rows
            raise DomainError(f"expected a 2x4 matrix: {exc}") from None
        if arr.shape != (2, 4):
            raise DomainError(f"expected a 2x4 matrix, got shape {arr.shape}")
        kind = arr.dtype.kind
        # numpy holds an int beyond int64 as an object: promote it with the rest.
        if kind == "O" and all(isinstance(v, numbers.Complex) for v in arr.flat):
            kind = "f" if all(isinstance(v, numbers.Real) for v in arr.flat) else "c"
        if kind not in "biufc":  # a string, which astype would parse, None or a date
            raise DomainError(f"expected a matrix of numbers, got {rows!r}")
        try:
            x, y = arr.astype(complex if kind == "c" else float, copy=False).tolist()
        except OverflowError as exc:  # an int beyond the float range
            raise DomainError(f"matrix entries must be finite: {exc}") from None
        return tuple.__new__(cls, (tuple(x), tuple(y))).__post_init__()

    def __post_init__(self):
        (x1, x2, x3, x4), (y1, y2, y3, y4) = self
        if not cmath.isfinite(0.0 * x1 + 0.0 * x2 + 0.0 * x3 + 0.0 * x4
                              + 0.0 * y1 + 0.0 * y2 + 0.0 * y3 + 0.0 * y4):
            raise DomainError("matrix entries must be finite")
        return self

    def __repr__(self):
        return f"Matrix2x4({tuple(self)!r})"

    def __reduce__(self):
        return type(self), (tuple(self),)

    @property
    def rows(self) -> np.ndarray:
        """The entries as a new read-only ndarray, float64 or complex128."""
        rows = np.array(self)
        rows.setflags(write=False)
        return rows


def minors(m: Matrix2x4) -> SixTuple:
    """The six minors P_ij = x_i*y_j - x_j*y_i, in index order 12,13,14,23,24,34."""
    return SixTuple(*_minors(*zip(*m)))


# P_kl for k != l as (storage slot, negated), by P_lk = -P_kl; then one row per
# pivot pair (i, j), in storage order: i, j and each other column k, 0-based,
# with P_kj = -P_jk and P_ik.
_SIGNED = {pair: (n, neg) for n, (i, j) in enumerate(PAIRS)
           for pair, neg in (((i, j), False), ((j, i), True))}
_PIVOTS = tuple((i - 1, j - 1, tuple((k - 1, _SIGNED[k, j], _SIGNED[i, k]) for k in (1, 2, 3, 4)
                                     if k not in (i, j))) for i, j in PAIRS)


def reconstruct(p: SixTuple, tol: float = DEFAULT_TOL) -> Matrix2x4:
    """A matrix whose minors reproduce an on-quadric six-tuple.

    Pivots on the largest-magnitude entry P_ij (ties by index order) and
    solves in the relabeled frame where the pivot pair comes first: columns
    (1,0), (0,Q12), (-Q23/Q12, Q13), (-Q24/Q12, Q14) reproduce all minors,
    the last one by the quadric relation itself (P_lk = -P_kl by unary
    minus).  It computes in floats, or in complex numbers when an entry of p
    is complex; the all-zero tuple maps to the zero matrix of floats.
    """
    if not is_on_quadric(p, tol):
        raise _off_quadric(p, *_residual_and_scale(p), tol)
    if not any(p):
        return tuple.__new__(Matrix2x4, ((0.0,) * 4,) * 2).__post_init__()
    # SixTuple holds Python numbers: the sum is complex exactly when an entry is.
    to = complex if isinstance(sum(p, 0.0), complex) else float
    vals = tuple(map(to, p))
    try:
        mags = [abs(v) for v in vals]
    except OverflowError:  # a complex modulus beyond the float range: compare quarters
        mags = [abs(v / 4) for v in vals]
    size = max(mags)
    pivot = mags.index(size)
    i, j, rest = _PIVOTS[pivot]
    q12, num = vals[pivot], vals
    if to is complex and size > 2.0 ** 1020:
        # Complex division forms sums of up to twice the divisor's size, which
        # overflow near the float limit.  There the quotients are taken of the
        # tuple scaled, exactly, by the power of two that brings the pivot near
        # 1; elsewhere that scaling would not change them.
        num = [_ldexp(v, -math.frexp(size)[1]) for v in vals]
    den = num[pivot]
    x, y = [to(0.0)] * 4, [to(0.0)] * 4
    x[i], y[j] = to(1.0), q12
    for k, (a, neg_a), (b, neg_b) in rest:
        x[k] = (-num[a] if neg_a else num[a]) / den
        y[k] = -vals[b] if neg_b else vals[b]
    return tuple.__new__(Matrix2x4, (tuple(x), tuple(y))).__post_init__()
