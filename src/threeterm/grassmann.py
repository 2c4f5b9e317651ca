"""Plucker minors of 2x4 matrices and reconstruction from the quadric.

The six 2x2 minors of a 2x4 matrix always satisfy the 3-term relation, and
conversely every six-tuple on the quadric arises as the minors of some
matrix; reconstruct() realizes that converse constructively.  Column
rescaling acts on minors exactly as the torus action, and column
permutation relabels them with the antisymmetric sign P_ji = -P_ij.

A matrix is its eight entries: floats, or complex numbers if any is complex.
The finiteness check, minors() and reconstruct() read only these; numpy serves
only the public constructor and the rows array (read-only, new on each read).
This is the package's one numpy import, and it loads with this module, on
first use: `import threeterm` resolves the three names here only when one is
first read.  As in models, Matrix2x4.__post_init__ keeps its name for the
benchmark's tracer.  reconstruct() reads P_kl from a table of slots and signs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError
from .relations import (DEFAULT_TOL, PAIRS, SixTuple, _Frozen, _ldexp, _minors, _off_quadric,
                        _residual_and_scale, is_on_quadric)


class Matrix2x4(_Frozen):
    """A 2x4 matrix: entries, two 4-tuples of floats (complex if any entry is),
    checked finite by 0.0*v as SixTuple is; rows, a read-only ndarray of them."""

    __slots__ = ("entries",)

    def __new__(cls, rows):
        arr = np.array(rows)
        if arr.shape != (2, 4):
            raise DomainError(f"expected a 2x4 matrix, got shape {arr.shape}")
        x, y = (arr if arr.dtype.kind == "c" else arr.astype(float, copy=False)).tolist()
        return cls._from_entries(tuple(x), tuple(y))

    @classmethod
    def _from_entries(cls, x: tuple, y: tuple) -> Matrix2x4:
        self = object.__new__(cls)
        object.__setattr__(self, "entries", (x, y))
        self.__post_init__()
        return self

    def _key(self) -> tuple:
        return (self.entries,)

    def __post_init__(self):
        (x1, x2, x3, x4), (y1, y2, y3, y4) = self.entries
        if not cmath.isfinite(0.0 * x1 + 0.0 * x2 + 0.0 * x3 + 0.0 * x4
                              + 0.0 * y1 + 0.0 * y2 + 0.0 * y3 + 0.0 * y4):
            raise DomainError("matrix entries must be finite")

    @property
    def rows(self) -> np.ndarray:
        """The entries as a new read-only ndarray, float64 or complex128."""
        rows = np.array(self.entries)
        rows.setflags(write=False)
        return rows


def minors(m: Matrix2x4) -> SixTuple:
    """The six minors P_ij = x_i*y_j - x_j*y_i, in index order 12,13,14,23,24,34."""
    return SixTuple(*_minors(*zip(*m.entries)))


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
        return Matrix2x4._from_entries((0.0,) * 4, (0.0,) * 4)
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
    return Matrix2x4._from_entries(tuple(x), tuple(y))
