"""Plucker minors of 2x4 matrices and reconstruction from the quadric.

The six 2x2 minors of a 2x4 matrix always satisfy the 3-term relation, and
conversely every six-tuple on the quadric arises as the minors of some
matrix; reconstruct() realizes that converse constructively.  Column
rescaling acts on minors exactly as the torus action, and column
permutation relabels them with the antisymmetric sign P_ji = -P_ij.

numpy only holds a matrix's rows (read-only, floats unless complex) and
applies the column actions; the finiteness check and minors() work on the
eight entries as Python floats or complex numbers, minors() by
relations._minors.  reconstruct() reads P_kl through a table built at
import, one row per pivot pair: each entry's storage slot and sign.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OffQuadricError
from .relations import DEFAULT_TOL, PAIRS, SixTuple, _minors, is_on_quadric, relative_residual, residual

@dataclass(frozen=True)
class Matrix2x4:
    """A 2x4 matrix of real or complex entries, held as a read-only copy; the
    eight entries are checked finite as Python numbers, by 0.0*v as SixTuple is."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows)
        if arr.shape != (2, 4):
            raise DomainError(f"expected a 2x4 matrix, got shape {arr.shape}")
        if arr.dtype.kind != "c":
            arr = arr.astype(float, copy=False)
        (x1, x2, x3, x4), (y1, y2, y3, y4) = arr.tolist()
        if not cmath.isfinite(0.0 * x1 + 0.0 * x2 + 0.0 * x3 + 0.0 * x4
                              + 0.0 * y1 + 0.0 * y2 + 0.0 * y3 + 0.0 * y4):
            raise DomainError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)


def minors(m: Matrix2x4) -> SixTuple:
    """The six minors P_ij = x_i*y_j - x_j*y_i, in index order 12,13,14,23,24,34."""
    return SixTuple(*_minors(*zip(*m.rows.tolist())))


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
    minus).  The all-zero tuple maps to the zero matrix.
    """
    if not any(p):
        return Matrix2x4(np.zeros((2, 4)))
    if not is_on_quadric(p, tol):
        raise OffQuadricError(
            f"tuple is off the quadric: relative residual {relative_residual(p)}",
            residual=residual(p),
        )
    vals = [complex(v) for v in p] if any(isinstance(v, complex) for v in p) else p
    mags = [abs(v) for v in vals]
    pivot = mags.index(max(mags))
    i, j, rest = _PIVOTS[pivot]
    q12 = vals[pivot]
    x, y = [0.0] * 4, [0.0] * 4
    x[i], y[j] = 1.0, q12
    for k, (a, neg_a), (b, neg_b) in rest:
        x[k] = (-vals[a] if neg_a else vals[a]) / q12
        y[k] = -vals[b] if neg_b else vals[b]
    return Matrix2x4((x, y))


def column_rescale(m: Matrix2x4, s) -> Matrix2x4:
    """Scale column i by s_i; minors transform by P_ij -> s_i*s_j*P_ij."""
    s = tuple(s)
    if len(s) != 4:
        raise DomainError(f"expected four column scalars, got {len(s)}")
    scaled = m.rows * np.asarray(s)[np.newaxis, :]
    return Matrix2x4(scaled)


def column_permute(m: Matrix2x4, sigma) -> Matrix2x4:
    """Reorder columns so column k of the result is column sigma[k] of m (1-based).

    Minors of the result are the relabeled originals with the antisymmetric
    sign convention, so quadric membership is preserved.
    """
    sigma = tuple(sigma)
    if sorted(sigma) != [1, 2, 3, 4]:
        raise DomainError(f"not a permutation of 1..4: {sigma}")
    return Matrix2x4(m.rows[:, [k - 1 for k in sigma]])
