"""Plucker minors of 2x4 matrices and reconstruction from the quadric.

The six 2x2 minors of a 2x4 matrix always satisfy the 3-term relation, and
conversely every six-tuple on the quadric arises as the minors of some
matrix; reconstruct() realizes that converse constructively.  Column
rescaling acts on minors exactly as the torus action, and column
permutation relabels them with the antisymmetric sign P_ji = -P_ij.

numpy only holds a matrix's rows (read-only, floats unless complex) and
applies the column actions; minors() and reconstruct() work on the eight
entries as Python floats or complex numbers; minors() by relations._minors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OffQuadricError
from .relations import DEFAULT_TOL, PAIRS, SixTuple, _minors, is_on_quadric, relative_residual, residual

@dataclass(frozen=True)
class Matrix2x4:
    """A 2x4 matrix of real or complex entries."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows)
        if arr.shape != (2, 4):
            raise DomainError(f"expected a 2x4 matrix, got shape {arr.shape}")
        if arr.dtype.kind != "c":
            arr = arr.astype(float, copy=False)
        if not np.isfinite(arr).all():
            raise DomainError("matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)


def minors(m: Matrix2x4) -> SixTuple:
    """The six minors P_ij = x_i*y_j - x_j*y_i, in index order 12,13,14,23,24,34."""
    return SixTuple(*_minors(*zip(*m.rows.tolist())))


def reconstruct(p: SixTuple, tol: float = DEFAULT_TOL) -> Matrix2x4:
    """A matrix whose minors reproduce an on-quadric six-tuple.

    Pivots on the largest-magnitude entry P_ij (ties by index order) and
    solves in the relabeled frame where the pivot pair comes first: columns
    (1,0), (0,Q12), (-Q23/Q12, Q13), (-Q24/Q12, Q14) reproduce all minors,
    the last one by the quadric relation itself.  The all-zero tuple maps to
    the zero matrix.
    """
    if all(v == 0 for v in p):
        return Matrix2x4(np.zeros((2, 4)))
    if not is_on_quadric(p, tol):
        raise OffQuadricError(
            f"tuple is off the quadric: relative residual {relative_residual(p)}",
            residual=residual(p),
        )
    vals = [complex(v) for v in p] if any(isinstance(v, complex) for v in p) else p
    # Entries P_kl for both orders k, l, with P_lk = -P_kl.
    entry = {}
    for (k, l), v in zip(PAIRS, vals):
        entry[k, l] = v
        entry[l, k] = -v
    mags = [abs(v) for v in vals]
    i, j = PAIRS[mags.index(max(mags))]
    q12 = entry[i, j]
    cols = {i: (1.0, 0.0), j: (0.0, q12)}
    for k in (1, 2, 3, 4):
        if k != i and k != j:
            cols[k] = (-entry[j, k] / q12, entry[i, k])
    return Matrix2x4(list(zip(*(cols[k] for k in (1, 2, 3, 4)))))


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
