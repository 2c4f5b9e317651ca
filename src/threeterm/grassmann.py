"""Plucker minors of 2x4 matrices and reconstruction from the quadric.

The six 2x2 minors of a 2x4 matrix always satisfy the 3-term relation, and
conversely every six-tuple on the quadric arises as the minors of some
matrix; reconstruct() realizes that converse constructively.  Column
rescaling acts on minors exactly as the torus action, and column
permutation relabels them with the antisymmetric sign P_ji = -P_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OffQuadricError
from .relations import PAIRS, SixTuple, is_on_quadric, residual

@dataclass(frozen=True)
class Matrix2x4:
    """A 2x4 matrix of real or complex entries."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows)
        if arr.shape != (2, 4):
            raise DomainError(f"expected a 2x4 matrix, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.complexfloating):
            arr = arr.astype(float)
        if not np.all(np.isfinite(arr)):
            raise DomainError("matrix entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    def column(self, i: int):
        """Column i (1-based) as a length-2 array."""
        if not 1 <= i <= 4:
            raise IndexError(f"column index out of range: {i}")
        return self.rows[:, i - 1]


def minors(m: Matrix2x4) -> SixTuple:
    """The six minors P_ij = x_i*y_j - x_j*y_i, in index order 12,13,14,23,24,34."""
    x, y = m.rows[0], m.rows[1]
    vals = [x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1] for i, j in PAIRS]
    return SixTuple.from_values(complex(v) if np.iscomplexobj(m.rows) else float(v) for v in vals)


def reconstruct(p: SixTuple, tol: float = 1e-10) -> Matrix2x4:
    """A matrix whose minors reproduce an on-quadric six-tuple.

    Pivots on the largest-magnitude entry P_ij (ties by index order) and
    solves in the relabeled frame where the pivot pair comes first: columns
    (1,0), (0,Q12), (-Q23/Q12, Q13), (-Q24/Q12, Q14) reproduce all minors,
    the last one by the quadric relation itself.  The all-zero tuple maps to
    the zero matrix.
    """
    vals = p.values()
    if all(v == 0 for v in vals):
        return Matrix2x4(np.zeros((2, 4)))
    if not is_on_quadric(p, tol):
        raise OffQuadricError(
            f"tuple is off the quadric: residual {residual(p)}", residual=residual(p)
        )
    complex_mode = any(isinstance(v, complex) for v in vals)
    dtype = complex if complex_mode else float
    # Antisymmetric 4x4 table of the entries, 0-based.
    table = np.zeros((4, 4), dtype=dtype)
    for (i, j), v in zip(PAIRS, vals):
        table[i - 1, j - 1] = v
        table[j - 1, i - 1] = -v
    pivot = max(((i, j) for i, j in PAIRS), key=lambda ij: abs(table[ij[0] - 1, ij[1] - 1]))
    order = [pivot[0] - 1, pivot[1] - 1]
    order += [k for k in range(4) if k not in order]
    q = table[np.ix_(order, order)]
    q12 = q[0, 1]
    cols = np.empty((2, 4), dtype=dtype)
    cols[:, 0] = (1.0, 0.0)
    cols[:, 1] = (0.0, q12)
    cols[:, 2] = (-q[1, 2] / q12, q[0, 2])
    cols[:, 3] = (-q[1, 3] / q12, q[0, 3])
    result = np.empty((2, 4), dtype=dtype)
    result[:, order] = cols
    return Matrix2x4(result)


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
