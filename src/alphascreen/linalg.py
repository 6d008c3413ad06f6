"""Dense linear-algebra primitives used throughout the estimation pipeline.

Everything here is deterministic and pure.  The solver deliberately goes
through an orthogonal (QR) factorization; normal equations are never
formed explicitly.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionError, RankDeficientError

__all__ = ["RANK_RTOL", "demean_columns", "least_squares"]

# Relative singular-value cutoff below which a design matrix is declared
# rank deficient.
RANK_RTOL = 1e-10


def demean_columns(matrix: np.ndarray) -> np.ndarray:
    """Subtract the mean of each column.

    Equivalent to applying the complement of the projector onto the
    all-ones vector, without materializing an n-by-n matrix.
    """
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        raise DimensionError("cannot demean an empty matrix")
    return m - m.mean(axis=0, keepdims=True) if m.ndim > 1 else m - m.mean()


def least_squares(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Minimum-norm coefficients of ``response`` regressed on ``design``.

    Parameters
    ----------
    design : ndarray, shape (n, k)
        Full column rank design matrix.
    response : ndarray, shape (n,) or (n, m)
        One or many right-hand sides.

    Returns
    -------
    ndarray, shape (k,) or (k, m)
        Coefficients minimizing the squared reconstruction error,
        computed through a QR factorization.

    Raises
    ------
    RankDeficientError
        If the smallest singular value falls below ``RANK_RTOL`` times
        the largest.  The estimated condition number is attached to the
        exception.
    """
    a = np.asarray(design, dtype=float)
    b = np.asarray(response, dtype=float)
    if a.ndim != 2:
        raise DimensionError("design must be a 2-d matrix")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"design has {a.shape[0]} rows but response has {b.shape[0]}"
        )
    if a.shape[0] < a.shape[1]:
        raise DimensionError("design has fewer rows than columns")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        cond = sv[0] / sv[-1] if sv[-1] > 0 else float("inf")
        raise RankDeficientError(
            f"design is numerically rank deficient (condition ~ {cond:.3e})",
            condition=cond,
        )
    q, r = np.linalg.qr(a)
    return scipy.linalg.solve_triangular(r, q.T @ b)
