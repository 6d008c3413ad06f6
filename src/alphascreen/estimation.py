"""Three-step alpha estimation under a factor model with latent confounders.

The pipeline sequentially removes the observed factors (time-series
regression), extracts latent loadings from the adjusted returns by
principal components with eigenvalue-ratio rank selection, and recovers
the alphas by a cross-sectional regression of the average adjusted
returns on the latent loadings.  :class:`PanelFits` composes all of one
panel's fits: the first pass, the full fit and one fit per half.  The
first pass (:class:`ObservedFit`) keeps only what the latent pass reads;
the baselines derive their own summaries from it.

The observed factors are removed with the oblique factor
``I - Fd (Fd'Fd)^{-1} F'`` (``Fd`` the column-demeaned factors), which
annihilates the factor columns exactly while preserving the intercept:
``F' (I - Fd (Fd'Fd)^{-1} F') = 0`` and ``1' (I - Fd (Fd'Fd)^{-1} F') 1 = n``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, NoFactorStructureError
from .linalg import demean_columns, least_squares, one_blas_thread
from .panels import FactorPanel, ReturnPanel, check_aligned, chronological_split

__all__ = [
    "LatentFit",
    "ObservedFit",
    "PanelFit",
    "PanelFits",
    "regress_out_observed",
    "fit_observed",
    "estimate_latent",
    "estimate_alpha",
    "long_run_variance",
]

# Eigenvalues below this fraction of the leading one are treated as the
# degenerate tail of the adjusted-return spectrum.
EIGENVALUE_FLOOR_REL = 1e-12

# Search cap of the eigenvalue-ratio rank choice.
MAX_RANK = 10


@dataclass(frozen=True, eq=False)
class LatentFit:
    """Latent-loading estimate extracted from adjusted returns.

    loadings_hat
        (p, rank_hat) loadings; each column has squared norm p, sign fixed
        so its largest-magnitude entry is positive.
    rank_hat
        Number of latent factors retained.
    scores
        (rank_hat, n) latent scores ``loadings_hat' A / p`` of the
        time-demeaned observed-factor-free returns ``A``, the matrix whose
        principal components are taken.
    eigen_ratio
        The winning consecutive-eigenvalue ratio when the rank was chosen
        automatically (diagnostic; None when the rank was supplied).
    """

    loadings_hat: np.ndarray
    rank_hat: int
    scores: np.ndarray
    eigen_ratio: Optional[float] = None


def regress_out_observed(
    returns: ReturnPanel, factors: FactorPanel
) -> tuple[np.ndarray, np.ndarray]:
    """Remove the observed-factor component from every return series.

    Returns
    -------
    observed_loadings_hat : ndarray, shape (p, r)
        Coefficients of each return series on the demeaned factors.
    adjusted : ndarray, shape (p, n)
        ``X - loadings @ F'``; free of the observed factors but still
        carrying the intercept and the latent structure.
    """
    check_aligned(returns, factors)
    f = factors.values
    fd = demean_columns(f)
    loadings = least_squares(fd, returns.values.T).T
    adjusted = loadings @ f.T
    np.subtract(returns.values, adjusted, out=adjusted)
    return loadings, adjusted


class ObservedFit(NamedTuple):
    """The regression of every return series on ``[1, F]``: its (p, n)
    residuals ``centered``, the adjusted returns demeaned over time, and
    its (p,) ``intercepts``, their time means."""

    centered: np.ndarray
    intercepts: np.ndarray


@one_blas_thread()
def fit_observed(returns: ReturnPanel, factors: FactorPanel) -> ObservedFit:
    """The first pass of the three-step fit."""
    _, centered = regress_out_observed(returns, factors)
    intercepts = centered.mean(axis=1)
    centered -= intercepts[:, None]
    return ObservedFit(centered, intercepts)


def estimate_latent(adjusted: np.ndarray, rank: Optional[int] = None) -> LatentFit:
    """Principal-component latent loadings from observed-factor-free returns.

    The adjusted returns are demeaned over time (the intercept column
    would otherwise masquerade as a factor), and the spectrum of the
    outer product is obtained through the n-by-n Gram matrix so that no
    p-by-p object is ever formed.  When ``rank`` is not given it is
    chosen by maximizing consecutive eigenvalue ratios over the first
    ``MAX_RANK`` candidates above the degeneracy floor; ties go to the
    smallest index.

    Raises
    ------
    NoFactorStructureError
        If every eigenvalue sits below the degeneracy floor.
    """
    a = np.asarray(adjusted, dtype=float)
    if a.ndim != 2:
        raise DimensionError("adjusted returns must be a p-by-n matrix")
    return _principal_components(a - a.mean(axis=1, keepdims=True), rank, MAX_RANK)


def _principal_components(centered: np.ndarray, rank: Optional[int], cap: int) -> LatentFit:
    """:func:`estimate_latent` of time-demeaned adjusted returns, searching at most ``cap`` ranks."""
    p = centered.shape[0]
    gram = centered.T @ centered
    evals, evecs = np.linalg.eigh(gram)
    evals = evals[::-1].copy()
    evecs = evecs[:, ::-1]
    evals[evals < 0.0] = 0.0

    if evals[0] <= 0.0:
        raise NoFactorStructureError("adjusted returns have an all-zero spectrum")
    floor = EIGENVALUE_FLOOR_REL * evals[0]
    n_usable = int(np.sum(evals > floor))

    eigen_ratio = None
    if rank is None:
        limit = min(cap, n_usable - 1)
        if limit >= 1:
            ratios = evals[:limit] / evals[1 : limit + 1]
            best = int(np.argmax(ratios))
            rank = best + 1
            eigen_ratio = float(ratios[best])
        elif n_usable == 1:
            rank = 1
        else:
            raise NoFactorStructureError(
                "no eigenvalue exceeds the degeneracy floor"
            )
    else:
        rank = int(rank)
        if not 1 <= rank <= n_usable:
            raise DimensionError(
                f"requested rank {rank} outside the usable spectrum [1, {n_usable}]"
            )

    lam = evals[:rank]
    loadings = np.sqrt(p) * (centered @ evecs[:, :rank]) / np.sqrt(lam)
    # Fix the eigenvector sign indeterminacy: largest-|entry| positive.
    for j in range(rank):
        col = loadings[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            loadings[:, j] = -col
    return LatentFit(
        loadings_hat=loadings,
        rank_hat=rank,
        scores=(loadings.T @ centered) / p,
        eigen_ratio=eigen_ratio,
    )


@dataclass(frozen=True, eq=False)
class PanelFit:
    """Three-step fit of one panel or one chronological half.

    Every statistic reads its fit from here, so a panel (or half) is
    fitted once however many methods test it.

    alpha_hat
        (p,) alphas: time means of the latent-projected adjusted returns.
    latent
        The latent-loading estimate of the adjusted returns.
    residuals
        (p, n) fluctuation part of the latent-projected adjusted returns
        (per-entity means, i.e. the alphas, subtracted).
    mean_adjusted
        (p,) time means of the observed-factor-free returns.
    latent_premium
        ``mean_adjusted`` regressed on the latent loadings ``b``: ``b' mean_adjusted / p``, as ``b'b = p I``.
    """

    alpha_hat: np.ndarray
    latent: LatentFit
    residuals: np.ndarray
    mean_adjusted: np.ndarray
    latent_premium: np.ndarray

    @property
    def n_periods(self) -> int:
        """Number of periods of the fitted panel."""
        return self.residuals.shape[1]


@one_blas_thread()
def estimate_alpha(
    returns: ReturnPanel, factors: FactorPanel, rank: Optional[int] = None
) -> PanelFit:
    """Full three-step alpha estimate: the ``full`` fit of a fresh :class:`PanelFits`.

    Parameters
    ----------
    returns, factors
        Time-aligned panels.
    rank
        Latent rank; estimated by the eigenvalue-ratio rule over at most
        ``MAX_RANK`` candidates when None.
    """
    return PanelFits(returns, factors, rank).full


@one_blas_thread()
def _latent_fit(
    observed: ObservedFit, returns: ReturnPanel, factors: FactorPanel, rank: Optional[int]
) -> PanelFit:
    """The latent and cross-sectional passes of the three-step fit, from its first pass."""
    centered, mean_adjusted = observed.centered, observed.intercepts
    n, r_o = returns.n_periods, factors.n_factors
    # at least 1: a ReturnPanel has an entity and a FactorPanel n > r_o + 1 periods
    cap = min(MAX_RANK, returns.n_entities, n - r_o - 1)
    latent = _principal_components(centered, rank, cap)
    b, p = latent.loadings_hat, returns.n_entities
    premium = b.T @ mean_adjusted / p  # the regression on b, as b'b = p I: no factorization
    residuals = b @ latent.scores  # latent.scores is b' centered / p; subtracted in place
    np.subtract(centered, residuals, out=residuals)
    return PanelFit(
        alpha_hat=mean_adjusted - b @ premium,
        latent=latent,
        residuals=residuals,
        mean_adjusted=mean_adjusted,
        latent_premium=premium,
    )


class _cached_fit(functools.cached_property):
    """``functools.cached_property`` without Python 3.11's lock shared by all
    instances, so a study's workers fit at once; a PanelFits has one thread."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class PanelFits:
    """The fits of one panel that the methods share, each made at most once.

    ``observed`` regresses the panel on its observed factors, ``full``
    fits the whole panel from that regression, and ``halves`` is the
    ``full`` fit of each chronological half.  Each is made on first use,
    and :meth:`release` lets go of one that no later method reads.  The
    full fit takes the regression out of the cache, so its next use makes
    the regression again, and a replication makes the halves first, so
    that no two fits hold panel-sized arrays at once.
    """

    def __init__(self, returns: ReturnPanel, factors: FactorPanel, rank: Optional[int] = None):
        self.returns = returns
        self.factors = factors
        self.rank = rank

    @_cached_fit
    def observed(self) -> ObservedFit:
        return fit_observed(self.returns, self.factors)

    @_cached_fit
    def full(self) -> PanelFit:
        observed = self.observed
        self.release("observed")  # the full fit takes the regression's (p, n) residuals
        return _latent_fit(observed, self.returns, self.factors, self.rank)

    @_cached_fit
    def halves(self) -> tuple[PanelFit, PanelFit]:
        first, second = chronological_split(self.returns, self.factors)
        first_fit = PanelFits(*first, rank=self.rank).full
        del first  # the first half's copy of the returns is not needed for the second fit
        return first_fit, PanelFits(*second, rank=self.rank).full

    def release(self, name: str) -> None:
        """Drop the fit ``name`` if it was made; its next use makes it again."""
        self.__dict__.pop(name, None)


def long_run_variance(residuals: np.ndarray) -> np.ndarray:
    """Bartlett-kernel long-run variance of each residual row.

    Computes ``(1/n) sum_{t1,t2} k((t1-t2)/ell) e_{t1} e_{t2}`` with the
    bandwidth ``ell = n**0.2`` in its O(n * ell) lag-sum form with the
    Bartlett kernel ``k(x) = max(0, 1 - |x|)``, whose positive
    semidefiniteness guarantees a nonnegative estimate.  Estimates are
    floored at 1e-12 so they can divide.

    Parameters
    ----------
    residuals : ndarray, shape (p, n), n >= 2
    """
    e = np.asarray(residuals, dtype=float)
    if e.ndim != 2 or e.shape[1] < 2:
        raise DimensionError("residuals must be a p-by-n matrix with n >= 2")
    n = e.shape[1]
    ell = float(n) ** 0.2

    s2 = np.mean(e * e, axis=1)
    # lag <= ell < n: each weight is the kernel's, and a zero weight adds zero
    for lag in range(1, int(ell) + 1):
        w = 1.0 - lag / ell
        s2 = s2 + 2.0 * w * np.sum(e[:, lag:] * e[:, :-lag], axis=1) / n
    return np.maximum(s2, 1e-12)
