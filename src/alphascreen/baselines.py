"""Competitor procedures: BH and two calibrated per-entity test baselines.

``bh_procedure`` is the classic step-up rule on p-values.  Two
statistic providers feed it:

* ``sbh_statistics`` — normal calibration of the root-n scaled alphas,
  studentized by a per-entity standard error that treats observations
  as serially independent (sample residual variance inflated by the
  plug-in premium terms of the i.i.d. asymptotic variance).
* ``sn_statistics`` — self-normalized statistics whose normalizer is
  built from recursive partial sums of the residual row, calibrated
  against the simulated law of the limiting Brownian functional (Shao
  2010).  That law depends on nothing but a fixed seed, so its table
  ships with the package as ``sn_limit_table.npy`` and every process
  loads it on first use.

``bh_statistics`` additionally exposes the naive per-entity OLS t-test
(no latent adjustment) as the plain-BH reference point.

``sbh_from_fit`` and ``sn_from_fit`` read an existing ``PanelFit``;
``sbh_statistics`` and ``sn_statistics`` fit the panel first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import special

from .errors import DegenerateNormalizerError
from .estimation import PanelFit, estimate_alpha
from .linalg import demean_columns, least_squares
from .panels import FactorPanel, ReturnPanel, check_aligned

__all__ = [
    "PValueResult",
    "normal_z",
    "bh_procedure",
    "bh_statistics",
    "sbh_from_fit",
    "sbh_statistics",
    "SN_MC_PATHS",
    "sn_from_fit",
    "sn_statistics",
]


@dataclass(frozen=True, eq=False)
class PValueResult:
    """Per-entity statistics with two-sided p-values.

    alpha_hat
        The per-entity OLS intercepts behind ``bh_statistics``;
        None for the other methods, whose alphas come from a ``PanelFit``.
    """

    p_values: np.ndarray
    statistics: np.ndarray
    alpha_hat: Optional[np.ndarray] = None


def normal_z(alpha_hat, residual_variance, inflation, n_periods):
    """Root-n scaled alphas studentized by inflated residual variances.

    Invariant to rescaling any entity's alpha together with its variance
    contribution (``c * alpha`` with ``c^2 * variance``).
    """
    return (
        math.sqrt(n_periods)
        * np.asarray(alpha_hat, dtype=float)
        / np.sqrt(np.asarray(residual_variance, dtype=float) * inflation)
    )


# A row whose residual sum of squares is at most this fraction of its total
# sum of squares about its mean is fitted exactly up to rounding: its
# residual standard deviation is below 1e-10 of the row's.
DEGENERATE_RSS_RTOL = 1e-20


def _check_residual_variation(rss: np.ndarray, rows: np.ndarray, message: str) -> None:
    """Raise ``DegenerateNormalizerError(message)`` if a row's fit left only rounding.

    ``rss`` holds the residual sums of squares of the (p, n) ``rows``.  A
    row counts as fitted exactly when ``rss`` is at most
    ``DEGENERATE_RSS_RTOL`` times its total sum of squares about its
    mean, or when the row is constant and so has no such total.
    """
    # The total about the mean is at most the sum of squares about zero, so
    # rows above that bound pass without the slower exact test.
    suspect = rss <= DEGENERATE_RSS_RTOL * np.einsum("ij,ij->i", rows, rows)
    if not suspect.any():
        return
    rows = rows[suspect]
    centered = rows - rows.mean(axis=1, keepdims=True)
    tss = np.einsum("ij,ij->i", centered, centered)
    if np.any((rss[suspect] <= DEGENERATE_RSS_RTOL * tss) | (np.ptp(rows, axis=1) == 0.0)):
        raise DegenerateNormalizerError(message)


def bh_procedure(p_values: np.ndarray, beta: float) -> np.ndarray:
    """Step-up rule: reject the k smallest p-values where k is the largest
    index with p_(k) <= k * beta / m.  Returns sorted rejected indices."""
    p = np.asarray(p_values, dtype=float).ravel()
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    m = p.size
    if m == 0:
        return np.array([], dtype=int)
    order = np.argsort(p, kind="stable")
    passed = np.flatnonzero(p[order] <= (np.arange(1, m + 1) * beta) / m)
    if passed.size == 0:
        return np.array([], dtype=int)
    k_hat = passed[-1] + 1
    return np.sort(order[:k_hat])


def bh_statistics(
    returns: ReturnPanel, factors: FactorPanel
) -> PValueResult:
    """Naive per-entity t-statistics of the OLS intercept on observed factors.

    Ignores latent structure and serial dependence entirely; serves as
    the uncorrected baseline fed to ``bh_procedure``.  With latent
    confounders carrying a nonzero premium the intercepts, returned as
    ``alpha_hat``, are biased and cross-sectionally dependent.
    """
    check_aligned(returns, factors)
    n = returns.n_periods
    design = np.column_stack([np.ones(n), factors.values])
    k = design.shape[1]
    coef = least_squares(design, returns.values.T)
    resid = returns.values - (design @ coef).T
    rss = np.sum(resid * resid, axis=1)
    _check_residual_variation(
        rss, returns.values, "an entity has no OLS residual variance beyond rounding"
    )
    sigma2 = rss / (n - k)
    # Var(intercept) = sigma^2 * [(D'D)^{-1}]_{00}, via the QR of the design.
    q, r = np.linalg.qr(design)
    g_inv_00 = float(np.sum(np.linalg.inv(r)[0, :] ** 2))
    z = coef[0] / np.sqrt(sigma2 * g_inv_00)
    p = 2.0 * special.ndtr(-np.abs(z))
    return PValueResult(p_values=p, statistics=z, alpha_hat=coef[0])


def sbh_from_fit(fit: PanelFit, returns: ReturnPanel, factors: FactorPanel) -> PValueResult:
    """Normal calibration of the three-step alphas of a fitted panel.

    The studentizer is the per-entity residual variance (sample second
    moment of the residual row) inflated by ``1 + premium'
    cov(scores)^{-1} premium + mean(F)' cov(F)^{-1} mean(F)`` with
    plug-in estimates of the latent premium and score covariance,
    matching the i.i.d. asymptotic variance of the estimator when risk
    premia are nonzero.  ``returns`` and ``factors`` are the panels the
    fit was made with.
    """
    n = fit.n_periods
    resid = fit.residuals
    var_e = np.mean(resid * resid, axis=1)
    _check_residual_variation(
        n * var_e,
        returns.values,
        "an entity has no residual variance beyond rounding; cannot studentize",
    )

    b = fit.latent.loadings_hat
    scores = (b.T @ fit.latent.adjusted_returns) / b.shape[0]  # (r, n)
    score_cov = scores @ scores.T / n
    premium = fit.latent_premium
    f = factors.values
    f_centered = demean_columns(f)
    f_cov = f_centered.T @ f_centered / n
    f_mean = f.mean(axis=0)
    inflation = (
        1.0
        + float(premium @ np.linalg.solve(score_cov, premium))
        + float(f_mean @ np.linalg.solve(f_cov, f_mean))
    )
    z = normal_z(fit.alpha_hat, var_e, inflation, n)
    p = 2.0 * special.ndtr(-np.abs(z))
    return PValueResult(p_values=p, statistics=z)


def sbh_statistics(
    returns: ReturnPanel,
    factors: FactorPanel,
    rank: Optional[int] = None,
) -> PValueResult:
    """Normal calibration of the three-step alphas; see :func:`sbh_from_fit`."""
    return sbh_from_fit(estimate_alpha(returns, factors, rank=rank), returns, factors)


# --- self-normalized calibration -------------------------------------------

SN_MC_PATHS = 10000
_SN_TABLE_FILE = Path(__file__).with_name("sn_limit_table.npy")


@functools.cache
def _sn_limit_table() -> np.ndarray:
    """Sorted Monte-Carlo draws of the limiting self-normalized ratio.

    The limit is W(1)^2 over the integrated squared Brownian bridge,
    discretized on 1000 points; the table holds ``SN_MC_PATHS`` draws
    from a fixed seed.  It ships as package data and is loaded on first
    use, read-only; ``tests/test_baselines.py`` rebuilds it and checks
    the shipped file.
    """
    table = np.load(_SN_TABLE_FILE)
    table.flags.writeable = False
    return table


def _check_mc_paths(mc_paths: int) -> None:
    # Only the shipped table exists; the keyword remains for callers that name it.
    if mc_paths != SN_MC_PATHS:
        raise ValueError(f"mc_paths must be {SN_MC_PATHS}, the size of the shipped table")


def sn_test_rows(rows: np.ndarray) -> np.ndarray:
    """Self-normalized mean-zero test statistic of each row.

    ``n * mean(row)^2 / V`` with ``V = n^{-2} sum_t S_t^2`` and ``S_t``
    the partial sums of the demeaned row.
    """
    y = np.asarray(rows, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    n = y.shape[1]
    mean = y.mean(axis=1)
    partial = np.cumsum(y - mean[:, None], axis=1)
    v = np.sum(partial * partial, axis=1) / n**2
    if np.any(v <= 0.0):
        raise DegenerateNormalizerError(
            "a residual row has no variation; the self-normalizer is zero"
        )
    return n * mean * mean / v


def sn_pvalues(statistics: np.ndarray, mc_paths: int = SN_MC_PATHS) -> np.ndarray:
    """Upper-tail p-values of self-normalized statistics under the limit law.

    The law is the shipped table of ``SN_MC_PATHS`` draws; ``mc_paths``
    must equal that size.
    """
    _check_mc_paths(mc_paths)
    table = _sn_limit_table()
    stat = np.asarray(statistics, dtype=float)
    n_ge = table.size - np.searchsorted(table, stat, side="left")
    return (1.0 + n_ge) / (table.size + 1.0)


def sn_from_fit(fit: PanelFit, returns: ReturnPanel) -> PValueResult:
    """Self-normalized test of each alpha of a fitted panel.

    The per-period alpha contributions (latent-projected adjusted
    returns) of each entity form the series whose mean is tested; the
    recursive partial-sum normalizer absorbs the unknown long-run
    variance without any bandwidth choice.  ``returns`` is the panel the
    fit was made with; a row the fit reproduces up to rounding is
    refused, as in :func:`sbh_from_fit`.
    """
    resid = fit.residuals
    _check_residual_variation(
        np.einsum("ij,ij->i", resid, resid),
        returns.values,
        "an entity has no residual variance beyond rounding; the self-normalizer is degenerate",
    )
    contributions = resid + fit.alpha_hat[:, None]
    stat = sn_test_rows(contributions)
    p = sn_pvalues(stat)
    return PValueResult(p_values=p, statistics=stat)


def sn_statistics(
    returns: ReturnPanel,
    factors: FactorPanel,
    rank: Optional[int] = None,
    mc_paths: int = SN_MC_PATHS,
) -> PValueResult:
    """Self-normalized test of each alpha; see :func:`sn_from_fit`.

    ``mc_paths`` must equal ``SN_MC_PATHS``, as in :func:`sn_pvalues`.
    """
    _check_mc_paths(mc_paths)
    return sn_from_fit(estimate_alpha(returns, factors, rank=rank), returns)
