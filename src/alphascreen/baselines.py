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

``bh_from_fit`` additionally exposes the naive per-entity OLS t-test
(no latent adjustment) as the plain-BH reference point, from the
observed-factor regression that starts the full fit.

``bh_from_fit`` reads an ``ObservedFit``, and ``sbh_from_fit`` and
``sn_from_fit`` a ``PanelFit``; each ``*_statistics`` form is a fresh
:class:`.estimation.PanelFits` plus its ``*_from_fit`` statistic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateNormalizerError
from .estimation import ObservedFit, PanelFit, PanelFits
from .fdr import _check_levels
from .linalg import demean_columns
from .panels import FactorPanel, ReturnPanel

__all__ = [
    "PValueResult",
    "bh_procedure",
    "bh_from_fit",
    "bh_statistics",
    "sbh_from_fit",
    "sbh_statistics",
    "SN_MC_PATHS",
    "sn_from_fit",
    "sn_statistics",
]


@dataclass(frozen=True, eq=False)
class PValueResult:
    """Per-entity statistics with two-sided p-values."""

    p_values: np.ndarray
    statistics: np.ndarray


_SQRT1_2 = math.sqrt(0.5)


def _two_sided_normal_p(z: np.ndarray) -> np.ndarray:
    """Two-sided standard normal tail ``P(|N(0, 1)| >= |z|)`` of each entry.

    ``math.erfc(|z| / sqrt(2))``: within 1e-13 relative of
    ``2 * scipy.stats.norm.sf(|z|)`` wherever that is a normal double
    (tested), 0 beyond ``|z|`` of about 38.5 and NaN for NaN.
    """
    return np.fromiter(map(math.erfc, (np.abs(z) * _SQRT1_2).tolist()), float, z.size)


# A row whose residual sum of squares is at most this fraction of its total
# sum of squares about its mean is fitted exactly up to rounding: its
# residual standard deviation is below 1e-10 of the row's.
DEGENERATE_RSS_RTOL = 1e-20


def _check_residual_variation(rss: np.ndarray, returns: ReturnPanel, message: str) -> None:
    """Raise ``DegenerateNormalizerError(message)`` if a row's fit left only rounding.

    ``rss`` holds the residual sums of squares of the rows of ``returns``.
    A row counts as fitted exactly when ``rss`` is at most
    ``DEGENERATE_RSS_RTOL`` times its total sum of squares about its
    mean, or when the row is constant and so has no such total.
    """
    # The total about the mean is at most the sum of squares about zero, which
    # the panel keeps, so rows above that bound pass without the exact test.
    suspect = rss <= DEGENERATE_RSS_RTOL * returns.row_squares
    if not suspect.any():
        return
    rows = returns.values[suspect]
    centered = rows - rows.mean(axis=1, keepdims=True)
    tss = np.einsum("ij,ij->i", centered, centered)
    if np.any((rss[suspect] <= DEGENERATE_RSS_RTOL * tss) | (np.ptp(rows, axis=1) == 0.0)):
        raise DegenerateNormalizerError(message)


def bh_procedure(p_values: np.ndarray, beta: float) -> np.ndarray:
    """Step-up rule: reject the k smallest p-values where k is the largest
    index with p_(k) <= k * beta / m.  Returns sorted rejected indices."""
    return _bh_rejections(p_values, [beta])[0]


def _bh_rejections(p_values: np.ndarray, betas: Sequence[float]) -> list[np.ndarray]:
    """:func:`bh_procedure` at each level in ``betas``: one stable sort of
    the p-values, then one comparison per level."""
    p = np.asarray(p_values, dtype=float).ravel()
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails both
        raise ValueError("p-values must lie in [0, 1]")
    _check_levels(betas)
    m = p.size
    order = np.argsort(p, kind="stable")
    p_sorted = p[order]
    ranks = np.arange(1, m + 1)
    rejected = []
    for beta in betas:
        passed = np.flatnonzero(p_sorted <= (ranks * beta) / m)
        k_hat = passed[-1] + 1 if passed.size else 0
        rejected.append(np.sort(order[:k_hat]))
    return rejected


def _intercept_variance(factors: FactorPanel) -> float:
    """Variance of an OLS intercept on ``[1, F]`` per unit residual variance,
    ``1/n + mean(F)' (Fd'Fd)^{-1} mean(F)`` with ``Fd`` the demeaned factors."""
    f_mean, fd = factors.values.mean(axis=0), demean_columns(factors.values)
    return 1.0 / factors.n_periods + float(f_mean @ np.linalg.solve(fd.T @ fd, f_mean))


def bh_from_fit(observed: ObservedFit, returns: ReturnPanel, factors: FactorPanel) -> PValueResult:
    """Naive per-entity t-statistics of the OLS intercept on observed factors.

    Ignores latent structure and serial dependence entirely; serves as
    the uncorrected baseline fed to ``bh_procedure``.  With latent
    confounders carrying a nonzero premium the intercepts,
    ``observed.intercepts``, are biased and cross-sectionally dependent.
    ``returns`` and ``factors`` are the panels ``observed`` was fitted on.
    """
    rss = np.einsum("ij,ij->i", observed.centered, observed.centered)
    _check_residual_variation(rss, returns, "an entity has no OLS residual variance beyond rounding")
    sigma2 = rss / (returns.n_periods - factors.n_factors - 1)
    z = observed.intercepts / np.sqrt(sigma2 * _intercept_variance(factors))
    p = _two_sided_normal_p(z)
    return PValueResult(p_values=p, statistics=z)


def bh_statistics(returns: ReturnPanel, factors: FactorPanel) -> PValueResult:
    """Naive per-entity OLS t-test of each intercept; see :func:`bh_from_fit`."""
    return bh_from_fit(PanelFits(returns, factors).observed, returns, factors)


def sbh_from_fit(fit: PanelFit, returns: ReturnPanel, factors: FactorPanel) -> PValueResult:
    """Normal calibration of the three-step alphas of a fitted panel.

    The studentizer is the per-entity residual variance (sample second
    moment of the residual row) inflated by ``1 + premium'
    cov(scores)^{-1} premium + mean(F)' cov(F)^{-1} mean(F)`` with
    plug-in estimates of the latent premium and score covariance,
    matching the i.i.d. asymptotic variance of the estimator when risk
    premia are nonzero; ``1 + mean(F)' cov(F)^{-1} mean(F)`` is ``n``
    times the intercept variance of :func:`bh_from_fit`.  ``returns`` and
    ``factors`` are the panels the fit was made with.
    """
    n = fit.n_periods
    resid = fit.residuals
    var_e = np.mean(resid * resid, axis=1)
    _check_residual_variation(
        n * var_e,
        returns,
        "an entity has no residual variance beyond rounding; cannot studentize",
    )

    scores = fit.latent.scores
    score_cov = scores @ scores.T / n
    premium = fit.latent_premium
    inflation = (
        float(premium @ np.linalg.solve(score_cov, premium)) + n * _intercept_variance(factors)
    )
    z = math.sqrt(n) * fit.alpha_hat / np.sqrt(var_e * inflation)
    p = _two_sided_normal_p(z)
    return PValueResult(p_values=p, statistics=z)


def sbh_statistics(returns: ReturnPanel, factors: FactorPanel) -> PValueResult:
    """Normal calibration of the three-step alphas; see :func:`sbh_from_fit`."""
    return sbh_from_fit(PanelFits(returns, factors).full, returns, factors)


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


def _sn_test_rows_in_place(y: np.ndarray) -> np.ndarray:
    """Self-normalized mean-zero test statistic of each row of the (p, n)
    float array ``y``, which it overwrites.

    ``n * mean(row)^2 / V`` with ``V = n^{-2} sum_t S_t^2`` and ``S_t``
    the partial sums of the demeaned row.
    """
    n = y.shape[1]
    mean = y.mean(axis=1)
    y -= mean[:, None]
    np.cumsum(y, axis=1, out=y)  # the partial sums
    y *= y
    v = np.sum(y, axis=1) / n**2
    if np.any(v <= 0.0):
        raise DegenerateNormalizerError(
            "a residual row has no variation; the self-normalizer is zero"
        )
    return n * mean * mean / v


def sn_pvalues(statistics: np.ndarray, mc_paths: int = SN_MC_PATHS) -> np.ndarray:
    """Upper-tail p-values of self-normalized statistics under the limit law.

    The law is the shipped table of ``SN_MC_PATHS`` draws; ``mc_paths``
    must equal that size.  A NaN statistic is refused.
    """
    _check_mc_paths(mc_paths)
    table = _sn_limit_table()
    stat = np.asarray(statistics, dtype=float)
    if np.isnan(stat).any():
        raise ValueError("self-normalized statistics must not be NaN")
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
        returns,
        "an entity has no residual variance beyond rounding; the self-normalizer is degenerate",
    )
    contributions = resid + fit.alpha_hat[:, None]
    stat = _sn_test_rows_in_place(contributions)
    p = sn_pvalues(stat)
    return PValueResult(p_values=p, statistics=stat)


def sn_statistics(
    returns: ReturnPanel, factors: FactorPanel, mc_paths: int = SN_MC_PATHS
) -> PValueResult:
    """Self-normalized test of each alpha; see :func:`sn_from_fit`.

    ``mc_paths`` must equal ``SN_MC_PATHS``, as in :func:`sn_pvalues`.
    """
    _check_mc_paths(mc_paths)
    return sn_from_fit(PanelFits(returns, factors).full, returns)
