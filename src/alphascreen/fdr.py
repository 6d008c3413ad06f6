"""Sample-splitting multiple testing of alphas with FDR control.

The panel is split into two chronological halves, alphas are estimated
independently on each half, and the per-entity product of the two
root-n scaled estimates serves as the ranking statistic.  Under the
null the product is asymptotically symmetric about zero, so the
empirical count of large negative statistics estimates the number of
false positives at any cutoff; the data-driven threshold is the
smallest cutoff whose estimated false discovery proportion falls below
the target level.  ``split_statistics`` is a fresh
:class:`.estimation.PanelFits` plus ``split_from_fits`` of its halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NegativeControlError
from .estimation import PanelFit, PanelFits, long_run_variance
from .linalg import least_squares
from .panels import FactorPanel, ReturnPanel

__all__ = [
    "SplitTestResult",
    "FdrMetrics",
    "NegativeControlConfig",
    "split_from_fits",
    "split_statistics",
    "select_threshold",
    "negative_control_from_fit",
    "fdp_power",
]


@dataclass(frozen=True, eq=False)
class SplitTestResult:
    """Per-entity split statistics.

    t1, t2
        Root-n scaled alpha estimates from the two chronological halves
        (n is the full-sample length; decisions are scale invariant).
    t_prod
        Elementwise product, the ranking statistic that
        :func:`select_threshold` cuts.
    """

    t1: np.ndarray
    t2: np.ndarray
    t_prod: np.ndarray

    @property
    def statistics(self) -> np.ndarray:
        """The ranking statistic ``t_prod``, named as on ``PValueResult``."""
        return self.t_prod


@dataclass(frozen=True)
class FdrMetrics:
    """Realized error rates of one decision against a known truth."""

    fdp: float
    power: float
    v_count: int
    r_count: int


@dataclass(frozen=True)
class NegativeControlConfig:
    """How to build the known-null set used for premium de-biasing.

    mode
        ``"threshold_rule"``, the only mode: screen entities whose
        preliminary alpha magnitude falls below
        ``gamma_scale * log(n) / sqrt(n)``.  The default scale 0.5 keeps
        the cut comfortably above the null estimation noise while staying
        below signal magnitudes of the size that makes the correction
        worthwhile; a scale of 1.0 puts the cut at ~0.46 for n around
        100, which sweeps strong true signals into the control set.  The
        cut is in return units, so ``yd_th`` decides differently when the
        same returns are given in percent rather than in decimals.
    """

    mode: str = "threshold_rule"
    gamma_scale: float = 0.5

    def __post_init__(self):
        if self.mode != "threshold_rule":
            raise ValueError(f"unknown negative control mode {self.mode!r}")
        if not 0.0 < self.gamma_scale < math.inf:
            raise ValueError(f"gamma_scale must be finite and positive, got {self.gamma_scale}")


def split_from_fits(
    halves: tuple[PanelFit, PanelFit],
    studentize: bool = False,
    negative_control: Optional[NegativeControlConfig] = None,
) -> SplitTestResult:
    """Split statistics from the fits of the two chronological halves.

    Each half alpha is scaled by the root of the full-sample length.
    With ``studentize`` each half statistic is divided by the square root
    of the long-run variance of that half's residual row.  With
    ``negative_control`` the half alphas are premium-corrected through
    the control set before scaling; combining both refinements is not
    supported.
    """
    if studentize and negative_control is not None:
        raise ValueError(
            "studentize and negative_control cannot be combined"
        )
    if negative_control is not None:
        alphas = [negative_control_from_fit(fit, negative_control) for fit in halves]
    else:
        alphas = [fit.alpha_hat for fit in halves]
    root_n = math.sqrt(halves[0].n_periods + halves[1].n_periods)
    t1, t2 = (root_n * alpha for alpha in alphas)
    if studentize:
        t1 = t1 / np.sqrt(long_run_variance(halves[0].residuals))
        t2 = t2 / np.sqrt(long_run_variance(halves[1].residuals))
    return SplitTestResult(t1=t1, t2=t2, t_prod=t1 * t2)


def split_statistics(
    returns: ReturnPanel,
    factors: FactorPanel,
    studentize: bool = False,
    negative_control: Optional[NegativeControlConfig] = None,
) -> SplitTestResult:
    """Estimate alphas on each chronological half and form the products.

    See :func:`split_from_fits` for the refinements.
    """
    return split_from_fits(PanelFits(returns, factors).halves, studentize, negative_control)


def _check_levels(betas: Iterable[float]) -> None:
    """Raise ``ValueError`` unless every target level lies in (0, 1)."""
    for beta in betas:
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")


def select_threshold(
    t_prod: np.ndarray, beta: float
) -> tuple[float, np.ndarray]:
    """Smallest cutoff whose estimated FDP falls below ``beta``.

    Candidate cutoffs are the magnitudes of the nonzero statistics; the
    criterion is piecewise constant between order statistics, so nothing
    is lost by the restriction.  Returns ``(+inf, empty)`` when no cutoff
    qualifies.  A NaN statistic is refused.
    """
    return _select_thresholds(t_prod, [beta])[0]


def _select_thresholds(
    t_prod: np.ndarray, betas: Sequence[float]
) -> list[tuple[float, np.ndarray]]:
    """:func:`select_threshold` at each level in ``betas``: one sort and one
    count of the statistics, then one comparison per level."""
    _check_levels(betas)
    t = np.asarray(t_prod, dtype=float).ravel()
    if np.isnan(t).any():
        raise ValueError("statistics must not be NaN")
    candidates = np.sort(np.abs(t[t != 0.0]))
    if candidates.size == 0:
        return [(math.inf, np.array([], dtype=int)) for _ in betas]
    t_sorted = np.sort(t)
    n_pos = t.size - np.searchsorted(t_sorted, candidates, side="left")
    n_neg = np.searchsorted(t_sorted, -candidates, side="right")
    fdp_hat = (1.0 + n_neg) / np.maximum(n_pos, 1)
    decisions = []
    for beta in betas:
        first = int(np.argmax(fdp_hat <= beta))  # 0 also when no cutoff qualifies
        if fdp_hat[first] <= beta:
            threshold = float(candidates[first])
            decisions.append((threshold, np.flatnonzero(t >= threshold)))
        else:
            decisions.append((math.inf, np.array([], dtype=int)))
    return decisions


def negative_control_from_fit(fit: PanelFit, config: NegativeControlConfig) -> np.ndarray:
    """Premium-corrected alpha estimate using a known-null control set.

    The latent risk premium is re-estimated from the control rows alone
    (where no alpha can contaminate it) and subtracted from the average
    adjusted return of every entity, instead of projecting the loadings
    out.  This removes the dense-alpha bias of the projection estimator.
    """
    b = fit.latent.loadings_hat
    r_hat = fit.latent.rank_hat
    n = fit.n_periods
    gamma = config.gamma_scale * math.log(n) / math.sqrt(n)
    control = np.flatnonzero(np.abs(fit.alpha_hat) <= gamma)
    if control.size == 0:
        raise NegativeControlError(
            f"threshold rule left no control entities at gamma={gamma:.4g}; "
            "increase gamma_scale"
        )
    if control.size <= r_hat:
        raise NegativeControlError(
            f"control set of size {control.size} cannot identify {r_hat} premia; "
            f"need at least {r_hat + 1} entities"
        )
    premium = least_squares(b[control], fit.mean_adjusted[control])
    return fit.mean_adjusted - b @ premium


def _entity_mask(indices: Iterable[int], n_entities: int) -> np.ndarray:
    """Boolean mask of length ``n_entities`` that marks the given indices."""
    idx = np.atleast_1d(np.asarray(indices))
    if idx.dtype == object:  # a set or an iterator
        idx = np.array(list(indices))
    mask = np.zeros(n_entities, dtype=bool)
    if idx.size == 0:  # np.asarray([]) is float64
        return mask
    if idx.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= n_entities:
        raise ValueError("indices out of range")
    mask[idx] = True
    return mask


def fdp_power(rejected: Iterable[int], truth: Iterable[int], n_entities: int) -> FdrMetrics:
    """Realized FDP and power of rejected entity indices against known non-null ones."""
    return _fdp_power(_entity_mask(rejected, n_entities), _entity_mask(truth, n_entities))


def _fdp_power(rej: np.ndarray, tru: np.ndarray) -> FdrMetrics:
    """:func:`fdp_power` of a rejection mask against a truth mask."""
    # Python ints, so FDP and power are the same floats as plain set counts give
    r_count = int(np.count_nonzero(rej))
    hits = int(np.count_nonzero(rej & tru))
    v_count = r_count - hits
    fdp = v_count / max(r_count, 1)
    power = hits / max(int(np.count_nonzero(tru)), 1)
    return FdrMetrics(fdp=fdp, power=power, v_count=v_count, r_count=r_count)
