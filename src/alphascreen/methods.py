"""The method registry: each screening method as a statistic of shared fits
and a decision rule.

:class:`PanelFits` holds the fits of one panel that the methods share,
each made at most once, and :data:`METHODS` names every method.  The
study runner (:mod:`.simulation`) and the ``analyze`` command both
dispatch through it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .baselines import _bh_rejections, bh_from_fit, sbh_from_fit, sn_from_fit
from .estimation import ObservedFit, PanelFit, estimate_alpha, fit_observed
from .fdr import NegativeControlConfig, _select_thresholds, fit_halves, split_from_fits
from .panels import FactorPanel, ReturnPanel

__all__ = ["Method", "METHODS", "PanelFits"]


class PanelFits:
    """The fits of one panel that the methods share, each made at most once.

    ``observed`` regresses the panel on its observed factors, ``full``
    fits the whole panel from that regression, and ``halves`` each
    chronological half.  Each is made on first use, and :meth:`release`
    lets go of one that no later method reads.  The full fit drops the
    regression's (p, n) residuals, and a replication makes the halves
    first, so that no two fits hold panel-sized arrays at once.
    """

    def __init__(self, returns: ReturnPanel, factors: FactorPanel, rank: Optional[int] = None):
        self.returns = returns
        self.factors = factors
        self.rank = rank

    @cached_property
    def observed(self) -> ObservedFit:
        return fit_observed(self.returns, self.factors)

    @cached_property
    def full(self) -> PanelFit:
        fit = estimate_alpha(self.returns, self.factors, rank=self.rank, observed=self.observed)
        self.observed = self.observed._replace(centered=None)
        return fit

    @cached_property
    def halves(self) -> tuple[PanelFit, PanelFit]:
        return fit_halves(self.returns, self.factors, self.rank)

    def release(self, name: str) -> None:
        """Drop the fit ``name`` if it was made; its next use makes it again."""
        self.__dict__.pop(name, None)


def _threshold_rule(result, betas):
    return [
        (rejected, "threshold", threshold)
        for threshold, rejected in _select_thresholds(result.t_prod, betas)
    ]


def _bh_rule(result, betas):
    return [
        (rejected, "p_cutoff", float(result.p_values[rejected].max()) if rejected.size else 0.0)
        for rejected in _bh_rejections(result.p_values, betas)
    ]


class Method(NamedTuple):
    """One screening method: a statistic of shared fits and a decision rule.

    statistic
        ``statistic(fits)`` on a :class:`PanelFits`; returns a
        ``SplitTestResult`` or a ``PValueResult``.
    rule
        ``rule(result, betas)`` returns one ``(rejected, cutoff_name, cutoff)``
        per level in ``betas``, from one sort of the statistics:
        ``select_threshold`` with its ``threshold``, or ``bh_procedure``
        with ``p_cutoff``, the largest rejected p-value (0 when none).
    fit
        The :class:`PanelFits` entry the statistic reads: ``"halves"``,
        ``"full"`` or ``"observed"``, the last for a method that fits no
        latent model and so has no latent rank.  A replication runs the
        methods fit by fit in that order.
    """

    statistic: Callable
    rule: Callable
    fit: str


# The one place where method names are defined and dispatched.
METHODS = {
    "yd": Method(lambda fits: split_from_fits(fits.halves), _threshold_rule, "halves"),
    "yd_r": Method(
        lambda fits: split_from_fits(fits.halves, studentize=True), _threshold_rule, "halves"
    ),
    "yd_th": Method(
        lambda fits: split_from_fits(
            fits.halves, negative_control=NegativeControlConfig(mode="threshold_rule")
        ),
        _threshold_rule,
        "halves",
    ),
    "bh": Method(
        lambda fits: bh_from_fit(fits.observed, fits.returns, fits.factors), _bh_rule, "observed"
    ),
    "sbh": Method(
        lambda fits: sbh_from_fit(fits.full, fits.observed, fits.returns), _bh_rule, "full"
    ),
    "sn": Method(lambda fits: sn_from_fit(fits.full, fits.returns), _bh_rule, "full"),
}
