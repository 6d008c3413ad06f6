"""The method registry: each screening method as a statistic of shared fits
and a decision rule.

:data:`METHODS` names every method; each statistic reads one entry of an
:class:`.estimation.PanelFits`.  The study runner (:mod:`.simulation`)
and the ``analyze`` command both dispatch through it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .baselines import _bh_rejections, bh_from_fit, sbh_from_fit, sn_from_fit
from .fdr import NegativeControlConfig, _select_thresholds, split_from_fits

__all__ = ["Method", "METHODS"]


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
        The one :class:`PanelFits` entry the statistic reads: ``"halves"``,
        ``"observed"`` or ``"full"``, ``"observed"`` for a method that fits
        no latent model and so has no latent rank.  A replication runs the
        methods fit by fit in that order, so the full fit can take the
        observed regression after its readers.
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
        lambda fits: sbh_from_fit(fits.full, fits.returns, fits.factors), _bh_rule, "full"
    ),
    "sn": Method(lambda fits: sn_from_fit(fits.full, fits.returns), _bh_rule, "full"),
}
