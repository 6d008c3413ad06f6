"""Invariants the method promises, checked on random inputs against plain
reference code."""

import math

import numpy as np
from hypothesis import given, settings as hyp_settings, strategies as st

from alphascreen.baselines import _bh_rejections, bh_procedure
from alphascreen.estimation import PanelFits, estimate_alpha
from alphascreen.fdr import (
    NegativeControlConfig,
    _select_thresholds,
    select_threshold,
    split_from_fits,
)
from alphascreen.panels import FactorPanel, ReturnPanel
from alphascreen.simulation import (
    METHODS,
    SimulationScenario,
    generate_panel,
    replication_rng,
)

# Permuting entities, or adding observed-factor terms to the returns,
# changes the sums behind the Gram matrix and the projections, so results
# agree to rounding, not bit for bit: within this fraction of the largest
# magnitude.
ROUNDING_RTOL = 1e-9


def permuted_panel(seed, perm_seed):
    scenario = SimulationScenario(n=60, p=40, pi=0.2, nu=0.8, seed=seed)
    returns, factors, _, _ = generate_panel(scenario, replication_rng(seed, 0))
    perm = np.random.default_rng(perm_seed).permutation(returns.n_entities)
    permuted = ReturnPanel(
        returns.values[perm], [returns.entity_ids[i] for i in perm], returns.time_index
    )
    return returns, permuted, factors, perm


def assert_permuted(permuted, original, perm):
    scale = np.abs(original).max()
    np.testing.assert_allclose(permuted, original[perm], rtol=0.0, atol=ROUNDING_RTOL * scale)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@hyp_settings(max_examples=20, deadline=None)
def test_alpha_hat_is_entity_permutation_equivariant(seed, perm_seed):
    returns, permuted, factors, perm = permuted_panel(seed, perm_seed)
    fit = estimate_alpha(returns, factors)
    fit_permuted = estimate_alpha(permuted, factors)
    assert fit_permuted.latent.rank_hat == fit.latent.rank_hat
    assert_permuted(fit_permuted.alpha_hat, fit.alpha_hat, perm)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.booleans())
@hyp_settings(max_examples=20, deadline=None)
def test_t_prod_is_entity_permutation_equivariant(seed, perm_seed, studentize):
    returns, permuted, factors, perm = permuted_panel(seed, perm_seed)
    t_prod = split_from_fits(PanelFits(returns, factors).halves, studentize=studentize).t_prod
    t_permuted = split_from_fits(PanelFits(permuted, factors).halves, studentize=studentize).t_prod
    assert_permuted(t_permuted, t_prod, perm)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@hyp_settings(max_examples=20, deadline=None)
def test_alpha_hat_unchanged_when_returns_gain_observed_factor_terms(seed, loading_seed):
    # The observed-factor regression absorbs any B F', so alpha_hat and the
    # latent rank must not see it.
    scenario = SimulationScenario(n=60, p=40, pi=0.2, nu=0.8, seed=seed)
    returns, factors, _, _ = generate_panel(scenario, replication_rng(seed, 0))
    b = np.random.default_rng(loading_seed).standard_normal((returns.n_entities, factors.n_factors))
    shifted = ReturnPanel(
        returns.values + b @ factors.values.T, returns.entity_ids, returns.time_index
    )
    fit = estimate_alpha(returns, factors)
    fit_shifted = estimate_alpha(shifted, factors)
    assert fit_shifted.latent.rank_hat == fit.latent.rank_hat
    scale = np.abs(fit.alpha_hat).max()
    np.testing.assert_allclose(
        fit_shifted.alpha_hat, fit.alpha_hat, rtol=0.0, atol=ROUNDING_RTOL * scale
    )


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["iid_normal", "garch_arma"]),
    st.booleans(),
)
@hyp_settings(max_examples=20, deadline=None)
def test_mirroring_the_second_half_negates_t2_and_t_prod(seed, temporal_mode, studentize):
    # Negating the second half's returns and observed factors negates that
    # half's intercepts, residuals and latent loadings and leaves its Gram
    # matrix and long-run variances as they were, so t1 is unchanged and t2
    # and t_prod flip sign, exactly in IEEE arithmetic.  Under a pure
    # null with symmetric factors and errors the mirrored panel has the
    # original's distribution, so t_prod is symmetric in distribution: the
    # mirror property of Dai, Lin, Xing & Liu (2023).
    scenario = SimulationScenario(
        n=60, p=80, pi=0.0, nu=0.0, temporal_mode=temporal_mode, seed=seed
    )
    returns, factors, _, _ = generate_panel(scenario, replication_rng(seed, 0))
    sign = np.ones(returns.n_periods)
    sign[returns.n_periods // 2 :] = -1.0
    mirrored_returns = ReturnPanel(returns.values * sign, returns.entity_ids, returns.time_index)
    mirrored_factors = FactorPanel(factors.values * sign[:, None], factors.names, factors.time_index)
    result = split_from_fits(PanelFits(returns, factors).halves, studentize=studentize)
    mirrored = split_from_fits(
        PanelFits(mirrored_returns, mirrored_factors).halves, studentize=studentize
    )
    assert np.array_equal(mirrored.t1, result.t1)
    assert np.array_equal(mirrored.t2, -result.t2)
    assert np.array_equal(mirrored.t_prod, -result.t_prod)


def decisions(fits, statistics, betas=(0.05, 0.1, 0.2)):
    """Rejected indices per method name and level, from ``statistics[name](fits)``."""
    rejected = {}
    for name, statistic in statistics.items():
        result = statistic(fits)
        rejected[name] = [d[0].tolist() for d in METHODS[name].rule(result, betas)]
    return rejected


def yd_th_with_cut(gamma_scale):
    config = NegativeControlConfig(gamma_scale=gamma_scale)
    return lambda fits: split_from_fits(fits.halves, negative_control=config)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2.0, 0.5, 4.0]))
@hyp_settings(max_examples=15, deadline=None)
def test_decisions_unchanged_when_returns_are_rescaled(seed, factor):
    # A power of two rescales every intermediate exactly, so decisions must
    # agree exactly, not just to rounding.  yd_th screens its control set
    # with a cut in return units (gamma_scale * log(n) / sqrt(n)), so its
    # cut is rescaled with the returns.
    scenario = SimulationScenario(n=60, p=40, pi=0.2, nu=0.8, seed=seed)
    returns, factors, _, _ = generate_panel(scenario, replication_rng(seed, 0))
    scaled = ReturnPanel(factor * returns.values, returns.entity_ids, returns.time_index)
    statistics = {name: method.statistic for name, method in METHODS.items()}
    rescaled = {**statistics, "yd_th": yd_th_with_cut(factor * NegativeControlConfig().gamma_scale)}
    assert decisions(PanelFits(scaled, factors), rescaled) == decisions(
        PanelFits(returns, factors), statistics
    )


# A basis change of the observed factors or a reordering of periods moves
# the statistics by rounding only: measured at most 2.1e-14 of their
# largest magnitude on panels of this size.
INVARIANCE_RTOL = 1e-12
INVARIANCE_LEVELS = (0.05, 0.1, 0.2)


def small_panel(seed, temporal_mode):
    scenario = SimulationScenario(n=60, p=40, pi=0.2, nu=0.8, temporal_mode=temporal_mode, seed=seed)
    return generate_panel(scenario, replication_rng(seed, 0))[:2]


def reordered(returns, factors, order):
    """The panel with its periods taken in ``order`` and labelled as before."""
    return (
        ReturnPanel(returns.values[:, order], returns.entity_ids, returns.time_index),
        FactorPanel(factors.values[order], factors.names, factors.time_index),
    )


def assert_same_to_rounding(names, panel, transformed):
    """Each method's statistics on both panels agree within ``INVARIANCE_RTOL``
    of their largest magnitude, and a decision differs only for an entity
    whose p-value or ``t_prod`` is that close to the cutoff."""
    fits, fits_t = PanelFits(*panel), PanelFits(*transformed)
    for name in names:
        method = METHODS[name]
        want, got = method.statistic(fits), method.statistic(fits_t)
        tol = INVARIANCE_RTOL * np.abs(want.statistics).max()
        np.testing.assert_allclose(got.statistics, want.statistics, rtol=0.0, atol=tol, err_msg=name)
        decided = getattr(want, "p_values", want.statistics)
        for (rej, _, cut), (rej_t, _, cut_t) in zip(
            method.rule(want, INVARIANCE_LEVELS), method.rule(got, INVARIANCE_LEVELS)
        ):
            moved = decided[np.setxor1d(rej, rej_t)]
            near = INVARIANCE_RTOL * max(abs(cut), abs(cut_t))
            assert np.all(np.minimum(abs(moved - cut), abs(moved - cut_t)) <= near), name


@given(st.integers(0, 2**32 - 1), st.sampled_from(["iid_normal", "garch_arma"]))
@hyp_settings(max_examples=15, deadline=None)
def test_methods_do_not_see_the_basis_of_the_observed_factors(seed, temporal_mode):
    # The first pass projects on the span of [1, F], which F A shares for
    # any invertible A: every method's statistics move by rounding only.
    returns, factors = small_panel(seed, temporal_mode)
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((factors.n_factors,) * 2) + 3.0 * np.eye(factors.n_factors)
    rotated = FactorPanel(factors.values @ basis, factors.names, factors.time_index)
    assert_same_to_rounding(list(METHODS), (returns, factors), (returns, rotated))


@given(st.integers(0, 2**32 - 1), st.sampled_from(["iid_normal", "garch_arma"]))
@hyp_settings(max_examples=15, deadline=None)
def test_methods_do_not_see_the_period_order_inside_each_half(seed, temporal_mode):
    # Each half fit is a sum over its own periods.  yd_r and sn are left
    # out: their long-run variance and partial sums read the time order.
    returns, factors = small_panel(seed, temporal_mode)
    rng, n, half = np.random.default_rng(seed), returns.n_periods, returns.n_periods // 2
    order = np.concatenate([rng.permutation(half), half + rng.permutation(n - half)])
    shuffled = reordered(returns, factors, order)
    assert_same_to_rounding(["yd", "yd_th", "bh", "sbh"], (returns, factors), shuffled)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["iid_normal", "garch_arma"]))
@hyp_settings(max_examples=15, deadline=None)
def test_swapping_the_halves_swaps_t1_and_t2_exactly(seed, temporal_mode):
    # With n even the second half moved in front is the same two half
    # panels, fitted in the other order: t1 and t2 trade places bit for
    # bit, so t_prod and the split decisions are unchanged.  The full-panel
    # sums run in another order, so bh and sbh move by rounding; sn reads
    # the time order and is left out.
    returns, factors = small_panel(seed, temporal_mode)
    n = returns.n_periods
    swapped = reordered(returns, factors, np.r_[n // 2 : n, 0 : n // 2])
    fits, fits_swapped = PanelFits(returns, factors), PanelFits(*swapped)
    for name in ("yd", "yd_r", "yd_th"):
        result, result_swapped = METHODS[name].statistic(fits), METHODS[name].statistic(fits_swapped)
        assert np.array_equal(result_swapped.t1, result.t2), name
        assert np.array_equal(result_swapped.t2, result.t1), name
        assert np.array_equal(result_swapped.t_prod, result.t_prod), name
    assert_same_to_rounding(["bh", "sbh"], (returns, factors), swapped)


def brute_force_bh(p_values, beta):
    """Reject every p-value at or below p_(k), for the largest k with
    p_(k) <= k * beta / m, found by a plain loop."""
    p_sorted = sorted(p_values)
    m = len(p_sorted)
    k_hat = 0
    for k in range(1, m + 1):
        if p_sorted[k - 1] <= k * beta / m:
            k_hat = k
    if k_hat == 0:
        return []
    return [i for i, p in enumerate(p_values) if p <= p_sorted[k_hat - 1]]


@given(
    st.lists(st.sampled_from([0.0, 1e-4, 0.01, 0.02, 0.05, 1.0]) | st.floats(0.0, 1.0), max_size=40),
    st.floats(0.001, 0.999),
)
@hyp_settings(max_examples=200, deadline=None)
def test_bh_procedure_matches_brute_force(p_values, beta):
    assert bh_procedure(np.array(p_values), beta).tolist() == brute_force_bh(p_values, beta)


def per_level_threshold(t_prod, beta):
    """``select_threshold`` as written for one level, a sort per call: the
    reference for the rule that serves every level from one sort."""
    t = np.asarray(t_prod, dtype=float).ravel()
    candidates = np.unique(np.abs(t[t != 0.0]))
    if candidates.size == 0:
        return math.inf, np.array([], dtype=int)
    t_sorted = np.sort(t)
    n_pos = t.size - np.searchsorted(t_sorted, candidates, side="left")
    n_neg = np.searchsorted(t_sorted, -candidates, side="right")
    hits = np.flatnonzero((1.0 + n_neg) / np.maximum(n_pos, 1) <= beta)
    if hits.size == 0:
        return math.inf, np.array([], dtype=int)
    threshold = float(candidates[hits[0]])
    return threshold, np.flatnonzero(t >= threshold)


def per_level_bh(p_values, beta):
    """``bh_procedure`` as written for one level, a stable sort per call."""
    p = np.asarray(p_values, dtype=float).ravel()
    m = p.size
    if m == 0:
        return np.array([], dtype=int)
    order = np.argsort(p, kind="stable")
    passed = np.flatnonzero(p[order] <= (np.arange(1, m + 1) * beta) / m)
    if passed.size == 0:
        return np.array([], dtype=int)
    return np.sort(order[: passed[-1] + 1])


LEVELS = st.lists(st.floats(0.001, 0.999) | st.sampled_from([0.05, 0.1, 0.15, 0.2]), max_size=6)


def same_indices(got, want):
    return np.array_equal(got, want) and got.dtype == want.dtype


@given(
    st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 4.0]) | st.floats(-50.0, 50.0),
        max_size=60,
    ),
    LEVELS,
    st.booleans(),
)
@hyp_settings(max_examples=300, deadline=None)
def test_threshold_rule_at_all_levels_equals_one_level_at_a_time(values, betas, negative):
    # ties, zeros and, with ``negative``, statistics that are all at or below zero
    t = -np.abs(np.array(values)) if negative else np.array(values)
    decisions = _select_thresholds(t, betas)
    assert len(decisions) == len(betas)
    for beta, (threshold, rejected) in zip(betas, decisions):
        want_threshold, want_rejected = per_level_threshold(t, beta)
        assert threshold == want_threshold and same_indices(rejected, want_rejected)
        public_threshold, public_rejected = select_threshold(t, beta)
        assert public_threshold == want_threshold and same_indices(public_rejected, want_rejected)


@given(
    st.lists(st.sampled_from([0.0, 1.0, 1e-4, 0.01, 0.05, 0.5]) | st.floats(0.0, 1.0), max_size=60),
    LEVELS,
)
@hyp_settings(max_examples=300, deadline=None)
def test_bh_rule_at_all_levels_equals_one_level_at_a_time(p_values, betas):
    # ties and p-values of exactly 0 and 1
    p = np.array(p_values, dtype=float)
    rejections = _bh_rejections(p, betas)
    assert len(rejections) == len(betas)
    for beta, rejected in zip(betas, rejections):
        want = per_level_bh(p, beta)
        assert same_indices(rejected, want)
        assert same_indices(bh_procedure(p, beta), want)
