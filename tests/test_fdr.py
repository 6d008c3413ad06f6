import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import alphascreen as a
from alphascreen.errors import DimensionError, NegativeControlError
from alphascreen.estimation import PanelFits
from alphascreen.fdr import (
    NegativeControlConfig,
    fdp_power,
    negative_control_from_fit,
    select_threshold,
    split_from_fits,
    split_statistics,
)
from alphascreen.linalg import least_squares
from alphascreen.panels import FactorPanel, ReturnPanel, chronological_split


def make_panels(values, factors):
    p, n = values.shape
    returns = ReturnPanel(values, [f"e{i}" for i in range(p)], list(range(1, n + 1)))
    fac = FactorPanel(factors, [f"f{j}" for j in range(factors.shape[1])], list(range(1, n + 1)))
    return returns, fac


def brute_force_threshold(t_prod, beta, grid_points=100_000):
    """Scan a dense grid over (0, max|T|] for the smallest qualifying cutoff."""
    t = np.asarray(t_prod, dtype=float)
    top = np.abs(t).max()
    if top == 0.0:
        return math.inf, np.array([], dtype=int)
    grid = np.linspace(0.0, top, grid_points + 1)[1:]
    t_sorted = np.sort(t)
    n_pos = t.size - np.searchsorted(t_sorted, grid, side="left")
    n_neg = np.searchsorted(t_sorted, -grid, side="right")
    ok = (1.0 + n_neg) / np.maximum(n_pos, 1) <= beta
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return math.inf, np.array([], dtype=int)
    cutoff = grid[hits[0]]
    return cutoff, np.flatnonzero(t >= cutoff)


class TestChronologicalSplit:
    def test_even_split(self):
        rng = np.random.default_rng(0)
        returns, fac = make_panels(rng.standard_normal((3, 10)), rng.standard_normal((10, 1)))
        (x1, f1), (x2, f2) = chronological_split(returns, fac)
        assert x1.time_index == (1, 2, 3, 4, 5)
        assert x2.time_index == (6, 7, 8, 9, 10)
        assert f1.time_index == x1.time_index and f2.time_index == x2.time_index

    def test_odd_split_sizes(self):
        rng = np.random.default_rng(1)
        returns, fac = make_panels(rng.standard_normal((3, 11)), rng.standard_normal((11, 1)))
        (x1, _), (x2, _) = chronological_split(returns, fac)
        assert x1.n_periods == 5 and x2.n_periods == 6

    def test_concatenation_recovers_input(self):
        rng = np.random.default_rng(2)
        returns, fac = make_panels(rng.standard_normal((4, 13)), rng.standard_normal((13, 2)))
        (x1, f1), (x2, f2) = chronological_split(returns, fac)
        assert np.array_equal(np.hstack([x1.values, x2.values]), returns.values)
        assert np.array_equal(np.vstack([f1.values, f2.values]), fac.values)
        assert x1.time_index + x2.time_index == returns.time_index

    def test_too_short(self):
        rng = np.random.default_rng(3)
        returns, fac = make_panels(rng.standard_normal((2, 10)), rng.standard_normal((10, 3)))
        with pytest.raises(DimensionError):
            chronological_split(returns, fac)


class TestSplitStatistics:
    def test_product_arithmetic(self):
        # halves of 50 periods each: scaled by sqrt(100) = 10
        halves = [
            SimpleNamespace(alpha_hat=np.array(alpha), n_periods=50)
            for alpha in ([1.0, -2.0], [3.0, 1.0])
        ]
        res = split_from_fits(halves)
        assert np.allclose(res.t1, [10.0, -20.0])
        assert np.allclose(res.t2, [30.0, 10.0])
        assert np.allclose(res.t_prod, [300.0, -200.0])

    def test_non_null_product_scale(self):
        # a signal of 0.3 with n = 200 puts the product near n * 0.3^2 = 18
        meds = []
        sc = a.SimulationScenario(n=200, p=100, pi=0.02, nu=0.3, seed=5)
        for rep in range(40):
            rng = a.simulation.replication_rng(sc.seed, rep)
            X, F, truth, _ = a.generate_panel(sc, rng)
            res = split_statistics(X, F)
            meds.append(res.t_prod[truth[0]])
        med = float(np.median(meds))
        assert 9.0 <= med <= 30.0

    def test_half_alphas_scaled_by_full_length(self):
        # odd n: the halves have 30 and 31 periods, both scaled by sqrt(61)
        rng = np.random.default_rng(10)
        returns, fac = make_panels(rng.standard_normal((20, 61)), rng.standard_normal((61, 2)))
        halves = PanelFits(returns, fac).halves
        res = split_statistics(returns, fac)
        assert [h.n_periods for h in halves] == [30, 31]
        assert np.array_equal(res.t1, math.sqrt(61) * halves[0].alpha_hat)
        assert np.array_equal(res.t2, math.sqrt(61) * halves[1].alpha_hat)

    def test_studentize_and_control_exclusive(self):
        rng = np.random.default_rng(6)
        returns, fac = make_panels(rng.standard_normal((30, 40)), rng.standard_normal((40, 2)))
        with pytest.raises(ValueError, match="cannot be combined"):
            split_statistics(
                returns, fac, studentize=True,
                negative_control=NegativeControlConfig(mode="threshold_rule"),
            )


class TestSelectThreshold:
    def test_hand_oracle_two_values(self):
        # level 0.5: cutoff 1 gives (1+0)/2 = 0.5 <= 0.5, so both are rejected
        threshold, rejected = select_threshold(np.array([2.0, 1.0]), beta=0.5)
        assert threshold == 1.0
        assert rejected.tolist() == [0, 1]
        # cutoff 1 gives (1+1)/1 = 2 and cutoff 2 gives (1+0)/1 = 1, both
        # above any level below 1
        threshold, rejected = select_threshold(np.array([2.0, -1.0]), beta=0.99)
        assert math.isinf(threshold)
        assert rejected.size == 0

    def test_hand_oracle_five_values(self):
        t = np.array([3.0, -1.0, 2.0, -2.5, 5.0])
        threshold, rejected = select_threshold(t, beta=0.5)
        assert threshold == 3.0
        assert rejected.tolist() == [0, 4]

    def test_all_negative_gives_infinity(self):
        threshold, rejected = select_threshold(np.array([-1.0, -2.0, -0.5]), beta=0.2)
        assert math.isinf(threshold)
        assert rejected.size == 0

    def test_empty_input(self):
        threshold, rejected = select_threshold(np.array([]), beta=0.1)
        assert math.isinf(threshold)
        assert rejected.size == 0

    def test_zeros_excluded_from_candidates(self):
        t = np.array([0.0, 0.0, 4.0, 3.0, -1.0])
        threshold, rejected = select_threshold(t, beta=0.9)
        assert threshold == 3.0
        assert rejected.tolist() == [2, 3]
        # cutoff 0 is never a candidate: zero products carry no evidence
        assert 0.0 not in np.abs(t[rejected])

    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            select_threshold(np.array([1.0]), beta=0.0)
        with pytest.raises(ValueError):
            select_threshold(np.array([1.0]), beta=1.0)
        with pytest.raises(ValueError):
            select_threshold(np.array([1.0]), beta=1.0001)

    def test_nan_statistic_refused(self):
        # a NaN would count as a positive statistic at every cutoff
        with pytest.raises(ValueError, match="must not be NaN"):
            select_threshold(np.array([np.nan, 5.0, 4.0, 3.0, -0.1]), beta=0.5)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @hyp_settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(80) * rng.standard_normal(80)
        beta = float(rng.uniform(0.05, 0.5))
        threshold, rejected = select_threshold(t, beta)
        for _ in range(4):
            c = float(rng.uniform(0.01, 100.0))
            threshold_c, rejected_c = select_threshold(c * t, beta)
            assert np.array_equal(rejected_c, rejected)
            if math.isfinite(threshold):
                assert np.isclose(threshold_c, c * threshold, rtol=1e-12)

    def test_estimated_fdp_bound_holds_at_threshold(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = rng.standard_normal(200) * rng.standard_normal(200)
            beta = float(rng.uniform(0.05, 0.6))
            threshold, _ = select_threshold(t, beta)
            if math.isfinite(threshold):
                n_neg = int(np.sum(t <= -threshold))
                n_pos = int(np.sum(t >= threshold))
                assert (1 + n_neg) / max(n_pos, 1) <= beta

    # ties, signed zeros, NaN and both infinities, among ordinary values
    SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf, 5e-324])

    @given(st.lists(st.one_of(SPECIAL, st.integers(-3, 3).map(float)), max_size=40))
    @hyp_settings(max_examples=200, deadline=None)
    def test_threshold_equals_the_np_unique_search(self, values):
        t = np.array(values, dtype=float)
        if np.isnan(t).any():
            with pytest.raises(ValueError, match="must not be NaN"):
                select_threshold(t, 0.3)
            return
        # the search as written with np.unique
        candidates = np.unique(np.abs(t[t != 0.0]))
        t_sorted = np.sort(t)
        n_pos = t.size - np.searchsorted(t_sorted, candidates, side="left")
        n_neg = np.searchsorted(t_sorted, -candidates, side="right")
        hits = np.flatnonzero((1.0 + n_neg) / np.maximum(n_pos, 1) <= 0.3)
        threshold, rejected = select_threshold(t, 0.3)
        if hits.size == 0:
            assert math.isinf(threshold) and rejected.size == 0
        else:
            assert threshold == candidates[hits[0]]
            assert np.array_equal(rejected, np.flatnonzero(t >= threshold))

    def test_matches_brute_force_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            t = rng.standard_normal(200) * rng.standard_normal(200) * 3.0
            beta = float(rng.uniform(0.05, 0.5))
            _, rejected = select_threshold(t, beta)
            _, rejected_grid = brute_force_threshold(t, beta)
            assert np.array_equal(rejected, rejected_grid)


def set_fdp_power(rejected, truth, n_entities):
    """``fdp_power`` as plain set arithmetic: the reference for the mask version."""
    rej = set(int(i) for i in np.atleast_1d(np.asarray(rejected, dtype=int)).tolist())
    tru = set(int(i) for i in truth)
    if any(i < 0 or i >= n_entities for i in rej | tru):
        raise ValueError("indices out of range")
    r_count = len(rej)
    v_count = len(rej - tru)
    fdp = v_count / max(r_count, 1)
    power = len(rej & tru) / max(len(tru), 1)
    return a.FdrMetrics(fdp=fdp, power=power, v_count=v_count, r_count=r_count)


class TestEvaluate:
    @given(
        st.integers(0, 60).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-2, n + 1), max_size=30),
                st.lists(st.integers(-2, n + 1), max_size=30),
                st.just(n),
            )
        ),
        st.sampled_from(["list", "array", "set"]),
    )
    @hyp_settings(max_examples=300, deadline=None)
    def test_matches_set_arithmetic(self, case, container):
        rejected, truth, n_entities = case
        wrap = {"list": list, "array": lambda v: np.array(v, dtype=int), "set": set}[container]
        try:
            expected = set_fdp_power(rejected, set(truth), n_entities)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                fdp_power(wrap(rejected), iter(truth), n_entities)
            return
        assert fdp_power(wrap(rejected), iter(truth), n_entities) == expected

    def test_no_rejections(self):
        m = fdp_power([], {1, 2}, 10)
        assert m.fdp == 0.0 and m.power == 0.0 and m.r_count == 0

    def test_perfect_recovery(self):
        m = fdp_power([1, 2], {1, 2}, 10)
        assert m.fdp == 0.0 and m.power == 1.0

    def test_mixed_rejections(self):
        m = fdp_power([1, 2, 3], {1, 2}, 10)
        assert np.isclose(m.fdp, 1.0 / 3.0)
        assert m.power == 1.0
        assert m.v_count == 1 and m.r_count == 3

    @pytest.mark.parametrize(
        "indices, dtype",
        [(np.array([False, False, True, True]), "bool"), ([2.9, 3.9], "float64")],
        ids=["boolean-mask", "floats"],
    )
    def test_mask_or_floats_refused(self, indices, dtype):
        # read as indices, the mask named entities 0 and 1 and the floats 2 and 3
        for rejected, truth in ((indices, [3]), ([3], indices)):
            with pytest.raises(ValueError, match=f"^indices must be integers, got dtype {dtype}$"):
                fdp_power(rejected, truth, 4)

    def test_yd_method_end_to_end(self):
        sc = a.SimulationScenario(n=80, p=120, pi=0.1, nu=0.8, seed=11)
        rng = a.simulation.replication_rng(sc.seed, 0)
        X, F, truth, _ = a.generate_panel(sc, rng)
        method = a.METHODS["yd"]
        res = method.statistic(a.PanelFits(X, F))
        rejected, cutoff_name, threshold = method.rule(res, [0.2])[0]
        assert cutoff_name == "threshold"
        if math.isfinite(threshold):
            assert np.array_equal(rejected, np.flatnonzero(res.t_prod >= threshold))
        metrics = fdp_power(rejected, truth, X.n_entities)
        assert metrics.power > 0.5


def known_null_correction(fit, nulls):
    """The premium-corrected alphas of ``fit`` with the given rows as the control set."""
    b = fit.latent.loadings_hat
    return fit.mean_adjusted - b @ least_squares(b[nulls], fit.mean_adjusted[nulls])


class TestNegativeControl:
    def build_noiseless_null(self, seed=12):
        rng = np.random.default_rng(seed)
        n, p, r_o, r_c = 60, 50, 2, 2
        f_o = rng.standard_normal((n, r_o))
        w = rng.standard_normal((n, r_c))
        f_c = np.array([0.7, -0.4]) + 0.3 * f_o + w
        b_o = rng.standard_normal((p, r_o))
        b_c = rng.standard_normal((p, r_c))
        values = b_o @ f_o.T + b_c @ f_c.T
        return make_panels(values, f_o)

    def test_null_panel_correction_is_zero(self):
        returns, fac = self.build_noiseless_null()
        corrected = known_null_correction(a.estimate_alpha(returns, fac, rank=2), np.arange(20))
        assert np.abs(corrected).max() < 1e-8

    def test_threshold_rule_agrees_with_explicit_nulls(self):
        # sparse signals: screening keeps essentially all true nulls, so the
        # threshold rule and the known null set deliver nearly identical
        # corrections
        sc = a.SimulationScenario(n=1000, p=500, pi=0.1, nu=0.3, seed=13)
        rng = a.simulation.replication_rng(sc.seed, 0)
        X, F, truth, _ = a.generate_panel(sc, rng)
        nulls = np.setdiff1d(np.arange(X.n_entities), truth)
        fit = a.estimate_alpha(X, F)
        explicit = known_null_correction(fit, nulls)
        screened = negative_control_from_fit(
            fit, NegativeControlConfig(mode="threshold_rule", gamma_scale=0.5)
        )
        rms = float(np.sqrt(np.mean((explicit - screened) ** 2)))
        assert rms < 1e-3

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_gamma_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="gamma_scale must be finite and positive"):
            NegativeControlConfig(mode="threshold_rule", gamma_scale=scale)

    def test_threshold_rule_is_the_only_mode(self):
        with pytest.raises(ValueError, match="explicit_set"):
            NegativeControlConfig(mode="explicit_set")

    def test_control_set_too_small(self):
        sc = a.SimulationScenario(n=80, p=60, pi=0.1, nu=1.0, seed=14)
        X, F, _, _ = a.generate_panel(sc, a.simulation.replication_rng(sc.seed, 0))
        fit = a.estimate_alpha(X, F)
        rank = fit.latent.rank_hat
        # a cut halfway between the rank-th and the next smallest |alpha|
        magnitudes = np.sort(np.abs(fit.alpha_hat))
        gamma = 0.5 * (magnitudes[rank - 1] + magnitudes[rank])
        cfg = NegativeControlConfig(gamma_scale=gamma * math.sqrt(sc.n) / math.log(sc.n))
        with pytest.raises(NegativeControlError, match=f"of size {rank} cannot identify"):
            negative_control_from_fit(fit, cfg)

    def test_threshold_rule_empty_advises_larger_scale(self):
        sc = a.SimulationScenario(n=80, p=60, pi=0.5, nu=2.0, seed=14)
        rng = a.simulation.replication_rng(sc.seed, 0)
        X, F, _, _ = a.generate_panel(sc, rng)
        cfg = NegativeControlConfig(mode="threshold_rule", gamma_scale=1e-9)
        with pytest.raises(NegativeControlError, match="gamma_scale"):
            negative_control_from_fit(a.estimate_alpha(X, F), cfg)

    def test_dense_alpha_bias_reduction(self):
        # paired bias comparison on the dense, strong-signal design where the
        # projection estimator is contaminated by the signal block; the
        # contamination is a fixed shift given the loadings, so the loadings
        # (and signals) are held fixed while factors and errors are redrawn
        n, p, r_o, r_c = 200, 1000, 3, 4
        reps = 300
        rng0 = np.random.default_rng(15)
        alpha_true = a.simulation._make_alpha(p, 0.4, 0.5)
        nulls = np.flatnonzero(alpha_true == 0.0)
        b = rng0.standard_normal((p, r_o + r_c)) * 0.25 + 0.1
        plain_sum = np.zeros(p)
        corrected_sum = np.zeros(p)
        for rep in range(reps):
            rng = np.random.default_rng((16, rep))
            factors = rng.standard_normal((n, r_o + r_c)) * 2.0
            errors = rng.standard_normal((p, n))
            values = a.simulation._assemble_panel(alpha_true, b, factors, errors)
            X, F = make_panels(values, factors[:, :r_o])
            fit = a.estimate_alpha(X, F, rank=r_c)
            plain_sum += fit.alpha_hat
            corrected_sum += known_null_correction(fit, nulls)
        plain_bias = plain_sum / reps - alpha_true
        corrected_bias = corrected_sum / reps - alpha_true
        plain_rms = float(np.sqrt(np.mean(plain_bias**2)))
        corrected_rms = float(np.sqrt(np.mean(corrected_bias**2)))
        assert plain_rms >= 3.0 * corrected_rms
