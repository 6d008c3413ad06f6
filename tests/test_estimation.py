import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import alphascreen.estimation
from alphascreen.errors import DimensionError, NoFactorStructureError
from alphascreen.estimation import (
    PanelFits,
    estimate_alpha,
    estimate_latent,
    fit_observed,
    long_run_variance,
    regress_out_observed,
)
from alphascreen.linalg import demean_columns, least_squares
from alphascreen.panels import FactorPanel, ReturnPanel, chronological_split
from alphascreen.simulation import (
    generate_panel,
    replication_rng,
    table1_normal_scenario,
    table2_garch_arma_scenario,
)


def make_panels(values, factors):
    p, n = values.shape
    returns = ReturnPanel(values, [f"e{i}" for i in range(p)], list(range(1, n + 1)))
    fac = FactorPanel(factors, [f"f{j}" for j in range(factors.shape[1])], list(range(1, n + 1)))
    return returns, fac


def simulate_confounded(
    n, p, r_o, r_c, alpha, mu_latent, psi_scale=0.5, noise_sd=0.0, seed=0
):
    """Panel with observed factors plus latent factors carrying a premium."""
    rng = np.random.default_rng(seed)
    f_o = rng.standard_normal((n, r_o))
    w = rng.standard_normal((n, r_c))
    f_c = mu_latent + psi_scale * f_o[:, :r_c] + w
    b_o = rng.standard_normal((p, r_o))
    b_c = rng.standard_normal((p, r_c))
    noise = noise_sd * rng.standard_normal((p, n)) if noise_sd else 0.0
    values = alpha[:, None] + b_o @ f_o.T + b_c @ f_c.T + noise
    returns, fac = make_panels(values, f_o)
    return returns, fac, b_o, b_c


def ols_intercepts(returns, factors):
    return fit_observed(returns, factors).intercepts


def design_orthogonal_noise(factors, p, rng, sd=0.1):
    """(p, n) noise orthogonal to the OLS design ``[1, factors]``: added to a
    panel it leaves every OLS intercept and slope unchanged while giving each
    row a residual variance well above rounding."""
    design = np.column_stack([np.ones(factors.shape[0]), factors])
    q, _ = np.linalg.qr(design)
    noise = sd * rng.standard_normal((p, factors.shape[0]))
    return noise - (noise @ q) @ q.T


class TestOlsAlphaBiased:
    def test_pure_intercept_model(self):
        rng = np.random.default_rng(0)
        c = np.array([0.5, -1.0, 2.0])
        f = rng.standard_normal((12, 2))
        values = np.tile(c[:, None], (1, 12)) + design_orthogonal_noise(f, 3, rng)
        returns, fac = make_panels(values, f)
        assert np.allclose(ols_intercepts(returns, fac), c, atol=1e-10)

    def test_exact_without_confounders(self):
        rng = np.random.default_rng(1)
        n, p, r = 20, 6, 2
        alpha = rng.standard_normal(p)
        b = rng.standard_normal((p, r))
        f = rng.standard_normal((n, r))
        returns, fac = make_panels(alpha[:, None] + b @ f.T + design_orthogonal_noise(f, p, rng), f)
        assert np.abs(ols_intercepts(returns, fac) - alpha).max() < 1e-10

    def test_bias_equals_latent_premium_effect(self):
        # with latent factors carrying premium mu, the naive intercept
        # drifts by loadings @ mu
        n, p = 4000, 12
        alpha = np.zeros(p)
        mu = np.array([1.0, -0.5])
        returns, fac, _, b_c = simulate_confounded(
            n, p, r_o=2, r_c=2, alpha=alpha, mu_latent=mu, noise_sd=0.1, seed=7
        )
        biased = ols_intercepts(returns, fac)
        expected_bias = b_c @ mu
        assert np.abs(biased - expected_bias).max() < 0.05 * np.abs(expected_bias).max()


class TestRegressOutObserved:
    def test_pure_observed_panel_annihilated(self):
        rng = np.random.default_rng(3)
        n, p, r = 25, 5, 3
        f = rng.standard_normal((n, r))
        b = rng.standard_normal((p, r))
        returns, fac = make_panels(b @ f.T, f)
        _, adjusted = regress_out_observed(returns, fac)
        assert np.abs(adjusted).max() < 1e-9

    def test_intercept_passes_through_unchanged(self):
        # the oblique factor leaves the all-ones direction untouched:
        # a pure-intercept panel comes back identical
        rng = np.random.default_rng(4)
        n, p = 18, 4
        alpha = rng.standard_normal(p)
        f = rng.standard_normal((n, 2))
        returns, fac = make_panels(np.tile(alpha[:, None], (1, n)), f)
        _, adjusted = regress_out_observed(returns, fac)
        assert np.allclose(adjusted, alpha[:, None] * np.ones(n), atol=1e-10)
        assert np.allclose(adjusted.mean(axis=1), alpha, atol=1e-10)

    def test_factor_annihilation_identity(self):
        # F' (I - Fd (Fd'Fd)^{-1} F') = 0, checked on the explicit matrix
        rng = np.random.default_rng(5)
        n, r = 30, 3
        f = rng.standard_normal((n, r)) + 0.7
        fd = demean_columns(f)
        factor = np.eye(n) - fd @ np.linalg.solve(fd.T @ fd, f.T)
        assert np.abs(f.T @ factor).max() < 1e-8

        # and the adjusted returns are exactly X times that factor
        x = rng.standard_normal((6, n))
        returns, fac = make_panels(x, f)
        _, adjusted = regress_out_observed(returns, fac)
        assert np.allclose(adjusted, x @ factor, atol=1e-8)


class TestEstimateLatent:
    def test_planted_rank_one(self):
        rng = np.random.default_rng(6)
        p, n = 200, 60
        b = rng.standard_normal(p)
        b *= np.sqrt(p) / np.linalg.norm(b)
        w = rng.standard_normal(n)
        adjusted = np.outer(b, w) + 1e-4 * rng.standard_normal((p, n))
        fit = estimate_latent(adjusted, rank=1)
        direction = fit.loadings_hat[:, 0]
        sign = np.sign(direction @ b)
        assert np.abs(sign * direction - b).max() < 1e-3 * np.abs(b).max()

    def test_loading_norm_convention(self):
        rng = np.random.default_rng(7)
        adjusted = rng.standard_normal((50, 40)) + np.outer(
            rng.standard_normal(50), 3.0 * rng.standard_normal(40)
        )
        fit = estimate_latent(adjusted, rank=1)
        norms = (fit.loadings_hat**2).sum(axis=0)
        assert np.abs(norms - 50) / 50 < 1e-6

    def test_sign_convention(self):
        rng = np.random.default_rng(8)
        adjusted = np.outer(-np.abs(rng.standard_normal(30)) - 1, rng.standard_normal(25))
        fit = estimate_latent(adjusted, rank=1)
        col = fit.loadings_hat[:, 0]
        assert col[np.argmax(np.abs(col))] > 0

    def test_planted_rank_two_recovered(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p, n = 300, 120
            b = rng.standard_normal((p, 2))
            w = rng.standard_normal((n, 2)) * 2.0
            adjusted = b @ w.T + rng.standard_normal((p, n))
            fit = estimate_latent(adjusted)
            hits += fit.rank_hat == 2
        assert hits >= 19

    def test_pure_noise_has_small_ratio(self):
        rng = np.random.default_rng(9)
        fit = estimate_latent(rng.standard_normal((40, 60)))
        assert fit.eigen_ratio is not None and fit.eigen_ratio < 3.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(NoFactorStructureError):
            estimate_latent(np.zeros((10, 8)))

    def test_explicit_rank_out_of_range(self):
        rng = np.random.default_rng(10)
        with pytest.raises(Exception):
            estimate_latent(rng.standard_normal((10, 8)), rank=20)


class TestEstimateAlpha:
    def test_exact_null_recovery(self):
        n, p = 40, 30
        alpha = np.zeros(p)
        returns, fac, _, _ = simulate_confounded(
            n, p, r_o=2, r_c=2, alpha=alpha, mu_latent=np.array([0.8, -0.2]), seed=11
        )
        fit = estimate_alpha(returns, fac, rank=2)
        assert np.abs(fit.alpha_hat).max() < 1e-8

    def test_alpha_invariant_to_loading_signs(self):
        rng = np.random.default_rng(12)
        n, p = 60, 40
        returns, fac, _, _ = simulate_confounded(
            n, p, r_o=2, r_c=2, alpha=rng.standard_normal(p) * 0.1,
            mu_latent=np.array([0.5, 0.5]), noise_sd=0.5, seed=13,
        )
        fit = estimate_alpha(returns, fac, rank=2)
        _, adjusted = regress_out_observed(returns, fac)
        b = -fit.latent.loadings_hat
        dense = np.eye(p) - b @ np.linalg.solve(b.T @ b, b.T)
        alpha_flipped = (dense @ adjusted).mean(axis=1)
        assert np.allclose(alpha_flipped, fit.alpha_hat, atol=1e-10)

    def test_residuals_have_zero_row_means(self):
        rng = np.random.default_rng(14)
        n, p = 50, 25
        returns, fac, _, _ = simulate_confounded(
            n, p, r_o=2, r_c=1, alpha=rng.standard_normal(p) * 0.2,
            mu_latent=np.array([0.3]), noise_sd=1.0, seed=15,
        )
        fit = estimate_alpha(returns, fac, rank=1)
        assert np.abs(fit.residuals.mean(axis=1)).max() < 1e-10

    def test_residual_rows_orthogonal_to_loadings(self):
        rng = np.random.default_rng(16)
        n, p = 50, 25
        returns, fac, _, _ = simulate_confounded(
            n, p, r_o=2, r_c=2, alpha=rng.standard_normal(p) * 0.2,
            mu_latent=np.array([0.3, 0.1]), noise_sd=1.0, seed=17,
        )
        fit = estimate_alpha(returns, fac, rank=2)
        b = fit.latent.loadings_hat
        projected = b.T @ (fit.residuals + fit.alpha_hat[:, None])
        assert np.abs(projected).max() < 1e-8 * np.abs(fit.residuals).max() * p

    def test_projection_matches_dense_reference(self):
        # alphas, residuals and premium against I - B(B'B)^{-1}B' formed explicitly
        rng = np.random.default_rng(18)
        n, p = 50, 30
        returns, fac, _, _ = simulate_confounded(
            n, p, r_o=2, r_c=2, alpha=rng.standard_normal(p) * 0.2,
            mu_latent=np.array([0.4, -0.3]), noise_sd=1.0, seed=19,
        )
        fit = estimate_alpha(returns, fac, rank=2)
        _, adjusted = regress_out_observed(returns, fac)
        b = fit.latent.loadings_hat
        projected = (np.eye(p) - b @ np.linalg.solve(b.T @ b, b.T)) @ adjusted
        alpha = projected.mean(axis=1)
        assert np.allclose(fit.alpha_hat, alpha, atol=1e-10)
        assert np.allclose(fit.residuals, projected - alpha[:, None], atol=1e-10)
        assert np.allclose(fit.mean_adjusted, adjusted.mean(axis=1), atol=1e-12)
        premium = np.linalg.lstsq(b, adjusted.mean(axis=1), rcond=None)[0]
        assert np.allclose(fit.latent_premium, premium, atol=1e-10)

    def test_latent_scores_project_the_centered_adjusted_returns(self):
        n, p = 50, 30
        returns, fac, _, _ = simulate_confounded(
            n, p, r_o=2, r_c=2, alpha=np.zeros(p),
            mu_latent=np.array([0.4, -0.3]), noise_sd=1.0, seed=20,
        )
        fit = estimate_alpha(returns, fac)
        _, adjusted = regress_out_observed(returns, fac)
        centered = adjusted - adjusted.mean(axis=1, keepdims=True)
        scores = fit.latent.scores
        assert scores.shape == (fit.latent.rank_hat, n)
        assert np.array_equal(scores, (fit.latent.loadings_hat.T @ centered) / p)

    def test_in_place_steps_equal_the_plain_expressions(self):
        # the fit subtracts in place; these are the expressions it stands for
        n, p = 60, 40
        returns, fac, _, _ = simulate_confounded(
            n, p, r_o=2, r_c=2, alpha=np.linspace(-0.5, 0.5, p),
            mu_latent=np.array([0.4, -0.3]), noise_sd=1.0, seed=22,
        )
        values, factors = returns.values.copy(), fac.values.copy()
        fit = estimate_alpha(returns, fac)
        assert np.array_equal(returns.values, values) and np.array_equal(fac.values, factors)
        f = fac.values
        loadings = least_squares(demean_columns(f), returns.values.T).T
        adjusted = returns.values - loadings @ f.T
        assert np.array_equal(regress_out_observed(returns, fac)[1], adjusted)
        b = fit.latent.loadings_hat
        means = adjusted.mean(axis=1)
        centered = adjusted - means[:, None]
        assert np.array_equal(fit.mean_adjusted, means)
        assert np.array_equal(fit.latent_premium, b.T @ means / p)
        assert np.array_equal(fit.alpha_hat, means - b @ (b.T @ means / p))
        assert np.array_equal(fit.residuals, centered - b @ (b.T @ centered / p))
        # the QR projections, of the time means and of the uncentered returns, agree to rounding
        q, _ = np.linalg.qr(b)
        for alpha in (means - q @ (q.T @ means), (adjusted - q @ (q.T @ adjusted)).mean(axis=1)):
            assert np.max(np.abs(fit.alpha_hat - alpha)) <= 1e-13 * np.max(np.abs(alpha))
        residuals = centered - q @ (q.T @ centered)
        assert np.max(np.abs(fit.residuals - residuals)) <= 1e-13 * np.max(np.abs(residuals))

    @pytest.mark.parametrize("design", ["table1_normal", "table2_garch_arma"])
    def test_normalized_loadings_make_the_pass_a_projection(self, design):
        # b'b = p I is what lets the cross-sectional pass skip a factorization
        from alphascreen import simulation

        scenario = getattr(simulation, f"{design}_scenario")(nu=0.3)
        returns, fac, _, _ = simulation.generate_panel(scenario, simulation.replication_rng(scenario.seed, 0))
        p = returns.n_entities
        adjusted = regress_out_observed(returns, fac)[1]
        means = adjusted.mean(axis=1)
        centered = adjusted - means[:, None]
        for rank in (None, 10, 50):
            fit = estimate_alpha(returns, fac, rank=rank)
            b = fit.latent.loadings_hat
            assert np.max(np.abs(b.T @ b / p - np.eye(b.shape[1]))) <= 1e-13, rank
            q, _ = np.linalg.qr(b)
            alpha = means - q @ (q.T @ means)
            assert np.max(np.abs(fit.alpha_hat - alpha)) <= 1e-13 * np.max(np.abs(alpha)), rank
            residuals = centered - q @ (q.T @ centered)
            assert np.max(np.abs(fit.residuals - residuals)) <= 1e-13 * np.max(np.abs(residuals)), rank

    def test_residuals_are_the_only_panel_sized_array(self):
        # a fit keeps one (p, n) array; everything else is (p, r), (r, n) or smaller
        n, p = 50, 30
        returns, fac, _, _ = simulate_confounded(
            n, p, r_o=2, r_c=2, alpha=np.zeros(p),
            mu_latent=np.array([0.4, -0.3]), noise_sd=1.0, seed=21,
        )
        fit = estimate_alpha(returns, fac)
        arrays = {
            name: value
            for obj in (fit, fit.latent)
            for name, value in vars(obj).items()
            if isinstance(value, np.ndarray)
        }
        assert len(arrays) == 6
        assert [name for name, value in arrays.items() if value.size >= p * n] == ["residuals"]
        assert fit.residuals.shape == (p, n)

    def test_subspace_recovery_on_strong_factors(self):
        hits = 0
        runs = 25
        for seed in range(runs):
            rng = np.random.default_rng(1000 + seed)
            n, p, r_c = 200, 1000, 3
            f_o = rng.standard_normal((n, 2))
            b_o = rng.standard_normal((p, 2)) * 0.3
            b_c = rng.standard_normal((p, r_c)) * 0.5
            w = rng.standard_normal((n, r_c)) * 2.0
            values = b_o @ f_o.T + b_c @ w.T + rng.standard_normal((p, n))
            returns, fac = make_panels(values, f_o)
            fit = estimate_alpha(returns, fac, rank=r_c)
            q_hat, _ = np.linalg.qr(fit.latent.loadings_hat)
            q_true, _ = np.linalg.qr(b_c)
            cosines = np.linalg.svd(q_hat.T @ q_true, compute_uv=False)
            sine = np.sqrt(max(0.0, 1.0 - cosines.min() ** 2))
            hits += sine <= 0.2
        assert hits / runs >= 0.95


class TestPanelFits:
    """A shared fit is the fit a fresh ``estimate_alpha`` makes, bit for bit."""

    @staticmethod
    def assert_same_fit(shared, fresh):
        assert shared.latent.rank_hat == fresh.latent.rank_hat
        assert np.array_equal(shared.alpha_hat, fresh.alpha_hat)
        assert np.array_equal(shared.residuals, fresh.residuals)
        assert np.array_equal(shared.latent.scores, fresh.latent.scores)

    @pytest.mark.parametrize(
        "scenario", [table1_normal_scenario, table2_garch_arma_scenario], ids=["table1", "table2"]
    )
    def test_full_fit_and_halves_equal_fresh_fits(self, scenario):
        sc = scenario()
        returns, factors, _, _ = generate_panel(sc, replication_rng(sc.seed, 0))
        fits = PanelFits(returns, factors)
        self.assert_same_fit(fits.full, estimate_alpha(returns, factors))
        split = chronological_split(returns, factors)
        for k in range(2):
            self.assert_same_fit(fits.halves[k], estimate_alpha(*split[k]))

    def test_released_full_fit_is_made_again_from_a_new_first_pass(self):
        sc = table1_normal_scenario()
        returns, factors, _, _ = generate_panel(sc, replication_rng(sc.seed, 0))
        fits = PanelFits(returns, factors)
        assert fits.observed.centered is not None
        fits.full
        assert fits.observed.centered is None  # the full fit took the residuals
        fits.release("full")
        self.assert_same_fit(fits.full, PanelFits(returns, factors).full)

    def test_threads_fit_their_own_panels_at_once(self, monkeypatch):
        # functools.cached_property in Python 3.11 holds one lock for all
        # instances, so a second thread waited for the first thread's fit
        both_fitting = threading.Barrier(2, timeout=10)
        monkeypatch.setattr(alphascreen.estimation, "fit_observed", lambda *_: both_fitting.wait())
        x, f = make_panels(np.zeros((3, 8)), np.arange(8.0)[:, None])
        with ThreadPoolExecutor(max_workers=2) as pool:
            made = list(pool.map(lambda fits: fits.observed, [PanelFits(x, f), PanelFits(x, f)]))
        assert sorted(made) == [0, 1]


class TestLongRunVariance:
    def test_white_noise_level(self):
        rng = np.random.default_rng(19)
        rows = rng.standard_normal((12, 2000))
        out = long_run_variance(rows)  # bandwidth 2000**0.2 ~ 4.57
        assert np.all(np.abs(out - 1.0) < 0.15)

    def test_ar1_long_run_variance(self):
        # AR(1) with coefficient 0.5 and unit innovations has long-run
        # variance 1/(1-0.5)^2 = 4; at 10^6 periods the bandwidth n^0.2 ~ 15.8
        # keeps the kernel truncation bias inside the tolerance
        from scipy.signal import lfilter

        rng = np.random.default_rng(20)
        rows = lfilter([1.0], [1.0, -0.5], rng.standard_normal((4, 10**6)), axis=1)
        out = long_run_variance(rows)
        assert abs(np.mean(out) - 4.0) / 4.0 < 0.15

    def test_matches_double_sum_reference(self):
        # (1/n) sum_{t1,t2} k((t1-t2)/ell) e_t1 e_t2 with the Bartlett kernel
        # and ell = n^0.2, formed explicitly; 32 and 243 put a lag at ell itself
        rng = np.random.default_rng(21)
        for n in (2, 3, 32, 80, 243, 1000):
            rows = rng.standard_normal((5, n))
            lags = np.subtract.outer(np.arange(n), np.arange(n))
            weights = np.maximum(0.0, 1.0 - np.abs(lags) / n**0.2)
            expected = np.einsum("it,ts,is->i", rows, weights, rows) / n
            out = long_run_variance(rows)
            assert np.allclose(out, expected, rtol=1e-12, atol=0.0)

    def test_zero_row_is_floored(self):
        assert np.all(long_run_variance(np.zeros((2, 30))) == 1e-12)

    def test_rows_must_form_a_matrix(self):
        with pytest.raises(DimensionError):
            long_run_variance(np.ones(10))

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_periods(self, n):
        with pytest.raises(DimensionError, match="n >= 2"):
            long_run_variance(np.ones((2, n)))
