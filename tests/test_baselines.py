import math
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import stats

import alphascreen as a
import alphascreen.baselines
from alphascreen.baselines import (
    SN_MC_PATHS,
    _two_sided_normal_p,
    _sn_limit_table,
    _sn_test_rows_in_place,
    bh_procedure,
    bh_statistics,
    sbh_statistics,
    sn_from_fit,
    sn_pvalues,
    sn_statistics,
)
from alphascreen.errors import DegenerateNormalizerError
from alphascreen.linalg import least_squares
from alphascreen.panels import FactorPanel, ReturnPanel


SN_TABLE_SEED = 714025
SN_CHUNK_PATHS = 250


def sn_table_rng(mc_paths, grid):
    return np.random.default_rng(np.random.SeedSequence(entropy=SN_TABLE_SEED, spawn_key=(mc_paths, grid)))


def chunked_sn_table(mc_paths, grid=1000):
    """The build of the shipped SN limit table: sorted draws of W(1)^2 over
    the integrated squared Brownian bridge on ``grid`` points.  Paths are
    drawn and reduced ``SN_CHUNK_PATHS`` rows at a time, in the order of one
    ``(paths, grid)`` draw, so the temporaries stay at chunk size.  To
    regenerate the file: ``np.save(alphascreen.baselines._SN_TABLE_FILE,
    chunked_sn_table(SN_MC_PATHS))``."""
    rng = sn_table_rng(mc_paths, grid)
    frac = np.arange(1, grid + 1) / grid
    ratios = np.empty(mc_paths)
    for start in range(0, mc_paths, SN_CHUNK_PATHS):
        rows = min(SN_CHUNK_PATHS, mc_paths - start)
        increments = rng.standard_normal((rows, grid)) / math.sqrt(grid)
        w = np.cumsum(increments, axis=1)
        w1 = w[:, -1]
        bridge = w - frac[None, :] * w1[:, None]
        v = np.mean(bridge * bridge, axis=1)
        ratios[start:start + rows] = w1 * w1 / v
    return np.sort(ratios)


def one_shot_sn_table(mc_paths, grid=1000):
    """The SN limit table drawn and reduced in one (paths, grid) block: the
    plain reference for the chunked build."""
    rng = sn_table_rng(mc_paths, grid)
    increments = rng.standard_normal((mc_paths, grid)) / math.sqrt(grid)
    w = np.cumsum(increments, axis=1)
    w1 = w[:, -1]
    frac = np.arange(1, grid + 1) / grid
    bridge = w - frac[None, :] * w1[:, None]
    v = np.mean(bridge * bridge, axis=1)
    return np.sort(w1 * w1 / v)


def make_panels(values, factors):
    p, n = values.shape
    returns = ReturnPanel(values, [f"e{i}" for i in range(p)], list(range(1, n + 1)))
    fac = FactorPanel(factors, [f"f{j}" for j in range(factors.shape[1])], list(range(1, n + 1)))
    return returns, fac


class TestBhProcedure:
    def test_single_small_pvalue(self):
        rejected = bh_procedure(np.array([0.001, 0.9]), beta=0.05)
        assert rejected.tolist() == [0]

    def test_all_ones_rejects_nothing(self):
        assert bh_procedure(np.ones(5), beta=0.1).size == 0

    def test_step_up_property(self):
        # p_(k) <= k*beta/m passes at k=3 even though k=2 fails
        p = np.array([0.01, 0.049, 0.05])
        rejected = bh_procedure(p, beta=0.05)
        assert rejected.tolist() == [0, 1, 2]

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(size=60)
            previous = set()
            for beta in (0.02, 0.05, 0.1, 0.2, 0.4, 0.8):
                current = set(bh_procedure(p, beta).tolist())
                assert previous <= current
                previous = current

    def test_out_of_range_pvalues(self):
        with pytest.raises(ValueError):
            bh_procedure(np.array([0.5, 1.2]), beta=0.1)
        with pytest.raises(ValueError):
            bh_procedure(np.array([-0.1]), beta=0.1)

    def test_nan_pvalue_refused(self):
        with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
            bh_procedure(np.array([np.nan, 0.001, 0.5]), beta=0.1)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.1, float("nan")], ids=str)
    def test_level_outside_the_open_unit_interval(self, beta):
        with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\), got "):
            bh_procedure(np.array([0.01, 0.5]), beta=beta)

    def test_empty_input(self):
        assert bh_procedure(np.array([]), beta=0.1).size == 0


TINY = np.finfo(float).tiny  # the smallest normal double


def assert_close_to_scipy(z, p):
    """``p`` within 1e-13 relative of ``2 * norm.sf(|z|)`` wherever that is a normal double."""
    want = 2.0 * stats.norm.sf(np.abs(z))
    normal = want >= TINY
    assert np.all(np.abs(p[normal] - want[normal]) <= 1e-13 * want[normal])


def assert_pvalues_of_statistics(result):
    assert np.array_equal(result.p_values, _two_sided_normal_p(result.statistics))
    assert_close_to_scipy(result.statistics, result.p_values)
    assert np.all((result.p_values >= 0) & (result.p_values <= 1))


class TestNormalCalibration:
    @pytest.mark.parametrize(
        "factory", [a.table1_normal_scenario, a.table2_garch_arma_scenario], ids=["table1", "table2"]
    )
    def test_sbh_equals_the_plain_expressions(self, factory):
        # the factor term mean(F)' cov(F)^{-1} mean(F) from the demeaned
        # factors and a solve, where sbh reads it off the observed regression
        sc = factory(nu=0.3)
        X, F, _, _ = a.generate_panel(sc, a.simulation.replication_rng(sc.seed, 0))
        fit = a.estimate_alpha(X, F)
        n, scores, premium = fit.n_periods, fit.latent.scores, fit.latent_premium
        var_e = np.mean(fit.residuals * fit.residuals, axis=1)
        f_mean = F.values.mean(axis=0)
        f_centered = F.values - f_mean
        inflation = (
            1.0
            + float(premium @ np.linalg.solve(scores @ scores.T / n, premium))
            + float(f_mean @ np.linalg.solve(f_centered.T @ f_centered / n, f_mean))
        )
        z = math.sqrt(n) * fit.alpha_hat / np.sqrt(var_e * inflation)
        result = sbh_statistics(X, F)
        assert np.max(np.abs(result.statistics - z)) <= 1e-13 * np.max(np.abs(z))

    def test_sbh_pvalues_match_statistics(self):
        sc = a.SimulationScenario(n=80, p=60, pi=0.1, nu=0.5, seed=2)
        rng = a.simulation.replication_rng(sc.seed, 0)
        X, F, _, _ = a.generate_panel(sc, rng)
        result = sbh_statistics(X, F)
        assert_pvalues_of_statistics(result)

    def test_bh_pvalues_match_statistics(self):
        sc = a.SimulationScenario(n=80, p=60, pi=0.1, nu=0.5, seed=2)
        rng = a.simulation.replication_rng(sc.seed, 0)
        X, F, _, _ = a.generate_panel(sc, rng)
        assert_pvalues_of_statistics(bh_statistics(X, F))

    def test_sbh_mildly_anticonservative_under_normal_design(self):
        # normal i.i.d. design: the plug-in normal calibration runs a little
        # above the nominal level (roughly 7-8 percent at a 5 percent target)
        sc = a.table1_normal_scenario(nu=0.3)
        fdps = []
        for rep in range(100):
            rng = a.simulation.replication_rng(sc.seed, rep)
            X, F, truth, _ = a.generate_panel(sc, rng)
            result = sbh_statistics(X, F)
            rejected = bh_procedure(result.p_values, 0.05)
            fdps.append(a.fdp_power(rejected, truth, sc.p).fdp)
        fdr = 100.0 * float(np.mean(fdps))
        assert 5.0 < fdr < 12.0

    def test_bh_statistics_naive_baseline(self):
        sc = a.SimulationScenario(n=80, p=50, pi=0.1, nu=0.5, seed=4)
        rng = a.simulation.replication_rng(sc.seed, 0)
        X, F, _, _ = a.generate_panel(sc, rng)
        result = bh_statistics(X, F)
        assert result.p_values.shape == (50,)


def _branch_points():
    """±1/sqrt(2), ±1 and ±8, where cephes ndtr, erf and erfc (behind
    ``scipy.stats.norm.sf``) switch branches, as ndtr's argument and scaled
    by sqrt(2) (ndtr passes ``x / sqrt(2)`` on), each with its two
    neighbouring doubles."""
    points = []
    for edge in (1.0 / math.sqrt(2.0), 1.0, math.sqrt(2.0), 8.0, 8.0 * math.sqrt(2.0)):
        for x in (edge, -edge):
            points += [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]
    return np.array(points)


class TestTwoSidedNormalTail:
    """``_two_sided_normal_p`` gives the ``bh`` and ``sbh`` p-values."""

    @staticmethod
    def assert_tail(z):
        z = np.asarray(z, dtype=float)
        p = _two_sided_normal_p(z)
        assert_close_to_scipy(z, p)
        assert np.all(p[np.abs(z) >= 38.6] == 0.0)
        assert np.array_equal(np.isnan(p), np.isnan(z))
        assert np.array_equal(_two_sided_normal_p(-z), p, equal_nan=True)
        # Non-increasing in |z|.  Below the smallest normal double libm's
        # erfc is not monotone (38.4298 gives 4e-323, 38.4299 gives
        # 4.4e-323), so subnormal values only stay below every normal one.
        finite = ~np.isnan(z)
        order = np.argsort(np.abs(z[finite]), kind="stable")
        assert np.all(np.diff(np.maximum(p[finite][order], TINY)) <= 0.0)

    def test_branch_points_and_their_neighbours(self):
        self.assert_tail(_branch_points())

    def test_special_values(self):
        self.assert_tail(np.array([-np.inf, np.inf, np.nan, -0.0, 0.0, -1e300, 1e300, -5e-324]))
        assert np.array_equal(_two_sided_normal_p(np.array([-0.0, 0.0])), [1.0, 1.0])
        assert np.array_equal(_two_sided_normal_p(np.array([-np.inf, np.inf])), [0.0, 0.0])

    def test_dense_grid_through_the_underflow_tail(self):
        grid = np.linspace(-40.0, 0.0, 400_001)
        assert _two_sided_normal_p(grid)[0] == 0.0  # below about -38.5 the tail underflows
        self.assert_tail(grid)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    @hyp_settings(max_examples=300, deadline=None)
    def test_any_finite_doubles(self, values):
        self.assert_tail(np.array(values))


def noiseless_panel(kind, n=40, p=6, seed=3):
    """Noiseless panels: a pure intercept, plus observed factors, plus one
    latent factor carrying a premium.  OLS on the observed factors fits the
    first two up to rounding, the three-step fit all three."""
    rng = np.random.default_rng(seed)
    f_o = rng.standard_normal((n, 2))
    alpha = rng.standard_normal(p)
    values = np.tile(alpha[:, None], (1, n))
    if kind != "intercept":
        values = values + rng.standard_normal((p, 2)) @ f_o.T
    if kind == "latent":
        values = values + rng.standard_normal((p, 1)) @ (0.5 + rng.standard_normal((n, 1))).T
    periods = list(range(1, n + 1))
    return (
        ReturnPanel(values, [f"e{i}" for i in range(p)], periods),
        FactorPanel(f_o, ["f1", "f2"], periods),
    )


class TestDegenerateResidualVariance:
    @pytest.mark.parametrize("kind", ["intercept", "observed"])
    def test_bh_refuses_a_noiseless_panel(self, kind):
        with pytest.raises(DegenerateNormalizerError, match="beyond rounding"):
            bh_statistics(*noiseless_panel(kind))

    def test_sbh_refuses_a_noiseless_panel(self):
        with pytest.raises(DegenerateNormalizerError, match="beyond rounding"):
            sbh_statistics(*noiseless_panel("latent"))

    def test_sn_refuses_a_noiseless_panel(self):
        with pytest.raises(DegenerateNormalizerError, match="beyond rounding"):
            sn_statistics(*noiseless_panel("latent"))

    def test_small_noise_is_not_rounding(self):
        # residual SD 1e-6 of the row's: far above the 1e-10 of the tolerance
        returns, factors = noiseless_panel("latent")
        rng = np.random.default_rng(9)
        scale = returns.values.std(axis=1, keepdims=True)
        noisy = returns.values + 1e-6 * scale * rng.standard_normal(returns.values.shape)
        returns = ReturnPanel(noisy, returns.entity_ids, returns.time_index)
        assert np.all(np.isfinite(bh_statistics(returns, factors).statistics))
        assert np.all(np.isfinite(sbh_statistics(returns, factors).statistics))
        assert np.all(np.isfinite(sn_statistics(returns, factors).statistics))

    @staticmethod
    def assert_bh_is_plain_ols(X, F):
        """``bh_statistics`` leaves its inputs and its z is the plain ``[1, F]``
        OLS intercept t-statistic to within 1e-13 of max|z|: it reads the
        regression that the full fit starts from instead of solving its own."""
        values, factors = X.values.copy(), F.values.copy()
        result = bh_statistics(X, F)
        assert np.array_equal(X.values, values) and np.array_equal(F.values, factors)
        n = X.n_periods
        design = np.column_stack([np.ones(n), F.values])
        coef = least_squares(design, X.values.T)
        resid = X.values - (design @ coef).T
        sigma2 = np.sum(resid * resid, axis=1) / (n - design.shape[1])
        _, r = np.linalg.qr(design)
        z = coef[0] / np.sqrt(sigma2 * float(np.sum(np.linalg.inv(r)[0, :] ** 2)))
        assert np.max(np.abs(result.statistics - z)) <= 1e-13 * np.max(np.abs(z))
        intercepts = a.estimation.fit_observed(X, F).intercepts
        assert np.max(np.abs(intercepts - coef[0])) <= 1e-13 * np.max(np.abs(coef[0]))

    def test_bh_statistics_leaves_its_inputs_and_equals_the_plain_expressions(self):
        sc = a.SimulationScenario(n=80, p=50, pi=0.1, nu=0.5, seed=4)
        self.assert_bh_is_plain_ols(*a.generate_panel(sc, a.simulation.replication_rng(sc.seed, 1))[:2])

    def test_bh_statistics_matches_the_plain_expressions_on_a_garch_arma_panel(self):
        sc = a.table2_garch_arma_scenario(nu=0.3)
        self.assert_bh_is_plain_ols(*a.generate_panel(sc, a.simulation.replication_rng(sc.seed, 0))[:2])


class TestSelfNormalized:
    def test_constant_row_degenerate(self):
        with pytest.raises(DegenerateNormalizerError):
            _sn_test_rows_in_place(np.full((1, 50), 3.0))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rows_left_unchanged_and_the_plain_statistic(self, order):
        # the statistic overwrites a copy in the rows' layout; these are the
        # expressions it replaced
        rows = np.asarray(np.random.default_rng(8).standard_normal((30, 80)) + 0.2, order=order)
        before = rows.copy()
        statistics = _sn_test_rows_in_place(np.array(rows))
        assert np.array_equal(rows, before)
        mean = rows.mean(axis=1)
        partial = np.cumsum(rows - mean[:, None], axis=1)
        v = np.sum(partial * partial, axis=1) / 80**2
        assert np.array_equal(statistics, 80 * mean * mean / v)

    def test_sn_from_fit_tests_the_alpha_contributions(self):
        sc = a.SimulationScenario(n=100, p=80, pi=0.1, nu=1.0, seed=6)
        X, F, _, _ = a.generate_panel(sc, a.simulation.replication_rng(sc.seed, 0))
        fit = a.estimate_alpha(X, F)
        residuals = fit.residuals.copy()
        statistics = sn_from_fit(fit, X).statistics
        assert np.array_equal(fit.residuals, residuals)
        contributions = fit.residuals + fit.alpha_hat[:, None]
        assert np.array_equal(statistics, _sn_test_rows_in_place(contributions))

    def test_limit_table_cached_and_deterministic(self):
        t1 = _sn_limit_table()
        t2 = _sn_limit_table()
        assert t1 is t2
        assert t1.size == SN_MC_PATHS and t1.dtype == np.float64
        assert np.all(np.diff(t1) >= 0)
        assert not t1.flags.writeable  # every caller shares the one table

    @pytest.mark.parametrize("mc_paths", [2000, 1001])
    def test_chunked_limit_table_equals_one_shot_build(self, mc_paths):
        # 1001 paths leave a final chunk of one path
        assert np.array_equal(chunked_sn_table(mc_paths), one_shot_sn_table(mc_paths))

    def test_shipped_table_is_the_chunked_build(self):
        shipped = np.load(alphascreen.baselines._SN_TABLE_FILE)
        assert np.array_equal(shipped, chunked_sn_table(SN_MC_PATHS))
        assert np.array_equal(_sn_limit_table(), shipped)

    def test_shipped_table_is_declared_package_data(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parent.parent
        config = tomllib.loads((root / "pyproject.toml").read_text())
        patterns = config["tool"]["setuptools"]["package-data"]["alphascreen"]
        table = alphascreen.baselines._SN_TABLE_FILE
        name = table.relative_to(Path(alphascreen.__file__).parent).as_posix()
        assert any(fnmatch(name, pattern) for pattern in patterns)

    def test_mc_paths_floor(self):
        # only the shipped table exists: any other path count is refused
        with pytest.raises(ValueError):
            sn_pvalues(np.array([1.0]), mc_paths=10)
        with pytest.raises(ValueError):
            sn_pvalues(np.array([1.0]), mc_paths=2 * SN_MC_PATHS)

    def test_nan_statistic_refused(self):
        # a NaN would sort past the table and read as the most significant value
        with pytest.raises(ValueError, match="must not be NaN"):
            sn_pvalues(np.array([np.nan]))
        with pytest.raises(ValueError, match="must not be NaN"):
            sn_pvalues(np.array([1.0, np.nan]))

    def test_size_calibration_on_iid_rows(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((2000, 200))
        statistics = _sn_test_rows_in_place(rows)
        p = sn_pvalues(statistics, mc_paths=10000)
        rate = float(np.mean(p <= 0.10))
        assert 0.07 <= rate <= 0.13

    def test_sn_statistics_end_to_end(self):
        sc = a.SimulationScenario(n=100, p=80, pi=0.1, nu=1.0, seed=6)
        rng = a.simulation.replication_rng(sc.seed, 0)
        X, F, truth, _ = a.generate_panel(sc, rng)
        with pytest.raises(ValueError):
            sn_statistics(X, F, mc_paths=2000)
        result = sn_statistics(X, F)
        # strong signals should concentrate the smallest p-values on the truth
        top = np.argsort(result.p_values)[: truth.size]
        overlap = len(set(top.tolist()) & set(truth.tolist())) / truth.size
        assert overlap > 0.6

    def test_sn_loses_power_against_split_screening(self):
        sc = a.table1_normal_scenario(nu=0.3)
        sn_pow, yd_pow = [], []
        for rep in range(25):
            rng = a.simulation.replication_rng(sc.seed, rep)
            X, F, truth, _ = a.generate_panel(sc, rng)
            rejected = bh_procedure(sn_statistics(X, F).p_values, 0.05)
            sn_pow.append(a.fdp_power(rejected, truth, sc.p).power)
            yd = a.METHODS["yd"]
            rejected = yd.rule(yd.statistic(a.PanelFits(X, F)), [0.05])[0][0]
            yd_pow.append(a.fdp_power(rejected, truth, sc.p).power)
        assert np.mean(sn_pow) < np.mean(yd_pow) - 0.15
