import math
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import alphascreen as a
import alphascreen.baselines
from alphascreen.baselines import (
    SN_MC_PATHS,
    _sn_limit_table,
    bh_procedure,
    bh_statistics,
    normal_z,
    sbh_statistics,
    sn_pvalues,
    sn_statistics,
    sn_test_rows,
)
from alphascreen.errors import DegenerateNormalizerError
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

    def test_empty_input(self):
        assert bh_procedure(np.array([]), beta=0.1).size == 0


class TestNormalCalibration:
    def test_zero_statistic_gives_unit_pvalue(self):
        assert np.isclose(2.0 * stats.norm.sf(0.0), 1.0)
        z = normal_z(np.zeros(3), np.ones(3), 1.0, 100)
        assert np.allclose(2.0 * stats.norm.sf(np.abs(z)), 1.0)

    def test_critical_value_mapping(self):
        z = normal_z(np.array([1.96 / 10.0]), np.array([1.0]), 1.0, 100)
        assert np.isclose(z[0], 1.96)
        assert np.isclose(2.0 * stats.norm.sf(abs(z[0])), 0.05, atol=1e-3)

    def test_studentization_scale_invariance(self):
        rng = np.random.default_rng(1)
        alpha = rng.standard_normal(8)
        var = rng.uniform(0.5, 2.0, 8)
        c = 7.3
        z = normal_z(alpha, var, 1.4, 60)
        z_scaled = normal_z(c * alpha, c**2 * var, 1.4, 60)
        assert np.allclose(z, z_scaled)

    def test_sbh_pvalues_match_statistics(self):
        sc = a.SimulationScenario(n=80, p=60, pi=0.1, nu=0.5, seed=2)
        rng = a.simulation.replication_rng(sc.seed, 0)
        X, F, _, _ = a.generate_panel(sc, rng)
        result = sbh_statistics(X, F)
        assert np.array_equal(result.p_values, 2.0 * stats.norm.sf(np.abs(result.statistics)))
        assert np.all((result.p_values >= 0) & (result.p_values <= 1))

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


class TestSelfNormalized:
    def test_constant_row_degenerate(self):
        with pytest.raises(DegenerateNormalizerError):
            sn_test_rows(np.full((1, 50), 3.0))

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

    def test_size_calibration_on_iid_rows(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((2000, 200))
        statistics = sn_test_rows(rows)
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
            rejected = yd.rule(yd.statistic(a.PanelFits(X, F)), 0.05)[0]
            yd_pow.append(a.fdp_power(rejected, truth, sc.p).power)
        assert np.mean(sn_pow) < np.mean(yd_pow) - 0.15
