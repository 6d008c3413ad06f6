import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.signal import lfilter

import alphascreen as a
import alphascreen.baselines as baselines
import alphascreen.simulation as sim
from alphascreen.errors import DimensionError
from alphascreen.simulation import (
    METHODS,
    Ar1CorrelationFactor,
    ArmaComponent,
    SimulationScenario,
    _assign_components,
    _garch_series,
    _standardized_lognormal,
    arma_mixture_errors,
    assemble_panel,
    default_arma_mixture,
    garch_factors,
    generate_panel,
    make_alpha,
    replication_rng,
    run_study_detailed,
    sample_loadings,
)


class TestMakeAlpha:
    def test_block_layout(self):
        alpha = make_alpha(10, 0.4, 0.2)
        assert np.allclose(alpha, [0.2, 0.2, -0.2, -0.2, 0, 0, 0, 0, 0, 0])

    def test_zero_pi(self):
        assert np.allclose(make_alpha(7, 0.0, 0.5), 0.0)

    def test_balanced_blocks_sum_to_zero(self):
        for p, pi in [(10, 0.4), (100, 0.1), (33, 0.6)]:
            alpha = make_alpha(p, pi, 0.3)
            if int(np.floor(pi * p)) % 2 == 0:
                assert np.isclose(alpha.sum(), 0.0)

    def test_floor_semantics(self):
        alpha = make_alpha(10, 0.35, 1.0)  # floor(3.5/2)=1 positive, floor(3.5)=3 total
        assert np.allclose(alpha, [1, -1, -1, 0, 0, 0, 0, 0, 0, 0])


class TestSampleLoadings:
    def test_zero_covariance_bypass(self):
        mean = np.array([1.0, -2.0])
        rows = sample_loadings(5, mean, np.zeros((2, 2)), np.random.default_rng(0))
        assert np.allclose(rows, np.tile(mean, (5, 1)))

    def test_law_of_large_numbers_mean(self):
        rng = np.random.default_rng(1)
        mean = np.array([0.5, -0.25, 0.1])
        cov = np.diag([0.5, 0.25, 1.0])
        rows = sample_loadings(4000, mean, cov, rng)
        band = 4.0 * np.sqrt(cov.max() / 4000)
        assert np.abs(rows.mean(axis=0) - mean).max() < band

    def test_covariance_consistency(self):
        rng = np.random.default_rng(2)
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        rows = sample_loadings(5000, np.zeros(2), cov, rng)
        sample_cov = np.cov(rows.T)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.15

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            sample_loadings(3, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                            np.random.default_rng(3))


class TestToeplitzFactor:
    def test_rho_zero_is_identity(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((50, 3))
        assert np.array_equal(Ar1CorrelationFactor(50, 0.0).apply(z), z)

    @pytest.mark.parametrize("shape", [(40,), (40, 7)])
    def test_recursion_equals_lfilter(self, shape):
        # scipy's IIR filter, which the row loop replaced, is the bit-exact reference
        rho = -0.37
        z = np.random.default_rng(6).standard_normal(shape)
        x = z * math.sqrt(1.0 - rho**2)
        x[0] = z[0]
        expected = lfilter([1.0], [1.0, -rho], x, axis=0)
        assert np.array_equal(Ar1CorrelationFactor(40, rho).apply(z), expected)

    def test_implied_factor_squares_to_toeplitz(self):
        p, rho = 6, 0.5
        fac = Ar1CorrelationFactor(p, rho)
        implied = fac.apply(np.eye(p))
        target = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        assert np.allclose(implied @ implied.T, target, atol=1e-12)

    def test_empirical_neighbor_correlations(self):
        rng = np.random.default_rng(5)
        e = Ar1CorrelationFactor(100_000, 0.5).apply(rng.standard_normal((100_000, 4)))
        flat1 = (e[:-1] * e[1:]).mean()
        flat2 = (e[:-2] * e[2:]).mean()
        assert abs(flat1 - 0.5) < 0.02
        assert abs(flat2 - 0.25) < 0.02

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            Ar1CorrelationFactor(10, 1.0)


class TestGarch:
    def test_degenerate_params_give_iid(self):
        rng = np.random.default_rng(6)
        x = _garch_series(20_000, omega=2.0, a1=0.0, b1=0.0, rng=rng)
        assert abs(x.var() - 2.0) / 2.0 < 0.05
        lag1 = np.corrcoef(x[:-1] ** 2, x[1:] ** 2)[0, 1]
        assert abs(lag1) < 0.02

    def test_unconditional_variance(self):
        rng = np.random.default_rng(7)
        x = _garch_series(100_000, omega=0.1, a1=0.1, b1=0.8, rng=rng)
        assert abs(x.var() - 1.0) < 0.10

    def test_volatility_clustering(self):
        rng = np.random.default_rng(8)
        x = _garch_series(10_000, omega=0.1, a1=0.1, b1=0.8, rng=rng)
        sq = x**2
        lag1 = np.corrcoef(sq[:-1], sq[1:])[0, 1]
        assert lag1 > 2.0 / np.sqrt(10_000)

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError):
            _garch_series(10, omega=0.1, a1=0.5, b1=0.5, rng=np.random.default_rng(9))

    def test_rotation_to_target_covariance(self):
        rng = np.random.default_rng(10)
        target = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
        f = garch_factors(30_000, 3, [(0.1, 0.1, 0.8)] * 3, target, rng)
        rel = np.linalg.norm(np.cov(f.T) - target) / np.linalg.norm(target)
        assert rel < 0.10


class TestArmaMixture:
    def test_single_white_component(self):
        rng = np.random.default_rng(11)
        comp = ArmaComponent(weight=1.0, ar=(), ma=())
        rows = arma_mixture_errors(5000, 3, [comp], rng=rng)
        lag1 = np.mean(rows[:, :-1] * rows[:, 1:], axis=1)
        assert np.abs(lag1).max() < 0.05

    def test_ar1_autocorrelation(self):
        rng = np.random.default_rng(12)
        comp = ArmaComponent(weight=1.0, ar=(0.5,), ma=())
        rows = arma_mixture_errors(10_000, 4, [comp], rng=rng)
        lag1 = (rows[:, :-1] * rows[:, 1:]).mean(axis=1) / rows.var(axis=1)
        assert np.abs(lag1 - 0.5).max() < 0.05

    def test_rows_standardized_to_unit_variance(self):
        rng = np.random.default_rng(13)
        rows = arma_mixture_errors(20_000, 8, default_arma_mixture(1.0), rng=rng)
        assert np.abs(rows.var(axis=1) - 1.0).max() < 0.06

    def test_base_sd_rescales_rows(self):
        rng = np.random.default_rng(14)
        comp = ArmaComponent(weight=1.0, ar=(0.3,), ma=())
        sd = np.array([1.0, 2.0, 0.5])
        rows = arma_mixture_errors(20_000, 3, [comp], base_sd=sd, rng=rng)
        assert np.allclose(np.sqrt(rows.var(axis=1)), sd, rtol=0.05)

    def test_assignment_fraction_matches_weights(self):
        rng = np.random.default_rng(15)
        mixture = default_arma_mixture()  # weights sum to 0.331
        assign = _assign_components(10_000, mixture, rng)
        frac = float(np.mean(assign < len(mixture)))
        assert abs(frac - 0.331) < 0.02

    def test_nonstationary_component_rejected(self):
        with pytest.raises(ValueError, match="stationary"):
            ArmaComponent(weight=0.1, ar=(1.05,), ma=())
        with pytest.raises(ValueError, match="invertible"):
            ArmaComponent(weight=0.1, ar=(), ma=(-1.2,))


class TestScenario:
    def test_json_round_trip(self):
        sc = a.table2_garch_arma_scenario(nu=0.2)
        back = SimulationScenario.from_dict(sc.to_dict())
        assert back.n == sc.n and back.p == sc.p
        assert np.array_equal(back.factor_cov, sc.factor_cov)
        assert back.arma_mixture == sc.arma_mixture
        assert back.temporal_mode == sc.temporal_mode

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ValueError, match="at least 2 entities"):
            SimulationScenario(n=100, p=10, pi=0.1, nu=0.3)
        with pytest.raises(ValueError, match="error_cov_rho"):
            SimulationScenario(n=100, p=50, pi=0.1, nu=0.3, error_cov_rho=1.0)
        with pytest.raises(ValueError, match="latent"):
            SimulationScenario(n=100, p=50, pi=0.1, nu=0.3, r_total=3, r_observed=3)
        with pytest.raises(ValueError, match="GARCH"):
            SimulationScenario(
                n=100, p=50, pi=0.1, nu=0.3,
                garch_params=tuple((0.1, 0.6, 0.5) for _ in range(7)),
            )

    def test_global_null_allowed(self, load_scenario):
        sc = load_scenario("global_null")
        assert sc.pi == 0.0

    FACTORY_OF_FILE = {
        "table1_normal_nu02": (a.table1_normal_scenario, 0.2),
        "table1_normal_nu03": (a.table1_normal_scenario, 0.3),
        "table1_lognormal_nu03": (a.table1_lognormal_scenario, 0.3),
        "table2_garch_arma_nu03": (a.table2_garch_arma_scenario, 0.3),
        "figure1_hetero_nu02": (a.figure1_hetero_scenario, 0.2),
    }

    @pytest.mark.parametrize("name", list(FACTORY_OF_FILE))
    def test_factory_equals_its_scenario_file(self, load_scenario, name):
        factory, nu = self.FACTORY_OF_FILE[name]
        assert factory(nu=nu).to_dict() == load_scenario(name).to_dict()


class TestGeneratePanel:
    def test_zero_components_give_zero_panel(self):
        x = assemble_panel(np.zeros(4), np.zeros((4, 2)), np.zeros((6, 2)), np.zeros((4, 6)))
        assert np.all(x == 0.0)

    def test_full_factor_regression_recovers_loadings(self):
        rng = np.random.default_rng(16)
        n, p, r = 2000, 40, 4
        b = rng.standard_normal((p, r))
        f = rng.standard_normal((n, r)) * 1.5
        e = rng.standard_normal((p, n))
        x = assemble_panel(np.zeros(p), b, f, e)
        design = np.column_stack([np.ones(n), f])
        coef = a.least_squares(design, x.T)
        assert np.abs(coef[1:].T - b).max() < 4.0 * 1.0 / (1.5 * np.sqrt(n)) * 3

    def test_error_covariance_profile(self):
        sc = SimulationScenario(
            n=5000, p=1000, pi=0.0, nu=0.0,
            loading_mean=np.zeros(7), loading_cov=np.zeros((7, 7)), seed=17,
        )
        X, _, _, _ = generate_panel(sc, replication_rng(sc.seed, 0))
        e = X.values
        for lag, target in [(0, 1.0), (1, 0.5), (2, 0.25), (3, 0.125)]:
            est = (e * e).mean() if lag == 0 else (e[:-lag] * e[lag:]).mean()
            assert abs(est - target) < 0.1 * max(target, 0.3)

    def test_observed_block_and_truth(self):
        sc = SimulationScenario(n=60, p=40, pi=0.2, nu=0.4, seed=18)
        X, F, truth, oracle = generate_panel(sc, replication_rng(sc.seed, 0))
        assert X.values.shape == (40, 60)
        assert F.values.shape == (60, 3)
        assert truth.tolist() == list(range(8))
        assert np.allclose(oracle.alpha[truth], [0.4] * 4 + [-0.4] * 4)

    def test_hetero_scales_sigma_e(self):
        sc = SimulationScenario(n=60, p=200, pi=0.0, nu=0.0, hetero_variances=True, seed=20)
        _, _, _, oracle = generate_panel(sc, replication_rng(sc.seed, 0))
        assert np.all(oracle.sigma_e >= 1.0) and np.all(oracle.sigma_e <= np.sqrt(3.0))
        assert oracle.sigma_e.std() > 0.05

    def test_lognormal_standardization(self):
        rng = np.random.default_rng(21)
        z = _standardized_lognormal(200_000, rng)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.05
        skew = float(((z - z.mean()) ** 3).mean())
        assert skew > 2.0

    def test_signal_increment_linearity(self):
        base = SimulationScenario(n=40, p=30, pi=0.2, nu=0.3, seed=22)
        doubled = SimulationScenario(n=40, p=30, pi=0.2, nu=0.6, seed=22)
        x1, _, _, _ = generate_panel(base, replication_rng(22, 0))
        x2, _, _, _ = generate_panel(doubled, replication_rng(22, 0))
        increment = make_alpha(30, 0.2, 0.6) - make_alpha(30, 0.2, 0.3)
        assert np.allclose(x2.values - x1.values, increment[:, None] * np.ones(40))


class TestRunStudy:
    def small_scenario(self):
        return SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=23)

    def test_deterministic_across_parallelism(self):
        sc = self.small_scenario()
        serial = run_study_detailed(sc, list(METHODS), [0.2], replications=6, parallelism=1)
        parallel = run_study_detailed(sc, list(METHODS), [0.2], replications=6, parallelism=2)
        assert serial[2] == []
        assert serial == parallel

    def test_failures_identical_across_parallelism(self):
        # rank 40 exceeds what a 30-period half can fit, so every replication fails
        sc = SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=32)
        studies = []
        for workers in (1, 2):
            with pytest.warns(RuntimeWarning, match="4 of 4 replications failed"):
                studies.append(run_study_detailed(sc, ["yd"], [0.1], 4, parallelism=workers, rank=40))
        assert [rep for rep, _ in studies[0][2]] == [0, 1, 2, 3]
        assert studies[1] == studies[0]

    def test_pool_size_follows_the_study(self, monkeypatch):
        pools = []

        def recording(max_workers, **kwargs):
            pools.append((max_workers, kwargs))
            return ProcessPoolExecutor(max_workers, **kwargs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", recording)
        sc = self.small_scenario()
        run_study_detailed(sc, ["yd"], [0.2], replications=2, parallelism=8)
        run_study_detailed(sc, ["bh", "sn"], [0.2], replications=3, parallelism=2)
        with pytest.warns(RuntimeWarning, match="single-replication"):
            run_study_detailed(sc, ["sn"], [0.2], replications=1, parallelism=8)
        assert pools == [(2, {}), (2, {})]  # workers need no start-up hook

    def test_detail_rows_shape(self):
        sc = self.small_scenario()
        reports, detail, failures = run_study_detailed(sc, ["yd", "bh"], [0.1, 0.2], 4)
        assert len(reports) == 4
        assert len(detail) == 4 * 4  # methods x betas x reps
        assert failures == []
        assert all(r.replications == 4 for r in reports)

    def test_single_replication_flags_zero_sd(self):
        sc = self.small_scenario()
        with pytest.warns(RuntimeWarning, match="single-replication"):
            reports, _, _ = run_study_detailed(sc, ["yd"], [0.2], replications=1)
        assert reports[0].sd_fdr == 0.0 and reports[0].sd_power == 0.0

    def test_replication_failure_is_isolated(self, monkeypatch):
        import alphascreen.simulation as sim

        original = sim._replication_rows

        def flaky(scenario, replication, *args, **kwargs):
            if replication == 2:
                raise RuntimeError("synthetic failure")
            return original(scenario, replication, *args, **kwargs)

        monkeypatch.setattr(sim, "_replication_rows", flaky)
        sc = self.small_scenario()
        with pytest.warns(RuntimeWarning, match="1 of 5 replications failed"):
            reports, detail, failures = run_study_detailed(sc, ["yd"], [0.2], 5)
        assert len(failures) == 1 and failures[0][0] == 2
        assert reports[0].replications == 4

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_study_detailed(self.small_scenario(), ["nope"], [0.1], 2)

    def test_detail_rows_match_per_method_reference(self, reference_rejected):
        # the shared-fit runner against each method's public panel-level
        # statistic and decision rule, refitting the panel every time
        sc = SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=24)
        betas = [0.1, 0.2]
        _, detail, failures = run_study_detailed(sc, list(reference_rejected), betas, 3)
        assert failures == []
        expected = []
        for rep in range(3):
            X, F, truth, _ = generate_panel(sc, replication_rng(sc.seed, rep))
            for method, rejected in reference_rejected.items():
                for beta in betas:
                    m = a.fdp_power(rejected(X, F, beta), truth, sc.p)
                    expected.append((method, beta, rep, m.fdp, m.power))
        assert detail == expected

    def test_one_fit_per_half_and_one_full_fit(self, fitted_lengths):
        sc = SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=24)
        run_study_detailed(sc, list(METHODS), [0.1, 0.2], 2)
        assert sorted(fitted_lengths) == [30] * 4 + [60] * 2  # per replication: two halves, one panel

    def test_fits_only_what_the_methods_need(self):
        # rank 40 exceeds the 26 usable eigenvalues of a 30-period half, so
        # any half fit fails; the full-panel methods must never make one
        sc = SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=32)
        _, detail, failures = run_study_detailed(sc, ["bh", "sbh"], [0.1], 2, rank=40)
        assert failures == [] and len(detail) == 4
        with pytest.warns(RuntimeWarning, match="2 of 2 replications failed"):
            _, detail, failures = run_study_detailed(sc, ["yd"], [0.1], 2, rank=40)
        assert detail == [] and len(failures) == 2
        assert all(DimensionError.__name__ in message for _, message in failures)


def _thread_counts():
    return [get() for _, get in sim._openblas_thread_controls()]


def _worker_probe(scenario):
    """Run in a pool worker: the OpenBLAS thread counts one ``sn``
    replication computes at, and the SN table the worker loaded for it."""
    seen = []

    def statistic(fits):
        seen.append(_thread_counts())
        return METHODS["sn"].statistic(fits)

    sim.METHODS = {**METHODS, "probe": METHODS["sn"]._replace(statistic=statistic)}
    assert baselines._sn_limit_table.cache_info().currsize == 0  # nothing loaded yet
    sim._replication_rows(scenario, 0, ["probe"], [0.2])
    return seen, baselines._sn_limit_table()


class _Interrupt(BaseException):
    """Escapes the per-replication isolation, as an interrupt would."""


class TestSerialBlasThreads:
    def probe(self, monkeypatch, raises=None):
        """Add a method ``probe`` that records the BLAS thread counts each
        replication runs at, then computes ``yd`` or raises."""
        seen = []

        def statistic(fits):
            seen.append(_thread_counts())
            if raises is not None:
                raise raises
            return METHODS["yd"].statistic(fits)

        probe = METHODS["yd"]._replace(statistic=statistic)
        monkeypatch.setattr(sim, "METHODS", {**METHODS, "probe": probe})
        return seen

    def test_one_thread_in_every_replication_then_the_callers_count(
        self, monkeypatch, caller_blas_threads
    ):
        seen = self.probe(monkeypatch)
        sc = SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=23)
        _, _, failures = run_study_detailed(sc, ["probe"], [0.2], replications=3)
        assert failures == []
        assert seen == [[1, 1]] * 3  # numpy's and scipy's bundled OpenBLAS
        assert _thread_counts() == caller_blas_threads

    @pytest.mark.parametrize(
        "raises", [RuntimeError("isolated"), _Interrupt()], ids=["isolated", "escaping"]
    )
    def test_callers_count_restored_when_a_replication_raises(
        self, monkeypatch, caller_blas_threads, raises
    ):
        seen = self.probe(monkeypatch, raises=raises)
        sc = SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=23)
        expected = (
            pytest.raises(_Interrupt)
            if isinstance(raises, _Interrupt)
            else pytest.warns(RuntimeWarning, match="2 of 2 replications failed")
        )
        with expected:
            run_study_detailed(sc, ["probe"], [0.2], replications=2)
        assert seen and all(counts == [1, 1] for counts in seen)
        assert _thread_counts() == caller_blas_threads

    def test_no_op_without_openblas(self, tmp_path, monkeypatch, caller_blas_threads):
        controls = sim._openblas_thread_controls()
        (tmp_path / "libscipy_openblas-0.so").write_bytes(b"not a shared library")
        monkeypatch.setattr(sim, "_OPENBLAS_DIRS", (tmp_path, tmp_path / "missing"))
        with sim.one_blas_thread():
            assert [get() for _, get in controls] == caller_blas_threads
        assert [get() for _, get in controls] == caller_blas_threads


class TestPoolWorker:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_one_blas_thread_and_the_parents_sn_table(self, start_method, caller_blas_threads):
        table = baselines._sn_limit_table()
        baselines._sn_limit_table.cache_clear()  # so a forked worker inherits no table
        sc = SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=23)
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(start_method)) as pool:
            seen, worker_table = pool.submit(_worker_probe, sc).result(timeout=120)
        assert seen == [[1, 1]]  # numpy's and scipy's bundled OpenBLAS
        assert np.array_equal(worker_table, table)
        assert _thread_counts() == caller_blas_threads  # the parent keeps its settings
