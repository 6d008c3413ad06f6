import dataclasses
import importlib.machinery
import itertools
import json
import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.signal import lfilter

import alphascreen as a
import alphascreen.baselines as baselines
import alphascreen.linalg as linalg
import alphascreen.simulation as sim
from alphascreen.errors import DimensionError
from alphascreen.methods import METHODS
from alphascreen.simulation import (
    ArmaComponent,
    SimulationScenario,
    _ar1_correlate,
    _assemble_panel,
    _assign_components,
    _garch_series,
    _make_alpha,
    _sample_loadings,
    _standardized_lognormal,
    arma_mixture_errors,
    default_arma_mixture,
    garch_factors,
    generate_panel,
    replication_rng,
    run_studies,
    run_study_detailed,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestMakeAlpha:
    def test_block_layout(self):
        alpha = _make_alpha(10, 0.4, 0.2)
        assert np.allclose(alpha, [0.2, 0.2, -0.2, -0.2, 0, 0, 0, 0, 0, 0])

    def test_zero_pi(self):
        assert np.allclose(_make_alpha(7, 0.0, 0.5), 0.0)

    def test_balanced_blocks_sum_to_zero(self):
        for p, pi in [(10, 0.4), (100, 0.1), (33, 0.6)]:
            alpha = _make_alpha(p, pi, 0.3)
            if int(np.floor(pi * p)) % 2 == 0:
                assert np.isclose(alpha.sum(), 0.0)

    def test_floor_semantics(self):
        alpha = _make_alpha(10, 0.35, 1.0)  # floor(3.5/2)=1 positive, floor(3.5)=3 total
        assert np.allclose(alpha, [1, -1, -1, 0, 0, 0, 0, 0, 0, 0])


class TestSampleLoadings:
    def test_zero_covariance_bypass(self):
        mean = np.array([1.0, -2.0])
        rows = _sample_loadings(5, mean, np.zeros((2, 2)), np.random.default_rng(0))
        assert np.allclose(rows, np.tile(mean, (5, 1)))

    def test_law_of_large_numbers_mean(self):
        rng = np.random.default_rng(1)
        mean = np.array([0.5, -0.25, 0.1])
        cov = np.diag([0.5, 0.25, 1.0])
        rows = _sample_loadings(4000, mean, cov, rng)
        band = 4.0 * np.sqrt(cov.max() / 4000)
        assert np.abs(rows.mean(axis=0) - mean).max() < band

    def test_covariance_consistency(self):
        rng = np.random.default_rng(2)
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        rows = _sample_loadings(5000, np.zeros(2), cov, rng)
        sample_cov = np.cov(rows.T)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.15


class TestToeplitzFactor:
    def test_rho_zero_is_identity(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((50, 3))
        assert np.array_equal(_ar1_correlate(z, 0.0), z)

    @pytest.mark.parametrize("shape", [(40,), (40, 7), (1000, 200), (100, 60)])
    def test_recursion_equals_lfilter(self, shape, monkeypatch):
        # scipy's IIR filter is the bit-exact reference, both for its compiled
        # routine as the package loads it and for the fallback that imports it
        z = np.random.default_rng(6).standard_normal(shape)
        assert sim._LINEAR_FILTER is not None  # scipy's wheel ships the extension
        for handle in (sim._LINEAR_FILTER, None):
            monkeypatch.setattr(sim, "_LINEAR_FILTER", handle)
            for rho in (0.3, 0.5, 0.9, -0.37):
                x = z * math.sqrt(1.0 - rho**2)
                x[0] = z[0]
                expected = lfilter([1.0], [1.0, -rho], x, axis=0)
                assert np.array_equal(_ar1_correlate(z, rho), expected), (handle, rho)

    def test_implied_factor_squares_to_toeplitz(self):
        p, rho = 6, 0.5
        implied = _ar1_correlate(np.eye(p), rho)
        target = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        assert np.allclose(implied @ implied.T, target, atol=1e-12)

    def test_empirical_neighbor_correlations(self):
        rng = np.random.default_rng(5)
        e = _ar1_correlate(rng.standard_normal((100_000, 4)), 0.5)
        flat1 = (e[:-1] * e[1:]).mean()
        flat2 = (e[:-2] * e[2:]).mean()
        assert abs(flat1 - 0.5) < 0.02
        assert abs(flat2 - 0.25) < 0.02

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            _ar1_correlate(np.zeros(10), 1.0)

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_input_left_unchanged(self, rho):
        z = np.random.default_rng(7).standard_normal((30, 4))
        before = z.copy()
        _ar1_correlate(z, rho)
        assert np.array_equal(z, before)


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

    @staticmethod
    def numpy_scalar_series(n, omega, a1, b1, rng):
        """The recursion stepped on numpy scalars in a float array."""
        z = rng.standard_normal(n)
        x = np.empty(n)
        sigma2 = omega / (1.0 - a1 - b1)
        for t in range(n):
            if t > 0:
                sigma2 = omega + a1 * x[t - 1] ** 2 + b1 * sigma2
            x[t] = math.sqrt(sigma2) * z[t]
        return x

    @pytest.mark.parametrize(
        "omega, a1, b1",
        [(0.1, 0.1, 0.8), (2.0, 0.0, 0.0), (1e-3, 0.0, 0.0), (0.05, 0.3, 0.6),
         (0.5, 0.0, 0.9), (0.2, 0.6, 0.0), (3.7, 0.05, 0.94)],
    )
    def test_python_float_loop_equals_the_numpy_scalar_loop(self, omega, a1, b1):
        for seed in range(20):
            x = _garch_series(700, omega, a1, b1, np.random.default_rng(seed))
            reference = self.numpy_scalar_series(700, omega, a1, b1, np.random.default_rng(seed))
            assert x.dtype == np.float64 and x.shape == (700,)
            assert np.array_equal(x.view(np.int64), reference.view(np.int64)), seed

    def test_nonstationary_rejected(self):
        # garch_factors shares the scenario's one GARCH check
        for triple in [(0.1, 0.5, 0.5), (math.nan, 0.1, 0.8), (math.inf, 0.1, 0.8)]:
            with pytest.raises(ValueError, match="garch_params entry"):
                garch_factors(10, 2, [(0.1, 0.1, 0.8), triple], np.eye(2), np.random.default_rng(9))

    def test_rotation_to_target_covariance(self):
        rng = np.random.default_rng(10)
        target = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])
        f = garch_factors(30_000, 3, [(0.1, 0.1, 0.8)] * 3, target, rng)
        rel = np.linalg.norm(np.cov(f.T) - target) / np.linalg.norm(target)
        assert rel < 0.10


@pytest.fixture(params=["compiled", "fallback"])
def filter_path(request, monkeypatch):
    """Run with scipy's compiled filter as the package loads it, then with
    the handle forced to None, so that ``scipy.signal.lfilter`` is called."""
    if request.param == "compiled":
        assert sim._LINEAR_FILTER is not None  # scipy's wheel ships the extension
    else:
        monkeypatch.setattr(sim, "_LINEAR_FILTER", None)
    return request.param


def lfilter_arma_mixture_errors(n, p, mixture, rng):
    """``arma_mixture_errors`` as written on ``scipy.signal.lfilter``: the
    bit-exact reference for the package's filter."""
    assign = _assign_components(p, mixture, rng)
    lengths = np.where(assign < len(mixture), n + sim.ARMA_BURN_IN, n)
    starts = np.cumsum(lengths) - lengths
    draws = rng.standard_normal(int(lengths.sum()))
    out = np.empty((p, n))
    rest = np.flatnonzero(assign == len(mixture))
    out[rest] = draws[starts[rest, None] + np.arange(n)]
    impulse = np.zeros(sim.ARMA_BURN_IN)
    impulse[0] = 1.0
    for k, comp in enumerate(mixture):
        rows = np.flatnonzero(assign == k)
        innov = draws[starts[rows, None] + np.arange(n + sim.ARMA_BURN_IN)]
        ma_poly, ar_poly = comp.polynomials()
        psi = lfilter(ma_poly, ar_poly, impulse)
        sd = math.sqrt(float(np.sum(psi * psi)))
        out[rows] = lfilter(ma_poly, ar_poly, innov, axis=1)[:, sim.ARMA_BURN_IN :] / sd
    return out


class TestCompiledFilter:
    """The ARMA filters of the generator equal ``scipy.signal.lfilter`` bit
    for bit, through scipy's compiled routine and through the fallback; the
    AR(1) filter is checked in ``TestToeplitzFactor``."""

    @pytest.mark.parametrize("k", range(8))
    def test_each_default_component_equals_lfilter(self, filter_path, k):
        comp = default_arma_mixture()[k]
        ma_poly, ar_poly = comp.polynomials()
        innov = np.random.default_rng(k).standard_normal((41, 400))
        assert np.array_equal(sim.lfilter(ma_poly, ar_poly, innov), lfilter(ma_poly, ar_poly, innov))
        impulse = np.zeros(sim.ARMA_BURN_IN)
        impulse[0] = 1.0
        psi = lfilter(ma_poly, ar_poly, impulse)
        assert comp.stationary_sd() == math.sqrt(float(np.sum(psi * psi)))

    def test_mixture_errors_equal_lfilter(self, filter_path):
        mixture = default_arma_mixture()
        got = arma_mixture_errors(200, 1000, mixture, np.random.default_rng(8))
        want = lfilter_arma_mixture_errors(200, 1000, mixture, np.random.default_rng(8))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("ma", [(0.4, -0.3, 0.2), (0.3, 0.2, -0.1, 0.25)], ids=["ma3", "ma4"])
    def test_pure_ma_takes_lfilters_convolution(self, filter_path, ma):
        # lfilter convolves when the denominator is one coefficient; its
        # compiled recursion sums in another order from three MA terms on
        ma_poly, ar_poly = ArmaComponent(weight=1.0, ma=ma).polynomials()
        innov = np.random.default_rng(3).standard_normal((20, 300)) * 7.0
        assert np.array_equal(sim.lfilter(ma_poly, ar_poly, innov), lfilter(ma_poly, ar_poly, innov))
        assert np.array_equal(
            sim.lfilter(ma_poly, ar_poly, innov.T, axis=0), lfilter(ma_poly, ar_poly, innov.T, axis=0)
        )

    def test_fallback_without_a_loadable_file(self, tmp_path, monkeypatch):
        scipy_dir = tmp_path / "scipy"
        (scipy_dir / "signal").mkdir(parents=True)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            (scipy_dir / "signal" / f"_sigtools{suffix}").write_bytes(b"not an extension")
        found = SimpleNamespace(submodule_search_locations=[str(scipy_dir)])
        monkeypatch.setattr(sim.importlib.util, "find_spec", lambda name: found)
        assert sim._load_linear_filter() is None
        monkeypatch.setattr(sim.importlib.util, "find_spec", lambda name: None)
        assert sim._load_linear_filter() is None


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
        mixture = default_arma_mixture()
        full = [dataclasses.replace(c, weight=1.0 / len(mixture)) for c in mixture]
        rows = arma_mixture_errors(20_000, 8, full, rng=rng)
        assert np.abs(rows.var(axis=1) - 1.0).max() < 0.06

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

    def test_roots_equal_numpy_polynomials(self):
        # the stationarity and invertibility verdict equals the one from
        # numpy.polynomial's roots, trailing zero coefficients included
        from numpy.polynomial.polynomial import polyroots

        rng = np.random.default_rng(17)
        coefficient_sets = [[-c for c in comp.ar] for comp in default_arma_mixture()]
        coefficient_sets += [list(comp.ma) for comp in default_arma_mixture()]
        coefficient_sets += [[], [0.4, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 1.5], [-2.0, 1.0]]
        coefficient_sets += [list(rng.standard_normal(rng.integers(0, 7))) for _ in range(300)]
        for coefs in coefficient_sets:
            expected = bool(np.all(np.abs(polyroots([1.0, *coefs])) > 1.0))
            assert sim._poly_roots_outside_unit_circle(coefs) is expected, coefs


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

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_rejected(self, nu):
        with pytest.raises(ValueError, match="nu must be finite and nonnegative"):
            SimulationScenario(n=100, p=50, pi=0.1, nu=nu)

    # (field the error names, path to one of its numbers in a scenario dict)
    NUMBERS = {
        "n": ("n",),
        "p": ("p",),
        "pi": ("pi",),
        "nu": ("nu",),
        "r_total": ("r_total",),
        "r_observed": ("r_observed",),
        "error_cov_rho": ("error_cov_rho",),
        "seed": ("seed",),
        "hetero_range": ("hetero_range", 1),
        "factor_cov": ("factor_cov", 1, 2),
        "loading_mean": ("loading_mean", 0),
        "loading_cov": ("loading_cov", 2, 2),
        "garch_params": ("garch_params", 3, 0),
        "component weight": ("arma_mixture", 0, "weight"),
        "component ar": ("arma_mixture", 2, "ar", 0),
        "component ma": ("arma_mixture", 2, "ma", 0),
    }

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("field", list(NUMBERS))
    def test_non_finite_number_names_its_field(self, field, value):
        d = SimulationScenario(
            n=60, p=40, pi=0.1, nu=0.8, temporal_mode="garch_arma", hetero_variances=True
        ).to_dict()
        *keys, last = self.NUMBERS[field]
        target = d
        for key in keys:
            target = target[key]
        target[last] = value
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            SimulationScenario.from_dict(d)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(p=100.5), "p must be an integer >= 1, got 100.5"),
            (dict(seed=1.5), "seed must be an integer"),
            (dict(seed=-1), "seed must be an integer >= 0, got -1"),
            (dict(r_total="7"), "r_total must be an integer"),
            (dict(p=0, pi=0.0), "p must be an integer >= 1, got 0"),
            (dict(hetero_range=(1.0, math.inf)), "hetero_range must satisfy"),
            (dict(factor_cov=np.diag([1.0, -1.0, 1, 1, 1, 1, 1])), "factor_cov must be symmetric"),
            (dict(factor_cov=np.eye(7) + np.eye(7, k=1)), "factor_cov must be symmetric"),
            (dict(loading_cov=np.diag([1.0, 0, 1, 1, 1, 1, 1])), "loading_cov must be symmetric"),
            (dict(loading_mean=np.zeros(6)), r"loading_mean must have shape \(7,\)"),
            (dict(hetero_range=(1.0, 2.0, 3.0)), r"hetero_range must be a pair \(lo, hi\)"),
            (dict(factor_cov=[[1.0] * 7] * 6 + [[1.0]]), "factor_cov must be a numeric array"),
            (dict(loading_mean=[0.1] * 6 + [[0.1, 0.2]]), "loading_mean must be a numeric array"),
            (dict(loading_cov=[[0.0] * 7] * 6 + [[0.0]]), "loading_cov must be a numeric array"),
            (
                dict(arma_mixture=[dict(weight=0.1, sigma=1.0)]),
                "arma_mixture entries must be ArmaComponent fields: .*'sigma'",
            ),
            (
                dict(arma_mixture=[dict(weight=0.1, sd=1.0)]),
                "arma_mixture entries must be ArmaComponent fields: .*'sd'",
            ),
            (
                dict(garch_params=((0.1, 0.1, 0.8),) * 6),
                r"^garch_params must hold 7 \(omega, a1, b1\) triples$",
            ),
            (dict(n=11), "^n = 11 too short to split with 3 observed factors$"),
            (dict(temporal_mode="ar1"), "^unknown temporal_mode 'ar1'$"),
            (
                dict(arma_mixture=[dict(weight=0.75), dict(weight=0.5, ar=(0.3,))]),
                "^mixture weights sum to 1.25 > 1$",
            ),
        ],
        ids=[
            "fractional_p", "fractional_seed", "negative_seed", "string_r_total", "no_entities",
            "infinite_hetero", "indefinite_factor_cov", "asymmetric_factor_cov",
            "indefinite_loading_cov", "loading_mean_shape", "hetero_triple",
            "ragged_factor_cov", "ragged_loading_mean", "ragged_loading_cov",
            "unknown_arma_key", "removed_arma_sd", "garch_count", "n_too_short", "unknown_temporal_mode",
            "mixture_weights_above_one",
        ],
    )
    def test_degenerate_field_is_named(self, fields, message):
        base = dict(n=60, p=40, pi=0.1, nu=0.8)
        with pytest.raises(ValueError, match=message):
            SimulationScenario(**{**base, **fields})

    @pytest.mark.parametrize("pair", [("a", "b"), (1.0, "3"), None], ids=str)
    def test_hetero_range_of_non_numbers_is_named(self, pair):
        with pytest.raises(ValueError, match=r"^hetero_range must be a pair \(lo, hi\) of numbers"):
            SimulationScenario(n=60, p=40, pi=0.1, nu=0.8, hetero_range=pair)

    def test_integral_floats_are_stored_as_int(self):
        sc = SimulationScenario(n=60.0, p=np.int64(40), pi=0.1, nu=0.8, seed=3.0)
        assert [type(v) for v in (sc.n, sc.p, sc.seed)] == [int, int, int]
        assert sc.to_dict()["seed"] == 3

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda path: path.stem)
    def test_scenario_file_round_trips(self, path):
        d = json.loads(path.read_text())
        assert SimulationScenario.from_dict(d).to_dict() == d

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
        x = _assemble_panel(np.zeros(4), np.zeros((4, 2)), np.zeros((6, 2)), np.zeros((4, 6)))
        assert np.all(x == 0.0)

    def test_in_place_sums_equal_the_plain_expressions(self):
        rng = np.random.default_rng(15)
        alpha, b = rng.standard_normal(30), rng.standard_normal((30, 4))
        f, e = rng.standard_normal((50, 4)), rng.standard_normal((30, 50))
        e_before = e.copy()
        assert np.array_equal(_assemble_panel(alpha, b, f, e), alpha[:, None] + b @ f.T + e)
        assert np.array_equal(e, e_before)
        z = np.random.default_rng(16).standard_normal((30, 50))
        expected = (np.exp(z) - math.exp(0.5)) / math.sqrt(math.exp(2.0) - math.exp(1.0))
        assert np.array_equal(_standardized_lognormal((30, 50), np.random.default_rng(16)), expected)

    def test_full_factor_regression_recovers_loadings(self):
        rng = np.random.default_rng(16)
        n, p, r = 2000, 40, 4
        b = rng.standard_normal((p, r))
        f = rng.standard_normal((n, r)) * 1.5
        e = rng.standard_normal((p, n))
        x = _assemble_panel(np.zeros(p), b, f, e)
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
        X, F, truth, alpha = generate_panel(sc, replication_rng(sc.seed, 0))
        assert X.values.shape == (40, 60)
        assert F.values.shape == (60, 3)
        assert truth.tolist() == list(range(8))
        assert np.allclose(alpha[truth], [0.4] * 4 + [-0.4] * 4)
        assert np.all(np.delete(alpha, truth) == 0.0)

    def test_hetero_scales_sigma_e(self):
        # with zero loadings and alphas a panel is its errors, and the scales
        # are drawn last, so each row of the hetero draw is the same row scaled
        zero = dict(loading_mean=np.zeros(7), loading_cov=np.zeros((7, 7)))
        sc = SimulationScenario(n=60, p=200, pi=0.0, nu=0.0, seed=20, **zero)
        hetero = SimulationScenario(n=60, p=200, pi=0.0, nu=0.0, hetero_variances=True, seed=20, **zero)
        x, _, _, _ = generate_panel(sc, replication_rng(sc.seed, 0))
        x_hetero, _, _, _ = generate_panel(hetero, replication_rng(hetero.seed, 0))
        ratios = x_hetero.values / x.values
        sigma_e = ratios[:, 0]
        assert np.allclose(ratios, sigma_e[:, None], rtol=1e-15, atol=0.0)
        assert np.all(sigma_e >= 1.0) and np.all(sigma_e <= np.sqrt(3.0))
        assert sigma_e.std() > 0.05

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
        increment = _make_alpha(30, 0.2, 0.6) - _make_alpha(30, 0.2, 0.3)
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
            return ThreadPoolExecutor(max_workers, **kwargs)

        monkeypatch.setattr(sim, "ThreadPoolExecutor", recording)
        sc = self.small_scenario()
        run_study_detailed(sc, ["yd"], [0.2], replications=2, parallelism=8)
        run_study_detailed(sc, ["bh", "sn"], [0.2], replications=3, parallelism=2)
        with pytest.warns(RuntimeWarning, match="single-replication"):
            run_study_detailed(sc, ["sn"], [0.2], replications=1, parallelism=8)
        assert pools == [(2, {}), (2, {}), (1, {})]  # workers need no start-up hook

    def test_parallelism_below_one_rejected(self):
        for parallelism in (0, -1):
            with pytest.raises(ValueError, match="parallelism must be at least 1"):
                run_studies([self.small_scenario()], ["yd"], [0.2], 2, parallelism=parallelism)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_studies_equal_one_study_per_scenario(self, workers):
        scenarios = [self.small_scenario(), SimulationScenario(n=40, p=40, pi=0.2, nu=0.5, seed=29)]
        studies = run_studies(scenarios, ["yd", "bh"], [0.1, 0.2], 3, parallelism=workers)
        assert studies == [
            run_study_detailed(sc, ["yd", "bh"], [0.1, 0.2], 3, parallelism=workers)
            for sc in scenarios
        ]
        assert all(failures == [] for _, _, failures in studies)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_and_warnings_stay_per_scenario(self, workers):
        # rank 40 exceeds what a 30-period half can fit, so every replication fails
        scenarios = [SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=seed) for seed in (32, 33)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            studies = run_studies(scenarios, ["yd"], [0.1], 4, parallelism=workers, rank=40)
            singles = run_studies(scenarios, ["yd"], [0.1], 1, parallelism=workers, rank=40)
        for reports, detail, failures in studies:
            assert [rep for rep, _ in failures] == [0, 1, 2, 3] and detail == []
            assert reports[0].replications == 0 and math.isnan(reports[0].mean_fdr)
        assert [[rep for rep, _ in failures] for _, _, failures in singles] == [[0], [0]]
        failed = "{} of {} replications failed and were skipped"
        single = "single-replication study: dispersion fields are 0 by convention"
        assert [str(w.message) for w in caught] == [failed.format(4, 4)] * 2 + [
            failed.format(1, 1),
            single,
        ] * 2
        assert all(w.category is RuntimeWarning and w.filename == __file__ for w in caught)
        with pytest.warns(RuntimeWarning, match="4 of 4 replications failed") as record:
            expected = [
                run_study_detailed(sc, ["yd"], [0.1], 4, parallelism=workers, rank=40)
                for sc in scenarios
            ]
        assert studies == expected
        assert all(w.filename == __file__ for w in record)  # both point at the caller's line

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

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, math.nan], ids=str)
    def test_level_outside_the_open_unit_interval_rejected(self, beta):
        with pytest.raises(ValueError, match=r"^beta must lie in \(0, 1\), got "):
            run_studies([self.small_scenario()], ["yd"], [0.1, beta], 2)

    @pytest.mark.parametrize(
        "methods, betas, message",
        [
            (["yd", "bh", "yd"], [0.1], "method 'yd' is given more than once"),
            (["yd"], [0.1, 0.2, 0.10], "beta 0.1 is given more than once"),
        ],
        ids=["method", "beta"],
    )
    def test_repeated_method_or_level_rejected(self, methods, betas, message):
        # a repeat would pool its rows with the first copy's and double its count
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_study_detailed(self.small_scenario(), methods, betas, 2)

    def test_no_scenarios_give_no_studies(self):
        assert run_studies([], ["yd"], [0.1], 2, parallelism=2) == []

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

    @pytest.mark.parametrize(
        "methods", [list(METHODS), ["yd", "yd_r", "sbh", "sn", "bh"]], ids=["registry", "table1"]
    )
    def test_one_observed_factor_regression_per_panel_and_half(self, monkeypatch, methods):
        lengths, regress = [], a.estimation.regress_out_observed

        def counting(returns, factors):
            lengths.append(returns.n_periods)
            return regress(returns, factors)

        monkeypatch.setattr(a.estimation, "regress_out_observed", counting)
        sc = SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=24)
        sim._replication_rows(sc, 0, methods, [0.1])
        assert sorted(lengths) == [30, 30, 60]

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

    @staticmethod
    def rows_without_release(sc, rep, methods, betas):
        """Rows of one replication whose fits are all kept to its end."""
        returns, factors, truth, _ = generate_panel(sc, replication_rng(sc.seed, rep))
        fits = a.PanelFits(returns, factors)
        rows = []
        for name in methods:
            result = METHODS[name].statistic(fits)
            for beta in betas:
                m = a.fdp_power(METHODS[name].rule(result, [beta])[0][0], truth, sc.p)
                rows.append((name, beta, m.fdp, m.power))
        return rows

    @pytest.mark.parametrize(
        "methods",
        [["yd", "yd_r", "sbh", "sn", "bh"], ["sn", "yd", "bh"], ["yd", "sbh", "yd_th", "sn"],
         ["bh", "sbh", "yd_r", "sbh"], ["bh", "yd", "sbh"]],
        ids="-".join,
    )
    def test_released_fits_leave_the_rows_unchanged(self, methods):
        sc = SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=24)
        for rep in range(2):
            expected = self.rows_without_release(sc, rep, methods, [0.1, 0.2])
            assert sim._replication_rows(sc, rep, methods, [0.1, 0.2]) == expected

    @pytest.mark.parametrize(
        "methods", list(itertools.permutations(["yd", "on_full", "on_obs"])), ids="-".join
    )
    def test_fits_are_released_group_by_group(self, monkeypatch, methods):
        # whatever the order of the methods, the full fit's methods find no
        # halves and the observed regression's neither halves nor full fit
        seen = {}

        def probe(like):
            def statistic(fits):
                seen[like.fit] = sorted({"halves", "full"} & set(vars(fits)))
                return like.statistic(fits)

            return like._replace(statistic=statistic)

        probes = {"on_full": probe(METHODS["sn"]), "on_obs": probe(METHODS["bh"])}
        monkeypatch.setattr(sim, "METHODS", {**METHODS, **probes})
        sc = SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=24)
        sim._replication_rows(sc, 0, list(methods), [0.1])
        assert seen == {"full": [], "observed": []}

    def test_each_fit_made_once_when_read_apart(self, fitted_lengths):
        sc = SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=24)
        sim._replication_rows(sc, 0, ["yd", "sn", "bh", "yd_th", "sbh"], [0.1])
        assert fitted_lengths == [30, 30, 60]

    @pytest.mark.parametrize("name", list(METHODS))
    def test_each_statistic_reads_only_the_fit_its_method_names(self, name):
        # the runner releases a fit after the group of its Method.fit, so a
        # statistic that read another fit would make it again or find it gone
        class Probe:
            def __init__(self, fits):
                self.fits, self.read = fits, set()

            def __getattr__(self, attr):
                if attr in ("observed", "full", "halves"):
                    self.read.add(attr)
                return getattr(self.fits, attr)

        sc = SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=24)
        probe = Probe(a.PanelFits(*generate_panel(sc, replication_rng(sc.seed, 0))[:2]))
        METHODS[name].statistic(probe)
        assert probe.read == {METHODS[name].fit}


def _thread_counts():
    return [get() for _, get in linalg._BLAS_CONTROLS]


_CAPPED = [1] * len(linalg._BLAS_CONTROLS)  # numpy's bundled OpenBLAS at one thread


def _worker_probe(scenario):
    """Run in a pool worker: the OpenBLAS thread counts the ``sn`` replication
    of a one-replication study computes at, and the SN table the worker
    loaded for it."""
    seen = []

    def statistic(fits):
        seen.append(_thread_counts())
        return METHODS["sn"].statistic(fits)

    sim.METHODS = {**METHODS, "probe": METHODS["sn"]._replace(statistic=statistic)}
    assert baselines._sn_limit_table.cache_info().currsize == 0  # nothing loaded yet
    with warnings.catch_warnings():  # a forked worker inherits the tests' filters
        warnings.filterwarnings("ignore", "single-replication study", RuntimeWarning)
        run_study_detailed(scenario, ["probe"], [0.2], 1)
    return seen, baselines._sn_limit_table()


class _Interrupt(BaseException):
    """Escapes the per-replication isolation, as an interrupt would."""


class TestBlasAtOneWorker:
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
        assert seen == [_CAPPED] * 3
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
        assert seen and all(counts == _CAPPED for counts in seen)
        assert _thread_counts() == caller_blas_threads

    def test_no_op_without_openblas(self, tmp_path, monkeypatch, caller_blas_threads):
        controls = linalg._BLAS_CONTROLS
        (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a shared library")
        monkeypatch.setattr(linalg, "_OPENBLAS_DIR", tmp_path)
        monkeypatch.setattr(linalg, "_BLAS_CONTROLS", linalg._load_openblas()[0])
        assert linalg._BLAS_CONTROLS == ()  # nothing loadable in the patched directory
        with linalg.one_blas_thread():
            assert [get() for _, get in controls] == caller_blas_threads
        assert [get() for _, get in controls] == caller_blas_threads


class TestThreadPool:
    def probe(self, monkeypatch, raises=None):
        """Add a method ``probe`` that records the thread and the BLAS thread
        counts of each replication, then computes ``sn`` or raises."""
        seen = []

        def statistic(fits):
            seen.append((threading.get_ident(), _thread_counts()))
            if raises is not None:
                raise raises
            return METHODS["sn"].statistic(fits)

        probe = METHODS["sn"]._replace(statistic=statistic)
        monkeypatch.setattr(sim, "METHODS", {**METHODS, "probe": probe})
        return seen

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_each_worker_thread_at_one_blas_thread_then_the_callers_count(
        self, monkeypatch, caller_blas_threads, parallelism
    ):
        seen = self.probe(monkeypatch)
        sc = SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=23)
        threaded = run_study_detailed(
            sc, ["probe"], [0.2], replications=4, parallelism=parallelism
        )
        assert threaded[2] == []
        assert [counts for _, counts in seen] == [_CAPPED] * 4
        assert threading.get_ident() not in {ident for ident, _ in seen}  # all on pool threads
        assert _thread_counts() == caller_blas_threads
        assert linalg._cap_holders == 0

    def test_interrupt_escapes_and_restores_the_callers_count(
        self, monkeypatch, caller_blas_threads
    ):
        seen = self.probe(monkeypatch, raises=_Interrupt())
        sc = SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=23)
        with pytest.raises(_Interrupt):
            run_study_detailed(sc, ["probe"], [0.2], replications=8, parallelism=2)
        assert seen and all(counts == _CAPPED for _, counts in seen)
        assert _thread_counts() == caller_blas_threads

    def test_more_threads_than_cores_under_frequent_switches(self, caller_blas_threads):
        # the shared state is the cap's count, the SN table cache and the
        # panel labels; a lost update would leave a thread count wrong or the
        # rows different.  The garch_arma design runs the compiled filter on
        # every thread at once.
        for mode in ("iid_normal", "garch_arma"):
            baselines._sn_limit_table.cache_clear()
            sim._panel_labels.cache_clear()
            sc = SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, temporal_mode=mode, seed=23)
            serial = run_study_detailed(sc, list(METHODS), [0.05, 0.2], replications=8)
            baselines._sn_limit_table.cache_clear()
            sim._panel_labels.cache_clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threaded = run_study_detailed(
                    sc, list(METHODS), [0.05, 0.2], replications=8, parallelism=6
                )
            finally:
                sys.setswitchinterval(interval)
            assert threaded == serial, mode
            assert _thread_counts() == caller_blas_threads
            assert linalg._cap_holders == 0


class TestPoolWorker:
    # The study pool is threads, but a study run in a caller's own process
    # pool caps BLAS in that worker too.
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_one_blas_thread_and_the_parents_sn_table(self, start_method, caller_blas_threads):
        table = baselines._sn_limit_table()
        baselines._sn_limit_table.cache_clear()  # so a forked worker inherits no table
        sc = SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=23)
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(start_method)) as pool:
            seen, worker_table = pool.submit(_worker_probe, sc).result(timeout=120)
        assert seen == [_CAPPED]
        assert np.array_equal(worker_table, table)
        assert _thread_counts() == caller_blas_threads  # the parent keeps its settings


class TestWorkingSet:
    @staticmethod
    def peak_panels(sc, methods):
        """Peak traced allocation of one replication, in panels of 8 p n bytes."""
        baselines._sn_limit_table()  # loaded once per process, not per replication
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim._replication_rows(sc, 0, methods, [0.05, 0.1, 0.15])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / (sc.p * sc.n * 8)

    @pytest.mark.parametrize("factory", [a.table1_normal_scenario, a.table1_lognormal_scenario])
    def test_one_table1_replication_holds_at_most_four_panels(self, factory):
        # A two-thread pool holds two replications at once, so a study's peak
        # resident size grows with this peak.
        peak = self.peak_panels(factory(nu=0.3), ["yd", "yd_r", "sbh", "sn", "bh"])
        assert peak <= 4, f"{peak:.2f} panels"

    def test_one_garch_arma_replication_holds_at_most_four_panels(self):
        # The compiled filter returns a new array, so the AR(1) step holds
        # three panels, and the generator's peak of about 3.25 panels is
        # the replication's: each fit holds about 3.1.
        peak = self.peak_panels(a.table2_garch_arma_scenario(nu=0.3), list(METHODS))
        assert peak <= 4, f"{peak:.2f} panels"

    def test_bh_before_the_halves_keeps_no_residuals_through_them(self):
        # bh's regression residuals wait for the full fit, but not while the
        # halves are fitted: that would hold one more panel through them
        sc = a.table1_normal_scenario(nu=0.3)
        extra = self.peak_panels(sc, ["bh", "yd", "sbh"]) - self.peak_panels(sc, ["yd", "sbh"])
        assert extra <= 0.25, f"{extra:.2f} panels"
