"""Acceptance suite: every criterion at its stated tolerance.

Each check prints one ``CRITERION k: ... -> PASS/FAIL`` line before
asserting, so a full tally survives in the captured output of a
``pytest -v`` run.  Heavy replication studies are shared through
module-scoped fixtures and run with two workers.
"""

import math
import time

import numpy as np
import pytest

import alphascreen as a
from alphascreen.baselines import bh_procedure
from alphascreen.fdr import (
    NegativeControlConfig,
    fdp_power,
    select_threshold,
    split_statistics,
)
from alphascreen.io import write_metrics_report
from alphascreen.simulation import replication_rng, run_study_detailed

WORKERS = 2
BETAS = (0.05, 0.10, 0.15)


def tally(label, ok, detail):
    print(f"CRITERION {label}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def by_method(reports):
    out = {}
    for r in reports:
        out.setdefault(r.method, []).append(r)
    for method in out:
        out[method] = sorted(out[method], key=lambda r: r.beta)
    return out


@pytest.fixture(scope="module")
def table1_normal_study():
    scenario = a.table1_normal_scenario(nu=0.3)
    reports, _, failures = run_study_detailed(
        scenario, ["yd"], BETAS, replications=300, parallelism=WORKERS
    )
    assert not failures
    return by_method(reports)


@pytest.fixture(scope="module")
def table1_lognormal_study():
    scenario = a.table1_lognormal_scenario(nu=0.3)
    reports, _, failures = run_study_detailed(
        scenario, ["yd", "sbh"], BETAS, replications=300, parallelism=WORKERS
    )
    assert not failures
    return by_method(reports)


@pytest.fixture(scope="module")
def table2_study():
    scenario = a.table2_garch_arma_scenario(nu=0.3)
    reports, _, failures = run_study_detailed(
        scenario, ["yd", "sbh"], BETAS, replications=300, parallelism=WORKERS
    )
    assert not failures
    return by_method(reports)


@pytest.fixture(scope="module")
def figure1_study():
    scenario = a.figure1_hetero_scenario(nu=0.2)
    reports, _, failures = run_study_detailed(
        scenario, ["yd", "yd_r"], [0.10], replications=200, parallelism=WORKERS
    )
    assert not failures
    return by_method(reports)


class TestCriterion01Table1Normal:
    TARGET_FDR = (4.18, 9.05, 14.14)
    TARGET_POWER = (92.95, 96.27, 97.51)

    def test_fdr_bands(self, table1_normal_study):
        got = [r.mean_fdr for r in table1_normal_study["yd"]]
        ok = all(abs(g - t) <= 2.0 for g, t in zip(got, self.TARGET_FDR))
        detail = (
            f"split-screening FDR {[round(g, 2) for g in got]} vs "
            f"{self.TARGET_FDR} (+/-2.0pp), 300 reps"
        )
        assert tally("1 (FDR)", ok, detail)

    def test_power_bands(self, table1_normal_study):
        got = [r.mean_power for r in table1_normal_study["yd"]]
        ok = all(abs(g - t) <= 3.0 for g, t in zip(got, self.TARGET_POWER))
        detail = (
            f"split-screening power {[round(g, 2) for g in got]} vs "
            f"{self.TARGET_POWER} (+/-3.0pp), 300 reps"
        )
        # Known infeasibility: each half statistic has standard deviation at
        # least sqrt(2) (it averages n/2 unit-variance observations), while the
        # reference power values imply roughly 1.35.  See the decisions log.
        assert tally("1 (power)", ok, detail)

    def test_runtime_budget(self, table1_normal_study):
        runtime = table1_normal_study["yd"][0].runtime
        ok = runtime <= 900.0
        assert tally("1 (runtime)", ok, f"study took {runtime:.1f}s (budget 900s)")


class TestCriterion02Table1Lognormal:
    TARGET_FDR = (4.60, 9.23, 14.24)

    def test_fdr_bands(self, table1_lognormal_study):
        got = [r.mean_fdr for r in table1_lognormal_study["yd"]]
        ok = all(abs(g - t) <= 2.0 for g, t in zip(got, self.TARGET_FDR))
        detail = (
            f"split-screening FDR {[round(g, 2) for g in got]} vs "
            f"{self.TARGET_FDR} (+/-2.0pp) under log-normal draws"
        )
        assert tally("2 (FDR)", ok, detail)

    def test_normal_calibration_breaks_down(self, table1_lognormal_study):
        sbh_fdr = table1_lognormal_study["sbh"][0].mean_fdr
        ok = sbh_fdr >= 9.0
        detail = f"normal-calibration FDR {sbh_fdr:.2f} at the 5% level (needs >= 9.0)"
        assert tally("2 (robustness gap)", ok, detail)


class TestCriterion03Table2Serial:
    def test_fdr_control_and_breakdown(self, table2_study):
        yd_fdr = table2_study["yd"][0].mean_fdr
        sbh_fdr = table2_study["sbh"][0].mean_fdr
        ok = yd_fdr <= 7.5 and sbh_fdr >= 10.0
        detail = (
            f"split-screening FDR {yd_fdr:.2f} (<= 7.5) vs "
            f"normal-calibration FDR {sbh_fdr:.2f} (>= 10.0) under serial dependence"
        )
        assert tally("3 (FDR)", ok, detail)

    def test_power_floor(self, table2_study):
        yd_power = table2_study["yd"][0].mean_power
        ok = yd_power >= 84.0
        detail = f"split-screening power {yd_power:.2f} at the 5% level (needs >= 84)"
        # Same root cause as criterion 1 (power): the half-statistic noise
        # floor shifts the whole power curve down; see the decisions log.
        assert tally("3 (power)", ok, detail)


class TestCriterion04HeterogeneousRefinement:
    def test_fdr_bound(self, figure1_study):
        fdr = figure1_study["yd_r"][0].mean_fdr
        ok = fdr <= 13.0
        detail = f"studentized screening FDR {fdr:.2f} at the 10% level (<= 13.0)"
        assert tally("4 (FDR bound)", ok, detail)

    def test_power_boost(self, figure1_study):
        plain = figure1_study["yd"][0].mean_power
        refined = figure1_study["yd_r"][0].mean_power
        ok = refined - plain >= 10.0
        detail = (
            f"studentized power {refined:.2f} vs plain {plain:.2f} "
            f"(boost {refined - plain:.2f}pp, needs >= 10)"
        )
        # Known infeasibility at signal 0.2: both procedures sit in the
        # collapsed region of the power curve; see the decisions log.
        assert tally("4 (power boost)", ok, detail)


class TestCriterion05ThresholdOracle:
    def test_grid_scan_equivalence(self):
        rng = np.random.default_rng(55)
        start = time.perf_counter()
        mismatches = 0
        for _ in range(1000):
            t = rng.standard_normal(500) * rng.standard_normal(500) * 2.0
            beta = float(rng.uniform(0.05, 0.5))
            _, rejected = select_threshold(t, beta)

            top = np.abs(t).max()
            grid = np.linspace(0.0, top, 100_001)[1:]
            t_sorted = np.sort(t)
            n_pos = t.size - np.searchsorted(t_sorted, grid, side="left")
            n_neg = np.searchsorted(t_sorted, -grid, side="right")
            hits = np.flatnonzero((1.0 + n_neg) / np.maximum(n_pos, 1) <= beta)
            if hits.size == 0:
                grid_rejected = np.array([], dtype=int)
            else:
                grid_rejected = np.flatnonzero(t >= grid[hits[0]])
            mismatches += not np.array_equal(rejected, grid_rejected)
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed <= 30.0
        detail = f"{mismatches}/1000 mismatches vs 1e5-point grid scan in {elapsed:.1f}s"
        assert tally("5", ok, detail)


class TestCriterion06NullSymmetry:
    def test_global_null_symmetry(self, load_scenario):
        scenario = load_scenario("global_null")
        pos_fracs, pooled = [], []
        for rep in range(100):
            rng = replication_rng(scenario.seed, rep)
            X, F, _, _ = a.generate_panel(scenario, rng)
            res = split_statistics(X, F)
            pos_fracs.append(float(np.mean(res.t_prod > 0)))
            pooled.append(res.t_prod)
        t = np.concatenate(pooled)
        frac = float(np.mean(pos_fracs))
        q99 = np.quantile(np.abs(t), 0.99)
        candidates = np.unique(np.abs(t[t != 0.0]))
        candidates = candidates[candidates <= q99]
        t_sorted = np.sort(t)
        n_pos = t.size - np.searchsorted(t_sorted, candidates, side="left")
        n_neg = np.searchsorted(t_sorted, -candidates, side="right")
        sup_dev = float(np.abs(n_pos / np.maximum(n_neg, 1) - 1.0).max())
        ok = 0.45 <= frac <= 0.55 and sup_dev < 0.15
        detail = (
            f"positive fraction {frac:.4f} (in [0.45, 0.55]), "
            f"symmetry-ratio sup deviation {sup_dev:.4f} (< 0.15), 100 reps pooled"
        )
        assert tally("6", ok, detail)


class TestCriterion07VarianceOracle:
    def test_asymptotic_sd_and_bias(self):
        scenario = a.table1_normal_scenario(nu=0.3)
        reps = 500
        deviations = np.empty((reps, scenario.p))
        oracle_sd = None
        for rep in range(reps):
            rng = replication_rng(scenario.seed, rep)
            X, F, _, oracle = a.generate_panel(scenario, rng)
            fit = a.estimate_alpha(X, F)
            deviations[rep] = math.sqrt(scenario.n) * (fit.alpha_hat - oracle.alpha)
            oracle_sd = oracle.sigma_e  # mean-zero factors: no premium inflation
        sd = deviations.std(axis=0, ddof=1)
        within = float(np.mean(np.abs(sd / oracle_sd - 1.0) <= 0.10))
        bias = np.abs(deviations.mean(axis=0)) / math.sqrt(scenario.n)
        max_bias = float(bias.max())
        ok = within >= 0.90 and max_bias < 0.02
        detail = (
            f"{100 * within:.1f}% of entities within 10% of the closed-form sd "
            f"(needs >= 90%), max per-entity bias {max_bias:.4f} (< 0.02), 500 reps"
        )
        assert tally("7", ok, detail)


class TestCriterion08RankSelection:
    def test_eigenvalue_ratio_rank(self):
        scenario = a.SimulationScenario(
            n=200, p=1000, pi=0.1, nu=0.3, r_total=5, r_observed=3, seed=88
        )
        hits = 0
        reps = 200
        for rep in range(reps):
            rng = replication_rng(scenario.seed, rep)
            X, F, _, _ = a.generate_panel(scenario, rng)
            fit = a.estimate_alpha(X, F)
            hits += fit.latent.rank_hat == 2
        rate = hits / reps
        ok = rate >= 0.95
        detail = f"rank 2 recovered in {100 * rate:.1f}% of {reps} panels (needs >= 95%)"
        assert tally("8", ok, detail)


class TestCriterion09BhGuarantee:
    def test_uniform_null_fdr(self):
        rng = np.random.default_rng(99)
        beta = 0.10
        fdps = []
        for _ in range(1000):
            p_values = rng.uniform(size=1000)
            rejected = bh_procedure(p_values, beta)
            fdps.append(1.0 if rejected.size else 0.0)
        fdr = float(np.mean(fdps))
        ok = fdr <= beta + 0.01
        detail = f"null-uniform FDR {fdr:.4f} at level {beta} (<= {beta + 0.01})"
        assert tally("9", ok, detail)


class TestCriterion10NegativeControl:
    def test_dense_alpha_correction(self, load_scenario):
        # p = 300: the projection bias of the plain estimator scales inversely
        # with p, so this is the regime where the premium correction matters
        scenario = load_scenario("dense_alpha")
        beta = 0.10
        control = NegativeControlConfig(mode="threshold_rule")
        plain_fdp, corrected_fdp = [], []
        for rep in range(200):
            rng = replication_rng(scenario.seed, rep)
            X, F, truth, _ = a.generate_panel(scenario, rng)
            res = split_statistics(X, F)
            _, rejected = select_threshold(res.t_prod, beta)
            plain_fdp.append(fdp_power(rejected, truth, scenario.p).fdp)
            res_th = split_statistics(X, F, negative_control=control)
            _, rejected_th = select_threshold(res_th.t_prod, beta)
            corrected_fdp.append(fdp_power(rejected_th, truth, scenario.p).fdp)
        plain = 100.0 * float(np.mean(plain_fdp))
        corrected = 100.0 * float(np.mean(corrected_fdp))
        ok = plain > 13.0 and corrected <= 12.0
        detail = (
            f"plain FDR {plain:.2f} (> 13.0) vs premium-corrected "
            f"{corrected:.2f} (<= 12.0) on the dense design, 200 reps"
        )
        assert tally("10", ok, detail)


class TestCriterion11Determinism:
    def test_byte_identical_reports_across_workers(self, tmp_path):
        scenario = a.SimulationScenario(n=60, p=100, pi=0.1, nu=0.6, seed=111)
        blobs = []
        for workers in (1, 2):
            reports, detail, failures = run_study_detailed(
                scenario, ["yd", "sbh"], [0.1, 0.2], replications=8, parallelism=workers
            )
            assert not failures
            path = tmp_path / f"report_{workers}.csv"
            write_metrics_report(reports, path)
            blobs.append(path.read_bytes() + repr(detail).encode())
        ok = blobs[0] == blobs[1]
        detail_line = "reports byte-identical across 1 and 2 workers"
        assert tally("11", ok, detail_line)
