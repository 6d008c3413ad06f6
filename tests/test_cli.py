import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import alphascreen as a
from alphascreen import simulation
from alphascreen.cli import main
from alphascreen.io import load_factors_csv, load_returns_csv, save_factors_csv, save_returns_csv
from alphascreen.simulation import METHODS, _openblas_thread_controls


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def tiny_scenario(tmp_path):
    scenario = a.SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=31)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario.to_dict()))
    return path


def read(path):
    return path.read_text()


class TestSimulate:
    def test_writes_reports_and_panels(self, runner, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["simulate", "--scenario", str(tiny_scenario), "--method", "yd",
             "--beta", "0.1,0.2", "--reps", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = read(out / "report.csv").splitlines()
        assert report[0] == "method,beta,mean_fdr,sd_fdr,mean_power,sd_power,replications"
        assert len(report) == 3  # header + two levels
        detail = read(out / "replications.csv").splitlines()
        assert detail[0] == "method,beta,replication,fdp,power"
        assert len(detail) == 1 + 2 * 3
        assert (out / "panel_returns.csv").exists()
        assert (out / "panel_factors.csv").exists()

    def test_byte_identical_reruns(self, runner, tiny_scenario, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["simulate", "--scenario", str(tiny_scenario), "--method", "yd",
                 "--beta", "0.2", "--reps", "3", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            outs.append(out)
        for fname in ("report.csv", "replications.csv", "panel_returns.csv", "panel_factors.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_zero_reps_is_usage_error(self, runner, tiny_scenario, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--scenario", str(tiny_scenario), "--reps", "0",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    def test_bad_scenario_is_usage_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["simulate", "--scenario", str(bad)])
        assert result.exit_code == 2

    def test_env_var_override(self, runner, tiny_scenario, tmp_path):
        out = tmp_path / "env_out"
        result = runner.invoke(
            main,
            ["simulate", "--scenario", str(tiny_scenario), "--beta", "0.2",
             "--out", str(out)],
            env={"ALPHASCREEN_SIMULATE_REPS": "2"},
        )
        assert result.exit_code == 0, result.output
        report = (out / "report.csv").read_text().splitlines()
        assert report[1].endswith(",2")  # replications column picked up the env var

    def test_checked_in_scenarios_parse(self, runner):
        # every shipped scenario file must load cleanly, whatever the working directory
        paths = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
        assert paths
        for path in paths:
            payload = json.loads(path.read_text())
            scenario = a.SimulationScenario.from_dict(payload)
            assert scenario.n >= 12


class TestAnalyze:
    def make_panel_files(self, tmp_path, scenario=None, rep=0):
        scenario = scenario or a.SimulationScenario(n=60, p=80, pi=0.1, nu=0.8, seed=32)
        X, F, truth, _ = a.generate_panel(scenario, a.simulation.replication_rng(scenario.seed, rep))
        rpath, fpath = tmp_path / "returns.csv", tmp_path / "factors.csv"
        save_returns_csv(X, rpath)
        save_factors_csv(F, fpath)
        return rpath, fpath, X, F, truth

    @pytest.mark.parametrize("method", ["yd", "yd_r", "yd_th", "bh", "sbh", "sn"])
    def test_round_trip_matches_in_process(self, runner, tmp_path, method, reference_rejected):
        rpath, fpath, X, F, _ = self.make_panel_files(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--method", method, "--beta", "0.2", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = read(out / "selection.csv").splitlines()
        assert lines[0] == "entity_id,alpha_hat,statistic,rejected"
        assert lines[-1].startswith(f"# method={method},")
        cli_rejected = {
            row.split(",")[0] for row in lines[1:-1] if row.split(",")[3] == "1"
        }
        returns, factors = load_returns_csv(rpath), load_factors_csv(fpath)
        expected = reference_rejected[method](returns, factors, 0.2)
        assert cli_rejected == {X.entity_ids[i] for i in expected}
        rank_hat = "" if method == "bh" else a.estimate_alpha(returns, factors).latent.rank_hat
        assert f",rank_hat={rank_hat}," in lines[-1]

    # Periods of each panel or half that analyze fits on the 60-period panel:
    # split methods fit both halves, plus the panel for the alpha_hat
    # column; bh fits no latent model.
    FITTED_LENGTHS = {
        "yd": [30, 30, 60], "yd_r": [30, 30, 60], "yd_th": [30, 30, 60],
        "bh": [], "sbh": [60], "sn": [60],
    }

    @pytest.mark.parametrize("method", list(FITTED_LENGTHS))
    def test_fits_each_half_and_the_panel_at_most_once(
        self, runner, tmp_path, fitted_lengths, method
    ):
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path)
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--method", method, "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert sorted(fitted_lengths) == self.FITTED_LENGTHS[method]

    def test_selection_independent_of_the_environments_blas_threads(self, tmp_path):
        """``selection.csv`` is the same byte for byte whether the environment
        caps OpenBLAS at one thread or leaves its thread count unset.  On a
        1-CPU host OpenBLAS starts one thread either way, so there this
        check cannot tell the two cases apart."""
        scenario = a.SimulationScenario(n=200, p=1000, pi=0.1, nu=0.3, seed=33)
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path, scenario)
        blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(a.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        selections = []
        for i, extra in enumerate(({}, {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / f"out{i}"
            subprocess.run(
                [sys.executable, "-m", "alphascreen.cli", "analyze", "--returns", str(rpath),
                 "--factors", str(fpath), "--method", "yd", "--out", str(out)],
                env={**env, **extra}, check=True, capture_output=True, timeout=120,
            )
            selections.append((out / "selection.csv").read_bytes())
        assert selections[0] == selections[1]

    def test_leaves_the_callers_blas_threads(self, runner, tmp_path, caller_blas_threads):
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path)
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert [get() for _, get in _openblas_thread_controls()] == caller_blas_threads

    def test_method_choices_come_from_the_registry(self):
        for command in ("simulate", "analyze"):
            option = next(o for o in main.commands[command].params if o.name == "method")
            assert list(option.type.choices) == list(METHODS)

    def test_misaligned_factors_exit_2_names_period(self, runner, tmp_path):
        rpath, fpath, _, F, _ = self.make_panel_files(tmp_path)
        lines = read(fpath).splitlines()
        dropped = lines[:1] + lines[2:]  # drop the first period row
        fpath.write_text("\n".join(dropped) + "\n")
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2
        assert "period" in result.output

    def test_panel_too_short_is_runtime_error(self, runner, tmp_path):
        rng = np.random.default_rng(33)
        X = a.ReturnPanel(rng.standard_normal((5, 10)), [f"e{i}" for i in range(5)], range(10))
        F = a.FactorPanel(rng.standard_normal((10, 3)), ["f1", "f2", "f3"], range(10))
        rpath, fpath = tmp_path / "r.csv", tmp_path / "f.csv"
        save_returns_csv(X, rpath)
        save_factors_csv(F, fpath)
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--method", "yd", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1

    def test_premium_corrected_method_reduces_false_selections(self, runner, tmp_path):
        scenario = a.SimulationScenario(n=200, p=150, pi=0.4, nu=0.5, seed=34)
        rpath, fpath, X, F, truth = self.make_panel_files(tmp_path, scenario, rep=3)
        false_counts = {}
        for method in ("yd", "yd_th"):
            out = tmp_path / method
            result = runner.invoke(
                main,
                ["analyze", "--returns", str(rpath), "--factors", str(fpath),
                 "--method", method, "--beta", "0.1", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            rows = read(out / "selection.csv").splitlines()[1:-1]
            rejected = {i for i, row in enumerate(rows) if row.split(",")[3] == "1"}
            false_counts[method] = len(rejected - set(truth.tolist()))
        assert false_counts["yd_th"] <= false_counts["yd"]

    def test_pvalue_method_reports_cutoff(self, runner, tmp_path):
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path)
        out = tmp_path / "out_sbh"
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--method", "sbh", "--beta", "0.1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        meta = read(out / "selection.csv").splitlines()[-1]
        assert "p_cutoff=" in meta and "rank_hat=" in meta


class TestReplicateTable:
    def test_unknown_table_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["replicate-table", "7", "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_table2_smoke(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["replicate-table", "2", "--reps", "2", "--nu", "0.3",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        lines = read(tmp_path / "table_2.csv").splitlines()
        assert lines[0] == (
            "block,nu,method,beta,mean_fdr,sd_fdr,mean_power,sd_power,"
            "replications,ref_fdr,ref_power"
        )
        # 5 methods x 3 levels
        assert len(lines) == 1 + 15
        yd_rows = [l for l in lines[1:] if l.split(",")[2] == "yd"]
        assert all(l.split(",")[9] != "" for l in yd_rows)  # reference present

    def test_failed_replications_are_counted(self, tmp_path, monkeypatch):
        original = simulation._replication_rows

        def flaky(scenario, replication, *args, **kwargs):
            if replication == 1:
                raise RuntimeError("synthetic failure")
            return original(scenario, replication, *args, **kwargs)

        monkeypatch.setattr(simulation, "_replication_rows", flaky)
        with pytest.warns(RuntimeWarning, match="1 of 3 replications failed"):
            result = CliRunner().invoke(
                main,
                ["replicate-table", "1", "--reps", "3", "--threads", "1", "--out", str(tmp_path)],
            )
        assert result.exit_code == 0, result.output
        assert "1-normal nu=0.3: 1 of 3 replications failed" in result.stderr
        assert "1-lognormal nu=0.3: 1 of 3 replications failed" in result.stderr
        rows = [line.split(",") for line in read(tmp_path / "table_1.csv").splitlines()[1:]]
        assert len(rows) == 2 * 5 * 3  # blocks x methods x levels
        assert {row[8] for row in rows} == {"2"}  # the replications column counts survivors


class TestImport:
    def test_leaves_scipy_stats_and_signal_unimported(self):
        """Each CLI call imports the package in a fresh process; ``scipy.stats``
        (which ``scipy.signal`` imports) would add about a second to every one."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(a.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        code = (
            "import sys, alphascreen.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.signal'))))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
            timeout=120,
        )
        assert result.stdout.strip() == "[]"
