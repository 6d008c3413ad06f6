import csv
import ctypes
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import alphascreen as a
from alphascreen import cli, linalg, simulation
from alphascreen.cli import main
from alphascreen.io import (
    fmt, load_factors_csv, load_returns_csv, save_factors_csv, save_returns_csv,
)
from alphascreen.linalg import _BLAS_CONTROLS
from alphascreen.methods import METHODS


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

    @pytest.mark.parametrize(
        "garch_omega, seed, message",
        [
            (float("nan"), [], "garch_params entry (nan, 0.1, 0.8)"),
            (0.1, ["--seed", "-1"], "seed must be an integer >= 0, got -1"),
        ],
        ids=["nan_garch", "negative_seed"],
    )
    def test_refused_scenario_is_usage_error(
        self, runner, tiny_scenario, tmp_path, garch_omega, seed, message
    ):
        payload = json.loads(tiny_scenario.read_text())
        payload["garch_params"][0][0] = garch_omega
        scenario = tmp_path / "refused.json"
        scenario.write_text(json.dumps(payload))  # writes a NaN literal that json.loads reads back
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["simulate", "--scenario", str(scenario), "--reps", "2", *seed, "--out", str(out)]
        )
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    def test_repeated_beta_is_usage_error(self, runner, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["simulate", "--scenario", str(tiny_scenario), "--beta", "0.1,0.2,0.10",
             "--reps", "2", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "beta 0.1 is given more than once" in result.output
        assert not out.exists()

    def test_failed_replications_are_counted(self, tiny_scenario, tmp_path, monkeypatch):
        original = simulation._replication_rows

        def flaky(scenario, replication, *args, **kwargs):
            if replication == 1:
                raise RuntimeError("synthetic failure")
            return original(scenario, replication, *args, **kwargs)

        monkeypatch.setattr(simulation, "_replication_rows", flaky)
        with pytest.warns(RuntimeWarning, match="1 of 3 replications failed"):
            result = CliRunner().invoke(
                main,
                ["simulate", "--scenario", str(tiny_scenario), "--beta", "0.2", "--reps", "3",
                 "--out", str(tmp_path / "out")],
            )
        assert result.exit_code == 0, result.output
        assert result.stderr == "1 replications failed\n"
        report = read(tmp_path / "out" / "report.csv").splitlines()
        assert report[1].endswith(",2")  # the replications column counts survivors

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

    def test_bh_alone_starts_no_latent_fit(self, runner, tmp_path, tiny_scenario, monkeypatch):
        # every latent fit, estimate_latent's included, goes through this step
        def refuse(*args, **kwargs):
            raise AssertionError("a latent fit was started")

        monkeypatch.setattr(a.estimation, "_principal_components", refuse)
        rpath, fpath, X, F, _ = self.make_panel_files(tmp_path)
        with pytest.raises(AssertionError, match="latent fit"):
            a.estimate_latent(X.values)
        args = ["--returns", str(rpath), "--factors", str(fpath), "--out"]
        assert runner.invoke(main, ["analyze", *args, str(tmp_path / "sbh"), "--method", "sbh"]).exit_code == 1
        result = runner.invoke(main, ["analyze", *args, str(tmp_path / "bh"), "--method", "bh"])
        assert result.exit_code == 0, result.output
        lines = read(tmp_path / "bh" / "selection.csv").splitlines()
        assert ",rank_hat=," in lines[-1]
        intercepts = np.linalg.lstsq(np.column_stack([np.ones(X.n_periods), F.values]), X.values.T)[0][0]
        alpha_hat = np.array([float(row.split(",")[1]) for row in lines[1:-1]])
        assert np.max(np.abs(alpha_hat - intercepts)) <= 1e-13 * np.max(np.abs(intercepts))

        scenario = a.SimulationScenario.from_dict(json.loads(tiny_scenario.read_text()))
        (_, detail, failures), = a.run_studies([scenario], ["bh"], [0.1], 2)
        assert failures == [] and len(detail) == 2
        result = runner.invoke(
            main, ["simulate", "--scenario", str(tiny_scenario), "--method", "bh", "--reps", "2",
                   "--out", str(tmp_path / "simulate")],
        )
        assert result.exit_code == 0 and "failed" not in result.output, result.output

    def test_selection_independent_of_the_environments_blas_threads(self, tmp_path):
        """Each method's ``selection.csv`` is the same byte for byte whether the
        environment caps OpenBLAS at one thread or leaves its thread count
        unset: the command runs under one cap either way.  On a 1-CPU host
        OpenBLAS starts one thread either way, so there this check cannot
        tell the two cases apart."""
        scenario = a.SimulationScenario(n=200, p=1000, pi=0.1, nu=0.3, seed=33)
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path, scenario)
        blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(a.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        for method in METHODS:
            selections = []
            for i, extra in enumerate(({}, {"OPENBLAS_NUM_THREADS": "1"})):
                out = tmp_path / f"{method}{i}"
                subprocess.run(
                    [sys.executable, "-m", "alphascreen.cli", "analyze", "--returns", str(rpath),
                     "--factors", str(fpath), "--method", method, "--out", str(out)],
                    env={**env, **extra}, check=True, capture_output=True, timeout=120,
                )
                selections.append((out / "selection.csv").read_bytes())
            assert selections[0] == selections[1], method

    def test_leaves_the_callers_blas_threads(self, runner, tmp_path, caller_blas_threads):
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path)
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert [get() for _, get in _BLAS_CONTROLS] == caller_blas_threads

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

    def test_mixed_period_header_is_usage_error(self, runner, tmp_path):
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path)
        header, rest = read(rpath).split("\n", 1)
        assert ",5,6," in header
        rpath.write_text(header.replace(",5,6,", ",5,x6,") + "\n" + rest)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["analyze", "--returns", str(rpath), "--factors", str(fpath), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "time index is not strictly increasing at 5 -> 'x6'" in result.output
        assert not out.exists()

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

    @pytest.mark.parametrize("method", ["yd", "bh", "sn"])
    @pytest.mark.parametrize("big", ["1.7e308", "1e200"])
    def test_cell_whose_square_overflows_is_usage_error(self, runner, tmp_path, big, method):
        # refused where the file loads: the fits would exit 1 with an
        # unrelated message (no eigenvalue above the floor, no OLS variance)
        scenario = a.SimulationScenario(n=60, p=40, pi=0.1, nu=0.8, seed=32)
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path, scenario)
        lines = read(rpath).splitlines()
        cells = lines[4].split(",")  # the row of entity 3
        cells[6] = big  # period 5
        lines[4] = ",".join(cells)
        rpath.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--method", method, "--out", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert (
            f"{rpath}: return panel values overflow when squared and summed: the largest in "
            f"magnitude, {float(big)!r}, is at row 3, column 5"
        ) in " ".join(result.output.split())  # click wraps the message
        assert not out.exists()

    @pytest.mark.parametrize("failure, code", [("nan-cell", 2), ("too-short", 1)])
    def test_cap_released_when_analyze_fails(
        self, runner, tmp_path, monkeypatch, caller_blas_threads, failure, code
    ):
        if failure == "nan-cell":  # a bad file: a usage error
            rpath, fpath, _, _, _ = self.make_panel_files(tmp_path)
            lines = read(rpath).splitlines()
            entity, _, rest = lines[1].split(",", 2)
            lines[1] = f"{entity},nan,{rest}"
            rpath.write_text("\n".join(lines) + "\n")
        else:  # an AlphascreenError from the fit: a runtime error
            rng = np.random.default_rng(33)
            X = a.ReturnPanel(rng.standard_normal((5, 10)), [f"e{i}" for i in range(5)], range(10))
            F = a.FactorPanel(rng.standard_normal((10, 3)), ["f1", "f2", "f3"], range(10))
            rpath, fpath = tmp_path / "r.csv", tmp_path / "f.csv"
            save_returns_csv(X, rpath)
            save_factors_csv(F, fpath)
        held = []
        load = cli.io.load_returns_csv
        monkeypatch.setattr(
            cli.io, "load_returns_csv", lambda path: held.append(linalg._cap_holders) or load(path)
        )
        result = runner.invoke(
            main, ["analyze", "--returns", str(rpath), "--factors", str(fpath),
                   "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == code, result.output
        assert failure != "nan-cell" or "non-finite value at row 0, column 0" in result.output
        assert held == [1]  # the command's own cap, held from the start
        assert linalg._cap_holders == 0
        assert [get() for _, get in _BLAS_CONTROLS] == caller_blas_threads

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

    @pytest.mark.parametrize("method", list(METHODS))
    def test_zero_rank_is_usage_error(self, runner, tmp_path, method):
        # bh fits no latent model, yet a rank below 1 is refused for it too
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--method", method, "--rank", "0", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "Invalid value for '--rank': 0 is not in the range x>=1." in result.output
        assert not (out / "selection.csv").exists()

    @pytest.mark.parametrize("method", ["yd", "bh"])
    @pytest.mark.parametrize("beta", ["nan", "0", "1", "-inf"])
    def test_beta_outside_the_open_unit_interval_is_usage_error(self, runner, tmp_path, method, beta):
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--method", method, "--beta", beta, "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "every beta must lie strictly between 0 and 1" in result.output
        assert not out.exists()

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

    @pytest.mark.parametrize("method", list(METHODS))
    def test_selection_quotes_ids_as_the_panel_files_do(self, runner, tmp_path, method):
        _, fpath, X, _, _ = self.make_panel_files(tmp_path)
        ids = ["fund A, LP", 'say "hi"', "two\nlines", *X.entity_ids[3:]]
        rpath = tmp_path / "quoted.csv"
        save_returns_csv(a.ReturnPanel(X.values, ids, X.time_index), rpath)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["analyze", "--returns", str(rpath), "--factors", str(fpath),
             "--method", method, "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        with open(out / "selection.csv", newline="") as handle:
            rows = [row for row in csv.reader(handle) if not row[0].startswith("#")]
        assert all(len(row) == 4 for row in rows)
        assert [row[0] for row in rows[1:]] == ids

    @pytest.mark.parametrize(
        "panel, old, new, message",
        [
            ("returns", b"\ne02,", b"\ne01,", "entity id 'e01' appears twice, at positions 0 and 1"),
            ("factors", b",f3\n", b",f1\n", "factor panel name 'f1' appears twice, at positions 0 and 2"),
            ("returns", b"\ne03,", b"\ncaf\xe9,", "returns.csv: line 4 holds the byte 0xe9"),
            # a quoted id longer than the csv module's field size limit
            ("returns", b"\ne03,", b'\n"' + b"x" * 200_000 + b'",',
             "returns.csv: line 4: field larger than field limit (131072)"),
        ],
        ids=["entity-id", "factor-name", "latin-1", "long-field"],
    )
    def test_broken_panel_file_is_usage_error(self, runner, tmp_path, panel, old, new, message):
        rpath, fpath, _, _, _ = self.make_panel_files(tmp_path)
        path = {"returns": rpath, "factors": fpath}[panel]
        data = path.read_bytes()
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, new))
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["analyze", "--returns", str(rpath), "--factors", str(fpath), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()


class TestReplicateTable:
    def test_unknown_table_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["replicate-table", "3", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "'3' is not one of '1', '2', 'figure1'" in result.output
        assert not (tmp_path / "out").exists()  # refused before the output directory is made

    @pytest.mark.parametrize("nu", ["nan", "inf", "-inf", "0.3,nan"])
    def test_non_finite_signal_strength_is_usage_error(self, runner, tmp_path, nu):
        result = runner.invoke(
            main, ["replicate-table", "1", "--nu", nu, "--reps", "2", "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert "nu must be finite and nonnegative" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "nu, message",
        [
            ("0.3,x", "cannot parse nu list '0.3,x'"),
            (" , ", "no nu values given"),
            ("0.2,0.3,0.30", "nu 0.3 is given more than once"),
        ],
        ids=["unparsable", "empty", "repeated"],
    )
    def test_unusable_nu_list_is_usage_error(self, runner, tmp_path, nu, message):
        # a repeated nu would run its block's replications twice
        result = runner.invoke(
            main, ["replicate-table", "1", "--nu", nu, "--reps", "2", "--out", str(tmp_path / "out")]
        )
        assert result.exit_code == 2
        assert message in result.output
        assert not (tmp_path / "out").exists()

    def test_seed_overrides_every_blocks_seed(self, runner, tmp_path):
        tables = {}
        for name, seed in (("seeded", ["--seed", "5"]), ("default", [])):
            result = runner.invoke(
                main,
                ["replicate-table", "1", "--nu", "0.3", "--reps", "2", *seed,
                 "--out", str(tmp_path / name)],
            )
            assert result.exit_code == 0, result.output
            lines = read(tmp_path / name / "table_1.csv").splitlines()[1:]
            tables[name] = [line.split(",") for line in lines]
        scenarios = [
            replace(factory(nu=0.3), seed=5)
            for factory in (a.table1_normal_scenario, a.table1_lognormal_scenario)
        ]
        studies = simulation.run_studies(scenarios, cli._TABLE_METHODS, cli._TABLE_BETAS, 2)
        want = [
            [fmt(r.mean_fdr), fmt(r.sd_fdr), fmt(r.mean_power), fmt(r.sd_power), str(r.replications)]
            for reports, _, _ in studies
            for r in reports
        ]
        assert [row[4:9] for row in tables["seeded"]] == want
        assert [row[:4] for row in tables["seeded"]] == [row[:4] for row in tables["default"]]
        assert [row[4:9] for row in tables["default"]] != want

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

    def test_zero_threads_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["replicate-table", "1", "--reps", "2", "--threads", "0", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert "Invalid value for '--threads': 0 is not in the range x>=1." in result.output
        assert not (tmp_path / "table_1.csv").exists()

    def test_one_pool_per_command(self, runner, tmp_path, monkeypatch):
        pools = []

        def recording(max_workers, **kwargs):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers, **kwargs)

        monkeypatch.setattr(simulation, "ThreadPoolExecutor", recording)
        for threads in ("1", "2"):
            result = runner.invoke(
                main,
                ["replicate-table", "1", "--reps", "3", "--threads", threads,
                 "--out", str(tmp_path / threads)],
            )
            assert result.exit_code == 0, result.output
        assert pools == [1, 2]  # both blocks, normal and lognormal, share one pool
        assert (tmp_path / "2" / "table_1.csv").read_bytes() == (
            tmp_path / "1" / "table_1.csv"
        ).read_bytes()

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


def _package_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(a.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return env


class TestOutputDirectory:
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["simulate", "analyze", "replicate-table"])
    def test_a_file_in_the_way_is_usage_error(self, runner, tmp_path, tiny_scenario, command, under):
        blocker = tmp_path / "F"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        if command == "simulate":
            args = ["simulate", "--scenario", str(tiny_scenario), "--reps", "1"]
        elif command == "analyze":
            rpath, fpath, _, _, _ = TestAnalyze().make_panel_files(tmp_path)
            args = ["analyze", "--returns", str(rpath), "--factors", str(fpath)]
        else:
            args = ["replicate-table", "1", "--reps", "1"]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"cannot use {out} as the output directory" in result.output
        assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)
        assert blocker.read_text() == ""


class TestImport:
    def test_leaves_scipy_unimported(self):
        """Each CLI call imports the package in a fresh process; scipy's own
        import (``scipy.special`` alone about 270 ms, ``scipy.stats`` about a
        second) would be paid by every one."""
        env = _package_env()
        for module in ("alphascreen.cli", "alphascreen"):
            code = (
                f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
            )
            result = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True, capture_output=True,
                text=True, timeout=120,
            )
            assert result.stdout.strip() == "[]", module

    # Loaded only by the study runner: the runner itself, numpy.random for
    # its generators, its thread pool and scipy's filter extension.
    STUDY_MODULES = (
        "alphascreen.simulation", "numpy.random", "concurrent.futures", "alphascreen._sigtools",
    )

    def test_analyze_leaves_the_study_runner_unimported(self, tmp_path):
        # for one panel most of an analyze is start-up, and every module
        # that only the studies run costs each call its import
        sc = a.SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=31)
        returns, factors, _, _ = a.generate_panel(sc, a.simulation.replication_rng(sc.seed, 0))
        save_returns_csv(returns, tmp_path / "returns.csv")
        save_factors_csv(factors, tmp_path / "factors.csv")
        code = (
            "import json, sys\n"
            "from alphascreen.cli import main\n"
            f"for method in {list(METHODS)!r}:\n"
            f"    main(['analyze', '--returns', {str(tmp_path / 'returns.csv')!r},\n"
            f"          '--factors', {str(tmp_path / 'factors.csv')!r}, '--method', method,\n"
            f"          '--out', {str(tmp_path)!r} + '/' + method], standalone_mode=False)\n"
            f"print(json.dumps([m for m in {self.STUDY_MODULES!r} if m in sys.modules]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=_package_env(), check=True, capture_output=True,
            text=True, timeout=120,
        )
        assert all((tmp_path / method / "selection.csv").is_file() for method in METHODS)
        assert json.loads(result.stdout.splitlines()[-1]) == []

    def test_study_commands_import_the_runner_they_run(self, tmp_path, tiny_scenario):
        code = (
            "import json, sys\n"
            "from alphascreen.cli import main\n"
            "before = [m for m in sys.argv[3:] if m in sys.modules]\n"
            "main(['simulate', '--scenario', sys.argv[1], '--reps', '2', '--threads', '2',\n"
            "      '--out', sys.argv[2] + '/simulate'], standalone_mode=False)\n"
            "main(['replicate-table', '1', '--reps', '1', '--out', sys.argv[2] + '/table'],\n"
            "     standalone_mode=False)\n"
            "print(json.dumps([before, [m for m in sys.argv[3:] if m in sys.modules]]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(tiny_scenario), str(tmp_path), *self.STUDY_MODULES],
            env=_package_env(), check=True, capture_output=True, text=True, timeout=120,
        )
        before, after = json.loads(result.stdout.splitlines()[-1])
        assert before == [] and after == list(self.STUDY_MODULES)
        assert {f.name for f in (tmp_path / "simulate").iterdir()} == {
            "report.csv", "replications.csv", "panel_returns.csv", "panel_factors.csv"
        }
        assert len(read(tmp_path / "table" / "table_1.csv").splitlines()) == 1 + 2 * 5 * 3

    def test_a_replication_and_an_analyze_leave_numpy_ma_unimported(self, tmp_path):
        # numpy.ma (about 1.2 MB and 12 ms) loads with np.unique.  The same
        # process must import no scipy module and map one OpenBLAS, numpy's:
        # the triangular solve and the thread cap call numpy's, not scipy's.
        sc = a.SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=31)
        returns, factors, _, _ = a.generate_panel(sc, a.simulation.replication_rng(sc.seed, 0))
        save_returns_csv(returns, tmp_path / "returns.csv")
        save_factors_csv(factors, tmp_path / "factors.csv")
        code = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from alphascreen import simulation as sim\n"
            "from alphascreen.cli import main\n"
            "sc = sim.SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=31)\n"
            "sim._replication_rows(sc, 0, list(sim.METHODS), [0.1])\n"
            f"main(['analyze', '--returns', {str(tmp_path / 'returns.csv')!r},\n"
            f"      '--factors', {str(tmp_path / 'factors.csv')!r}, '--out', {str(tmp_path)!r}],\n"
            "     standalone_mode=False)\n"
            "maps = Path('/proc/self/maps')\n"
            "print(json.dumps({\n"
            "    'numpy.ma': 'numpy.ma' in sys.modules,\n"
            "    'numpy.polynomial': 'numpy.polynomial' in sys.modules,\n"
            "    'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
            "    'mapped': sorted({line.split()[-1] for line in maps.read_text().splitlines()\n"
            "                      if 'libscipy_openblas' in line}) if maps.exists() else None,\n"
            "}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=_package_env(), check=True, capture_output=True,
            text=True, timeout=120,
        )
        assert (tmp_path / "selection.csv").is_file()
        seen = json.loads(result.stdout.splitlines()[-1])
        assert seen["numpy.ma"] is False
        assert seen["numpy.polynomial"] is False  # about 2.3 ms of imports for a root check
        assert seen["scipy"] == []
        if seen["mapped"] is not None:  # /proc/self/maps exists
            numpy_libs = Path(np.__file__).parent.with_name("numpy.libs")
            numpys = [str(p.resolve()) for p in numpy_libs.glob("libscipy_openblas64_*.so*")]
            assert len(numpys) == 1 and [str(Path(m).resolve()) for m in seen["mapped"]] == numpys


    def test_a_garch_arma_replication_imports_no_scipy(self):
        # The ARMA and AR(1) filters call scipy's compiled routine, loaded by
        # path; importing scipy.signal for it took about 1.1 s and 67 MB.
        code = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from alphascreen import simulation as sim\n"
            "sc = sim.SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, temporal_mode='garch_arma',\n"
            "                            seed=31)\n"
            "sim._replication_rows(sc, 0, list(sim.METHODS), [0.1])\n"
            "maps = Path('/proc/self/maps')\n"
            "print(json.dumps({\n"
            "    'scipy': sorted(m for m in sys.modules if m.startswith('scipy')),\n"
            "    'numpy.polynomial': 'numpy.polynomial' in sys.modules,\n"
            "    'mapped': sorted({line.split()[-1] for line in maps.read_text().splitlines()\n"
            "                      if 'libscipy_openblas' in line}) if maps.exists() else None,\n"
            "}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=_package_env(), check=True, capture_output=True,
            text=True, timeout=120,
        )
        seen = json.loads(result.stdout.splitlines()[-1])
        assert seen["scipy"] == []
        assert seen["numpy.polynomial"] is False  # the ARMA components' root checks
        if seen["mapped"] is not None:  # /proc/self/maps exists
            numpy_libs = Path(np.__file__).parent.with_name("numpy.libs")
            numpys = [str(p.resolve()) for p in numpy_libs.glob("libscipy_openblas64_*.so*")]
            assert len(numpys) == 1 and [str(Path(m).resolve()) for m in seen["mapped"]] == numpys


def _openblas_starts_a_worker():
    """On Linux with two CPUs or more, where ``import numpy`` starts a worker
    thread, and with the symbol of numpy's OpenBLAS that stops it."""
    if not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2:
        return False
    numpy_libs = Path(np.__file__).parent.with_name("numpy.libs")
    return any(
        hasattr(ctypes.CDLL(str(path)), "blas_thread_shutdown_")
        for path in numpy_libs.glob("libscipy_openblas64_*.so*")
    )


class TestBlasWorker:
    # A 60x100 simulate in a fresh process, with a probe in place of ``yd``
    # that records the process's threads and OpenBLAS's thread count while
    # each replication runs; the count before and after the command too.
    SIMULATE = (
        "import json, os, sys\n"
        "from alphascreen import linalg, simulation as sim\n"
        "from alphascreen.cli import main\n"
        "def counts():\n"
        "    return [get() for _, get in linalg._BLAS_CONTROLS]\n"
        "seen, yd = [], sim.METHODS['yd']\n"
        "def statistic(fits):\n"
        "    seen.append([len(os.listdir('/proc/self/task')), counts()])\n"
        "    return yd.statistic(fits)\n"
        "sim.METHODS = {**sim.METHODS, 'yd': yd._replace(statistic=statistic)}\n"
        "before = counts()\n"
        "main(['simulate', '--scenario', sys.argv[1], '--method', 'yd', '--reps', '2',\n"
        "      '--threads', '1', '--out', sys.argv[2]], standalone_mode=False)\n"
        "print(json.dumps({'seen': seen, 'before': before, 'after': counts()}))\n"
    )

    @pytest.mark.skipif(
        not _openblas_starts_a_worker(), reason="needs /proc, two CPUs and OpenBLAS's shutdown"
    )
    def test_a_command_runs_with_the_worker_parked(self, tmp_path):
        # The worker busy-waits for about 130 ms after import numpy, taking
        # a core from a 2-thread study; the CLI caps BLAS for the whole
        # command, then parks it, so it is not a third thread here.
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            a.SimulationScenario(n=60, p=100, pi=0.1, nu=0.8, seed=31).to_dict()
        ))
        blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {k: v for k, v in _package_env().items() if k not in blas_vars}
        outputs = []
        for i, extra in enumerate(({}, {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / f"out{i}"
            result = subprocess.run(
                [sys.executable, "-c", self.SIMULATE, str(scenario), str(out)],
                env={**env, **extra}, check=True, capture_output=True, text=True, timeout=120,
            )
            seen = json.loads(result.stdout.splitlines()[-1])
            # the main thread and the pool's one thread, at one BLAS thread
            assert seen["seen"] == [[2, [1]]] * 2, extra
            assert seen["after"] == seen["before"]
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads, parks", [(1, [1]), (2, [])])
    def test_parks_only_while_the_process_has_one_thread(
        self, runner, monkeypatch, threads, parks
    ):
        # another thread may be inside a BLAS call, where stopping the
        # workers is unsafe
        parked = []
        monkeypatch.setattr(cli, "park_blas_workers", lambda: parked.append(linalg._cap_holders))
        monkeypatch.setattr(cli.threading, "active_count", lambda: threads)
        assert runner.invoke(main, ["analyze", "--help"]).exit_code == 0
        assert parked == parks  # under the command's cap


def _has_glibc():
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _unknown_confstr_name(name):
    raise ValueError("unrecognized configuration name")  # as os.confstr off glibc


@pytest.fixture()
def mallopt_calls(monkeypatch):
    """The calls made to a stand-in for libc's ``mallopt``."""
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    return calls


class TestHeapPolicy:
    # 30 rounds of four 1000x200 float64 arrays, allocated, written and
    # freed; prints the minor page faults of a second pass over the rounds.
    # Each array is above glibc's default mmap threshold, and four of them
    # above its default trim threshold, so with glibc's defaults every
    # round faults all its pages back in (about 46,000 in the second pass);
    # with the CLI's policy the first pass leaves them mapped.
    CHURN = (
        "import resource, sys, numpy as np\n"
        "if sys.argv[1] == 'policy':\n"
        "    from alphascreen.cli import _keep_freed_heap_mapped\n"
        "    _keep_freed_heap_mapped()\n"
        "def rounds():\n"
        "    for _ in range(30):\n"
        "        arrays = [np.ones((1000, 200)) for _ in range(4)]\n"
        "        del arrays\n"
        "rounds()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "rounds()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )

    def second_pass_faults(self, policy):
        env = _package_env()
        result = subprocess.run(
            [sys.executable, "-c", self.CHURN, policy], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        return int(result.stdout)

    # Two threads allocate and free heap memory, then glibc's malloc_stats
    # prints one "Arena k:" line per arena to standard error.
    THREADS = (
        "import ctypes, sys, threading, numpy as np\n"
        "if sys.argv[1] == 'policy':\n"
        "    from alphascreen.cli import _keep_freed_heap_mapped\n"
        "    _keep_freed_heap_mapped()\n"
        "def work():\n"
        "    for _ in range(20):\n"
        "        np.ones((1000, 200)).sum()\n"
        "threads = [threading.Thread(target=work) for _ in range(2)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "ctypes.CDLL(None).malloc_stats()\n"
    )

    def arenas(self, policy):
        result = subprocess.run(
            [sys.executable, "-c", self.THREADS, policy], env=_package_env(), check=True,
            capture_output=True, text=True, timeout=120,
        )
        return sum(line.startswith("Arena ") for line in result.stderr.splitlines())

    @pytest.mark.skipif(not _has_glibc(), reason="the policy is set only under glibc")
    def test_threads_share_the_main_arena(self):
        assert self.arenas("defaults") > 1  # a thread gets an arena of its own
        assert self.arenas("policy") == 1

    @pytest.mark.skipif(not _has_glibc(), reason="the policy is set only under glibc")
    def test_freed_arrays_stay_mapped(self):
        assert self.second_pass_faults("defaults") > 10_000  # the churn the policy removes
        assert self.second_pass_faults("policy") < 1_000

    def test_sets_both_thresholds_under_glibc(self, monkeypatch, mallopt_calls):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        cli._keep_freed_heap_mapped()
        assert mallopt_calls == [(-3, 32 << 20), (-1, 128 << 20), (-8, 1)]  # and one arena

    @pytest.mark.parametrize(
        "confstr",
        [lambda name: "musl 1.2", lambda name: None, _unknown_confstr_name],
        ids=["other-libc", "unset", "unknown-name"],
    )
    def test_no_op_without_glibc(self, monkeypatch, mallopt_calls, confstr):
        monkeypatch.setattr(os, "confstr", confstr)
        cli._keep_freed_heap_mapped()
        assert mallopt_calls == []

    @pytest.mark.parametrize("failure", ["missing-mallopt", "load-error"])
    def test_no_op_without_mallopt(self, monkeypatch, failure):
        def cdll(name):
            if failure == "load-error":
                raise OSError("cannot load")
            return SimpleNamespace()

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        cli._keep_freed_heap_mapped()  # raises nothing

    @pytest.mark.parametrize("command", sorted(main.commands))
    def test_every_subcommand_applies_it(self, runner, monkeypatch, command):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_heap_mapped", lambda: calls.append(command))
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        assert calls == [command]
