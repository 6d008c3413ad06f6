"""Tests of the benchmark itself, at smoke size (60 x 100 panels).

Run with ``python3 -m pytest perfbench``; they take about a minute on two cores.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and UNIT.match(metric["unit"])
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"]) for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", ["replicate-table1", "simulate-garch", "analyze-csv"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_and_spans_nest():
    proc = run_bench("simulate-garch", 1)
    result = result_of(proc)
    assert result["correct"], proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    spans_files = sorted((ROOT / ".perfbench_out" / "simulate-garch-seed7-trace1-smoke").glob("trace-*/spans.json"))
    assert len(spans_files) == 2
    spans = json.loads(spans_files[0].read_text())
    assert max(s["id"] for s in spans) + 1 == len(spans)
    assert any(s["parent"] is not None for s in spans)


def test_same_seed_gives_same_outputs():
    first = run_bench("simulate-garch", 0, seed=8)
    out = ROOT / ".perfbench_out" / "simulate-garch-seed8-trace0-smoke" / "c0-w1" / "replications.csv"
    rows = out.read_text()
    second = run_bench("simulate-garch", 0, seed=8)
    assert result_of(first)["correct"] and result_of(second)["correct"]
    assert out.read_text() == rows


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("analyze-csv", 0, cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_exception_in_the_program_is_a_failed_call(tmp_path, monkeypatch):
    import child

    def crashing_main(args, prog_name):
        raise ArithmeticError("not a click error")

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "alphascreen.cli", types.SimpleNamespace(main=crashing_main))
    result = tmp_path / "call.json"
    child.run_cli(result, ["analyze"])
    assert json.loads(result.read_text())["exit_code"] == 1
