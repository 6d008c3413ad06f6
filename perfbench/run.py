#!/usr/bin/env python3
"""alphascreen benchmark: study throughput, analyze latency, set-up and memory.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see perfbench/README.md for why each exists and which layer
metric should move which end-to-end metric):

``replicate-table1``
    ``alphascreen replicate-table 1 --nu 0.3`` at ``--threads 1`` and 2.
``simulate-garch``
    ``alphascreen simulate --scenario scenarios/table2_garch_arma_nu03.json
    --method yd_r`` at ``--threads 1`` and 2.  Runnable, but not listed in
    BENCHMARK.json: its 2-worker rate is too unsteady to hold a bound.
``analyze-csv``
    ``alphascreen analyze`` once per method on one seeded 1000 x 200 CSV
    panel, each call in its own fresh process, one at a time.

Every CLI command runs in a fresh interpreter through ``perfbench/child.py``
with the inherited environment: BLAS thread variables are recorded, never
set.  With ``--trace 0`` the run alternates the CLI commands of its
workload for ``--seconds`` and reports medians of the end-to-end metrics.  With
``--trace 1`` it runs ``perfbench/trace.py`` twice, once with the inherited
environment and once labelled ``blas1.`` with one BLAS thread, and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
exits with code 1 when an output check or an operation fails and with
code 2 when the program cannot be run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
TRACE = HERE / "trace.py"
REFERENCE = HERE / "reference.json"
GARCH_SCENARIO = ROOT / "scenarios" / "table2_garch_arma_nu03.json"
PANEL_SCENARIO = ROOT / "scenarios" / "table1_normal_nu03.json"

WORKLOADS = ("replicate-table1", "simulate-garch", "analyze-csv")
DEFAULT_SEED = 1
METHODS = ("yd", "yd_r", "yd_th", "bh", "sbh", "sn")
BETAS_PER_REP = 3  # rows per replication and method in replications.csv
TABLE1_BLOCKS = ("1-normal", "1-lognormal")
TABLE1_METHODS = 5
# Replications per CLI command: fixed, so every run measures the same unit
# of work; the number of commands, not the size of one, fills --seconds.
# reference.json holds the outputs of one such command at DEFAULT_SEED.
STUDY_REPS = {"replicate-table1": 6, "simulate-garch": 40}
SMOKE_REPS = {"replicate-table1": 1, "simulate-garch": 3}
SMOKE_SIZE = (60, 100)  # periods x entities
MIN_PER_KIND = 2
CHILD_TIMEOUT_S = 90  # a hung helper must not push a run past 180 s
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class HarnessError(Exception):
    """The benchmark itself could not run (missing sources, crashed helper)."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit() -> str:
    """Commit of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "scenario_sha256": {p.name: sha256_file(p) for p in (GARCH_SCENARIO, PANEL_SCENARIO)},
    }


def start_child(work: Path, tag: str, script: Path, argv: list[str], env=None):
    """Start ``script RESULT ARGV...`` in a fresh interpreter; output goes to files in ``work``."""
    result = work / f"{tag}.json"
    with open(work / f"{tag}.out", "wb") as stdout, open(work / f"{tag}.err", "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(script), str(result), *argv],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, env=env,
        )
    return proc, result


def finish_child(work: Path, tag: str, proc, result: Path) -> dict:
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise HarnessError(f"{tag}: helper timed out") from None
    if not result.is_file():
        err = (work / f"{tag}.err").read_text(errors="replace").strip().splitlines()
        raise HarnessError(f"{tag}: helper exited {proc.returncode}: {err[-1] if err else ''}")
    return json.loads(result.read_text())


def run_cli(work: Path, tag: str, cli_args: list[str], provenance: bool = False) -> dict:
    argv = ["cli", *(["--provenance"] if provenance else []), *cli_args]
    proc, result = start_child(work, tag, CHILD, argv)
    return finish_child(work, tag, proc, result)


def warm_up(work: Path, commands: list[list[str]], errors: list[str]) -> dict:
    """Untimed commands before timing; returns the provenance the first one records.

    The first BLAS-threaded call after the machine has been idle runs up to
    three times slower than the next ones, so it is kept out of the samples.
    At full size the warm-up runs at DEFAULT_SEED, whatever ``--seed`` is, so
    that every run compares its outputs with reference.json.
    """
    provenance = None
    for i, cli_args in enumerate(commands):
        record = run_cli(work, f"warmup{i}", cli_args, provenance=provenance is None)
        if record["exit_code"] != 0:
            errors.append(f"warm-up command {i} exited {record['exit_code']}")
        provenance = provenance or record.get("provenance")
    return provenance


def alternate(kinds, deadline: float, last_s: dict):
    """Yield ``(step, kind)``, cycling through ``kinds``, while the next step fits.

    A step is expected to last as long as the previous step of its kind
    (``last_s``, filled in by the caller); the loop stops at the first step
    that would end after ``deadline``, once every kind has run MIN_PER_KIND times.
    """
    for step in itertools.count():
        kind = kinds[step % len(kinds)]
        if step >= MIN_PER_KIND * len(kinds) and time.perf_counter() + last_s[kind] > deadline:
            return
        yield step, kind


def load_reference(workload: str) -> dict:
    """Outputs recorded at DEFAULT_SEED and full size when the benchmark was added."""
    return json.loads(REFERENCE.read_text())[workload]


# --- study workloads ---------------------------------------------------------


def study_args(workload: str, seed: int, reps: int, threads: int, out: Path, scenario: Path) -> list[str]:
    common = ["--reps", str(reps), "--seed", str(seed), "--threads", str(threads), "--out", str(out)]
    if workload == "replicate-table1":
        return ["replicate-table", "1", "--nu", "0.3", *common]
    return ["simulate", "--scenario", str(scenario), "--method", "yd_r", *common]


def study_outputs(workload: str) -> tuple[str, ...]:
    if workload == "replicate-table1":
        return ("table_1.csv",)
    return ("report.csv", "replications.csv", "panel_returns.csv", "panel_factors.csv")


def completed_replications(workload: str, out: Path, reps: int) -> int:
    """Replications whose rows are all present in the study's output."""
    if workload == "replicate-table1":
        path = out / "table_1.csv"
        if not path.is_file():
            return 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        done = 0
        for block in TABLE1_BLOCKS:
            counts = [int(r[8]) for r in rows if r[0] == block]
            if len(counts) == TABLE1_METHODS * BETAS_PER_REP:
                done += min(counts)
        return done
    path = out / "replications.csv"
    if not path.is_file():
        return 0
    per_rep: dict = {}
    for line in path.read_text().splitlines()[1:]:
        rep = int(line.split(",")[2])
        per_rep[rep] = per_rep.get(rep, 0) + 1
    return sum(1 for rep in range(reps) if per_rep.get(rep) == BETAS_PER_REP)


def reference_rows(workload: str, out: Path) -> dict:
    if workload == "replicate-table1":
        return {"table_1.csv": (out / "table_1.csv").read_text().splitlines()}
    return {name: (out / name).read_text().splitlines() for name in ("report.csv", "replications.csv")}


def scenario_file(workload: str, work: Path, smoke: bool) -> Path:
    if not smoke:
        return GARCH_SCENARIO
    payload = json.loads(GARCH_SCENARIO.read_text())
    payload["n"], payload["p"] = SMOKE_SIZE
    path = work / "smoke_scenario.json"
    path.write_text(json.dumps(payload))
    return path


def measure_study(args, work: Path, errors: list[str]) -> tuple[dict, dict]:
    workload, seed = args.workload, args.seed
    reps = (SMOKE_REPS if args.smoke else STUDY_REPS)[workload]
    attempted_per_cmd = reps * (len(TABLE1_BLOCKS) if workload == "replicate-table1" else 1)
    scenario = scenario_file(workload, work, args.smoke)
    rates = {1: [], 2: []}
    imports, rss, digests = [], [], None
    attempted = failed = 0
    warm = work / "warmup"
    if args.smoke:
        provenance = warm_up(work, [study_args(workload, seed, 1, 1, warm, scenario)], errors)
    else:
        provenance = warm_up(work, [study_args(workload, DEFAULT_SEED, reps, 1, warm, scenario)], errors)
        if not errors and reference_rows(workload, warm) != load_reference(workload)["rows"]:
            errors.append(f"study rows at seed {DEFAULT_SEED} differ from reference.json")
    last_s: dict = {}
    for step, threads in alternate((1, 2), time.perf_counter() + args.seconds, last_s):
        started = time.perf_counter()
        tag = f"c{step}-w{threads}"
        out = work / tag
        record = run_cli(work, tag, study_args(workload, seed, reps, threads, out, scenario))
        last_s[threads] = time.perf_counter() - started
        done = completed_replications(workload, out, reps) if record["exit_code"] == 0 else 0
        attempted += attempted_per_cmd
        failed += attempted_per_cmd - done
        if done:
            rates[threads].append(done / record["main_s"])
        imports.append(record["import_s"])
        rss.append(record["peak_rss_kb"])
        if record["exit_code"] != 0:
            continue
        got = {name: sha256_file(out / name) for name in study_outputs(workload)}
        digests = digests or got
        for name in got:
            if got[name] != digests[name]:
                errors.append(f"{tag}: {name} differs from c0-w1 (byte-identity across workers)")
    if not all(rates.values()):
        errors.append("no command completed a replication")
        rates = {1: [float("nan")], 2: [float("nan")]}
    named = {
        "setup_s": (statistics.median(imports), "s", f"median of {len(imports)} fresh imports of alphascreen.cli"),
        "reps_per_s_w1": (statistics.median(rates[1]), "rep/s", f"median of {len(rates[1])} commands, {attempted_per_cmd} replications each"),
        "reps_per_s_w2": (statistics.median(rates[2]), "rep/s", f"median of {len(rates[2])} commands, {attempted_per_cmd} replications each"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB", f"max over {len(rss)} processes"),
        "fail_frac": (failed / attempted, "ratio", f"{failed} of {attempted} replications"),
    }
    metrics = {
        "setup_s": named["setup_s"][:2],
        "ops_per_s_w1": (named["reps_per_s_w1"][0], "op/s"),
        "ops_per_s_w2": (named["reps_per_s_w2"][0], "op/s"),
        "peak_rss_mb": named["peak_rss_mb"][:2],
    }
    report = {
        "named": named,
        "samples": {"rates_w1": rates[1], "rates_w2": rates[2], "import_s": imports, "peak_rss_kb": rss},
        "provenance": provenance,
        "reps_per_command": attempted_per_cmd,
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed}, report


# --- analyze workload ----------------------------------------------------------


def selected_ids(path: Path) -> list[str]:
    ids = []
    for line in path.read_text().splitlines()[1:]:
        if line.startswith("#"):
            continue
        cells = line.split(",")
        if cells[-1] == "1":
            ids.append(cells[0])
    return ids


def analyze_args(panel: Path, method: str, out: Path) -> list[str]:
    return [
        "analyze", "--returns", str(panel / "returns.csv"), "--factors", str(panel / "factors.csv"),
        "--method", method, "--beta", "0.1", "--out", str(out),
    ]


def write_panels(work: Path, seeds: set[int], smoke: bool) -> dict:
    """Write the CSV panel of each seed; returns seed -> directory."""
    n, p = SMOKE_SIZE if smoke else (0, 0)
    argv = ["panel", str(PANEL_SCENARIO), str(n), str(p), str(work / "panel"), *map(str, seeds)]
    proc, result = start_child(work, "panel", CHILD, argv)
    finish_child(work, "panel", proc, result)
    return {seed: work / "panel" / f"seed{seed}" for seed in seeds}


def measure_analyze(args, work: Path, errors: list[str]) -> tuple[dict, dict]:
    seed = args.seed
    panels = write_panels(work, {seed} if args.smoke else {seed, DEFAULT_SEED}, args.smoke)
    panel = panels[seed]
    expected: dict = {}
    call_s: dict = {m: [] for m in METHODS}
    imports, rss = [], []
    attempted = failed = 0
    if args.smoke:
        provenance = warm_up(work, [analyze_args(panel, METHODS[0], work / "warmup")], errors)
    else:
        warm = {m: work / f"warmup-{m}" for m in METHODS}
        provenance = warm_up(work, [analyze_args(panels[DEFAULT_SEED], m, out) for m, out in warm.items()], errors)
        if not errors and {m: selected_ids(out / "selection.csv") for m, out in warm.items()} != load_reference("analyze-csv")["selected"]:
            errors.append(f"analyze decisions at seed {DEFAULT_SEED} differ from reference.json")

    last_s: dict = {}
    for step, kind in alternate(("cycle",), time.perf_counter() + args.seconds, last_s):
        started = time.perf_counter()
        for method in METHODS:
            tag = f"c{step}-{method}"
            record = run_cli(work, tag, analyze_args(panel, method, work / tag))
            imports.append(record["import_s"])
            rss.append(record["peak_rss_kb"])
            attempted += 1
            if record["exit_code"] != 0:
                failed += 1
                continue
            call_s[method].append(record["main_s"])
            ids = selected_ids(work / tag / "selection.csv")
            expected.setdefault(method, ids)
            if ids != expected[method]:
                errors.append(f"{tag}: {method} decisions differ from the first call")
        last_s[kind] = time.perf_counter() - started
    # A cycle is the sum over the methods of each method's median call time.
    # analyze has no worker count, so both throughput metrics are 6 / cycle.
    if not all(call_s.values()):
        errors.append("some method never completed an analyze call")
        call_s = {m: [float("nan")] for m in METHODS}
    cycle_s = sum(statistics.median(times) for times in call_s.values())
    named = {
        "setup_s": (statistics.median(imports), "s", f"median of {len(imports)} fresh imports of alphascreen.cli"),
        "analyze_cycle_s": (cycle_s, "s", f"sum of per-method medians, {len(call_s[METHODS[0]])} calls per method"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB", f"max over {len(rss)} processes"),
        "fail_frac": (failed / attempted, "ratio", f"{failed} of {attempted} analyze calls"),
    }
    metrics = {
        "setup_s": named["setup_s"][:2],
        "ops_per_s_w1": (len(METHODS) / cycle_s, "op/s"),
        "ops_per_s_w2": (len(METHODS) / cycle_s, "op/s"),
        "peak_rss_mb": named["peak_rss_mb"][:2],
    }
    report = {
        "named": named,
        "samples": {"call_s": call_s, "import_s": imports, "peak_rss_kb": rss},
        "provenance": provenance,
        "selected_counts": {m: len(ids) for m, ids in expected.items()},
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed}, report


# --- traced run ------------------------------------------------------------------


def measure_trace(args, work: Path, errors: list[str]) -> tuple[dict, dict]:
    passes = (("", None), ("blas1.", {**os.environ, **BLAS_ONE_THREAD}))
    metrics: dict = {}
    report: dict = {"passes": {}, "named": {}}
    attempted = failed = 0
    for label, env in passes:
        tag = f"trace-{label or 'inherited'}".rstrip(".")
        argv = [str(args.seed), str(work / tag), *(["--smoke"] if args.smoke else [])]
        proc, result = start_child(work, tag, TRACE, argv, env=env)
        record = finish_child(work, tag, proc, result)
        attempted += record["attempted"]
        failed += record["failed"]
        errors.extend(f"{tag}: {message}" for message in record["errors"])
        for name, (value, unit) in record["metrics"].items():
            if name in record["counts"]:
                if label:
                    continue  # computed counts do not depend on BLAS threads
                note = "computed"
            else:
                note = f"{record['samples'][name]} samples"
            metrics[label + name] = (value, unit)
            report["named"][label + name] = (value, unit, note)
        report["passes"][tag] = {k: record[k] for k in ("samples", "counts", "spans_file", "provenance")}
    report["provenance"] = report["passes"]["trace-inherited"]["provenance"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed}, report


# --- entry point -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced size (60 x 100 panels) for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "alphascreen" / "cli.py").is_file():
        print(f"alphascreen sources not found under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    errors: list[str] = []
    started = time.perf_counter()
    try:
        if args.trace:
            result, report = measure_trace(args, work, errors)
        elif args.workload == "analyze-csv":
            result, report = measure_analyze(args, work, errors)
        else:
            result, report = measure_study(args, work, errors)
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if result["failed"]:
        errors.append(f"{result['failed']} of {result['attempted']} operations failed")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "elapsed_s": time.perf_counter() - started,
        "machine": machine_provenance(args.seed),
        "errors": errors,
        **report,
        "metrics": result["metrics"],
    }
    (work / "record.json").write_text(json.dumps(record, indent=1, default=str))

    prov = {**record["machine"], **(report["provenance"] or {})}
    print("provenance: " + ", ".join(
        f"{key}={prov.get(key)}"
        for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_env_inherited", "pool_start_method", "git_commit", "seed")
    ))
    for name, (value, unit, note) in report["named"].items():
        print(f"{name} {value:.6g} {unit} ({note})")
    for message in errors:
        print(f"CHECK FAILED: {message}")
    print(f"record written to {work / 'record.json'}")
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
