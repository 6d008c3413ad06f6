"""Traced pass of the alphascreen benchmark: per-layer timings from spans.

Usage: python3 perfbench/trace.py RESULT SEED WORKDIR [--smoke]

Times the public calls into each module of ``src/alphascreen/`` from the
outside.  Every call is wrapped in a span (id, name, start, end, parent,
trace id); spans are kept in memory and written to WORKDIR/spans.json when
the pass ends.  A per-layer metric is the median duration of the spans of
one name.  The pass:

1. imports ``alphascreen.cli`` (``cli.import``) and builds the SN limit
   table on its first use in this fresh process (``baselines.sn_table_build``,
   one cold sample);
2. replays replications of both study workloads the way the study runner
   does, with one trace per replication: ``generate_panel`` on
   ``replication_rng(seed, k)``, then each method's statistic, and for each
   level its decision and ``fdp_power``.  The rows must equal the rows of
   ``run_study_detailed`` on the same replications, run untraced, whose rate
   is the untraced side of the tracing overhead;
3. probes the estimation, linear-algebra, generation and CSV calls that the
   replications make only inside the library;
4. runs ``alphascreen.cli.main(["analyze", ...])`` in-process once per
   method (the SN table is warm by then);
5. compares a 2-worker study with a serial one on 2 replications of a
   60 x 100 panel (``simulation.pool_overhead``).

The result file holds the metrics, the sample count of each, the computed
counts, the attempted/failed operation counts and any failed check.
"""

from __future__ import annotations

import contextlib
import io as _io
import itertools
import json
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from child import provenance

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("yd", "yd_r", "yd_th", "bh", "sbh", "sn")
SPLIT_METHODS = ("yd", "yd_r", "yd_th")
BETAS = (0.05, 0.10, 0.15)
SN_PATHS = 10_000  # library default number of Monte-Carlo paths
SN_GRID = 1_000  # grid points per path of the SN limit table
FLOAT64_BYTES = 8
FULL = {"table_reps": 6, "garch_reps": 12, "probe_reps": 5, "io_reps": 3, "pool_reps": 3}
SMOKE = {"table_reps": 2, "garch_reps": 2, "probe_reps": 2, "io_reps": 1, "pool_reps": 1}
SMOKE_SIZE = {"n": 60, "p": 100}
POOL_SIZE = {"n": 60, "p": 100}


class Tracer:
    """In-memory spans; a root span starts a new trace, children inherit it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": parent["trace"] if parent else span_id,
            "start": time.perf_counter(),
        }
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    def durations_ms(self, name: str) -> list[float]:
        return [1000.0 * (s["end"] - s["start"]) for s in self.spans if s["name"] == name]

    def nesting_errors(self) -> list[str]:
        by_id = {s["id"]: s for s in self.spans}
        errors = []
        for s in self.spans:
            if s["parent"] is None:
                continue
            p = by_id[s["parent"]]
            if not (p["start"] <= s["start"] <= s["end"] <= p["end"] and p["trace"] == s["trace"]):
                errors.append(f"span {s['id']} ({s['name']}) does not nest in {p['id']} ({p['name']})")
        if not any(s["parent"] is not None for s in self.spans):
            errors.append("no span has a parent")
        return errors


def quantile(values: list[float], q: int) -> float:
    """q-th percentile by the inclusive method; the median for q = 50."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str]) -> None:
    result_path, seed, workdir = Path(argv[0]), int(argv[1]), Path(argv[2])
    sizes = SMOKE if "--smoke" in argv[3:] else FULL
    panel_size = SMOKE_SIZE if "--smoke" in argv[3:] else {}
    workdir.mkdir(parents=True, exist_ok=True)
    tr = Tracer()
    errors: list[str] = []
    attempted = failed = 0

    sys.path.insert(0, str(ROOT / "src"))
    with tr.span("cli.import"):
        from alphascreen import cli
    import numpy as np

    from alphascreen import (
        NegativeControlConfig,
        ReturnPanel,
        SimulationScenario,
        arma_mixture_errors,
        bh_procedure,
        bh_statistics,
        chronological_split,
        demean_columns,
        estimate_alpha,
        estimate_latent,
        fdp_power,
        garch_factors,
        generate_panel,
        least_squares,
        load_factors_csv,
        load_returns_csv,
        long_run_variance,
        regress_out_observed,
        run_study_detailed,
        save_factors_csv,
        save_returns_csv,
        sbh_statistics,
        select_threshold,
        sn_statistics,
        split_statistics,
        table1_lognormal_scenario,
        table1_normal_scenario,
    )
    from alphascreen.baselines import sn_pvalues
    from alphascreen.simulation import replication_rng

    # 1. Cold SN table: the first SN call of this process builds it.
    with tr.span("baselines.sn_table_build"):
        sn_pvalues(np.zeros(1), mc_paths=SN_PATHS)

    normal = replace(table1_normal_scenario(nu=0.3, seed=seed), **panel_size)
    lognormal = replace(table1_lognormal_scenario(nu=0.3, seed=seed), **panel_size)
    garch_payload = json.loads((ROOT / "scenarios" / "table2_garch_arma_nu03.json").read_text())
    garch = replace(SimulationScenario.from_dict(garch_payload), seed=seed, **panel_size)

    statistic = {
        "bh": bh_statistics,
        "sbh": sbh_statistics,
        "sn": lambda x, f: sn_statistics(x, f, mc_paths=SN_PATHS),
    }

    def traced_replication(study: str, scenario, rep: int, methods) -> list[tuple]:
        rows = []
        with tr.span(f"simulation.replication.{study}"):
            with tr.span(f"simulation.generate_panel.{scenario.temporal_mode}"):
                returns, factors, truth, _ = generate_panel(scenario, replication_rng(scenario.seed, rep))
            p = returns.n_entities
            for method in methods:
                if method in SPLIT_METHODS:
                    control = NegativeControlConfig(mode="threshold_rule") if method == "yd_th" else None
                    with tr.span(f"fdr.split_statistics.{method}"):
                        stats = split_statistics(
                            returns, factors, studentize=(method == "yd_r"), negative_control=control
                        )
                    decision = ("fdr.select_threshold", lambda beta: select_threshold(stats.t_prod, beta)[1])
                else:
                    with tr.span(f"baselines.{method}_statistics"):
                        pv = statistic[method](returns, factors)
                    decision = ("baselines.bh_procedure", lambda beta: bh_procedure(pv.p_values, beta))
                for beta in BETAS:
                    with tr.span(decision[0]):
                        rejected = decision[1](beta)
                    with tr.span("fdr.fdp_power"):
                        m = fdp_power(rejected, truth, p)
                    rows.append((method, beta, rep, m.fdp, m.power))
        return rows

    # 2. Replications of both studies, traced and untraced.
    studies = {
        "replicate-table1": ((normal, lognormal), ("yd", "yd_r", "sbh", "sn", "bh"), sizes["table_reps"]),
        "simulate-garch": ((garch,), ("yd_r",), sizes["garch_reps"]),
    }
    rates: dict = {}
    for study, (scenarios, methods, reps) in studies.items():
        traced_s = untraced_s = 0.0
        done = 0
        for scenario in scenarios:
            t0 = time.perf_counter()
            traced = []
            for rep in range(reps):
                attempted += 1
                try:
                    traced.extend(traced_replication(study, scenario, rep, methods))
                    done += 1
                except Exception as exc:  # noqa: BLE001 - one failed replication is counted, not fatal
                    failed += 1
                    errors.append(f"{study} replication {rep} failed: {exc!r}")
            t1 = time.perf_counter()
            _, detail, failures = run_study_detailed(scenario, methods, BETAS, reps, parallelism=1)
            t2 = time.perf_counter()
            traced_s += t1 - t0
            untraced_s += t2 - t1
            if failures or detail != traced:
                errors.append(f"{study}: traced rows differ from run_study_detailed rows ({scenario.temporal_mode})")
        rates[study] = (done / traced_s, reps * len(scenarios) / untraced_s)

    # 3. Probes of calls made only inside the library.
    x, f, _, _ = generate_panel(normal, replication_rng(seed, 0))
    first_half = chronological_split(x, f)[0]
    gx, gf, _, _ = generate_panel(garch, replication_rng(seed, 0))
    garch_half_fit = estimate_alpha(*chronological_split(gx, gf)[0])
    fd = demean_columns(f.values)
    for k in range(sizes["probe_reps"]):
        with tr.span("estimation.regress_out_observed"):
            _, adjusted = regress_out_observed(x, f)
        with tr.span("estimation.estimate_latent"):
            estimate_latent(adjusted)
        with tr.span("linalg.least_squares"):
            least_squares(fd, x.values.T)
        with tr.span("estimation.estimate_alpha.full"):
            estimate_alpha(x, f)
        with tr.span("estimation.estimate_alpha.half"):
            estimate_alpha(*first_half)
        with tr.span("estimation.long_run_variance"):
            long_run_variance(garch_half_fit.residuals)
        with tr.span("fdr.split_statistics.yd_th"):
            split_statistics(x, f, negative_control=NegativeControlConfig(mode="threshold_rule"))
        rng = replication_rng(seed, k)
        with tr.span("simulation.garch_factors"):
            garch_factors(garch.n, garch.r_total, garch.garch_params, garch.factor_cov, rng)
        with tr.span("simulation.arma_mixture_errors"):
            arma_mixture_errors(garch.n, garch.p, garch.arma_mixture, rng=rng)

    returns_csv = workdir / "returns.csv"
    factors_csv = workdir / "factors.csv"
    save_factors_csv(f, factors_csv)
    for _ in range(sizes["io_reps"]):
        with tr.span("io.save_returns_csv"):
            save_returns_csv(x, returns_csv)
        with tr.span("io.load_returns_csv"):
            loaded = load_returns_csv(returns_csv)
        with tr.span("io.load_factors_csv"):
            load_factors_csv(factors_csv)
        with tr.span("panels.ReturnPanel"):
            ReturnPanel(loaded.values, loaded.entity_ids, loaded.time_index)
        if not np.array_equal(loaded.values, x.values):
            errors.append("returns CSV does not round-trip")

    # 4. The analyze command, in-process, once per method.
    for method in METHODS:
        attempted += 1
        out = workdir / f"analyze-{method}"
        try:
            with tr.span(f"cli.analyze.{method}"), contextlib.redirect_stdout(_io.StringIO()):
                cli.main(
                    ["analyze", "--returns", str(returns_csv), "--factors", str(factors_csv),
                     "--method", method, "--beta", "0.1", "--out", str(out)],
                    standalone_mode=False,
                )
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            failed += 1
            errors.append(f"analyze {method} failed: {exc!r}")

    # 5. Pool overhead on a study too small to gain from two workers.
    tiny = replace(normal, **POOL_SIZE)
    overheads = []
    for _ in range(sizes["pool_reps"]):
        with tr.span("simulation.run_study.serial") as serial:
            run_study_detailed(tiny, ["yd"], [0.1], 2, parallelism=1)
        with tr.span("simulation.run_study.pool2") as pooled:
            run_study_detailed(tiny, ["yd"], [0.1], 2, parallelism=2)
        overheads.append(1000.0 * ((pooled["end"] - pooled["start"]) - (serial["end"] - serial["start"])))

    errors.extend(tr.nesting_errors())

    timed = [
        "cli.import",
        "baselines.sn_table_build",
        "simulation.generate_panel.iid_normal",
        "simulation.generate_panel.iid_lognormal",
        "simulation.generate_panel.garch_arma",
        "simulation.garch_factors",
        "simulation.arma_mixture_errors",
        "estimation.regress_out_observed",
        "estimation.estimate_latent",
        "estimation.estimate_alpha.full",
        "estimation.estimate_alpha.half",
        "linalg.least_squares",
        "estimation.long_run_variance",
        *(f"fdr.split_statistics.{m}" for m in SPLIT_METHODS),
        "fdr.select_threshold",
        "fdr.fdp_power",
        *(f"baselines.{m}_statistics" for m in ("bh", "sbh", "sn")),
        "baselines.bh_procedure",
        "io.load_returns_csv",
        "io.load_factors_csv",
        "panels.ReturnPanel",
        "io.save_returns_csv",
        *(f"cli.analyze.{m}" for m in METHODS),
    ]
    metrics: dict = {}
    samples: dict = {}
    for name in timed:
        values = tr.durations_ms(name)
        metrics[f"{name}_ms"] = (statistics.median(values), "ms")
        samples[f"{name}_ms"] = len(values)
    metrics["simulation.pool_overhead_ms"] = (statistics.median(overheads), "ms")
    samples["simulation.pool_overhead_ms"] = len(overheads)
    for study in studies:
        values = tr.durations_ms(f"simulation.replication.{study}")
        for q in (50, 90):
            metrics[f"simulation.replication.{study}.p{q}_ms"] = (quantile(values, q), "ms")
            samples[f"simulation.replication.{study}.p{q}_ms"] = len(values)
        for side, rate in zip(("traced", "untraced"), rates[study]):
            metrics[f"simulation.reps_per_s_w1.{study}.{side}"] = (rate, "rep/s")
            samples[f"simulation.reps_per_s_w1.{study}.{side}"] = len(values)

    # Computed counts: exact, derived from sizes, not measured.
    n, p = x.n_periods, x.n_entities
    counts = {
        "io.returns_csv_bytes": (returns_csv.stat().st_size, "B"),
        "baselines.sn_table_draws": (SN_PATHS * SN_GRID, "draw"),
        "baselines.sn_table_temp_bytes": (SN_PATHS * SN_GRID * FLOAT64_BYTES, "B"),
        "estimation.gram_flops.full": (n * n * p, "flop"),
        "estimation.gram_flops.half": ((n // 2) ** 2 * p, "flop"),
    }
    metrics.update(counts)

    spans_file = workdir / "spans.json"
    spans_file.write_text(json.dumps(tr.spans))
    result_path.write_text(json.dumps({
        "metrics": metrics,
        "samples": samples,
        "counts": sorted(counts),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "spans_file": str(spans_file),
        "provenance": provenance(),
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
