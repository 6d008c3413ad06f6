"""Command-line interface: simulate studies, analyze panels, replicate tables.

Exit codes follow the usual discipline: 0 on success, 1 on runtime
failure, 2 on configuration or usage errors.  Every option can also be
supplied through an ``ALPHASCREEN_``-prefixed environment variable.

The study commands import the study runner (:mod:`.simulation`, with
``numpy.random`` and a thread pool) when they run, so that ``analyze``
loads neither.
"""

from __future__ import annotations

import ctypes
import json
import os
import threading
from dataclasses import astuple, replace
from pathlib import Path

import click
import numpy as np

from . import io
from .errors import AlignmentError, AlphascreenError
from .estimation import PanelFits
from .linalg import one_blas_thread, park_blas_workers
from .methods import METHODS
from .panels import check_aligned

# Reference values for the comparison column of the replicate command:
# (fdr@5%, fdr@10%, fdr@15%, power@5%, power@10%, power@15%) per method.
_REFERENCE = {
    ("1-normal", 0.2, "sbh"): (7.05, 13.29, 19.09, 56.72, 68.19, 74.63),
    ("1-normal", 0.2, "sn"): (7.28, 12.61, 17.97, 15.14, 26.23, 35.62),
    ("1-normal", 0.2, "yd"): (3.81, 8.70, 13.45, 39.29, 56.32, 64.87),
    ("1-normal", 0.3, "sbh"): (7.42, 13.73, 19.97, 96.67, 98.12, 98.77),
    ("1-normal", 0.3, "sn"): (6.26, 12.03, 17.78, 58.67, 71.87, 79.75),
    ("1-normal", 0.3, "yd"): (4.18, 9.05, 14.14, 92.95, 96.27, 97.51),
    ("1-lognormal", 0.2, "sbh"): (14.78, 20.85, 26.28, 64.86, 74.56, 80.10),
    ("1-lognormal", 0.2, "sn"): (12.92, 19.22, 24.77, 20.25, 32.59, 42.23),
    ("1-lognormal", 0.2, "yd"): (4.41, 9.00, 13.60, 34.39, 53.87, 64.13),
    ("1-lognormal", 0.3, "sbh"): (12.31, 18.75, 24.75, 94.61, 96.05, 96.93),
    ("1-lognormal", 0.3, "sn"): (9.82, 16.22, 22.41, 62.65, 74.92, 82.22),
    ("1-lognormal", 0.3, "yd"): (4.60, 9.23, 14.24, 92.10, 95.74, 97.03),
    ("2", 0.2, "sbh"): (13.80, 21.80, 28.99, 59.20, 69.98, 76.32),
    ("2", 0.2, "sn"): (7.36, 12.82, 18.27, 13.05, 22.96, 31.88),
    ("2", 0.2, "yd"): (4.25, 9.50, 14.50, 26.34, 46.26, 57.04),
    ("2", 0.3, "sbh"): (12.87, 21.32, 28.96, 96.08, 97.90, 98.62),
    ("2", 0.3, "sn"): (6.48, 12.19, 17.90, 54.36, 67.84, 76.24),
    ("2", 0.3, "yd"): (4.71, 9.57, 14.70, 88.72, 93.68, 95.61),
}

# glibc's ``mallopt`` parameters (malloc.h) and the values the CLI sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 128 << 20

_TABLE_BETAS = (0.05, 0.10, 0.15)
_TABLE_METHODS = ("yd", "yd_r", "sbh", "sn", "bh")
# The built-in study designs; _table_scenarios holds their blocks.
_TABLES = ("1", "2", "figure1")

# report.csv's header: a MetricsReport's fields, in the order astuple gives them.
_REPORT_HEADER = ["method", "beta", "mean_fdr", "sd_fdr", "mean_power", "sd_power", "replications"]

# Replication counts, worker counts and latent ranks.
_POSITIVE = click.IntRange(min=1)


def _parse_floats(text: str, what: str) -> list[float]:
    """The values of a comma-separated option; a repeated value fails it."""
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise click.UsageError(f"cannot parse {what} list {text!r}: {exc}") from None
    if not values:
        raise click.UsageError(f"no {what} values given")
    repeated = [v for k, v in enumerate(values) if v in values[:k]]
    if repeated:
        raise click.UsageError(f"{what} {repeated[0]:g} is given more than once")
    return values


def _check_betas(betas: list[float]) -> list[float]:
    """The CLI's one rule for target FDR levels; NaN fails it."""
    if any(not 0.0 < b < 1.0 for b in betas):
        raise click.UsageError("every beta must lie strictly between 0 and 1")
    return betas


def _load_scenario(path: str, seed: int | None):
    """The ``SimulationScenario`` in the JSON file at ``path``, at ``seed`` if given."""
    from .simulation import SimulationScenario

    try:
        scenario = SimulationScenario.from_dict(json.loads(Path(path).read_text()))
        return scenario if seed is None else replace(scenario, seed=seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"cannot load scenario {path}: {exc}") from None


def _outdir(path: str) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it, or no permission
        raise click.UsageError(f"cannot use {path} as the output directory: {exc.strerror}") from None
    return Path(path)


def _keep_freed_heap_mapped() -> None:
    """Have glibc keep freed heap memory mapped for the next replication.

    By default glibc serves each fit's (p, n) temporaries from fresh
    mappings or trims them off the heap when they are freed, and the next
    replication faults the same pages back in.  Raising the mmap threshold
    to 32 MiB and the trim threshold to 128 MiB keeps them in the heap.
    Both are set because setting either one turns off glibc's dynamic
    thresholds, which is worse than the defaults: in 12 table-1
    replications on a 2-vCPU Linux host, the trim threshold alone
    faulted about 130k pages in and the mmap threshold alone 61k, against
    47k with the defaults and 3.9k with both.

    The arena count is capped at one, so the threads of a study's pool
    allocate from the main arena: glibc would otherwise give each thread
    an arena of its own, which keeps its own high-water mark under the
    raised thresholds.  The policy is process-wide, so only the CLI sets
    it.  Without glibc, or without ``mallopt``, nothing is done.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if not libc.startswith("glibc"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_ARENA_MAX, 1)


@click.group(context_settings={"auto_envvar_prefix": "ALPHASCREEN"})
@click.pass_context
def main(ctx):
    """FDR-controlled alpha screening under latent-confounder factor models.

    \f
    Makes the process-wide settings of every command: the heap policy,
    one BLAS cap held until the command ends (the library's caps inside
    it only count, so OpenBLAS's thread count does not change again),
    and then, while the process has one thread, OpenBLAS's worker threads
    parked, which would otherwise busy-wait on a core for about 130 ms
    after ``import numpy``.  The order matters: a change of the thread
    count starts the workers again.
    """
    _keep_freed_heap_mapped()
    ctx.with_resource(one_blas_thread())
    if threading.active_count() == 1:  # no other thread can be in a BLAS call
        park_blas_workers()


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(), help="scenario JSON file")
@click.option("--method", default="yd", type=click.Choice(list(METHODS)), show_default=True)
@click.option("--beta", default="0.05,0.1,0.15", show_default=True, help="comma-separated target FDR levels")
@click.option("--reps", default=300, type=_POSITIVE, show_default=True, help="number of replications")
@click.option("--rank", default=None, type=_POSITIVE, help="fix the latent rank instead of estimating it")
@click.option("--seed", default=None, type=int, help="override the scenario seed")
@click.option("--threads", default=1, type=_POSITIVE, show_default=True, help="parallel replication workers")
@click.option("--out", "output_dir", default=".", show_default=True, help="output directory")
def simulate(scenario_path, method, beta, reps, rank, seed, threads, output_dir):
    """Run one method across replications of a scenario and write reports."""
    from .simulation import generate_panel, replication_rng, run_studies

    betas = _check_betas(_parse_floats(beta, "beta"))
    scenario = _load_scenario(scenario_path, seed)
    out = _outdir(output_dir)
    try:
        reports, detail, failures = run_studies(
            [scenario], [method], betas, reps, parallelism=threads, rank=rank
        )[0]
        returns, factors, _, _ = generate_panel(scenario, replication_rng(scenario.seed, 0))
    except AlphascreenError as exc:
        raise click.ClickException(str(exc)) from None
    io.write_csv(out / "report.csv", _REPORT_HEADER, zip(*map(astuple, reports)))
    detail_header = ["method", "beta", "replication", "fdp", "power"]
    io.write_csv(out / "replications.csv", detail_header, zip(*detail))
    io.save_returns_csv(returns, out / "panel_returns.csv")
    io.save_factors_csv(factors, out / "panel_factors.csv")
    for r in reports:
        click.echo(
            f"{r.method} beta={r.beta:g}: FDR {r.mean_fdr:.2f}% ({r.sd_fdr:.2f}), "
            f"power {r.mean_power:.2f}% ({r.sd_power:.2f}) over {r.replications} reps"
        )
    if failures:
        click.echo(f"{len(failures)} replications failed", err=True)
    click.echo(f"reports written to {out}")


@main.command()
@click.option("--returns", "returns_path", required=True, type=click.Path(), help="returns CSV")
@click.option("--factors", "factors_path", required=True, type=click.Path(), help="observed factors CSV")
@click.option("--method", default="yd", type=click.Choice(list(METHODS)), show_default=True)
@click.option("--beta", default=0.1, type=float, show_default=True, help="target FDR level in (0, 1)")
@click.option("--rank", default=None, type=_POSITIVE)
@click.option("--out", "output_dir", default=".", show_default=True)
def analyze(returns_path, factors_path, method, beta, rank, output_dir):
    """Screen one real panel and write the per-entity selection report."""
    _check_betas([beta])
    try:
        returns = io.load_returns_csv(returns_path)
        factors = io.load_factors_csv(factors_path)
    except (OSError, ValueError) as exc:
        raise click.UsageError(str(exc)) from None
    try:
        check_aligned(returns, factors)
    except AlignmentError as exc:
        raise click.UsageError(str(exc)) from None

    out = _outdir(output_dir)
    n, p = returns.n_periods, returns.n_entities
    spec = METHODS[method]
    fits = PanelFits(returns, factors, rank=rank)
    try:
        result = spec.statistic(fits)
        rejected, cutoff_name, cutoff = spec.rule(result, [beta])[0]
        if spec.fit == "observed":
            alpha_hat, rank_hat = fits.observed.intercepts, ""
        else:
            alpha_hat, rank_hat = fits.full.alpha_hat, fits.full.latent.rank_hat
    except AlphascreenError as exc:
        raise click.ClickException(str(exc)) from None

    flags = np.zeros(p, dtype=int)
    flags[rejected] = 1
    report = out / "selection.csv"
    header = ["entity_id", "alpha_hat", "statistic", "rejected"]
    meta = {"method": method, "beta": beta, cutoff_name: cutoff, "rank_hat": rank_hat, "n": n, "p": p}
    io.write_csv(report, header, [returns.entity_ids, alpha_hat, result.statistics, flags], comment=meta)
    click.echo(f"{np.count_nonzero(flags)} of {p} entities selected; report at {report}")


def _table_scenarios(table: str, nus: list[float], seed):
    from . import simulation as sim

    # the (label, scenario factory) blocks of each built-in study design
    blocks = {
        "1": (("1-normal", sim.table1_normal_scenario), ("1-lognormal", sim.table1_lognormal_scenario)),
        "2": (("2", sim.table2_garch_arma_scenario),),
        "figure1": (("figure1", sim.figure1_hetero_scenario),),
    }
    out = []
    for label, factory in blocks[table]:
        for nu in nus:
            scenario = factory(nu=nu)
            if seed is not None:
                scenario = replace(scenario, seed=seed)
            out.append((label, nu, scenario))
    return out


@main.command("replicate-table")
@click.argument("table", type=click.Choice(_TABLES))
@click.option("--nu", default="0.3", show_default=True, help="comma-separated signal strengths")
@click.option("--reps", default=300, type=_POSITIVE, show_default=True)
@click.option("--seed", default=None, type=int)
@click.option("--threads", default=1, type=_POSITIVE, show_default=True)
@click.option("--out", "output_dir", default=".", show_default=True)
def replicate_table(table, nu, reps, seed, threads, output_dir):
    """Re-run a built-in study design (TABLE is 1, 2 or figure1)."""
    from .simulation import run_studies

    nus = _parse_floats(nu, "nu")
    try:
        blocks = _table_scenarios(table, nus, seed)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    out = _outdir(output_dir)
    try:
        studies = run_studies(
            [scenario for _, _, scenario in blocks],
            _TABLE_METHODS,
            _TABLE_BETAS,
            reps,
            parallelism=threads,
        )
    except AlphascreenError as exc:
        raise click.ClickException(str(exc)) from None
    rows = []
    for (label, nu_val, _), (reports, _, failures) in zip(blocks, studies):
        click.echo(f"{label} nu={nu_val:g}: {len(failures)} of {reps} replications failed", err=True)
        # run_studies returns each block's reports by method, then by beta
        for k, method in enumerate(_TABLE_METHODS):
            recs = reports[k * len(_TABLE_BETAS) : (k + 1) * len(_TABLE_BETAS)]
            rows.append((label, nu_val, method, recs, _REFERENCE.get((label, nu_val, method))))

    cells = [
        (label, nu_val, *astuple(r), *((ref[j], ref[3 + j]) if ref else ("", "")))
        for label, nu_val, _, recs, ref in rows
        for j, r in enumerate(recs)
    ]
    target = out / f"table_{table}.csv"
    io.write_csv(target, ["block", "nu", *_REPORT_HEADER, "ref_fdr", "ref_power"], zip(*cells))

    click.echo(f"{'block':<12} {'nu':<5} {'method':<6} " + " ".join(f"FDR@{int(100 * b)}%" for b in _TABLE_BETAS) + "  " + " ".join(f"pow@{int(100 * b)}%" for b in _TABLE_BETAS))
    for label, nu_val, method, recs, ref in rows:
        fdrs = " ".join(f"{r.mean_fdr:6.2f}" for r in recs)
        pows = " ".join(f"{r.mean_power:6.2f}" for r in recs)
        click.echo(f"{label:<12} {nu_val:<5g} {method:<6} {fdrs}  {pows}")
        if ref:
            fdrs = " ".join(f"{v:6.2f}" for v in ref[:3])
            pows = " ".join(f"{v:6.2f}" for v in ref[3:])
            click.echo(f"{'':<12} {'':<5} {'(ref)':<6} {fdrs}  {pows}")
    click.echo(f"table written to {target}")


if __name__ == "__main__":
    main()
