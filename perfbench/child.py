"""Fresh-interpreter helpers for the alphascreen benchmark.

Each subcommand runs in its own interpreter, started by ``run.py`` as
``child.py RESULT SUBCOMMAND ARG...``, and writes one JSON object to the
file RESULT.

``cli [--provenance] ARG...``
    Import ``alphascreen.cli`` and run ``main(ARG...)`` exactly as the
    console script would.  Records the import time (``import_s``), the
    wall time from entering ``main`` until it returns (``main_s``), the
    exit code, and the largest max RSS of this process and its waited-for
    children (``peak_rss_kb``).  An exception that escapes ``main`` is
    printed to standard error and recorded as exit code 1, as the console
    script would exit.  With ``--provenance`` it also records library
    versions and BLAS settings.

``panel SCENARIO N P OUTDIR SEED...``
    For each SEED, write the replication-0 panel of SCENARIO (a scenario
    JSON, with its seed replaced by SEED and, when N and P are positive, its
    size replaced by N x P) as ``returns.csv`` and ``factors.csv`` in
    OUTDIR/seedSEED.

The package is not assumed to be installed, so ``src/`` of the checkout is
put on the path here; without it every subcommand fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")


def peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def provenance() -> dict:
    """Versions, BLAS build and thread settings, pool start method, scenario hashes."""
    import multiprocessing
    import platform

    import numpy
    import scipy

    from alphascreen import __version__, table1_lognormal_scenario, table1_normal_scenario

    blas = {}
    for module in (numpy, scipy):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[module.__name__] = f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError, AttributeError):
            blas[module.__name__] = "unknown"
    builtin = {}
    for factory in (table1_normal_scenario, table1_lognormal_scenario):
        text = json.dumps(factory(nu=0.3).to_dict(), sort_keys=True)
        builtin[factory.__name__] = hashlib.sha256(text.encode()).hexdigest()
    return {
        "alphascreen": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env_inherited": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "pool_start_method": multiprocessing.get_start_method(),
        "builtin_scenario_sha256": builtin,
    }


def run_cli(result_path: Path, args: list[str]) -> None:
    with_provenance = bool(args) and args[0] == "--provenance"
    if with_provenance:
        args = args[1:]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from alphascreen.cli import main

    import_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    try:
        main(args, prog_name="alphascreen")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = 1
    t2 = time.perf_counter()
    record = {
        "import_s": import_s,
        "main_s": t2 - t1,
        "exit_code": code,
        "peak_rss_kb": peak_rss_kb(),
    }
    if with_provenance:
        record["provenance"] = provenance()
    result_path.write_text(json.dumps(record))


def write_panels(result_path: Path, scenario_path: str, n: str, p: str, outdir: str, *seeds: str) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from dataclasses import replace

    from alphascreen import SimulationScenario, generate_panel, save_factors_csv, save_returns_csv
    from alphascreen.simulation import replication_rng

    scenario = SimulationScenario.from_dict(json.loads(Path(scenario_path).read_text()))
    if int(n) > 0 and int(p) > 0:
        scenario = replace(scenario, n=int(n), p=int(p))
    for seed in seeds:
        returns, factors, _, _ = generate_panel(scenario, replication_rng(int(seed), 0))
        out = Path(outdir) / f"seed{seed}"
        out.mkdir(parents=True, exist_ok=True)
        save_returns_csv(returns, out / "returns.csv")
        save_factors_csv(factors, out / "factors.csv")
    result_path.write_text(json.dumps({"n": scenario.n, "p": scenario.p}))


if __name__ == "__main__":
    result, command = Path(sys.argv[1]), sys.argv[2]
    if command == "cli":
        run_cli(result, sys.argv[3:])
    elif command == "panel":
        write_panels(result, *sys.argv[3:])
    else:
        sys.exit(f"unknown subcommand {command!r}")
