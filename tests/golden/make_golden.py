"""Write ``golden.json``: the decisions of every shipped scenario and method.

Run from the repository root, and commit the file it writes::

    PYTHONPATH=src python tests/golden/make_golden.py

The file pins, for each of the seven ``scenarios/*.json`` files and
replications 0-2 of all six methods at the levels 0.05, 0.10 and 0.15,
every study row ``(method, beta, rep, fdp, power)`` together with the
count and a sha256 of the rejected indices.  It also pins the
``selection.csv`` that ``analyze`` writes for each method on one saved
panel, and the latent rank and eigenvalue ratio of the full fit and of
both half fits of one design whose ratio winner is the search cap
``MAX_RANK``.  ``tests/test_golden.py`` recomputes all of it with the
functions below and compares.  Each rewrite prints what it changed in the
file it replaces: per method, the largest change of each ``analyze``
column as a share of that column's largest magnitude, and the number of
changed study rows, rejection digests and ranks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
BETAS = (0.05, 0.10, 0.15)
REPLICATIONS = 3
# The saved panel of the analyze records: the table-1 normal design, made
# small and with alphas strong enough that every method rejects some.
PANEL_SCENARIO = ROOT / "scenarios" / "table1_normal_nu03.json"
PANEL_CHANGES = dict(n=100, p=120, nu=0.6)
# The design of the rank records: ten latent factors, so every fit's ratio
# winner is rank 10 and a lower MAX_RANK changes it.
RANK_SCENARIO = dict(n=100, p=120, pi=0.1, nu=0.6, r_total=13, r_observed=3, seed=7)


def _scenario(path):
    from alphascreen import SimulationScenario

    return SimulationScenario.from_dict(json.loads(path.read_text()))


def _digest(rejected) -> str:
    return hashlib.sha256(",".join(map(str, sorted(rejected))).encode()).hexdigest()


def study_rows(parallelism: int) -> dict:
    """``{scenario file: [(method, beta, rep, fdp, power), ...]}`` of one
    ``run_studies`` batch over every scenario."""
    from alphascreen import METHODS, run_studies

    studies = run_studies(
        [_scenario(path) for path in SCENARIOS], list(METHODS), BETAS, REPLICATIONS, parallelism
    )
    out = {}
    for path, (_, detail, failures) in zip(SCENARIOS, studies):
        if failures:
            raise RuntimeError(f"{path.name}: {failures}")
        out[path.name] = [list(row) for row in detail]
    return out


def rejection_sets() -> dict:
    """``{scenario file: [(method, beta, rep, count, sha256), ...]}`` in the
    study's row order, each from the method registry on a fresh set of fits."""
    from alphascreen import METHODS, PanelFits, generate_panel
    from alphascreen.simulation import replication_rng

    out = {}
    for path in SCENARIOS:
        scenario = _scenario(path)
        records = []
        for rep in range(REPLICATIONS):
            returns, factors, _, _ = generate_panel(scenario, replication_rng(scenario.seed, rep))
            fits = PanelFits(returns, factors)
            for name, method in METHODS.items():
                rules = method.rule(method.statistic(fits), BETAS)
                for beta, (rejected, _, _) in zip(BETAS, rules):
                    rejected = [int(i) for i in rejected]
                    records.append([name, beta, rep, len(rejected), _digest(rejected)])
        out[path.name] = records
    return out


def selections(workdir: Path) -> dict:
    """``{method: record}`` of ``analyze`` on the saved panel, each record the
    rejected ids, the ``alpha_hat`` and ``statistic`` columns and the
    fields of the closing ``#`` line."""
    from alphascreen import cli, generate_panel, save_factors_csv, save_returns_csv
    from alphascreen import METHODS
    from alphascreen.simulation import replication_rng

    scenario = replace(_scenario(PANEL_SCENARIO), **PANEL_CHANGES)
    returns, factors, _, _ = generate_panel(scenario, replication_rng(scenario.seed, 0))
    rpath, fpath = workdir / "returns.csv", workdir / "factors.csv"
    save_returns_csv(returns, rpath)
    save_factors_csv(factors, fpath)
    out = {}
    for method in METHODS:
        target = workdir / method
        with contextlib.redirect_stdout(_io.StringIO()):
            cli.main(
                ["analyze", "--returns", str(rpath), "--factors", str(fpath),
                 "--method", method, "--out", str(target)],
                standalone_mode=False,
            )
        *rows, footer = (target / "selection.csv").read_text().splitlines()[1:]
        cells = [row.split(",") for row in rows]
        fields = dict(item.split("=") for item in footer.removeprefix("# ").split(","))
        cutoff_name = "threshold" if "threshold" in fields else "p_cutoff"
        out[method] = {
            "rejected": [eid for eid, _, _, flag in cells if flag == "1"],
            "alpha_hat": [float(c[1]) for c in cells],
            "statistic": [float(c[2]) for c in cells],
            "cutoff_name": cutoff_name,
            "cutoff": float(fields.pop(cutoff_name)),
            "footer": fields,
        }
    return out


def fit_ranks() -> dict:
    """``{fit: [rank_hat, eigen_ratio]}`` of the full fit and both half fits of
    replication 0 of ``RANK_SCENARIO``."""
    from alphascreen import PanelFits, SimulationScenario, generate_panel
    from alphascreen.simulation import replication_rng

    scenario = SimulationScenario(**RANK_SCENARIO)
    fits = PanelFits(*generate_panel(scenario, replication_rng(scenario.seed, 0))[:2])
    named = {"full": fits.full, "first_half": fits.halves[0], "second_half": fits.halves[1]}
    return {name: [fit.latent.rank_hat, fit.latent.eigen_ratio] for name, fit in named.items()}


def golden(workdir: Path) -> dict:
    rows, rejections = study_rows(1), rejection_sets()
    return {
        "studies": {
            name: [row + record[3:] for row, record in zip(rows[name], rejections[name])]
            for name in rows
        },
        "analyze": selections(workdir),
        "ranks": fit_ranks(),
    }


def _write(data: dict, path: Path) -> None:
    """JSON with one study row or one analyze column per line, for readable diffs."""
    lines = ["{", '"studies": {']
    for k, (name, rows) in enumerate(data["studies"].items()):
        lines.append(f"{json.dumps(name)}: [")
        lines.append(",\n".join(json.dumps(row) for row in rows))
        lines.append("]" + ("," if k < len(data["studies"]) - 1 else ""))
    lines += ["},", '"analyze": {']
    for k, (method, record) in enumerate(data["analyze"].items()):
        items = ",\n".join(f"{json.dumps(key)}: {json.dumps(value)}" for key, value in record.items())
        lines.append(f"{json.dumps(method)}: {{\n{items}\n}}" + ("," if k < len(data["analyze"]) - 1 else ""))
    lines += ["},", f'"ranks": {json.dumps(data["ranks"])}', "}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _share(old, new) -> float:
    """Largest change from ``old`` to ``new`` over the largest ``|old|``."""
    old = np.asarray(old, dtype=float)
    change, scale = np.max(np.abs(np.asarray(new, dtype=float) - old)), np.max(np.abs(old))
    return float(change / scale if scale > 0.0 else change)


def drift(old: dict, new: dict) -> list[str]:
    """The lines that describe how ``new`` differs from ``old``, the file it replaces."""
    lines = []
    for method, record in new["analyze"].items():
        pinned = old["analyze"].get(method)
        if pinned is None:
            lines.append(f"analyze {method}: not in the old file")
            continue
        shares = [f"{key} {_share(pinned[key], record[key]):.2g}" for key in ("alpha_hat", "statistic", "cutoff")]
        rejected = "same" if record["rejected"] == pinned["rejected"] else "changed"
        lines.append(f"analyze {method}: " + ", ".join(shares) + f"; rejected ids {rejected}")
    rows = digests = 0
    for name, new_rows in new["studies"].items():
        old_rows = old["studies"].get(name, [])
        pairs = list(zip(old_rows, new_rows))
        unpaired = abs(len(old_rows) - len(new_rows))
        rows += unpaired + sum(a[:5] != b[:5] for a, b in pairs)
        digests += unpaired + sum(a[5:] != b[5:] for a, b in pairs)
    ranks = sum(old["ranks"].get(fit, [None])[0] != rank for fit, (rank, _) in new["ranks"].items())
    ratios = max(
        (_share(old["ranks"][fit][1], ratio) for fit, (_, ratio) in new["ranks"].items() if fit in old["ranks"]),
        default=0.0,
    )
    lines.append(f"changed: {rows} study rows, {digests} rejection digests, {ranks} ranks")
    lines.append(f"eigenvalue ratios: largest relative change {ratios:.2g}")
    return lines


def main() -> None:
    import tempfile

    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
    with tempfile.TemporaryDirectory() as workdir:
        data = golden(Path(workdir))
    _write(data, GOLDEN)
    assert json.loads(GOLDEN.read_text()) == data
    print(f"wrote {GOLDEN}")
    for line in drift(old, data) if old is not None else ():
        print(line)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
