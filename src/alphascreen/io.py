"""CSV ingestion and report emission.

File formats
------------
returns file
    header ``entity_id,t1,t2,...`` and one row per entity.
factors file
    header ``period,f1,...,fr`` and one row per period.
reports
    plain comma-separated tables; screening reports carry a trailing
    ``#``-prefixed metadata line (threshold, level, ...) that CSV readers
    can skip with ``comment='#'``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .panels import FactorPanel, ReturnPanel

__all__ = [
    "load_returns_csv",
    "save_returns_csv",
    "load_factors_csv",
    "save_factors_csv",
    "write_metrics_report",
]


def fmt(x) -> str:
    """Shortest round-trippable decimal representation of a float."""
    return repr(float(x))


def _parse_period(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_cell(token: str, row: int, column: int, path) -> float:
    token = token.strip()
    if token == "":
        raise ValueError(f"{path}: missing value at row {row}, column {column}")
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"{path}: unparseable value {token!r} at row {row}, column {column}"
        ) from None


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise ValueError(f"{path}: file is empty")
    return rows


def load_returns_csv(path) -> ReturnPanel:
    """Read a returns panel; header row holds the time index."""
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 2 or header[0] != "entity_id":
        raise ValueError(f"{path}: expected header 'entity_id,t1,t2,...'")
    time_index = [_parse_period(tok) for tok in header[1:]]
    n = len(time_index)
    entity_ids, values = [], []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != n + 1:
            raise ValueError(
                f"{path}: row {i} has {len(row) - 1} cells, expected {n}"
            )
        entity_ids.append(row[0].strip())
        values.append([_parse_cell(tok, i, j + 1, path) for j, tok in enumerate(row[1:])])
    return ReturnPanel(np.array(values, dtype=float), entity_ids, time_index)


def save_returns_csv(panel: ReturnPanel, path):
    lines = ["entity_id," + ",".join(str(t) for t in panel.time_index)]
    for eid, row in zip(panel.entity_ids, panel.values):
        lines.append(str(eid) + "," + ",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_factors_csv(path) -> FactorPanel:
    """Read observed factors; one row per period."""
    rows = _read_rows(path)
    header = rows[0]
    if len(header) < 2 or header[0] != "period":
        raise ValueError(f"{path}: expected header 'period,f1,...'")
    names = [tok.strip() for tok in header[1:]]
    time_index, values = [], []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(names) + 1:
            raise ValueError(
                f"{path}: row {i} has {len(row) - 1} cells, expected {len(names)}"
            )
        time_index.append(_parse_period(row[0]))
        values.append([_parse_cell(tok, i, j + 1, path) for j, tok in enumerate(row[1:])])
    return FactorPanel(np.array(values, dtype=float), names, time_index)


def save_factors_csv(panel: FactorPanel, path):
    lines = ["period," + ",".join(str(name) for name in panel.names)]
    for t, row in zip(panel.time_index, panel.values):
        lines.append(str(t) + "," + ",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_metrics_report(reports, path):
    """Study-level summary, one row per (method, level) pair."""
    lines = ["method,beta,mean_fdr,sd_fdr,mean_power,sd_power,replications"]
    for r in reports:
        lines.append(
            f"{r.method},{fmt(r.beta)},{fmt(r.mean_fdr)},{fmt(r.sd_fdr)},"
            f"{fmt(r.mean_power)},{fmt(r.sd_power)},{r.replications}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
