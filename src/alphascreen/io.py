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

Reading
-------
Both loaders share one reader that reads the file once.  A plain file
(no quote character, exactly as many commas on every body line as in
the header, no field over the csv field size limit) is parsed by
numpy's C reader.  Anything else, including every cell numpy refuses,
falls back to the per-cell ``csv``/``float()`` parser, which alone
writes error messages and also accepts the tokens numpy refuses, such
as ``1_0`` and quoted cells.  Both paths accept the same files and read
the same values.
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


def _parse_table(lines: list[str], path, header: str):
    """Per-cell parse of a table file's lines; the source of every error message.

    Returns the header cells after the first, the stripped first-column
    cells and the (rows, columns) float values.  ``header`` is the
    expected header, such as ``"period,f1,..."``; its first cell must
    open the file.
    """
    rows = [row for row in csv.reader(lines) if row]
    if not rows:
        raise ValueError(f"{path}: file is empty")
    head = rows[0]
    if len(head) < 2 or head[0] != header.split(",")[0]:
        raise ValueError(f"{path}: expected header '{header}'")
    n = len(head) - 1
    first_column, values = [], []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != n + 1:
            raise ValueError(f"{path}: row {i} has {len(row) - 1} cells, expected {n}")
        first_column.append(row[0].strip())
        values.append([_parse_cell(tok, i, j + 1, path) for j, tok in enumerate(row[1:])])
    return head[1:], first_column, np.array(values, dtype=float)


def _fast_table(lines: list[str], header: str):
    """``_parse_table``'s result through numpy's C reader, or None.

    None leaves the file to the per-cell parser: it is not plain (see the
    module docstring) or numpy refuses a cell.  numpy reads a subset of
    the number tokens ``float()`` reads, to the same doubles;
    ``comments=None`` keeps ``#`` an ordinary character.
    """
    # Lines come from universal-newline splitting, so \r and \n occur only at the end.
    rows = [stripped for stripped in (line.rstrip("\r\n") for line in lines) if stripped]
    if len(rows) < 2 or any('"' in row for row in rows):
        return None
    head = rows[0].split(",")
    n = len(head) - 1
    body = rows[1:]
    if n < 1 or head[0] != header.split(",")[0] or any(row.count(",") != n for row in body):
        return None
    limit = csv.field_size_limit()
    if any(len(row) > limit and max(map(len, row.split(","))) > limit for row in rows):
        return None
    try:
        values = np.loadtxt(body, delimiter=",", usecols=range(1, n + 1), comments=None, ndmin=2)
    except ValueError:
        return None
    return head[1:], [row.partition(",")[0].strip() for row in body], values


def _read_table(path, header: str):
    """Read a returns or factors file once; see :func:`_parse_table`.

    The values come back read-only, so that the panel keeps them instead
    of a copy.
    """
    with open(path, newline="") as handle:
        lines = handle.readlines()
    columns, first_column, values = _fast_table(lines, header) or _parse_table(lines, path, header)
    values.setflags(write=False)
    return columns, first_column, values


def load_returns_csv(path) -> ReturnPanel:
    """Read a returns panel; header row holds the time index."""
    periods, entity_ids, values = _read_table(path, "entity_id,t1,t2,...")
    return ReturnPanel(values, entity_ids, [_parse_period(tok) for tok in periods])


def save_returns_csv(panel: ReturnPanel, path):
    lines = ["entity_id," + ",".join(str(t) for t in panel.time_index)]
    for eid, row in zip(panel.entity_ids, panel.values):
        lines.append(str(eid) + "," + ",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_factors_csv(path) -> FactorPanel:
    """Read observed factors; one row per period."""
    names, periods, values = _read_table(path, "period,f1,...")
    names = [name.strip() for name in names]
    return FactorPanel(values, names, [_parse_period(tok) for tok in periods])


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
