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
Both loaders share one reader that reads the file's bytes once.  A plain
file takes the byte path: ASCII with no quote character, a header that
opens with the expected cell, exactly as many commas on every body line
as in the header, ``\\n`` or ``\\r\\n`` line endings (blank lines are
skipped), no field over the csv field size limit and every number cell
in the grammar ``-?digits[.digits][e[+-]digits]``.  Anything else falls
back to the per-cell ``csv``/``float()`` parser, which alone writes
error messages and also reads quoted and padded cells, ``1_0`` and
``inf``; it decodes the file as UTF-8, as the savers write it, and names
the line of a byte that is not.  Both paths accept the same files and read the same values,
bit for bit.

The byte path reads a cell as an integer mantissa M and a power of ten,
both exact in x87's 64-bit significand, and rounds their quotient (or
product) once to a double; only a quotient that lands exactly on a
midpoint between two doubles can round wrongly, and those cells are
read by ``float()`` (see :func:`_decimal_cells`).  On a 1000 x 200
returns file of 17-digit cells it takes about 20 ms, and the per-cell
parser about 90 ms.
"""

from __future__ import annotations

import csv
from io import StringIO
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
    reader = csv.reader(lines)
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:  # such as a field over the csv field size limit
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
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


# Classes of a number cell's non-digit bytes, as a bytes.translate table.
_SEP, _MINUS, _DOT, _EXP, _SIGN, _OTHER = range(6)
_CLASSES = bytearray([_OTHER] * 256)
for _byte, _kind in zip(b",-.eE+", [_SEP, _MINUS, _DOT, _EXP, _EXP, _SIGN]):
    _CLASSES[_byte] = _kind
_CLASSES = bytes(_CLASSES)
# Codes 16 * a + 2 * b + adjacent for which a non-digit byte of class b may
# follow one of class a, right after it or (adjacent = 0) after digits.
# Read along a cell they spell -?digits[.digits][e[+-]digits].
_FOLLOWS = bytes(
    16 * a + 2 * b + adjacent
    for a, b, adjacent in [
        (_SEP, _MINUS, 1), (_EXP, _SIGN, 1), (_SEP, _DOT, 0), (_SEP, _EXP, 0), (_SEP, _SEP, 0),
        (_MINUS, _DOT, 0), (_MINUS, _EXP, 0), (_MINUS, _SEP, 0), (_DOT, _EXP, 0),
        (_DOT, _SEP, 0), (_EXP, _SEP, 0), (_SIGN, _SEP, 0),
    ]
)

_CHUNK = 1 << 18  # bytes converted per step, about 64 rows of a 1000 x 200 returns file
# The type a cell's value is formed in; x87's extended type has a 64-bit significand.
_WIDE = np.longdouble
# Clinger's fast path: in float64 every mantissa up to 2**53 and every power
# of ten up to 10**22 is exact.
_CLINGER = (np.float64, 2**53, 22)


def _exact_range(wide):
    """(type, largest mantissa, largest power of ten) for which one rounding is exact.

    In x87's 64-bit significand every mantissa under 10**18 (which also
    catches the integer parser's saturation on overflow) and every power
    up to 10**27 is exact.  Any other type computes in float64.
    """
    return (np.longdouble, 10**18 - 1, 27) if np.finfo(wide).nmant == 63 else _CLINGER


def _reparse(cells: bytes, starts, ends) -> list[float]:
    """``float()`` of the cells at ``cells[starts[i]:ends[i]]``."""
    return [float(cells[a:b]) for a, b in zip(starts.tolist(), ends.tolist())]


def _decimal_cells(cells: bytes):
    """The float64 values of number tokens each followed by a comma, and the
    offsets of those commas; or None.

    None unless every token matches ``-?digits[.digits][e[+-]digits]``.
    A token's digits form an integer mantissa M and its point and
    exponent a power of ten 10**E; M * 10**E (M / 10**-E when E < 0) is
    rounded once, which is exact where M and 10**|E| are exact in the
    type (see :func:`_exact_range`).  In the 64-bit significand the
    result is rounded twice, first to 64 bits and then to 53; that gives
    the correctly rounded double unless the first rounding lands exactly
    on a midpoint between two doubles (low 11 bits 0x400).  Those cells,
    and those outside the exact range, are read by ``float()``.
    """
    text = np.frombuffer(cells, np.uint8)
    marks = np.flatnonzero((text - ord("0")) > 9)
    at = np.concatenate(([-1], marks))  # the non-digits, after a separator before the first
    marks = b"," + text[marks].tobytes()
    exps = b"e" in marks or b"E" in marks
    if exps:  # an exponent's minus is its sign
        marks = marks.replace(b"e-", b"e+").replace(b"E-", b"E+")
    kind = np.frombuffer(marks.translate(_CLASSES), np.uint8)
    pairs = kind[:-1] << 4
    pairs |= kind[1:] << 1
    pairs |= np.diff(at) == 1
    if pairs.tobytes().translate(None, _FOLLOWS):  # a pair the grammar does not allow
        return None
    # Walk each cell back from its closing separator: [sign] [exponent] [point].
    seps = np.flatnonzero(kind == _SEP)
    opening, closing = seps[:-1], seps[1:]
    before = closing - 1
    if exps:
        before -= kind[before] == _SIGN
        has_exp = kind[before] == _EXP
        digits_end = np.where(has_exp, at[before], at[closing])
        before -= has_exp
    else:
        digits_end = at[closing]
    power = np.where(kind[before] == _DOT, at[before] + 1 - digits_end, 0)
    integers = cells.replace(b".", b"")
    if exps:
        integers = integers.replace(b"e", b",").replace(b"E", b",")
    integers = np.fromstring(integers, np.int64, sep=",")
    if exps:
        mantissa_at = np.arange(len(closing)) + np.cumsum(has_exp) - has_exp
        mantissa = integers[mantissa_at]
        power[has_exp] += integers[mantissa_at[has_exp] + 1]
    else:
        mantissa = integers
    wide, top, reach = _exact_range(_WIDE)
    if np.abs(mantissa).max() <= _CLINGER[1] and np.abs(power).max() <= _CLINGER[2]:
        wide, top, reach = _CLINGER  # faster, and exact for these cells too
    inexact = (mantissa > top) | (mantissa < -top) | (power > reach) | (power < -reach)
    np.clip(power, -reach, reach, out=power)
    scale = np.cumprod(np.concatenate(([1], np.full(reach, 10))).astype(wide))[np.abs(power)]
    exact = mantissa.astype(wide)
    if (power > 0).any():
        np.multiply(exact, scale, out=exact, where=power > 0)
    np.divide(exact, scale, out=exact, where=power < 0)
    if wide is np.longdouble:
        low = exact.view(np.uint16)[:: exact.itemsize // 2]
        inexact |= (low & 0x7FF) == 0x400
    values = exact.astype(np.float64)
    zeros = np.flatnonzero(mantissa == 0)  # the mantissa's sign is lost on -0
    values[zeros[kind[opening[zeros] + 1] == _MINUS]] = -0.0
    inexact = np.flatnonzero(inexact)
    if len(inexact):
        values[inexact] = _reparse(cells, at[opening[inexact]] + 1, at[closing[inexact]])
    return values, at[closing]


def _byte_table(data: bytes, header: str):
    """``_parse_table``'s result read from the file's bytes, or None.

    None leaves the file to the per-cell parser: it is not plain (see the
    module docstring) or a number cell is outside the grammar that
    :func:`_decimal_cells` reads.
    """
    if not data.isascii() or b'"' in data:
        return None
    crlf = b"\r" in data  # a \r is allowed only before a \n or at the end
    start = 0
    while data.startswith((b"\n", b"\r\n"), start):
        start = data.index(b"\n", start) + 1
    stop = data.find(b"\n", start)
    if stop < 0:
        return None  # no body
    line = data[start:stop].removesuffix(b"\r")
    head = line.decode().split(",")
    n = len(head) - 1
    limit = csv.field_size_limit()
    if b"\r" in line or n < 1 or head[0] != header.split(",")[0] or max(map(len, head)) > limit:
        return None
    view = memoryview(data)
    first_column, numbers = [], []
    start = stop + 1
    while start < len(data):
        end = data.find(b"\n", start)
        if end < 0:
            end = len(data)
        stop = end - (crlf and data[end - 1] == ord("\r"))
        if stop > start:  # not a blank line
            comma = data.find(b",", start, stop)
            if comma < 0 or comma - start > limit or crlf and data.find(b"\r", start, stop) >= 0:
                return None
            if stop - comma > limit and max(map(len, data[comma + 1:stop].split(b","))) > limit:
                return None
            first_column.append(data[start:comma].decode().strip())
            numbers.append(view[comma + 1:stop])
        start = end + 1
    if not numbers:
        return None
    values = np.empty((len(numbers), n))
    step = max(1, _CHUNK * len(numbers) // len(data))  # rows of about _CHUNK bytes
    for row in range(0, len(numbers), step):
        lines = numbers[row:row + step]
        cells = _decimal_cells(b",".join([*lines, b""]))  # a comma after every cell
        if cells is None:
            return None
        cells, ends = cells
        # n cells to a row: every n-th cell closes at the comma after a line
        row_ends = np.cumsum([len(line) + 1 for line in lines]) - 1
        if len(ends) != n * len(lines) or not np.array_equal(ends[n - 1::n], row_ends):
            return None
        values[row:row + len(lines)] = cells.reshape(len(lines), n)
    return head[1:], first_column, values


def _read_table(path, header: str):
    """Read a returns or factors file once; see :func:`_parse_table`.

    The values come back read-only, so that the panel keeps them instead
    of a copy.
    """
    data = Path(path).read_bytes()
    table = _byte_table(data, header)
    if table is None:
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(
                f"{path}: line {line} holds the byte 0x{data[exc.start]:02x}, which is not UTF-8"
            ) from None
        table = _parse_table(StringIO(text, newline="").readlines(), path, header)
    columns, first_column, values = table
    values.setflags(write=False)
    return columns, first_column, values


def _panel(kind, path, values, labels, periods):
    """``kind(values, labels, periods)`` with the period cells read as numbers
    where they are; a panel check that fails raises its own exception class
    with ``path`` before the message."""
    try:
        return kind(values, labels, [_parse_period(tok) for tok in periods])
    except ValueError as exc:
        exc.args = (f"{path}: {exc}", *exc.args[1:])
        raise


def load_returns_csv(path) -> ReturnPanel:
    """Read a returns panel; header row holds the time index."""
    periods, entity_ids, values = _read_table(path, "entity_id,t1,t2,...")
    return _panel(ReturnPanel, path, values, entity_ids, periods)


def _label(value) -> str:
    """A label cell, quoted as the csv module's QUOTE_MINIMAL does when it holds
    a comma, a quote or a line break.  A label with leading or trailing
    whitespace is refused, because the loaders strip it."""
    text = str(value)
    if text != text.strip():
        raise ValueError(f"label {text!r} has leading or trailing whitespace, which loading strips")
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def save_returns_csv(panel: ReturnPanel, path):
    lines = ["entity_id," + ",".join(map(_label, panel.time_index))]
    for eid, row in zip(panel.entity_ids, panel.values):
        lines.append(_label(eid) + "," + ",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_factors_csv(path) -> FactorPanel:
    """Read observed factors; one row per period."""
    names, periods, values = _read_table(path, "period,f1,...")
    names = [name.strip() for name in names]
    return _panel(FactorPanel, path, values, names, periods)


def save_factors_csv(panel: FactorPanel, path):
    lines = ["period," + ",".join(map(_label, panel.names))]
    for t, row in zip(panel.time_index, panel.values):
        lines.append(_label(t) + "," + ",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_metrics_report(reports, path):
    """Study-level summary, one row per (method, level) pair."""
    lines = ["method,beta,mean_fdr,sd_fdr,mean_power,sd_power,replications"]
    for r in reports:
        lines.append(
            f"{r.method},{fmt(r.beta)},{fmt(r.mean_fdr)},{fmt(r.sd_fdr)},"
            f"{fmt(r.mean_power)},{fmt(r.sd_power)},{r.replications}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
