"""Panel data containers for returns and observed factors.

Both panel types are immutable after construction: values are stored as
read-only float arrays, so instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, DimensionError
from .linalg import RANK_RTOL, demean_columns

__all__ = ["ReturnPanel", "FactorPanel", "check_aligned"]


def _freeze(values, shape_name: str) -> tuple[np.ndarray, np.ndarray, float]:
    """The values as a read-only 2-d float array, each row's sum of squares,
    and the rows' total, which is inf when it overflows.  A non-finite value
    is refused.

    A read-only float array that owns its memory is kept as it is: its
    maker has stopped writing to it (generate_panel hands its panel over
    so).  Anything else is copied, so that no caller can write to the panel.
    """
    handed_over = (
        type(values) is np.ndarray
        and values.dtype == float
        and values.base is None
        and not values.flags.writeable
    )
    arr = values if handed_over else np.array(values, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{shape_name} values must be a 2-d matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.einsum("ij,ij->i", arr, arr)
        squares = rows.sum()  # non-finite with any non-finite value
    if not np.isfinite(squares) and not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(
            f"{shape_name} contains a non-finite value at row {bad[0]}, column {bad[1]}"
        )
    arr.setflags(write=False)
    rows.setflags(write=False)
    return arr, rows, squares


def _check_strictly_increasing(time_index, what: str):
    for a, b in zip(time_index, time_index[1:]):
        try:
            increasing = a < b
        except TypeError:  # a number beside text, as in a header ...,5,x6,...
            increasing = False
        if not increasing:
            raise ValueError(f"{what} time index is not strictly increasing at {a!r} -> {b!r}")


def _check_unique(labels: tuple, what: str):
    if len(set(labels)) == len(labels):
        return
    first = {}
    for j, label in enumerate(labels):
        i = first.setdefault(label, j)
        if i != j:
            raise ValueError(f"{what} {label!r} appears twice, at positions {i} and {j}")


@dataclass(frozen=True, eq=False)
class ReturnPanel:
    """Excess returns for ``p`` entities over ``n`` periods.

    values
        (p, n) matrix; row i holds the return series of ``entity_ids[i]``,
        one distinct id per row.
    row_squares
        (p,) sum of squares of each row, made with the panel's check for
        overflow; read-only.
    """

    values: np.ndarray
    entity_ids: tuple
    time_index: tuple
    row_squares: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr, rows, squares = _freeze(self.values, "return panel")
        if not np.isfinite(squares):
            # every fit sums squared returns, and would fail later on inf
            i, j = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)
            raise ValueError(
                f"return panel values overflow when squared and summed: the largest in "
                f"magnitude, {float(arr[i, j])!r}, is at row {i}, column {j}"
            )
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "row_squares", rows)
        object.__setattr__(self, "entity_ids", tuple(self.entity_ids))
        object.__setattr__(self, "time_index", tuple(self.time_index))
        p, n = arr.shape
        if p < 1:
            raise DimensionError("return panel needs at least one entity")
        if n < 4:
            raise DimensionError(
                "return panel needs at least 4 periods so each chronological "
                "half supports demeaning plus one regressor"
            )
        if len(self.entity_ids) != p:
            raise DimensionError("entity_ids length does not match row count")
        if len(self.time_index) != n:
            raise DimensionError("time_index length does not match column count")
        _check_unique(self.entity_ids, "return panel entity id")
        _check_strictly_increasing(self.time_index, "return panel")

    @property
    def n_entities(self) -> int:
        return self.values.shape[0]

    @property
    def n_periods(self) -> int:
        return self.values.shape[1]

    def slice_periods(self, start: int, stop: int) -> "ReturnPanel":
        """Panel restricted to the periods ``time_index[start:stop]``."""
        return ReturnPanel(
            self.values[:, start:stop], self.entity_ids, self.time_index[start:stop]
        )


@dataclass(frozen=True, eq=False)
class FactorPanel:
    """Observed factor realizations: one row per period, one column per
    distinctly named factor."""

    values: np.ndarray
    names: tuple
    time_index: tuple

    def __post_init__(self):
        arr, _, _ = _freeze(self.values, "factor panel")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "time_index", tuple(self.time_index))
        n, r = arr.shape
        if len(self.names) != r:
            raise DimensionError("factor names length does not match column count")
        if len(self.time_index) != n:
            raise DimensionError("time_index length does not match row count")
        _check_unique(self.names, "factor panel name")
        if n <= r + 1:
            raise DimensionError(
                f"need more than r+1 = {r + 1} periods to regress on {r} factors"
            )
        _check_strictly_increasing(self.time_index, "factor panel")
        with np.errstate(over="ignore", invalid="ignore"):
            centred = demean_columns(arr)
        if not np.all(np.isfinite(centred)):
            raise ValueError("factor panel values overflow when demeaned")
        sv = np.linalg.svd(centred, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise DimensionError(
                "factor columns are linearly dependent after demeaning"
            )

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_factors(self) -> int:
        return self.values.shape[1]

    def slice_periods(self, start: int, stop: int) -> "FactorPanel":
        return FactorPanel(
            self.values[start:stop], self.names, self.time_index[start:stop]
        )


def check_aligned(returns: ReturnPanel, factors: FactorPanel):
    """Raise AlignmentError naming the first mismatching period, if any."""
    rt, ft = returns.time_index, factors.time_index
    for k in range(min(len(rt), len(ft))):
        if rt[k] != ft[k]:
            raise AlignmentError(
                f"panels disagree at position {k}: returns period {rt[k]!r} "
                f"vs factors period {ft[k]!r}"
            )
    if len(rt) != len(ft):
        if len(rt) > len(ft):
            raise AlignmentError(
                f"factors panel is missing period {rt[len(ft)]!r}"
            )
        raise AlignmentError(
            f"returns panel is missing period {ft[len(rt)]!r}"
        )
