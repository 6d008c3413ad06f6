import csv

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

import alphascreen.io as table_io
from alphascreen.errors import AlignmentError, DimensionError
from alphascreen.io import (
    load_factors_csv,
    load_returns_csv,
    save_factors_csv,
    save_returns_csv,
)
from alphascreen.panels import FactorPanel, ReturnPanel, check_aligned


def small_panel(p=3, n=6, seed=0):
    rng = np.random.default_rng(seed)
    return ReturnPanel(
        rng.standard_normal((p, n)),
        [f"e{i}" for i in range(p)],
        list(range(1, n + 1)),
    )


class TestReturnPanel:
    def test_basic_properties(self):
        panel = small_panel()
        assert panel.n_entities == 3
        assert panel.n_periods == 6

    def test_values_are_read_only(self):
        panel = small_panel()
        with pytest.raises(ValueError):
            panel.values[0, 0] = 1.0

    def test_copies_all_but_a_read_only_array_that_owns_its_memory(self):
        ids, periods = ["a", "b"], [1, 2, 3, 4]
        writeable = np.ones((2, 4))
        assert not np.shares_memory(ReturnPanel(writeable, ids, periods).values, writeable)
        handed_over = np.ones((2, 4))
        handed_over.setflags(write=False)
        assert ReturnPanel(handed_over, ids, periods).values is handed_over
        base = np.ones((2, 8))
        view = base[:, :4]
        view.setflags(write=False)  # read-only, but its base can still be written
        assert not np.shares_memory(ReturnPanel(view, ids, periods).values, base)

    def test_too_few_periods(self):
        with pytest.raises(DimensionError):
            ReturnPanel(np.ones((2, 3)), ["a", "b"], [1, 2, 3])

    def test_non_increasing_time(self):
        # a header that mixes numbers and text, such as ...,5,x6,..., is
        # refused with the same error, not with the TypeError of 5 < "x6"
        for time_index, at in [
            ([1, 3, 2, 4], "3 -> 2"), ([4, 5, "x6", 7], "5 -> 'x6'"), (["t1", 2, 3, 4], "'t1' -> 2")
        ]:
            message = f"^return panel time index is not strictly increasing at {at}$"
            with pytest.raises(ValueError, match=message):
                ReturnPanel(np.ones((1, 4)), ["a"], time_index)

    def test_non_finite_located(self):
        values = np.ones((2, 4))
        values[1, 2] = np.nan
        with pytest.raises(ValueError, match="row 1, column 2"):
            ReturnPanel(values, ["a", "b"], [1, 2, 3, 4])

    def test_slice_periods(self):
        panel = small_panel()
        head = panel.slice_periods(0, 4)
        assert head.n_periods == 4
        assert head.time_index == (1, 2, 3, 4)
        assert np.allclose(head.values, panel.values[:, :4])


class TestFactorPanel:
    def test_rank_check_after_demeaning(self):
        # second column is an affine shift of the first: dependent once demeaned
        base = np.arange(8.0)
        values = np.column_stack([base, base + 5.0])
        with pytest.raises(DimensionError, match="linearly dependent"):
            FactorPanel(values, ["f1", "f2"], list(range(8)))

    def test_needs_more_periods_than_factors(self):
        with pytest.raises(DimensionError):
            FactorPanel(np.random.default_rng(0).standard_normal((3, 2)), ["a", "b"], [1, 2, 3])


class TestAlignment:
    def test_mismatch_names_period(self):
        returns = small_panel(n=6)
        factors = FactorPanel(
            np.random.default_rng(1).standard_normal((6, 2)),
            ["f1", "f2"],
            [1, 2, 3, 5, 6, 7],
        )
        with pytest.raises(AlignmentError, match="position 3"):
            check_aligned(returns, factors)

    def test_missing_trailing_period_named(self):
        returns = small_panel(n=6)
        factors = FactorPanel(
            np.random.default_rng(1).standard_normal((5, 2)), ["f1", "f2"], [1, 2, 3, 4, 5]
        )
        with pytest.raises(AlignmentError, match="missing period 6"):
            check_aligned(returns, factors)


class TestCsvRoundTrip:
    def test_returns_round_trip(self, tmp_path):
        panel = small_panel(p=4, n=7, seed=3)
        path = tmp_path / "returns.csv"
        save_returns_csv(panel, path)
        back = load_returns_csv(path)
        assert back.entity_ids == panel.entity_ids
        assert back.time_index == panel.time_index
        assert np.array_equal(back.values, panel.values)

    def test_factors_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        factors = FactorPanel(rng.standard_normal((9, 3)), ["f1", "f2", "f3"], list(range(9)))
        path = tmp_path / "factors.csv"
        save_factors_csv(factors, path)
        back = load_factors_csv(path)
        assert back.names == factors.names
        assert back.time_index == factors.time_index
        assert np.array_equal(back.values, factors.values)

    def test_missing_cell_located(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("entity_id,1,2,3,4\na,0.1,,0.3,0.4\n")
        with pytest.raises(ValueError, match="row 1, column 2"):
            load_returns_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("entity_id,1,2,3,4\na,0.1,0.2,0.3\n")
        with pytest.raises(ValueError, match="row 1"):
            load_returns_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text("time,f1\n1,0.5\n")
        with pytest.raises(ValueError, match="header"):
            load_factors_csv(path)


HEADERS = {"entity_id": "entity_id,t1,t2,...", "period": "period,f1,..."}

# Cells that numpy's reader and float() treat differently, or that the csv
# format gives a meaning: comments, digit separators, padding, quotes,
# non-finite values, empty cells and cells holding a delimiter.
ADVERSARIAL_CELLS = [
    "#", "2.0#junk", "1_0", " 1.5 ", "\t-2\t", '"3.5"', '" 4 "', '"1,5"', '"',
    "nan", "-inf", "Infinity", "", " ", "0x10", "1e", "+.5e-3", "1 2", "\x00",
]
cells = st.one_of(
    st.sampled_from(ADVERSARIAL_CELLS),
    st.floats().map(repr),
    st.integers(-999, 999).map(str),
    st.text(alphabet=' \t"#_.,eE+-0123456789naif\x00', max_size=5),
)


@st.composite
def table_texts(draw, first):
    """CSV text with a header opening with ``first`` (mostly) and rows of
    mostly the header's width, joined by mixed line breaks and blank lines."""
    n = draw(st.integers(1, 4))
    head = draw(st.sampled_from([first, first, first, f" {first}", "period_"]))
    periods = draw(st.lists(st.integers(0, 9).map(str) | st.sampled_from([" 3 ", "x", '"7"']),
                            min_size=n, max_size=n))
    lines = [",".join([head, *periods])]
    for _ in range(draw(st.integers(0, 4))):
        width = n + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
        name = draw(st.sampled_from(["e1", " e2 ", "", '"e3"', '"e,4"', "#"]))
        lines.append(",".join([name, *draw(st.lists(cells, min_size=width, max_size=width))]))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def table_outcome(read):
    """What a table read returns, or the type and message of what it raises."""
    try:
        header_cells, first_column, values = read()
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return header_cells, first_column, values.shape, values.dtype, values


def assert_reader_matches_per_cell_parser(path, header):
    with open(path, newline="") as handle:
        lines = handle.readlines()
    shared = table_outcome(lambda: table_io._read_table(path, header))
    per_cell = table_outcome(lambda: table_io._parse_table(lines, path, header))
    assert len(shared) == len(per_cell)
    if len(shared) == 2:
        assert shared == per_cell
    else:
        assert shared[:4] == per_cell[:4]
        assert np.array_equal(shared[4], per_cell[4], equal_nan=True)


class TestTableReader:
    @pytest.mark.parametrize("first", sorted(HEADERS))
    @given(data=st.data())
    @hyp_settings(max_examples=300, deadline=None)
    def test_shared_reader_matches_per_cell_parser(self, tmp_path_factory, first, data):
        text = data.draw(table_texts(first))
        path = tmp_path_factory.getbasetemp() / "table.csv"
        path.write_bytes(text.encode())
        assert_reader_matches_per_cell_parser(path, HEADERS[first])

    @pytest.mark.parametrize("width", [0, 1])
    def test_field_size_limit_is_the_csv_modules(self, tmp_path, width):
        # a cell one character over the limit is refused by the per-cell parser only
        cell = " " * (csv.field_size_limit() - 1 + width) + "1"
        path = tmp_path / "returns.csv"
        path.write_text(f"entity_id,1\na,{cell}\n")
        assert_reader_matches_per_cell_parser(path, HEADERS["entity_id"])

    def test_plain_file_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "returns.csv"
        save_returns_csv(small_panel(p=5, n=8), path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with open(path, newline="") as handle:
            lines = handle.readlines()
        fast = table_io._fast_table(lines, HEADERS["entity_id"])
        assert fast is not None
        per_cell = table_io._parse_table(lines, path, HEADERS["entity_id"])
        assert fast[:2] == per_cell[:2]
        assert np.array_equal(fast[2], per_cell[2])

    @pytest.mark.parametrize("source, cell", [("_fast_table", "0.1"), ("_parse_table", '"0.1"')])
    def test_panel_keeps_the_read_only_array_the_reader_made(
        self, tmp_path, monkeypatch, source, cell
    ):
        made = {}

        def recording(name):
            reader = getattr(table_io, name)

            def record(*args):
                made[name] = reader(*args)
                return made[name]

            return record

        for name in ("_fast_table", "_parse_table"):
            monkeypatch.setattr(table_io, name, recording(name))
        path = tmp_path / "returns.csv"
        path.write_text(f"entity_id,1,2,3,4\na,{cell},0.2,0.3,0.4\nb,0.5,0.6,0.7,0.8\n")
        values = load_returns_csv(path).values
        assert [name for name, table in made.items() if table is not None] == [source]
        assert values is made[source][2]
        assert not values.flags.writeable

    @pytest.mark.parametrize("cell, value", [("1_0", 10.0), ('"0.25"', 0.25)])
    def test_float_tokens_numpy_refuses_are_accepted(self, tmp_path, cell, value):
        path = tmp_path / "returns.csv"
        path.write_text(f"entity_id,1,2,3,4\na,{cell},0.2,0.3,0.4\n")
        assert load_returns_csv(path).values[0, 0] == value

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,2.0#junk,0.2,0.3,0.4", "unparseable value '2.0#junk' at row 1, column 1"),
            ("a,0.1,0.2,0.3,0.4,0.5", "row 1 has 5 cells, expected 4"),
        ],
    )
    def test_cells_numpy_would_misread_are_refused(self, tmp_path, row, message):
        path = tmp_path / "returns.csv"
        path.write_text(f"entity_id,1,2,3,4\n{row}\n")
        with pytest.raises(ValueError, match=message):
            load_returns_csv(path)
