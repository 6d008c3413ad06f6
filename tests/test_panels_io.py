import csv
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings as hyp_settings, strategies as st

import alphascreen.io as table_io
from alphascreen.errors import AlignmentError, DimensionError
from alphascreen.io import (
    load_factors_csv,
    load_returns_csv,
    save_factors_csv,
    save_returns_csv,
    write_csv,
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

    @pytest.mark.parametrize(
        "values, ids, periods, message",
        [
            (np.ones((0, 6)), [], range(6), "return panel needs at least one entity"),
            (np.ones((2, 6)), ["a"], range(6), "entity_ids length does not match row count"),
            (np.ones((2, 6)), ["a", "b"], range(5), "time_index length does not match column count"),
        ],
        ids=["no_entity", "short_ids", "short_time_index"],
    )
    def test_degenerate_shape_refused(self, values, ids, periods, message):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            ReturnPanel(values, ids, list(periods))

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

    @pytest.mark.parametrize("big", [1.7e308, 1e200, -1e200])
    def test_values_whose_squares_overflow_refused_at_the_largest(self, big):
        # each fit sums squared returns, and at inf would fail with an
        # unrelated message (no eigenvalue above the floor, no OLS variance)
        values = np.random.default_rng(0).standard_normal((40, 60))
        values[3, 5] = big
        values[7, 1] = 1e150  # its square alone stays finite
        message = (
            "return panel values overflow when squared and summed: the largest in "
            f"magnitude, {big!r}, is at row 3, column 5"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ReturnPanel(values, [f"e{i}" for i in range(40)], list(range(60)))

    def test_non_finite_named_before_an_overflow(self):
        values = np.ones((2, 4))
        values[0, 1], values[1, 3] = 1e300, -np.inf
        message = "^return panel contains a non-finite value at row 1, column 3$"
        with pytest.raises(ValueError, match=message):
            ReturnPanel(values, ["a", "b"], [1, 2, 3, 4])

    def test_largest_squares_that_sum_finitely_kept(self):
        values = np.full((2, 4), 1e153)
        assert np.isfinite(np.sum(values * values))
        assert ReturnPanel(values, ["a", "b"], [1, 2, 3, 4]).values.max() == 1e153

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_keeps_each_rows_sum_of_squares(self, order):
        # the baselines' check for an exactly fitted row reads them instead
        # of another pass over the panel
        values = np.asarray(np.random.default_rng(1).standard_normal((5, 8)), order=order)
        panel = ReturnPanel(values, list("abcde"), range(8))
        assert np.array_equal(panel.row_squares, np.einsum("ij,ij->i", values, values))
        assert not panel.row_squares.flags.writeable
        head = values[:, :4]
        assert np.array_equal(panel.slice_periods(0, 4).row_squares, np.einsum("ij,ij->i", head, head))

    def test_duplicate_entity_ids_refused(self):
        for ids, message in [
            (["a", "a"], "'a' appears twice, at positions 0 and 1"),
            (["a", "b", "c", "b", "a"], "'b' appears twice, at positions 1 and 3"),
        ]:
            with pytest.raises(ValueError, match=f"^return panel entity id {message}$"):
                ReturnPanel(np.ones((len(ids), 4)), ids, [1, 2, 3, 4])

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

    def test_duplicate_names_refused(self):
        values = np.random.default_rng(0).standard_normal((8, 3))  # independent columns
        with pytest.raises(
            ValueError, match="^factor panel name 'mkt' appears twice, at positions 0 and 2$"
        ):
            FactorPanel(values, ["mkt", "smb", "mkt"], list(range(8)))

    @pytest.mark.parametrize(
        "names, periods, message",
        [
            (["a"], range(8), "factor names length does not match column count"),
            (["a", "b"], range(7), "time_index length does not match row count"),
        ],
        ids=["short_names", "short_time_index"],
    )
    def test_label_length_mismatch_refused(self, names, periods, message):
        values = np.random.default_rng(0).standard_normal((8, 2))
        with pytest.raises(DimensionError, match=f"^{message}$"):
            FactorPanel(values, names, list(periods))

    def test_needs_more_periods_than_factors(self):
        with pytest.raises(DimensionError):
            FactorPanel(np.random.default_rng(0).standard_normal((3, 2)), ["a", "b"], [1, 2, 3])

    def test_values_that_overflow_when_demeaned_refused(self):
        # the column mean overflows; the rank check would otherwise see NaN
        values = np.array([[1.7e308, 0.5], [1.7e308, -1.0], [1.7e308, 2.0], [0.5, 0.25]])
        with pytest.raises(ValueError, match="^factor panel values overflow when demeaned$"):
            FactorPanel(values, ["f1", "f2"], [1, 2, 3, 4])


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

    def test_byte_outside_utf8_located(self, tmp_path):
        path = tmp_path / "returns.csv"
        panel = ReturnPanel(np.ones((2, 4)), ["a", "café"], [1, 2, 3, 4])
        save_returns_csv(panel, path)
        assert b"\ncaf\xc3\xa9," in path.read_bytes()
        assert load_returns_csv(path).entity_ids == ("a", "café")
        for bom in (b"", b"\xef\xbb\xbf"):  # the line and the byte are the same after a BOM
            path.write_bytes(bom + b"entity_id,1,2,3,4\na,0.1,0.2,0.3,0.4\ncaf\xe9,0.1,0.2,0.3,0.4\n")
            with pytest.raises(ValueError) as caught:
                load_returns_csv(path)
            assert str(caught.value) == f"{path}: line 3 holds the byte 0xe9, which is not UTF-8"

    def test_utf8_bom_is_skipped(self, tmp_path):
        # as a spreadsheet's "CSV UTF-8" export writes it
        panel = small_panel(p=3, n=5)
        save_returns_csv(panel, tmp_path / "returns.csv")
        save_factors_csv(FactorPanel(panel.values.T[:, :2], ["mkt", "smb"], panel.time_index),
                         tmp_path / "factors.csv")
        for name in ("returns.csv", "factors.csv"):
            (tmp_path / f"bom_{name}").write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
        want, got = load_returns_csv(tmp_path / "returns.csv"), load_returns_csv(tmp_path / "bom_returns.csv")
        assert (got.entity_ids, got.time_index) == (want.entity_ids, want.time_index)
        assert np.array_equal(got.values, want.values)
        want, got = load_factors_csv(tmp_path / "factors.csv"), load_factors_csv(tmp_path / "bom_factors.csv")
        assert (got.names, got.time_index) == (want.names, want.time_index)
        assert np.array_equal(got.values, want.values)

    def test_labels_with_delimiters_round_trip(self, tmp_path):
        # only the label cells that need it are quoted, as csv.QUOTE_MINIMAL
        # does, and those starting with "#", which a comment-skipping reader drops
        values = np.random.default_rng(7).standard_normal((4, 6))
        ids = ["a,b", 'say "hi"', "two\nlines", "#lead"]
        panel = ReturnPanel(values, ids, [1, 2, 3, 4, 5, 6])
        save_returns_csv(panel, tmp_path / "returns.csv")
        back = load_returns_csv(tmp_path / "returns.csv")
        assert back.entity_ids == panel.entity_ids
        assert np.array_equal(back.values, values)
        assert '\n"#lead",' in (tmp_path / "returns.csv").read_text()
        periods = ["a,1", "b,2", "c,3", "d,4", "e,5", "f,6"]
        factors = FactorPanel(values.T, ["mkt,rf", "smb", '"hml"', "#umd"], periods)
        save_factors_csv(factors, tmp_path / "factors.csv")
        text = (tmp_path / "factors.csv").read_text()
        assert text.startswith('period,"mkt,rf",smb,"""hml""","#umd"\n"a,1",')
        back = load_factors_csv(tmp_path / "factors.csv")
        assert back.names == factors.names and back.time_index == factors.time_index
        assert np.array_equal(back.values, factors.values)
        with open(tmp_path / "factors.csv", newline="") as handle:
            assert list(csv.reader(handle))[0] == ["period", *factors.names]

    def test_padded_labels_refused_on_save(self, tmp_path):
        values = np.random.default_rng(7).standard_normal((2, 5))
        for ids, padded in [([" a", "b"], " a"), (["a", "b "], "b "), (["a", "\tb"], "\tb")]:
            with pytest.raises(ValueError) as caught:
                save_returns_csv(ReturnPanel(values, ids, [1, 2, 3, 4, 5]), tmp_path / "r.csv")
            assert str(caught.value).startswith(f"label {padded!r} has leading or trailing")
        factors = FactorPanel(values.T, [" mkt", "smb"], [1, 2, 3, 4, 5])
        with pytest.raises(ValueError, match="^label ' mkt' has leading or trailing whitespace"):
            save_factors_csv(factors, tmp_path / "f.csv")
        assert not (tmp_path / "r.csv").exists() and not (tmp_path / "f.csv").exists()
        # the loaders strip labels, so a padded hand-made file still loads
        path = tmp_path / "factors.csv"
        path.write_text("period, mkt ,smb\n1,0.1,0.2\n2,0.3,0.1\n 3 ,0.2,0.7\n4,0.5,0.4\n")
        back = load_factors_csv(path)
        assert back.names == ("mkt", "smb") and back.time_index == (1, 2, 3, 4)

    @pytest.mark.parametrize(
        "text, kind, message",
        [
            ("entity_id,1,2,3,4\na,0.1,nan,0.3,0.4\n", ValueError,
             "return panel contains a non-finite value at row 0, column 1"),
            ("entity_id,1,2,3\na,0.1,0.2,0.3\n", DimensionError,
             "return panel needs at least 4 periods"),
            ("entity_id,1,3,2,4\na,0.1,0.2,0.3,0.4\n", ValueError,
             "return panel time index is not strictly increasing at 3 -> 2"),
        ],
        ids=["non-finite", "too-few-periods", "time-order"],
    )
    def test_panel_check_names_the_file(self, tmp_path, text, kind, message):
        path = tmp_path / "returns.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            load_returns_csv(path)
        assert type(caught.value) is kind
        assert str(caught.value).startswith(f"{path}: {message}")

    def test_plain_labels_stay_unquoted(self, tmp_path):
        panel = small_panel(p=2, n=4)
        save_returns_csv(panel, tmp_path / "returns.csv")
        expected = ["entity_id,1,2,3,4"] + [
            eid + "," + ",".join(map(repr, row.tolist()))
            for eid, row in zip(panel.entity_ids, panel.values)
        ]
        assert (tmp_path / "returns.csv").read_text() == "\n".join(expected) + "\n"


class TestWriteCsv:
    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(
            path,
            ["label", "floats", "array", "float32", "ints", "a,b"],
            [
                ["x", 'q"t', "#c", 7],
                [math.nan, math.inf, -0.0, np.float64(0.1)],
                np.array([math.nan, -math.inf, -0.0, 1e-300]),
                np.array([0.1, 1, 2, 3], dtype=np.float32),
                np.array([1, 0, -3, 2**40]),
                ["", 2.5, "two\nlines", " y".strip()],
            ],
        )
        assert path.read_bytes() == (
            b'label,floats,array,float32,ints,"a,b"\n'
            b"x,nan,nan,0.10000000149011612,1,\n"
            b'"q""t",inf,-inf,1.0,0,2.5\n'
            b'"#c",-0.0,-0.0,2.0,-3,"two\nlines"\n'
            b"7,0.1,1e-300,3.0,1099511627776,y\n"
        )

    def test_comment_line(self, tmp_path):
        path = tmp_path / "t.csv"
        comment = {"method": "yd", "beta": 0.1, "threshold": math.inf, "rank_hat": "", "n": 60}
        write_csv(path, ["entity_id", "rejected"], [["e1"], np.array([1])], comment=comment)
        assert path.read_text() == (
            "entity_id,rejected\ne1,1\n# method=yd,beta=0.1,threshold=inf,rank_hat=,n=60\n"
        )

    def test_empty_table_is_its_header(self, tmp_path):
        for columns in ([], [np.array([]), []]):
            write_csv(tmp_path / "t.csv", ["method", "beta"], columns)
            assert (tmp_path / "t.csv").read_bytes() == b"method,beta\n"

    def test_columns_of_unequal_length_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
        assert not (tmp_path / "t.csv").exists()

    def test_utf8_whatever_the_locale(self, tmp_path):
        code = (
            "import locale, sys\n"
            "from alphascreen.io import write_csv\n"
            "print(locale.getpreferredencoding(False))\n"
            "write_csv(sys.argv[1], ['entity_id', 'x'], [['caf\\u00e9'], [1.5]])\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        result = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "t.csv")], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        )
        assert "utf" not in result.stdout.lower()  # the locale's encoding is not UTF-8
        assert (tmp_path / "t.csv").read_bytes() == "entity_id,x\ncafé,1.5\n".encode()


HEADERS = {"entity_id": "entity_id,t1,t2,...", "period": "period,f1,..."}

# Cells outside the byte path's number grammar that float() may still
# read, or that the csv format gives a meaning: comments, digit
# separators, padding, quotes, non-finite values, empty cells and cells
# holding a delimiter.
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

finite = st.floats(allow_nan=False, allow_infinity=False)
digit_strings = st.builds(
    lambda sign, digits, point: sign + digits[:point] + "." * (0 < point < len(digits)) + digits[point:],
    st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=19), st.integers(0, 19),
)
exponents = st.builds(lambda e, sign, n: e + sign + n, st.sampled_from("eE"),
                      st.sampled_from(["", "+", "-"]), st.integers(0, 400).map(str))
number_cells = st.one_of(
    finite.map(repr), finite.map("%.6f".__mod__), finite.map("%e".__mod__),
    st.builds(str.__add__, digit_strings, exponents | st.just("")),
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


@st.composite
def plain_table_texts(draw, first):
    """CSV text with number cells in the byte path's grammar, LF or CRLF
    endings, blank lines and sometimes no final line break, and whether it
    is plain: sometimes one row is a cell short and another a cell long, or
    a label holds a lone carriage return, which ends a line."""
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 5))
    widths = [n] * rows
    if rows > 1 and draw(st.integers(0, 4)) == 0:
        widths[0], widths[-1] = n - 1, n + 1
    lines = [",".join([first, *map(str, range(1, n + 1))])]
    names = draw(st.lists(st.sampled_from(["e1", " e2 ", "", "#", "x y", "\t", "a\rb"]),
                          min_size=rows, max_size=rows))
    for width, name in zip(widths, names):
        lines.append(",".join([name, *draw(st.lists(number_cells, min_size=width, max_size=width))]))
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + end
    plain = widths == [n] * rows and "a\rb" not in names
    return (text if draw(st.booleans()) else text.rstrip("\r\n")), plain


def table_outcome(read):
    """What a table read returns, or the type and message of what it raises."""
    try:
        header_cells, first_column, values = read()
    except ValueError as exc:
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

    @pytest.mark.parametrize("first", sorted(HEADERS))
    @given(data=st.data())
    @hyp_settings(max_examples=300, deadline=None)
    def test_plain_tables_take_the_byte_path(self, tmp_path_factory, first, data):
        text, plain = data.draw(plain_table_texts(first))
        path = tmp_path_factory.getbasetemp() / "plain.csv"
        path.write_bytes(text.encode())
        # a small conversion step splits even these tables into several
        with mock.patch.object(table_io, "_CHUNK", data.draw(st.sampled_from([1, 40, 1 << 18]))):
            table = table_io._byte_table(text.encode(), HEADERS[first])
            assert (table is not None) == plain
            assert_reader_matches_per_cell_parser(path, HEADERS[first])

    @pytest.mark.parametrize("width", [0, 1])
    def test_field_size_limit_is_the_csv_modules(self, tmp_path, width):
        # a cell one character over the limit is refused by the per-cell parser only
        cell = " " * (csv.field_size_limit() - 1 + width) + "1"
        path = tmp_path / "returns.csv"
        path.write_text(f"entity_id,1\na,{cell}\n")
        assert_reader_matches_per_cell_parser(path, HEADERS["entity_id"])

    def test_plain_file_takes_the_fast_path(self, tmp_path):
        # LF and CRLF endings, blank lines and exponent cells stay on the byte path
        path = tmp_path / "returns.csv"
        save_returns_csv(small_panel(p=5, n=8), path)
        lf = path.read_bytes()
        exponent = b"entity_id,1,2,3,4\na,1e-05,-2.5E+01,3.25e2,0.5\nb,0.5,7e0,-1.0e-300,2E22\n"
        for data in [
            lf, lf.replace(b"\n", b"\r\n"), b"\n\r\n" + lf.replace(b"\n", b"\n\n", 3) + b"\n",
            lf.rstrip(b"\n"), exponent,
        ]:
            path.write_bytes(data)
            with open(path, newline="") as handle:
                lines = handle.readlines()
            fast = table_io._byte_table(data, HEADERS["entity_id"])
            assert fast is not None
            per_cell = table_io._parse_table(lines, path, HEADERS["entity_id"])
            assert fast[:2] == per_cell[:2]
            assert np.array_equal(fast[2], per_cell[2])

    @pytest.mark.parametrize("source, cell", [("_byte_table", "0.1"), ("_parse_table", '"0.1"')])
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

        for name in ("_byte_table", "_parse_table"):
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


READERS = pytest.mark.parametrize("reader", ["byte-path", "per-cell"])


def read_with(reader, load, path):
    """``load(path)``; ``per-cell`` reads with the per-cell parser alone, and
    ``byte-path`` takes the byte path wherever the file allows it."""
    if reader == "per-cell":
        with mock.patch.object(table_io, "_byte_table", lambda data, header: None):
            return load(path)
    return load(path)


labels = st.text(max_size=5) | st.sampled_from(["a", " a", "a ", "a,b", '"', "\r", "x\ny", "é"])


PANELS = {
    "returns": (ReturnPanel, save_returns_csv, load_returns_csv, "entity_ids"),
    "factors": (FactorPanel, save_factors_csv, load_factors_csv, "names"),
}


@st.composite
def saved_panels(draw, kind):
    """A returns or factors panel with string labels, integer periods (the
    loaders read period labels as numbers) and any finite values a panel
    takes: a return panel refuses values whose sum of squares overflows,
    so its at most 28 values are drawn within 1e153 in magnitude but for
    one cell, which reaches 1.3e154, near the largest a panel takes.

    Free draws of factor values mix magnitudes, and about two in three
    make columns that the rank check finds dependent after demeaning.
    Such a draw is kept but for r + 1 of its rows, drawn at random: one of
    zeros and, per column, one that is zero but for the draw's largest
    magnitude in that column.  Those rows alone keep the demeaned columns'
    smallest singular value at least that magnitude over sqrt(r + 1), so
    the check passes unless demeaning overflows.  A draw the check accepts
    is kept whole."""
    if kind == "returns":
        n_labels, n_periods = draw(st.integers(1, 4)), draw(st.integers(4, 7))
        shape, values = (n_labels, n_periods), st.floats(-1e153, 1e153)
    else:
        n_labels = draw(st.integers(1, 3))
        n_periods = n_labels + draw(st.integers(2, 4))
        shape, values = (n_periods, n_labels), finite
    size = n_labels * n_periods
    values = draw(st.lists(values, min_size=size, max_size=size))
    if kind == "returns":
        values[draw(st.integers(0, size - 1))] = draw(st.floats(-1.3e154, 1.3e154))
    values = np.reshape(values, shape)
    names = draw(st.lists(labels, min_size=n_labels, max_size=n_labels, unique=True))
    periods = draw(st.sets(st.integers(-10**6, 10**6), min_size=n_periods, max_size=n_periods))
    periods = sorted(periods)
    make = PANELS[kind][0]
    try:
        return make(values, names, periods)
    except DimensionError:  # dependent factor columns
        largest = np.abs(values).max() or 1.0
        rows = draw(st.permutations(range(n_periods)))[: n_labels + 1]
        values[rows] = 0.0
        values[rows[1:], range(n_labels)] = largest
    except ValueError:  # values that overflow
        assume(False)
    try:
        return make(values, names, periods)
    except ValueError:  # values that overflow when demeaned
        assume(False)


FILE_PIECES = [
    b"entity_id", b"period", b",", b"\n", b"\r\n", b"\r", b'"', b" ", b"0.5", b"-2e1", b"1e999",
    b"1.7e308", b"nan", b"3", b"a", b"\xe9", b"\x00", b"#",
]
file_bytes = st.binary(max_size=80) | st.builds(
    bytes.__add__,
    st.sampled_from([b"", b"entity_id,1,2,3,4\n", b"period,f1,f2\n"]),
    st.lists(st.sampled_from(FILE_PIECES) | st.binary(max_size=3), max_size=40).map(b"".join),
)


class TestPanelFileProperties:
    @READERS
    @pytest.mark.parametrize("kind", sorted(PANELS))
    @given(data=st.data())
    @hyp_settings(max_examples=200, deadline=None)
    def test_save_then_load_is_exact_or_the_save_raises(self, tmp_path_factory, reader, kind, data):
        panel = data.draw(saved_panels(kind))
        _, save, load, labels_of = PANELS[kind]
        path = tmp_path_factory.getbasetemp() / f"{kind}.csv"
        path.unlink(missing_ok=True)
        try:
            save(panel, path)
        except ValueError:
            assert any(label != label.strip() for label in getattr(panel, labels_of))
            assert not path.exists()
            return
        back = read_with(reader, load, path)
        assert getattr(back, labels_of) == getattr(panel, labels_of)
        assert back.time_index == panel.time_index
        assert back.values.shape == panel.values.shape
        assert back.values.tobytes() == panel.values.tobytes()

    @READERS
    @pytest.mark.parametrize("kind", sorted(PANELS))
    @given(data=file_bytes)
    @hyp_settings(max_examples=300, deadline=None)
    def test_any_bytes_load_or_raise_a_value_error_naming_the_file(
        self, tmp_path_factory, reader, kind, data
    ):
        path = tmp_path_factory.getbasetemp() / f"{kind}-bytes.csv"
        path.write_bytes(data)
        try:
            read_with(reader, PANELS[kind][2], path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc


def decimal_values(tokens):
    cells = table_io._decimal_cells("".join(token + "," for token in tokens).encode())
    return None if cells is None else cells[0]


def assert_reads_as_float(tokens, wide=np.longdouble):
    # wide=np.float64 stands for a platform whose long double is a double
    with mock.patch.object(table_io, "_WIDE", wide):
        values = decimal_values(tokens)
    assert values is not None
    expected = np.array([float(token) for token in tokens])
    assert np.array_equal(values.view(np.int64), expected.view(np.int64)), tokens


wides = pytest.mark.parametrize("wide", [np.longdouble, np.float64], ids=["longdouble", "float64"])


class TestDecimalCells:
    """The byte path's number conversion reads what float() reads, bit for bit."""

    @wides
    @given(st.lists(finite, min_size=1, max_size=40))
    @hyp_settings(max_examples=200, deadline=None)
    def test_repr_of_doubles(self, wide, values):
        assert_reads_as_float([repr(v) for v in values], wide)

    @wides
    @given(st.lists(finite, min_size=1, max_size=40), st.sampled_from(["%.17g", "%.6f", "%e"]))
    @hyp_settings(max_examples=200, deadline=None)
    def test_printf_renderings(self, wide, values, style):
        assert_reads_as_float([style % v for v in values], wide)

    @wides
    @given(st.lists(st.tuples(digit_strings, st.none() | exponents), min_size=1, max_size=40))
    @hyp_settings(max_examples=200, deadline=None)
    def test_digit_strings_with_a_point_anywhere(self, wide, cells):
        assert_reads_as_float([digits + (exponent or "") for digits, exponent in cells], wide)

    @wides
    def test_signed_zeros_leading_zeros_and_long_mantissas(self, wide):
        assert_reads_as_float([
            "-0.0", "0.0", "-0", "0", "-0e5", "000.000", "-00012.50", "0.000000000000000000001",
            "0000000000000000000001", "9223372036854775807", "-9223372036854775808",
            "99999999999999999999", "-99999999999999999999", "123456789012345678901234567890",
            "1e22", "1e23", "1e-22", "1e-23", "1.7976931348623157e308", "5e-324", "1e400", "-1e-400",
            "1e99999999999999999999", "1e-99999999999999999999", "4.9406564584124654e-324",
        ], wide)

    @wides
    def test_exact_range_is_exact_in_the_type(self, wide):
        dtype, top, reach = table_io._exact_range(wide)
        assert all(int(dtype(m)) == m for m in (top, -top, 2**53 + 1) if m <= top)
        assert all(int(dtype(10**k)) == 10**k for k in range(reach + 1))
        assert int(dtype(10 ** (reach + 1))) != 10 ** (reach + 1)

    def test_integer_overflow_saturates(self):
        # the conversion takes a mantissa at or above 10**18 in size for an
        # overflowed one and reads it with float()
        parsed = np.fromstring(b"99999999999999999999,-99999999999999999999", np.int64, sep=",")
        assert (np.abs(parsed.astype(float)) >= 1e18).all()

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63, reason="needs x87 extended precision")
    @pytest.mark.parametrize(
        "token, value, rounded_twice",
        [
            # rounded to 64 bits the quotient lands on the midpoint between
            # 0.9582652054360887 and ...888, and then rounds to the even one
            ("0.958265205436088785", 0.9582652054360888, 0.9582652054360887),
            # 2**53 + 1 is a midpoint itself; ties go to even
            ("9007199254740993", 9007199254740992.0, 9007199254740992.0),
        ],
    )
    def test_midpoints_are_read_by_float(self, monkeypatch, token, value, rounded_twice):
        reparsed = []

        def recording(cells, starts, ends):
            reparsed.extend(cells[a:b] for a, b in zip(starts, ends))
            return reparse(cells, starts, ends)

        reparse = table_io._reparse
        monkeypatch.setattr(table_io, "_reparse", recording)
        values = decimal_values(["0.5", token, "-1.25"])
        assert values.tolist() == [0.5, value, -1.25]
        assert reparsed == [token.encode()]
        scale = 10 ** len(token.partition(".")[2])
        assert (np.longdouble(int(token.replace(".", ""))) / scale).astype(float) == rounded_twice
        monkeypatch.setattr(table_io, "_WIDE", np.float64)
        reparsed.clear()
        assert decimal_values([token]).tolist() == [value]
        assert reparsed == [token.encode()]  # beyond 2**53: outside Clinger's fast path

    @pytest.mark.parametrize(
        "cell",
        ["", "-", "+1", "1.", ".5", "1..2", "1.2.3", "1e", "1e+", "e5", "1e5e3", "1e5.3", "1e-5.3",
         "1e+5e3", "1.e5",
         "--1", "1-2", "1e--2", "1e-+2", "1 ", " 1", "0x10", "inf", "nan", "1_0", "1,", "١"],
    )
    def test_cells_outside_the_grammar_are_left_to_float(self, cell):
        assert decimal_values(["0.5", cell]) is None
