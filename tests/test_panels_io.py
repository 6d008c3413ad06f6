import numpy as np
import pytest

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

    def test_too_few_periods(self):
        with pytest.raises(DimensionError):
            ReturnPanel(np.ones((2, 3)), ["a", "b"], [1, 2, 3])

    def test_non_increasing_time(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ReturnPanel(np.ones((1, 4)), ["a"], [1, 3, 2, 4])

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
