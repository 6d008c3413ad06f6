import numpy as np
import pytest

from alphascreen.errors import DimensionError, RankDeficientError
from alphascreen.linalg import demean_columns, least_squares


class TestDemeanColumns:
    def test_constant_column_annihilated(self):
        m = np.full((6, 1), 3.7)
        assert np.allclose(demean_columns(m), 0.0, atol=1e-12)

    def test_simple_arithmetic(self):
        out = demean_columns(np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(out[:, 0], [-1.0, 0.0, 1.0])

    def test_matches_explicit_projector_matrix(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 3))
        q = np.eye(5) - np.ones((5, 5)) / 5.0
        assert np.allclose(demean_columns(m), q @ m, atol=1e-12)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((40, 7)) * 1e3
        out = demean_columns(m)
        tol = 1e-10 * 40 * np.abs(m).max()
        assert np.abs(out.sum(axis=0)).max() < tol

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            demean_columns(np.empty((0, 3)))


class TestLeastSquares:
    def test_identity_design(self):
        y = np.array([1.0, -2.0, 0.5])
        assert np.allclose(least_squares(np.eye(3), y), y)

    def test_mean_via_ones_design(self):
        coef = least_squares(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(coef, [2.0])

    def test_exact_fit_recovery(self):
        rng = np.random.default_rng(7)
        design = rng.standard_normal((20, 3))
        beta = rng.standard_normal((3, 2))
        coef = least_squares(design, design @ beta)
        assert np.abs(coef - beta).max() < 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(21)
        design = rng.standard_normal((30, 4))
        y = rng.standard_normal((30, 5))
        resid = y - design @ least_squares(design, y)
        scale = np.abs(design.T @ y).max()
        assert np.abs(design.T @ resid).max() < 1e-8 * max(scale, 1.0)

    def test_rank_deficient_raises_with_condition(self):
        design = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(RankDeficientError) as excinfo:
            least_squares(design, np.ones(10))
        assert excinfo.value.condition > 1e10

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            least_squares(np.ones((5, 1)), np.ones(4))
