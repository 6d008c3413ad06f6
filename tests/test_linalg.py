import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import alphascreen.baselines as baselines
import alphascreen.estimation as estimation
import alphascreen.linalg as linalg
import alphascreen.simulation as simulation
from alphascreen.errors import DimensionError, RankDeficientError
from alphascreen.linalg import demean_columns, least_squares, one_blas_thread


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


class TestTriangularSolve:
    """``least_squares`` solves the QR's triangular factor with
    ``np.linalg.solve``; ``scipy.linalg.solve_triangular`` on the same
    factors is the reference, within 1e-14 of the solution's largest
    magnitude."""

    @pytest.mark.parametrize("n", [60, 100, 200])
    def test_within_tolerance_of_solve_triangular(self, n):
        rng = np.random.default_rng(n)
        for k in range(1, 12):
            for shape in ((n,), (n, 1), (n, 7), (n, 1000)):
                design, response = rng.standard_normal((n, k)), rng.standard_normal(shape)
                q, r = np.linalg.qr(design)
                want = scipy.linalg.solve_triangular(r, q.T @ response)
                got = least_squares(design, response)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("shape", [(30,), (30, 4)], ids=["vector", "matrix"])
    def test_non_finite_response_raises_scipys_error(self, shape):
        response = np.ones(shape)
        response[3] = np.nan
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            least_squares(np.random.default_rng(0).standard_normal((30, 3)), response)


def _thread_counts():
    return [get() for _, get in linalg._BLAS_CONTROLS]


_PANEL = simulation.SimulationScenario(n=40, p=40, pi=0.1, nu=0.8, seed=23)
_CAPPED = [1] * len(linalg._BLAS_CONTROLS)


def _settled_thread_count(timeout=5.0):
    """The process's OS thread count once two reads 20 ms apart agree: a
    thread an earlier test joined may stay listed for a moment.  After
    ``timeout`` seconds the last read is returned."""
    deadline = time.monotonic() + timeout
    count = len(os.listdir("/proc/self/task"))
    while True:
        time.sleep(0.02)
        again = len(os.listdir("/proc/self/task"))
        if again == count or time.monotonic() >= deadline:
            return again
        count = again


class TestOneBlasThread:
    """Each block runs numpy's bundled OpenBLAS at one thread (``_CAPPED``);
    ``caller_blas_threads`` set it to two beforehand."""

    def test_controls_numpys_openblas_alone(self):
        assert len(linalg._BLAS_CONTROLS) == 1

    def test_the_last_thread_to_leave_restores_the_callers_counts(self, caller_blas_threads):
        def hold(entered, release, seen):
            with one_blas_thread():
                entered.set()
                release.wait(timeout=60)
                seen.append(_thread_counts())

        first, second = [(threading.Event(), threading.Event(), []) for _ in range(2)]
        threads = [threading.Thread(target=hold, args=args) for args in (first, second)]
        try:
            threads[0].start()
            assert first[0].wait(timeout=60)
            threads[1].start()
            assert second[0].wait(timeout=60)
            first[1].set()  # the first to enter leaves first
            threads[0].join(timeout=60)
            assert _thread_counts() == _CAPPED  # the second is still inside
        finally:
            # a failed assertion must leave no thread inside the cap
            for _, release, _ in (first, second):
                release.set()
            for thread in threads:
                if thread.ident is not None:  # started
                    thread.join(timeout=60)
        assert first[2] == [_CAPPED] and second[2] == [_CAPPED]
        assert _thread_counts() == caller_blas_threads

    def test_nested_blocks(self, caller_blas_threads):
        with one_blas_thread():
            with one_blas_thread():
                assert _thread_counts() == _CAPPED
            assert _thread_counts() == _CAPPED
        assert _thread_counts() == caller_blas_threads

    def test_restored_when_the_block_raises(self, caller_blas_threads):
        with pytest.raises(RuntimeError, match="inside"):
            with one_blas_thread():
                with one_blas_thread():
                    raise RuntimeError("inside")
        assert _thread_counts() == caller_blas_threads
        with one_blas_thread():  # the next block caps again
            assert _thread_counts() == _CAPPED
        assert _thread_counts() == caller_blas_threads

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
    def test_never_parks_openblas_workers(self, caller_blas_threads):
        # stopping the workers is unsafe while a BLAS call runs, and a library
        # caller may run one in another thread; only the CLI parks them
        before = _settled_thread_count()
        with one_blas_thread():
            inside = len(os.listdir("/proc/self/task"))
        assert inside == before == len(os.listdir("/proc/self/task"))

    def test_parking_is_a_no_op_without_the_symbol(self, tmp_path, monkeypatch):
        (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a shared library")
        monkeypatch.setattr(linalg, "_OPENBLAS_DIR", tmp_path)
        monkeypatch.setattr(linalg, "_BLAS_SHUTDOWN", linalg._load_openblas()[1])
        assert linalg._BLAS_SHUTDOWN is None  # nothing loadable in the patched directory
        linalg.park_blas_workers()  # raises nothing

    @pytest.mark.parametrize(
        "module, inner, call",
        [
            (estimation, "least_squares", estimation.estimate_alpha),
            (simulation, "_assemble_panel", lambda *_: simulation.generate_panel(
                _PANEL, np.random.default_rng(0))),
            (estimation, "least_squares", baselines.bh_statistics),
        ],
        ids=["estimate_alpha", "generate_panel", "bh_statistics"],
    )
    def test_public_entry_points_cap_themselves(
        self, monkeypatch, caller_blas_threads, module, inner, call
    ):
        returns, factors, _, _ = simulation.generate_panel(_PANEL, np.random.default_rng(1))
        seen, original = [], getattr(module, inner)

        def probe(*args):
            seen.append(_thread_counts())
            return original(*args)

        monkeypatch.setattr(module, inner, probe)
        call(returns, factors)  # called directly, outside any runner
        assert seen and all(counts == _CAPPED for counts in seen)
        assert _thread_counts() == caller_blas_threads
