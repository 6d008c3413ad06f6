"""Dense linear-algebra primitives used throughout the estimation pipeline,
the package's one BLAS thread policy (:func:`one_blas_thread`, and
:func:`park_blas_workers` for the CLI), and the linear filter of the panel
generator (:func:`lfilter`).  The first two call numpy's bundled OpenBLAS,
the only BLAS library the package loads; the filter calls scipy's compiled
routine without importing scipy.

The primitives are deterministic and pure.  The solver deliberately goes
through an orthogonal (QR) factorization and solves its triangular factor
with ``np.linalg.solve``; normal equations are never formed explicitly.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DimensionError, RankDeficientError

__all__ = [
    "RANK_RTOL", "demean_columns", "least_squares", "one_blas_thread", "park_blas_workers",
]

# Relative singular-value cutoff below which a design matrix is declared
# rank deficient.
RANK_RTOL = 1e-10


def demean_columns(matrix: np.ndarray) -> np.ndarray:
    """Subtract the mean of each column.

    Equivalent to applying the complement of the projector onto the
    all-ones vector, without materializing an n-by-n matrix.
    """
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        raise DimensionError("cannot demean an empty matrix")
    return m - m.mean(axis=0, keepdims=True)


def least_squares(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Minimum-norm coefficients of ``response`` regressed on ``design``.

    Parameters
    ----------
    design : ndarray, shape (n, k)
        Full column rank design matrix.
    response : ndarray, shape (n,) or (n, m)
        One or many right-hand sides.

    Returns
    -------
    ndarray, shape (k,) or (k, m)
        Coefficients minimizing the squared reconstruction error,
        computed through a QR factorization whose triangular factor is
        solved once, against ``q.T``.  They agree with scipy's
        ``solve_triangular`` on the same factors to within 1e-14 times
        their largest magnitude, not bit for bit.

    Raises
    ------
    RankDeficientError
        If the smallest singular value falls below ``RANK_RTOL`` times
        the largest.  The estimated condition number is attached to the
        exception.
    ValueError
        If ``response`` holds an inf or a NaN.
    """
    a = np.asarray(design, dtype=float)
    b = np.asarray(response, dtype=float)
    if a.ndim != 2:
        raise DimensionError("design must be a 2-d matrix")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(
            f"design has {a.shape[0]} rows but response has {b.shape[0]}"
        )
    if a.shape[0] < a.shape[1]:
        raise DimensionError("design has fewer rows than columns")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        cond = sv[0] / sv[-1] if sv[-1] > 0 else float("inf")
        raise RankDeficientError(
            f"design is numerically rank deficient (condition ~ {cond:.3e})",
            condition=cond,
        )
    np.asarray_chkfinite(b)  # a NaN response raises ValueError, not a NaN fit
    q, r = np.linalg.qr(a)
    return np.linalg.solve(r, q.T) @ b


# numpy's wheel bundles an OpenBLAS in ``numpy.libs``, with 64-bit integers
# and a ``64_`` symbol suffix; numpy has loaded it by the time this runs.
_OPENBLAS_DIR = Path(np.__file__).parent.with_name("numpy.libs")


def _load_openblas() -> tuple:
    """``(controls, shutdown)`` of the OpenBLAS in ``_OPENBLAS_DIR``: its
    ``(set_num_threads, get_num_threads)`` pair in a tuple, or ``()``, and
    its ``blas_thread_shutdown_`` or None."""
    for path in sorted(_OPENBLAS_DIR.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if setter is None or getter is None:
            return (), shutdown
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return ((setter, getter),), shutdown
    return (), None


# Looked up, never set, at import.  Every thread of the process, a study's
# pool included, shares the lookup.
_BLAS_CONTROLS, _BLAS_SHUTDOWN = _load_openblas()
_cap_lock = threading.Lock()
_cap_holders = 0
_saved_count = 1


@contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS at one thread.

    Each fit makes many small BLAS and LAPACK calls, and a study runs fits
    on several threads at once; at one BLAS thread each, the calls do not
    contend with the study's threads for the cores.  The cap is
    process-wide and reference-counted, so blocks may nest and run in
    several threads at once: the first to enter saves the thread count
    and sets one, and the last to leave restores it, also when a block
    raises.  Blocks entered under an outer holder, such as a CLI command,
    only count.  The lock guards only the count, never the block.  Without
    a bundled OpenBLAS nothing is done.

    The cap leaves OpenBLAS's worker threads running: it never calls
    :func:`park_blas_workers`, which is safe only while no BLAS call runs,
    and a library caller may have one running in another thread.
    """
    global _cap_holders, _saved_count
    with _cap_lock:
        if _cap_holders == 0:
            for set_threads, get_threads in _BLAS_CONTROLS:
                _saved_count = get_threads()
                set_threads(1)
        _cap_holders += 1
    try:
        yield
    finally:
        with _cap_lock:
            _cap_holders -= 1
            if _cap_holders == 0:
                for set_threads, _ in _BLAS_CONTROLS:
                    set_threads(_saved_count)


def park_blas_workers() -> None:
    """Stop the worker threads of numpy's bundled OpenBLAS.

    ``import numpy`` starts one worker per extra core, and each busy-waits
    for about 130 ms before it sleeps, taking a core from the process's
    own threads.  Call this only inside :func:`one_blas_thread` and while
    no other thread can make a BLAS call: OpenBLAS re-creates the workers
    on its next change of thread count, which the cap makes when it is
    first entered and when it is last left, and stopping them under a
    running BLAS call is unsafe.  Without OpenBLAS's
    ``blas_thread_shutdown_`` nothing is done.
    """
    if _BLAS_SHUTDOWN is not None:
        _BLAS_SHUTDOWN()


def _load_linear_filter():
    """scipy's compiled ``_linear_filter``, the routine behind
    ``scipy.signal.lfilter``, or None without its file or the symbol.

    The extension file is loaded by path under a package-private module
    name, so that neither ``scipy`` nor ``scipy.signal`` is imported
    (``scipy.signal`` alone takes about a second); ``find_spec`` of a
    top-level package imports nothing.
    """
    scipy = importlib.util.find_spec("scipy")
    folders = scipy.submodule_search_locations if scipy is not None else None
    # the loader calls ``PyInit_`` + the name's last part, so it must be ``_sigtools``
    name = f"{__package__}._sigtools"
    for folder in folders or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(folder, "signal", "_sigtools" + suffix)
            if not path.is_file():
                continue
            loader = importlib.machinery.ExtensionFileLoader(name, str(path))
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader)
                )
                loader.exec_module(module)
            except ImportError:
                continue
            return getattr(module, "_linear_filter", None)
    return None


_LINEAR_FILTER = _load_linear_filter()


def lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """``scipy.signal.lfilter(b, a, x, axis=axis)`` bit for bit, for float
    arrays and without initial conditions.

    A denominator of two or more coefficients goes to scipy's compiled
    routine, as ``lfilter`` sends it, with the interpreter lock released.
    A one-coefficient denominator takes ``lfilter``'s own path: each line
    is convolved with ``b / a[0]`` and cut to its length, a loop over the
    lines.  Without the compiled routine, ``scipy.signal.lfilter`` is
    imported and called.
    """
    if _LINEAR_FILTER is None:
        from scipy.signal import lfilter as scipy_lfilter

        return scipy_lfilter(b, a, x, axis=axis)
    if len(a) > 1:
        return _LINEAR_FILTER(b, a, x, axis)
    b = np.asarray(b, dtype=float) / a[0]
    full = np.apply_along_axis(lambda line: np.convolve(b, line), axis, x)
    return np.take(full, np.arange(x.shape[axis]), axis=axis)
