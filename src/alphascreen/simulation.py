"""Data-generating processes and the replication study runner.

Panels are assembled as ``X = alpha 1' + B F' + E`` where the factor
matrix and idiosyncratic errors come from one of three temporal modes
(i.i.d. normal, i.i.d. standardized log-normal, or GARCH factors with
ARMA-mixture errors).  Cross-sectional error dependence follows the
AR(1)-in-entities covariance ``rho^|i-j|`` applied through its exact
recursion rather than a dense square root.  Both the ARMA and the AR(1)
filters run scipy's compiled ``lfilter`` routine (:func:`lfilter`),
loaded by path without importing scipy.

All distributional defaults (factor variances, loading moments, GARCH
and ARMA-mixture coefficients) are synthetic placeholders chosen to be
plausible for monthly fund returns; every one of them is overridable
through the scenario.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import sys
import warnings
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
import numpy.random  # noqa: F401  numpy imports it on first use: load it before a pool's threads run

from .estimation import PanelFits
from .fdr import _check_levels, _entity_mask, _fdp_power
from .linalg import one_blas_thread
from .methods import METHODS
from .panels import FactorPanel, ReturnPanel

__all__ = [
    "ArmaComponent",
    "SimulationScenario",
    "MetricsReport",
    "garch_factors",
    "arma_mixture_errors",
    "generate_panel",
    "run_studies",
    "run_study_detailed",
    "table1_normal_scenario",
    "table1_lognormal_scenario",
    "table2_garch_arma_scenario",
    "figure1_hetero_scenario",
]

ARMA_BURN_IN = 200
GARCH_BURN_IN = 500


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


def _poly_roots_outside_unit_circle(coefs: Sequence[float]) -> bool:
    """True when 1 + c1 z + c2 z^2 + ... has all roots outside |z| = 1."""
    return bool(np.all(np.abs(np.roots([*reversed(coefs), 1.0])) > 1.0))


def _plain(value):
    """JSON form of a value: a dataclass as a dict of its fields, arrays and tuples as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _require_finite(name: str, value) -> None:
    if not np.all(np.isfinite(np.asarray(value, dtype=float))):
        raise ValueError(f"{name} must hold only finite numbers")


@dataclass(frozen=True)
class ArmaComponent:
    """One mixture component: a stationary, invertible ARMA recipe."""

    weight: float
    ar: tuple = ()
    ma: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(float(c) for c in self.ar))
        object.__setattr__(self, "ma", tuple(float(c) for c in self.ma))
        # Each range is written so that NaN and the infinities fail it.
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"component weight must lie in [0, 1], got {self.weight}")
        _require_finite("component ar", self.ar)
        _require_finite("component ma", self.ma)
        if not _poly_roots_outside_unit_circle([-c for c in self.ar]):
            raise ValueError(f"AR coefficients {self.ar} are not stationary")
        if not _poly_roots_outside_unit_circle(list(self.ma)):
            raise ValueError(f"MA coefficients {self.ma} are not invertible")

    def polynomials(self) -> tuple[np.ndarray, np.ndarray]:
        ma_poly = np.array([1.0, *self.ma])
        ar_poly = np.array([1.0, *(-c for c in self.ar)])
        return ma_poly, ar_poly

    def stationary_sd(self) -> float:
        """Standard deviation of the stationary process with these coefficients."""
        ma_poly, ar_poly = self.polynomials()
        impulse = np.zeros(ARMA_BURN_IN)
        impulse[0] = 1.0
        psi = lfilter(ma_poly, ar_poly, impulse)
        return math.sqrt(float(np.sum(psi * psi)))


def default_arma_mixture() -> tuple:
    """Eight equally weighted mild components covering the low ARMA orders.

    Their weights sum to 0.331; the remaining entities have i.i.d. errors.
    """
    recipes = [
        ((0.22,), ()),
        ((), (0.22,)),
        ((0.18,), (0.12,)),
        ((0.15, 0.08), ()),
        ((), (0.15, 0.10)),
        ((0.12, 0.05), (0.12,)),
        ((0.15,), (0.10, 0.08)),
        ((0.10, 0.05), (0.10, 0.05)),
    ]
    w = 0.331 / len(recipes)
    return tuple(ArmaComponent(weight=w, ar=ar, ma=ma) for ar, ma in recipes)


def _default_factor_cov(r: int) -> np.ndarray:
    # Synthetic monthly-return factor variances (percent^2 per month).
    return np.diag(np.linspace(16.0, 25.0, r))


def _default_loading_mean(r: int) -> np.ndarray:
    mean = np.full(r, 0.10)
    mean[0] = 0.40
    return mean


def _default_loading_cov(r: int) -> np.ndarray:
    var = np.full(r, 0.04)
    var[0] = 0.09
    return np.diag(var)


def _default_garch_params(r: int) -> tuple:
    return tuple((0.1, 0.1, 0.8) for _ in range(r))


def _require_positive_definite(name: str, matrix: np.ndarray) -> None:
    # cholesky reads only the lower triangle, so symmetry is a check of its own
    if np.array_equal(matrix, matrix.T):
        try:
            np.linalg.cholesky(matrix)
            return
        except np.linalg.LinAlgError:
            pass
    raise ValueError(f"{name} must be symmetric positive definite")


def _garch_params(params, r: int) -> tuple:
    """``params`` as ``r`` finite, stationary ``(omega, a1, b1)`` triples of Python floats.

    The one GARCH check, shared by the scenario and :func:`garch_factors`.
    """
    params = tuple(tuple(float(v) for v in triple) for triple in params)
    if len(params) != r or any(len(t) != 3 for t in params):
        raise ValueError(f"garch_params must hold {r} (omega, a1, b1) triples")
    for omega, a1, b1 in params:
        # false for NaN and for an infinite entry
        if not (0.0 < omega < math.inf and a1 >= 0.0 and b1 >= 0.0 and a1 + b1 < 1.0):
            raise ValueError(f"garch_params entry {(omega, a1, b1)} is not a stationary GARCH(1,1)")
    return params


@dataclass(frozen=True, eq=False)
class SimulationScenario:
    """Complete description of one data-generating process.

    temporal_mode
        ``iid_normal`` | ``iid_lognormal`` | ``garch_arma``.  The last
        draws factors from per-series GARCH(1,1) recursions rotated to
        the target covariance and errors from the ARMA mixture.
    hetero_variances
        When set, each entity's error row is scaled by the square root
        of an independent uniform draw from ``hetero_range``.

    ``__post_init__`` is the one check of every field; the generators take them as given.
    """

    n: int
    p: int
    pi: float
    nu: float
    r_total: int = 7
    r_observed: int = 3
    factor_cov: Optional[np.ndarray] = None
    loading_mean: Optional[np.ndarray] = None
    loading_cov: Optional[np.ndarray] = None
    error_cov_rho: float = 0.5
    hetero_variances: bool = False
    hetero_range: tuple = (1.0, 3.0)
    temporal_mode: str = "iid_normal"
    garch_params: Optional[tuple] = None
    arma_mixture: Optional[tuple] = None
    seed: int = 0

    def __post_init__(self):
        store = partial(object.__setattr__, self)
        # seed >= 0 is what np.random.SeedSequence accepts
        for name, low in (("n", 1), ("p", 1), ("r_total", 2), ("r_observed", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and value >= low and float(value).is_integer()):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            store(name, int(value))
        r = self.r_total
        if self.r_observed >= r:
            raise ValueError("need r_observed < r_total so at least one factor stays latent")
        if self.n < 2 * (self.r_observed + 3):
            raise ValueError(
                f"n = {self.n} too short to split with {self.r_observed} observed factors"
            )
        # Each scalar range is written so that NaN and the infinities fail it.
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError(f"pi must lie in [0, 1], got {self.pi}")
        if self.pi > 0.0 and self.pi * self.p < 2.0:
            raise ValueError("a nonzero pi must put at least 2 entities under the alternative")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        if not 0.0 <= self.error_cov_rho < 1.0:
            raise ValueError(f"error_cov_rho must lie in [0, 1), got {self.error_cov_rho}")
        try:
            lo, hi = self.hetero_range
        except (TypeError, ValueError):
            lo = hi = None
        if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)):
            raise ValueError(
                f"hetero_range must be a pair (lo, hi) of numbers, got {self.hetero_range!r}"
            )
        if not 0.0 < lo <= hi < math.inf:
            raise ValueError(f"hetero_range must satisfy 0 < lo <= hi < inf, got {(lo, hi)}")
        store("hetero_range", (float(lo), float(hi)))
        if self.temporal_mode not in ("iid_normal", "iid_lognormal", "garch_arma"):
            raise ValueError(f"unknown temporal_mode {self.temporal_mode!r}")

        for name, default, shape in (
            ("factor_cov", _default_factor_cov, (r, r)),
            ("loading_mean", _default_loading_mean, (r,)),
            ("loading_cov", _default_loading_cov, (r, r)),
        ):
            value = getattr(self, name)
            try:
                value = np.asarray(default(r) if value is None else value, dtype=float)
            except (TypeError, ValueError):  # ragged nesting, or an entry that is no number
                raise ValueError(f"{name} must be a numeric array of shape {shape}") from None
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            _require_finite(name, value)
            store(name, value)
        _require_positive_definite("factor_cov", self.factor_cov)
        if np.any(self.loading_cov != 0.0):  # all zero: every entity gets the mean loadings
            _require_positive_definite("loading_cov", self.loading_cov)

        gp = self.garch_params if self.garch_params is not None else _default_garch_params(r)
        store("garch_params", _garch_params(gp, r))

        mix = self.arma_mixture if self.arma_mixture is not None else default_arma_mixture()
        try:
            mix = tuple(c if isinstance(c, ArmaComponent) else ArmaComponent(**c) for c in mix)
        except TypeError as exc:  # an unknown or missing key, or an entry that is no mapping
            raise ValueError(f"arma_mixture entries must be ArmaComponent fields: {exc}") from None
        total = sum(c.weight for c in mix)
        if total > 1.0 + 1e-12:
            raise ValueError(f"mixture weights sum to {total} > 1")
        store("arma_mixture", mix)

    def to_dict(self) -> dict:
        return _plain(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationScenario":
        """Inverse of :meth:`to_dict`; ``__post_init__`` converts the lists."""
        return cls(**d)


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated FDR/power of one method at one target level (percent)."""

    method: str
    beta: float
    mean_fdr: float
    sd_fdr: float
    mean_power: float
    sd_power: float
    replications: int


def _make_alpha(p: int, pi: float, nu: float) -> np.ndarray:
    """Signal vector: floor(pi*p/2) entries at +nu, up to floor(pi*p) at -nu."""
    alpha = np.zeros(p)
    k_total = int(math.floor(pi * p))
    k_pos = int(math.floor(pi * p / 2.0))
    alpha[:k_pos] = nu
    alpha[k_pos:k_total] = -nu
    return alpha


def _sample_loadings(
    p: int, mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Rows drawn i.i.d. from a multivariate normal with the given moments.

    An all-zero covariance is an explicit degenerate bypass returning
    ``p`` copies of the mean.
    """
    if not np.any(cov != 0.0):
        return np.tile(mean, (p, 1))
    return mean + rng.standard_normal((p, mean.shape[0])) @ np.linalg.cholesky(cov).T


def _ar1_correlate(z: np.ndarray, rho: float) -> np.ndarray:
    """Rows of ``z`` correlated by the covariance ``rho^|i-j|`` down the first axis.

    Runs the exact recursion ``e_0 = z_0``,
    ``e_i = rho e_{i-1} + sqrt(1-rho^2) z_i``, which applies the
    lower-triangular Cholesky factor of the Toeplitz family without ever
    materializing it, as one compiled filter call over the prescaled
    rows.  ``z`` has unit-variance rows, shape (p,) or (p, m).  The filter
    runs on the transposed rows, so that each of its lines is contiguous;
    the result is the transpose of its output.
    """
    if abs(rho) >= 1.0:
        raise ValueError(f"|rho| must be below 1, got {rho}")
    z = np.asarray(z, dtype=float)
    if rho == 0.0:
        return z.copy()
    x = np.empty(z.shape[::-1])
    np.multiply(z.T, math.sqrt(1.0 - rho**2), out=x)
    x[..., 0] = z[0]
    # each filter step adds rho e_{i-1} to the prescaled row, as the recursion does
    return lfilter(np.ones(1), np.array([1.0, -rho]), x).T


def _garch_series(
    n: int, omega: float, a1: float, b1: float, rng: np.random.Generator
) -> np.ndarray:
    """Raw GARCH(1,1) path with Gaussian innovations, no burn-in removed.

    The recursion runs on Python floats, which step faster than numpy
    scalars and round the same.
    """
    z = rng.standard_normal(n).tolist()
    x = [0.0] * n
    sigma2 = omega / (1.0 - a1 - b1)
    for t in range(n):
        if t > 0:
            sigma2 = omega + a1 * x[t - 1] ** 2 + b1 * sigma2
        x[t] = math.sqrt(sigma2) * z[t]
    return np.array(x)


def garch_factors(
    n: int,
    r: int,
    params: Sequence[tuple],
    target_cov: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Independent GARCH(1,1) series rotated to the target covariance.

    Each series is simulated with a 500-period burn-in, standardized by
    its theoretical unconditional standard deviation, and the resulting
    (n, r) block is rotated by a square root of ``target_cov`` so the
    unconditional covariance matches the target.
    """
    u = np.empty((n, r))
    for j, (omega, a1, b1) in enumerate(_garch_params(params, r)):
        raw = _garch_series(n + GARCH_BURN_IN, omega, a1, b1, rng)[GARCH_BURN_IN:]
        u[:, j] = raw / math.sqrt(omega / (1.0 - a1 - b1))
    chol = np.linalg.cholesky(np.asarray(target_cov, dtype=float))
    return u @ chol.T


def _assign_components(
    p: int, mixture: Sequence[ArmaComponent], rng: np.random.Generator
) -> np.ndarray:
    """Component index per entity; len(mixture) means the normal remainder."""
    cum = np.cumsum([c.weight for c in mixture])
    draws = rng.random(p)
    return np.searchsorted(cum, draws, side="right")


def arma_mixture_errors(
    n: int,
    p: int,
    mixture: Sequence[ArmaComponent],
    rng: np.random.Generator,
) -> np.ndarray:
    """Rows drawn from a mixture of ARMA processes plus an i.i.d. remainder.

    Each entity is independently assigned a component by the mixture
    weights (the unassigned remainder is i.i.d. standard normal), its
    series simulated with a 200-period burn-in and standardized to unit
    stationary variance.
    """
    mixture = tuple(mixture)
    assign = _assign_components(p, mixture, rng)
    # One draw holds every entity's normals in entity order: n + burn-in
    # innovations for a component's entity, n for the remainder's.
    lengths = np.where(assign < len(mixture), n + ARMA_BURN_IN, n)
    starts = np.cumsum(lengths) - lengths
    draws = rng.standard_normal(int(lengths.sum()))
    out = np.empty((p, n))
    # the remainder's draws are whole segments: a mask over the draw, a
    # byte per entry, gathers them without an index array of 8 bytes each
    rest = assign == len(mixture)
    out[rest] = draws[np.repeat(rest, lengths)].reshape(-1, n)
    for k, comp in enumerate(mixture):
        rows = np.flatnonzero(assign == k)
        if rows.size == 0:
            continue
        innov = draws[starts[rows, None] + np.arange(n + ARMA_BURN_IN)]
        ma_poly, ar_poly = comp.polynomials()
        filtered = lfilter(ma_poly, ar_poly, innov)[:, ARMA_BURN_IN:]
        out[rows] = filtered / comp.stationary_sd()
    return out


def _standardized_lognormal(shape, rng: np.random.Generator) -> np.ndarray:
    """exp(Z) recentered and rescaled to zero mean, unit variance."""
    z = rng.standard_normal(shape)
    np.exp(z, out=z)
    z -= math.exp(0.5)
    z /= math.sqrt(math.exp(2.0) - math.exp(1.0))
    return z


def _assemble_panel(
    alpha: np.ndarray, loadings: np.ndarray, factors: np.ndarray, errors: np.ndarray
) -> np.ndarray:
    """``alpha 1' + B F' + E`` for (p,), (p, r), (n, r), (p, n) inputs.

    Summed in place, in that order, in the one (p, n) array it returns.
    """
    values = loadings @ factors.T
    values += alpha[:, None]  # alpha + B F' is B F' + alpha, bit for bit
    values += errors
    return values


@lru_cache(maxsize=16)
def _panel_labels(p: int, n: int, r_observed: int) -> tuple[tuple, tuple, tuple]:
    """Entity ids, observed factor names and periods of a generated panel,
    made once per design: the panels keep these tuples as they are."""
    width = len(str(p))
    return (
        tuple(f"e{i + 1:0{width}d}" for i in range(p)),
        tuple(f"f{j + 1}" for j in range(r_observed)),
        tuple(range(1, n + 1)),
    )


@one_blas_thread()
def generate_panel(
    scenario: SimulationScenario, rng: np.random.Generator
) -> tuple[ReturnPanel, FactorPanel, np.ndarray, np.ndarray]:
    """One panel draw, the indices of its nonzero alphas and its (p,) true alphas.

    Only the first ``r_observed`` factor columns are exposed; the rest
    act as latent confounders.  Draw order is fixed (loadings, factors,
    errors, heterogeneity scales) so the same seed always yields the
    same panel regardless of the signal configuration.
    """
    n, p, r, r_o = scenario.n, scenario.p, scenario.r_total, scenario.r_observed
    alpha = _make_alpha(p, scenario.pi, scenario.nu)
    loadings = _sample_loadings(p, scenario.loading_mean, scenario.loading_cov, rng)

    if scenario.temporal_mode == "iid_normal":
        factors = rng.standard_normal((n, r)) @ np.linalg.cholesky(scenario.factor_cov).T
        errors = rng.standard_normal((p, n))
    elif scenario.temporal_mode == "iid_lognormal":
        factors = _standardized_lognormal((n, r), rng) @ np.linalg.cholesky(scenario.factor_cov).T
        errors = _standardized_lognormal((p, n), rng)
    else:  # garch_arma
        factors = garch_factors(n, r, scenario.garch_params, scenario.factor_cov, rng)
        errors = arma_mixture_errors(n, p, scenario.arma_mixture, rng=rng)

    # Each (p, n) array is rebound or dropped once the next one is made.
    errors = _ar1_correlate(errors, scenario.error_cov_rho)
    if scenario.hetero_variances:
        lo, hi = scenario.hetero_range
        errors *= np.sqrt(rng.uniform(lo, hi, size=p))[:, None]

    values = _assemble_panel(alpha, loadings, factors, errors)
    del errors
    values.setflags(write=False)  # so that ReturnPanel keeps it instead of a copy
    entity_ids, factor_names, periods = _panel_labels(p, n, r_o)
    returns = ReturnPanel(values, entity_ids, periods)
    observed = FactorPanel(factors[:, :r_o].copy(), factor_names, periods)
    truth = np.flatnonzero(alpha != 0.0)
    return returns, observed, truth, alpha


# --- replication studies ----------------------------------------------------


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Independent, order-insensitive generator stream for one replication."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replication),))
    )


def _replication_rows(scenario, replication, methods, betas, rank=None):
    """``(method, beta, fdp, power)`` rows of one replication, in the order
    of ``methods``.  The methods run fit by fit, the halves' first, then
    the observed regression's, then the full fit's, and each fit is
    released after its group; the full fit takes the regression itself."""
    rng = replication_rng(scenario.seed, replication)
    returns, factors, truth, _ = generate_panel(scenario, rng)
    p = returns.n_entities
    truth_mask = _entity_mask(truth, p)
    fits = PanelFits(returns, factors, rank=rank)
    rows = {}
    for fit in ("halves", "observed", "full"):
        for name in methods:
            method = METHODS[name]
            if method.fit != fit:
                continue
            rows[name] = []
            for beta, (rejected, _, _) in zip(betas, method.rule(method.statistic(fits), betas)):
                m = _fdp_power(_entity_mask(rejected, p), truth_mask)
                rows[name].append((name, beta, m.fdp, m.power))
        if fit != "observed":
            fits.release(fit)
    return [row for name in methods for row in rows[name]]


def _isolated(call: Callable) -> tuple:
    """``(call(), None)``, or ``(None, repr(exc))`` when the call raises."""
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - per-replication isolation
        return None, repr(exc)


def _warn_caller(message: str) -> None:
    """A ``RuntimeWarning`` that points at the first caller outside this module."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def _study(outcomes, methods, betas) -> tuple[list[MetricsReport], list, list]:
    """Reports, detail rows and failures of one scenario's replication outcomes."""
    replications = len(outcomes)
    detail_rows, failures = [], []
    for rep, (rows, message) in enumerate(outcomes):
        if rows is None:
            failures.append((rep, message))
            continue
        for method, beta, fdp, power in rows:
            detail_rows.append((method, beta, rep, fdp, power))

    if failures:
        _warn_caller(f"{len(failures)} of {replications} replications failed and were skipped")
    if replications == 1:
        _warn_caller("single-replication study: dispersion fields are 0 by convention")

    samples = {(method, beta): ([], []) for method in methods for beta in betas}
    for method, beta, _, fdp, power in detail_rows:
        fdps, powers = samples[method, beta]
        fdps.append(fdp)
        powers.append(power)
    reports = []
    for method in methods:
        for beta in betas:
            fdps, powers = samples[method, beta]
            n_ok = len(fdps)
            reports.append(
                MetricsReport(
                    method=method,
                    beta=beta,
                    mean_fdr=100.0 * float(np.mean(fdps)) if n_ok else math.nan,
                    sd_fdr=100.0 * float(np.std(fdps, ddof=1)) if n_ok > 1 else 0.0,
                    mean_power=100.0 * float(np.mean(powers)) if n_ok else math.nan,
                    sd_power=100.0 * float(np.std(powers, ddof=1)) if n_ok > 1 else 0.0,
                    replications=n_ok,
                )
            )
    return reports, detail_rows, failures


def run_studies(
    scenarios: Sequence[SimulationScenario],
    methods: Sequence[str],
    betas: Sequence[float],
    replications: int,
    parallelism: int = 1,
    rank: Optional[int] = None,
) -> list[tuple[list[MetricsReport], list[tuple], list[tuple]]]:
    """Replication studies of several scenarios, run as one batch of jobs.

    Returns one ``(reports, detail_rows, failures)`` per scenario, in
    scenario order.  Replication ``k`` of a scenario always runs on the
    generator stream derived from ``(scenario.seed, k)``, and each
    scenario's rows and failures are collected in replication order, so
    the return value is identical for every ``parallelism`` degree and
    equals that of one :func:`run_study_detailed` call per scenario.
    Within a replication the methods share one fit of each chronological
    half and one of the full panel (:class:`PanelFits`).  A failing
    replication is recorded against its scenario and skipped; the study
    continues.  A report without any surviving replication carries
    ``math.nan`` means: one object, so that two such reports still
    compare equal.  A repeated method or level is refused with a
    ``ValueError``; no scenarios give no studies.

    The replications of all scenarios run on one pool of
    ``min(parallelism, len(scenarios) * replications)`` threads in this
    process, each at one BLAS thread; the process's thread counts come
    back afterwards (see :func:`.linalg.one_blas_thread`).  An interrupt
    cancels the replications not yet started, and a crash inside a C
    extension ends the whole call.

    Returns
    -------
    [(reports, detail_rows, failures), ...]
        ``detail_rows`` are ``(method, beta, replication, fdp, power)``
        tuples; ``failures`` are ``(replication, message)`` pairs.
    """
    if replications < 1:
        raise ValueError("replications must be at least 1")
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    methods = list(methods)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    betas = [float(b) for b in betas]
    _check_levels(betas)
    # a repeat would pool its rows with the first copy's in the reports
    for what, values in (("method", methods), ("beta", betas)):
        repeated = [v for k, v in enumerate(values) if v in values[:k]]
        if repeated:
            raise ValueError(f"{what} {repeated[0]!r} is given more than once")

    jobs = [(scenario, rep) for scenario in scenarios for rep in range(replications)]
    if not jobs:
        return []
    with one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=min(parallelism, len(jobs)))
        try:
            futures = [
                pool.submit(_replication_rows, scenario, rep, methods, betas, rank)
                for scenario, rep in jobs
            ]
            # one wake-up per study, not one per replication that would contend
            # with the workers for the interpreter lock
            wait(futures, return_when=FIRST_EXCEPTION)
            outcomes = [_isolated(future.result) for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    return [
        _study(outcomes[first : first + replications], methods, betas)
        for first in range(0, len(outcomes), replications)
    ]


def run_study_detailed(
    scenario: SimulationScenario,
    methods: Sequence[str],
    betas: Sequence[float],
    replications: int,
    parallelism: int = 1,
    rank: Optional[int] = None,
) -> tuple[list[MetricsReport], list[tuple], list[tuple]]:
    """Replication study of one scenario: :func:`run_studies` of ``[scenario]``."""
    return run_studies([scenario], methods, betas, replications, parallelism, rank)[0]


# --- built-in scenarios ------------------------------------------------------

_BASE = dict(n=200, p=1000, pi=0.1)


def table1_normal_scenario(nu: float = 0.3, seed: int = 20240101) -> SimulationScenario:
    """Independent observations, jointly normal factors and errors."""
    return SimulationScenario(nu=nu, temporal_mode="iid_normal", seed=seed, **_BASE)


def table1_lognormal_scenario(nu: float = 0.3, seed: int = 20240102) -> SimulationScenario:
    """Independent observations with standardized log-normal draws."""
    return SimulationScenario(nu=nu, temporal_mode="iid_lognormal", seed=seed, **_BASE)


def table2_garch_arma_scenario(nu: float = 0.3, seed: int = 20240103) -> SimulationScenario:
    """GARCH(1,1) factors and ARMA-mixture errors (serial dependence)."""
    return SimulationScenario(nu=nu, temporal_mode="garch_arma", seed=seed, **_BASE)


def figure1_hetero_scenario(nu: float = 0.2, seed: int = 20240104) -> SimulationScenario:
    """Serially dependent design with uniform[1,3] error variances."""
    return SimulationScenario(
        nu=nu, temporal_mode="garch_arma", hetero_variances=True, seed=seed, **_BASE
    )

