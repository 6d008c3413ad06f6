"""Data-generating processes and the replication study runner.

Panels are assembled as ``X = alpha 1' + B F' + E`` where the factor
matrix and idiosyncratic errors come from one of three temporal modes
(i.i.d. normal, i.i.d. standardized log-normal, or GARCH factors with
ARMA-mixture errors).  Cross-sectional error dependence follows the
AR(1)-in-entities covariance ``rho^|i-j|`` applied through its exact
recursion rather than a dense square root.

All distributional defaults (factor variances, loading moments, GARCH
and ARMA-mixture coefficients) are synthetic placeholders chosen to be
plausible for monthly fund returns; every one of them is overridable
through the scenario.
"""

from __future__ import annotations

import ctypes
import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
import scipy

from .baselines import bh_procedure, bh_statistics, sbh_from_fit, sn_from_fit
from .estimation import PanelFit, estimate_alpha
from .fdr import (
    NegativeControlConfig,
    fdp_power,
    fit_halves,
    select_threshold,
    split_from_fits,
)
from .panels import FactorPanel, ReturnPanel

__all__ = [
    "ArmaComponent",
    "SimulationScenario",
    "PopulationOracle",
    "MetricsReport",
    "Method",
    "METHODS",
    "PanelFits",
    "make_alpha",
    "sample_loadings",
    "Ar1CorrelationFactor",
    "garch_factors",
    "arma_mixture_errors",
    "assemble_panel",
    "generate_panel",
    "run_study_detailed",
    "table1_normal_scenario",
    "table1_lognormal_scenario",
    "table2_garch_arma_scenario",
    "figure1_hetero_scenario",
]

ARMA_BURN_IN = 200
GARCH_BURN_IN = 500


def _poly_roots_outside_unit_circle(coefs: Sequence[float]) -> bool:
    """True when 1 + c1 z + c2 z^2 + ... has all roots outside |z| = 1."""
    if not coefs:
        return True
    roots = np.polynomial.polynomial.polyroots([1.0, *coefs])
    return bool(np.all(np.abs(roots) > 1.0))


@dataclass(frozen=True)
class ArmaComponent:
    """One mixture component: a stationary, invertible ARMA recipe."""

    weight: float
    ar: tuple = ()
    ma: tuple = ()
    sd: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ar", tuple(float(c) for c in self.ar))
        object.__setattr__(self, "ma", tuple(float(c) for c in self.ma))
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError("component weight must lie in [0, 1]")
        if self.sd <= 0.0:
            raise ValueError("innovation sd must be positive")
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
        from scipy.signal import lfilter  # scipy.signal imports scipy.stats: keep both off import

        ma_poly, ar_poly = self.polynomials()
        impulse = np.zeros(ARMA_BURN_IN)
        impulse[0] = 1.0
        psi = lfilter(ma_poly, ar_poly, impulse)
        return self.sd * math.sqrt(float(np.sum(psi * psi)))

    def to_dict(self) -> dict:
        return {"weight": self.weight, "ar": list(self.ar), "ma": list(self.ma), "sd": self.sd}


def default_arma_mixture(total_weight: float = 0.331) -> tuple:
    """Eight equally weighted mild components covering the low ARMA orders."""
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
    w = total_weight / len(recipes)
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
        r = int(self.r_total)
        if r < 2 or not 1 <= int(self.r_observed) < r:
            raise ValueError(
                "need r_total >= 2 and 1 <= r_observed < r_total so at least "
                "one factor stays latent"
            )
        if self.n < 2 * (self.r_observed + 3):
            raise ValueError(
                f"n = {self.n} too short to split with {self.r_observed} observed factors"
            )
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError("pi must lie in [0, 1]")
        if self.pi > 0.0 and self.pi * self.p < 2.0:
            raise ValueError("a nonzero pi must put at least 2 entities under the alternative")
        if self.nu < 0.0:
            raise ValueError("nu must be nonnegative")
        if not 0.0 <= self.error_cov_rho < 1.0:
            raise ValueError("error_cov_rho must lie in [0, 1)")
        lo, hi = self.hetero_range
        if not 0.0 < lo <= hi:
            raise ValueError("hetero_range must satisfy 0 < lo <= hi")
        object.__setattr__(self, "hetero_range", (float(lo), float(hi)))
        if self.temporal_mode not in ("iid_normal", "iid_lognormal", "garch_arma"):
            raise ValueError(f"unknown temporal_mode {self.temporal_mode!r}")

        fc = self.factor_cov if self.factor_cov is not None else _default_factor_cov(r)
        fc = np.asarray(fc, dtype=float)
        if fc.shape != (r, r):
            raise ValueError(f"factor_cov must be {r}x{r}")
        np.linalg.cholesky(fc)  # raises when not positive definite
        object.__setattr__(self, "factor_cov", fc)

        lm = self.loading_mean if self.loading_mean is not None else _default_loading_mean(r)
        lm = np.asarray(lm, dtype=float)
        if lm.shape != (r,):
            raise ValueError(f"loading_mean must have length {r}")
        object.__setattr__(self, "loading_mean", lm)

        lc = self.loading_cov if self.loading_cov is not None else _default_loading_cov(r)
        lc = np.asarray(lc, dtype=float)
        if lc.shape != (r, r):
            raise ValueError(f"loading_cov must be {r}x{r}")
        if np.any(lc != 0.0):
            np.linalg.cholesky(lc)
        object.__setattr__(self, "loading_cov", lc)

        gp = self.garch_params if self.garch_params is not None else _default_garch_params(r)
        gp = tuple(tuple(float(v) for v in triple) for triple in gp)
        if len(gp) != r or any(len(t) != 3 for t in gp):
            raise ValueError(f"garch_params must hold {r} (omega, a1, b1) triples")
        for omega, a1, b1 in gp:
            if omega <= 0.0 or a1 < 0.0 or b1 < 0.0 or a1 + b1 >= 1.0:
                raise ValueError(f"GARCH parameters {(omega, a1, b1)} are not stationary")
        object.__setattr__(self, "garch_params", gp)

        mix = self.arma_mixture if self.arma_mixture is not None else default_arma_mixture()
        mix = tuple(c if isinstance(c, ArmaComponent) else ArmaComponent(**c) for c in mix)
        total = sum(c.weight for c in mix)
        if total > 1.0 + 1e-12:
            raise ValueError(f"mixture weights sum to {total} > 1")
        object.__setattr__(self, "arma_mixture", mix)
        object.__setattr__(self, "seed", int(self.seed))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "pi": self.pi,
            "nu": self.nu,
            "r_total": self.r_total,
            "r_observed": self.r_observed,
            "factor_cov": self.factor_cov.tolist(),
            "loading_mean": self.loading_mean.tolist(),
            "loading_cov": self.loading_cov.tolist(),
            "error_cov_rho": self.error_cov_rho,
            "hetero_variances": self.hetero_variances,
            "hetero_range": list(self.hetero_range),
            "temporal_mode": self.temporal_mode,
            "garch_params": [list(t) for t in self.garch_params],
            "arma_mixture": [c.to_dict() for c in self.arma_mixture],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationScenario":
        """Inverse of :meth:`to_dict`; ``__post_init__`` converts the lists."""
        return cls(**d)


@dataclass(frozen=True, eq=False)
class PopulationOracle:
    """Population quantities of the generated panel, for variance checks.

    ``sigma_e`` is each entity's error standard deviation.  The factors
    have mean zero, so it is also the closed-form i.i.d. asymptotic
    standard deviation of the root-n scaled alpha estimates, whose
    premium terms vanish.
    """

    alpha: np.ndarray
    sigma_e: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated FDR/power of one method at one target level (percent).

    ``runtime`` is wall-clock bookkeeping and excluded from equality, so
    two reports compare equal exactly when their results agree.
    """

    method: str
    beta: float
    mean_fdr: float
    sd_fdr: float
    mean_power: float
    sd_power: float
    replications: int
    runtime: float = field(default=0.0, compare=False)


def make_alpha(p: int, pi: float, nu: float) -> np.ndarray:
    """Signal vector: floor(pi*p/2) entries at +nu, up to floor(pi*p) at -nu."""
    if not 0.0 <= pi <= 1.0 or nu < 0.0:
        raise ValueError("need 0 <= pi <= 1 and nu >= 0")
    alpha = np.zeros(p)
    k_total = int(math.floor(pi * p))
    k_pos = int(math.floor(pi * p / 2.0))
    alpha[:k_pos] = nu
    alpha[k_pos:k_total] = -nu
    return alpha


def sample_loadings(
    p: int, mean: np.ndarray, cov: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Rows drawn i.i.d. from a multivariate normal with the given moments.

    An all-zero covariance is an explicit degenerate bypass returning
    ``p`` copies of the mean.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    r = mean.shape[0]
    if cov.shape != (r, r):
        raise ValueError("loading covariance shape does not match the mean")
    if not np.any(cov != 0.0):
        return np.tile(mean, (p, 1))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("loading covariance must be positive definite") from None
    return mean + rng.standard_normal((p, r)) @ chol.T


@dataclass(frozen=True)
class Ar1CorrelationFactor:
    """Implicit square root of the covariance ``rho^|i-j|``.

    ``apply`` runs the exact recursion ``e_0 = z_0``,
    ``e_i = rho e_{i-1} + sqrt(1-rho^2) z_i`` down the first axis, which
    is the lower-triangular Cholesky factor of the Toeplitz family
    without ever materializing it.
    """

    size: int
    rho: float

    def __post_init__(self):
        if abs(self.rho) >= 1.0:
            raise ValueError(f"|rho| must be below 1, got {self.rho}")
        if self.size < 1:
            raise ValueError("size must be positive")

    def apply(self, z: np.ndarray) -> np.ndarray:
        """Correlate unit-variance rows; z has shape (size,) or (size, m)."""
        z = np.asarray(z, dtype=float)
        if z.shape[0] != self.size:
            raise ValueError(f"expected leading dimension {self.size}, got {z.shape[0]}")
        if self.rho == 0.0:
            return z.copy()
        x = z * math.sqrt(1.0 - self.rho**2)
        x[0] = z[0]
        for i in range(1, self.size):
            x[i] += self.rho * x[i - 1]
        return x


def _garch_series(
    n: int, omega: float, a1: float, b1: float, rng: np.random.Generator
) -> np.ndarray:
    """Raw GARCH(1,1) path with Gaussian innovations, no burn-in removed."""
    if a1 + b1 >= 1.0 or omega <= 0.0 or a1 < 0.0 or b1 < 0.0:
        raise ValueError(f"GARCH parameters {(omega, a1, b1)} are not stationary")
    z = rng.standard_normal(n)
    x = np.empty(n)
    sigma2 = omega / (1.0 - a1 - b1)
    for t in range(n):
        if t > 0:
            sigma2 = omega + a1 * x[t - 1] ** 2 + b1 * sigma2
        x[t] = math.sqrt(sigma2) * z[t]
    return x


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
    if len(params) != r:
        raise ValueError(f"need {r} GARCH parameter triples, got {len(params)}")
    u = np.empty((n, r))
    for j, (omega, a1, b1) in enumerate(params):
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
    base_sd: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Rows drawn from a mixture of ARMA processes plus an i.i.d. remainder.

    Each entity is independently assigned a component by the mixture
    weights (the unassigned remainder is i.i.d. standard normal), its
    series simulated with a 200-period burn-in and standardized to unit
    stationary variance.  ``base_sd`` rescales rows afterwards.
    """
    if rng is None:
        raise ValueError("an explicit random generator is required")
    from scipy.signal import lfilter  # see ArmaComponent.stationary_sd

    mixture = tuple(mixture)
    assign = _assign_components(p, mixture, rng)
    sds = [c.stationary_sd() for c in mixture]
    polys = [c.polynomials() for c in mixture]
    out = np.empty((p, n))
    for i in range(p):
        k = assign[i]
        if k == len(mixture):
            out[i] = rng.standard_normal(n)
            continue
        comp = mixture[k]
        innov = comp.sd * rng.standard_normal(n + ARMA_BURN_IN)
        ma_poly, ar_poly = polys[k]
        out[i] = lfilter(ma_poly, ar_poly, innov)[ARMA_BURN_IN:] / sds[k]
    if base_sd is not None:
        out *= np.asarray(base_sd, dtype=float)[:, None]
    return out


def _standardized_lognormal(shape, rng: np.random.Generator) -> np.ndarray:
    """exp(Z) recentered and rescaled to zero mean, unit variance."""
    z = np.exp(rng.standard_normal(shape))
    return (z - math.exp(0.5)) / math.sqrt(math.exp(2.0) - math.exp(1.0))


def assemble_panel(
    alpha: np.ndarray, loadings: np.ndarray, factors: np.ndarray, errors: np.ndarray
) -> np.ndarray:
    """``alpha 1' + B F' + E`` for (p,), (p, r), (n, r), (p, n) inputs."""
    return np.asarray(alpha)[:, None] + loadings @ factors.T + errors


def generate_panel(
    scenario: SimulationScenario, rng: np.random.Generator
) -> tuple[ReturnPanel, FactorPanel, np.ndarray, PopulationOracle]:
    """One panel draw plus the ground truth and population oracle.

    Only the first ``r_observed`` factor columns are exposed; the rest
    act as latent confounders.  Draw order is fixed (loadings, factors,
    errors, heterogeneity scales) so the same seed always yields the
    same panel regardless of the signal configuration.
    """
    n, p, r, r_o = scenario.n, scenario.p, scenario.r_total, scenario.r_observed
    alpha = make_alpha(p, scenario.pi, scenario.nu)
    loadings = sample_loadings(p, scenario.loading_mean, scenario.loading_cov, rng)

    if scenario.temporal_mode == "iid_normal":
        factors = rng.standard_normal((n, r)) @ np.linalg.cholesky(scenario.factor_cov).T
        raw_errors = rng.standard_normal((p, n))
    elif scenario.temporal_mode == "iid_lognormal":
        factors = _standardized_lognormal((n, r), rng) @ np.linalg.cholesky(scenario.factor_cov).T
        raw_errors = _standardized_lognormal((p, n), rng)
    else:  # garch_arma
        factors = garch_factors(n, r, scenario.garch_params, scenario.factor_cov, rng)
        raw_errors = arma_mixture_errors(n, p, scenario.arma_mixture, rng=rng)

    errors = Ar1CorrelationFactor(p, scenario.error_cov_rho).apply(raw_errors)
    sigma_e = np.ones(p)
    if scenario.hetero_variances:
        lo, hi = scenario.hetero_range
        scales = rng.uniform(lo, hi, size=p)
        errors = errors * np.sqrt(scales)[:, None]
        sigma_e = np.sqrt(scales)

    values = assemble_panel(alpha, loadings, factors, errors)
    width = len(str(p))
    returns = ReturnPanel(
        values, [f"e{i + 1:0{width}d}" for i in range(p)], list(range(1, n + 1))
    )
    observed = FactorPanel(
        factors[:, :r_o].copy(), [f"f{j + 1}" for j in range(r_o)], list(range(1, n + 1))
    )
    truth = np.flatnonzero(alpha != 0.0)
    return returns, observed, truth, PopulationOracle(alpha=alpha, sigma_e=sigma_e)


# --- replication studies ----------------------------------------------------


def replication_rng(seed: int, replication: int) -> np.random.Generator:
    """Independent, order-insensitive generator stream for one replication."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(int(replication),))
    )


class PanelFits:
    """The fits of one panel that the methods share, each made at most once.

    ``full`` fits the whole panel and ``halves`` each chronological
    half.  Both are made on first use, so a method list that needs only
    one of them never makes the other.
    """

    def __init__(self, returns: ReturnPanel, factors: FactorPanel, rank: Optional[int] = None):
        self.returns = returns
        self.factors = factors
        self.rank = rank

    @cached_property
    def full(self) -> PanelFit:
        return estimate_alpha(self.returns, self.factors, rank=self.rank)

    @cached_property
    def halves(self) -> tuple[PanelFit, PanelFit]:
        return fit_halves(self.returns, self.factors, self.rank)


def _threshold_rule(result, beta):
    threshold, rejected = select_threshold(result.t_prod, beta)
    return rejected, "threshold", threshold


def _bh_rule(result, beta):
    rejected = bh_procedure(result.p_values, beta)
    p_cutoff = float(result.p_values[rejected].max()) if rejected.size else 0.0
    return rejected, "p_cutoff", p_cutoff


class Method(NamedTuple):
    """One screening method: a statistic of shared fits and a decision rule.

    statistic
        ``statistic(fits)`` on a :class:`PanelFits`; returns a
        ``SplitTestResult`` or a ``PValueResult``.
    rule
        ``rule(result, beta)`` returns ``(rejected, cutoff_name, cutoff)``:
        ``select_threshold`` with its ``threshold``, or ``bh_procedure``
        with ``p_cutoff``, the largest rejected p-value (0 when none).
    latent
        False for a method that fits no latent model; its result then
        carries its own ``alpha_hat`` and it has no latent rank.
    """

    statistic: Callable
    rule: Callable
    latent: bool = True


# The one place where method names are defined and dispatched.
METHODS = {
    "yd": Method(lambda fits: split_from_fits(fits.halves), _threshold_rule),
    "yd_r": Method(lambda fits: split_from_fits(fits.halves, studentize=True), _threshold_rule),
    "yd_th": Method(
        lambda fits: split_from_fits(
            fits.halves, negative_control=NegativeControlConfig(mode="threshold_rule")
        ),
        _threshold_rule,
    ),
    "bh": Method(lambda fits: bh_statistics(fits.returns, fits.factors), _bh_rule, latent=False),
    "sbh": Method(lambda fits: sbh_from_fit(fits.full, fits.returns, fits.factors), _bh_rule),
    "sn": Method(lambda fits: sn_from_fit(fits.full, fits.returns), _bh_rule),
}


# numpy and scipy wheels each bundle an OpenBLAS in ``<package>.libs``;
# numpy's has 64-bit integers and a ``64_`` symbol suffix.
_OPENBLAS_DIRS = tuple(
    Path(package.__file__).parent.with_name(f"{package.__name__}.libs") for package in (np, scipy)
)


def _openblas_thread_controls() -> list[tuple[Callable, Callable]]:
    """``(set_num_threads, get_num_threads)`` of each bundled OpenBLAS found."""
    controls = []
    for path in sorted(p for d in _OPENBLAS_DIRS for p in d.glob("libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextmanager
def one_blas_thread():
    """Run the block with each bundled OpenBLAS at one thread.

    numpy and scipy each start their own OpenBLAS thread pool, and the
    two pools contend for the cores when calls into both alternate, as
    they do in every fit.  Each library's thread count is saved and
    restored on exit, also when the block raises.  Without a bundled
    OpenBLAS nothing is done.
    """
    controls = _openblas_thread_controls()
    saved = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, saved):
            set_threads(count)


def _replication_rows(scenario, replication, methods, betas, rank=None):
    """``(method, beta, fdp, power)`` rows of one replication, run at one BLAS thread."""
    with one_blas_thread():
        rng = replication_rng(scenario.seed, replication)
        returns, factors, truth, _ = generate_panel(scenario, rng)
        fits = PanelFits(returns, factors, rank=rank)
        rows = []
        for name in methods:
            method = METHODS[name]
            result = method.statistic(fits)
            for beta in betas:
                rejected = method.rule(result, beta)[0]
                m = fdp_power(rejected, truth, returns.n_entities)
                rows.append((name, beta, m.fdp, m.power))
    return rows


def _isolated(call: Callable) -> tuple:
    """``(call(), None)``, or ``(None, repr(exc))`` when the call raises."""
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - per-replication isolation
        return None, repr(exc)


def _run_replications(scenario, methods, betas, replications, workers, rank) -> list[tuple]:
    """``(rows, None)`` or ``(None, message)`` per replication, in replication order.

    With more than one worker the replications run in a process pool and
    their results are read in submission order, so a failure (a broken
    pool included) is recorded against its own replication.
    """
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_replication_rows, scenario, rep, methods, betas, rank)
                for rep in range(replications)
            ]
            return [_isolated(future.result) for future in futures]
    return [
        _isolated(lambda: _replication_rows(scenario, rep, methods, betas, rank))
        for rep in range(replications)
    ]


def run_study_detailed(
    scenario: SimulationScenario,
    methods: Sequence[str],
    betas: Sequence[float],
    replications: int,
    parallelism: int = 1,
    rank: Optional[int] = None,
) -> tuple[list[MetricsReport], list[tuple], list[tuple]]:
    """Replication study returning reports, per-replication rows and failures.

    Replication ``k`` always runs on the generator stream derived from
    ``(scenario.seed, k)``, and rows and failures are collected in
    replication order, so the return value is identical for every
    ``parallelism`` degree.  Within a replication the methods share one
    fit of each chronological half and one of the full panel
    (:class:`PanelFits`).  A failing replication is recorded and
    skipped; the study continues.  A report without any surviving
    replication carries ``math.nan`` means: one object, so that two such
    reports still compare equal.

    Every replication runs its BLAS at one thread and restores the
    thread counts of its process afterwards (see :func:`one_blas_thread`),
    whether it runs in the caller or in one of the
    ``min(parallelism, replications)`` pool workers of a parallel study.

    Returns
    -------
    (reports, detail_rows, failures)
        ``detail_rows`` are ``(method, beta, replication, fdp, power)``
        tuples; ``failures`` are ``(replication, message)`` pairs.
    """
    if replications < 1:
        raise ValueError("replications must be at least 1")
    methods = list(methods)
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    betas = [float(b) for b in betas]
    for b in betas:
        if not 0.0 < b < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {b}")

    start = time.perf_counter()
    outcomes = _run_replications(
        scenario, methods, betas, replications, min(parallelism, replications), rank
    )
    runtime = time.perf_counter() - start

    detail_rows, failures = [], []
    for rep, (rows, message) in enumerate(outcomes):
        if rows is None:
            failures.append((rep, message))
            continue
        for method, beta, fdp, power in rows:
            detail_rows.append((method, beta, rep, fdp, power))

    if failures:
        warnings.warn(
            f"{len(failures)} of {replications} replications failed and were skipped",
            RuntimeWarning,
            stacklevel=2,
        )
    if replications == 1:
        warnings.warn(
            "single-replication study: dispersion fields are 0 by convention",
            RuntimeWarning,
            stacklevel=2,
        )

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
                    runtime=runtime,
                )
            )
    return reports, detail_rows, failures


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

