"""FDR-controlled alpha screening under factor models with latent confounders.

The library estimates per-entity alphas through a three-step pipeline
(observed-factor regression, latent-loading principal components,
cross-sectional regression), tests them by a chronological
sample-splitting procedure with a data-driven threshold, and ships the
simulation machinery to measure FDR and power of the whole stack.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each re-exported name, under the module that defines it.  A name is
# imported on first use (PEP 562), so that ``import alphascreen.cli`` loads
# only what the CLI imports itself: not the study runner, ``simulation``.
_EXPORTS = {
    "baselines": (
        "PValueResult",
        "bh_procedure",
        "bh_statistics",
        "sbh_statistics",
        "sn_statistics",
    ),
    "errors": (
        "AlignmentError",
        "AlphascreenError",
        "DegenerateNormalizerError",
        "DimensionError",
        "NegativeControlError",
        "NoFactorStructureError",
        "RankDeficientError",
    ),
    "estimation": (
        "LatentFit",
        "PanelFit",
        "PanelFits",
        "estimate_alpha",
        "estimate_latent",
        "long_run_variance",
        "regress_out_observed",
    ),
    "fdr": (
        "FdrMetrics",
        "NegativeControlConfig",
        "SplitTestResult",
        "fdp_power",
        "select_threshold",
        "split_statistics",
    ),
    "io": (
        "load_factors_csv",
        "load_returns_csv",
        "save_factors_csv",
        "save_returns_csv",
    ),
    "linalg": ("demean_columns", "least_squares"),
    "methods": ("METHODS",),
    "panels": ("FactorPanel", "ReturnPanel", "check_aligned", "chronological_split"),
    "simulation": (
        "ArmaComponent",
        "MetricsReport",
        "SimulationScenario",
        "arma_mixture_errors",
        "figure1_hetero_scenario",
        "garch_factors",
        "generate_panel",
        "run_studies",
        "run_study_detailed",
        "table1_lognormal_scenario",
        "table1_normal_scenario",
        "table2_garch_arma_scenario",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    """A re-exported name or a submodule, imported on its first use."""
    if name in _SOURCE:
        value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE, *_EXPORTS})
