"""FDR-controlled alpha screening under factor models with latent confounders.

The library estimates per-entity alphas through a three-step pipeline
(observed-factor regression, latent-loading principal components,
cross-sectional regression), tests them by a chronological
sample-splitting procedure with a data-driven threshold, and ships the
simulation machinery to measure FDR and power of the whole stack.
"""

from .baselines import (
    PValueResult,
    bh_procedure,
    bh_statistics,
    sbh_statistics,
    sn_statistics,
)
from .errors import (
    AlignmentError,
    AlphascreenError,
    DegenerateNormalizerError,
    DimensionError,
    NegativeControlError,
    NoFactorStructureError,
    RankDeficientError,
)
from .estimation import (
    LatentFit,
    PanelFit,
    estimate_alpha,
    estimate_latent,
    long_run_variance,
    regress_out_observed,
)
from .fdr import (
    FdrMetrics,
    NegativeControlConfig,
    SplitTestResult,
    chronological_split,
    fdp_power,
    select_threshold,
    split_statistics,
)
from .io import (
    load_factors_csv,
    load_returns_csv,
    save_factors_csv,
    save_returns_csv,
)
from .linalg import demean_columns, least_squares
from .panels import FactorPanel, ReturnPanel, check_aligned
from .simulation import (
    METHODS,
    ArmaComponent,
    MetricsReport,
    PanelFits,
    PopulationOracle,
    SimulationScenario,
    arma_mixture_errors,
    figure1_hetero_scenario,
    garch_factors,
    generate_panel,
    run_studies,
    run_study_detailed,
    table1_lognormal_scenario,
    table1_normal_scenario,
    table2_garch_arma_scenario,
)

__version__ = "0.1.0"
