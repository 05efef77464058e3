"""Treatment-effect estimation for trials augmented with external controls."""

from .dataset import (
    ColumnSchema,
    CompositeDataset,
    load_csv,
    summarize,
    validate,
    write_csv,
)
from .errors import EcborrowError
from .estimators import (
    Estimate,
    IFVector,
    control_weight,
    efficiency_bound_plugin,
    efficiency_gain_analytic,
    estimate,
    estimate_point,
    estimate_psi,
    estimate_tau_full,
    estimate_tau_treated_only,
    estimate_tau_trial,
    estimate_xi,
    influence_values,
    variance_gap_psi,
    variance_gap_xi,
)
from .inference import (
    BiasBound,
    ExchangeabilityTest,
    InferenceResult,
    SharedFit,
    bias_bound,
    bootstrap_variance,
    if_variance,
    overlap_diagnostics,
    test,
    test_mean_exchangeability,
)
from .nuisance import (
    BlockFitter,
    FittedGLM,
    ModelSpec,
    NuisanceSet,
    RowTable,
    Term,
    VarianceRatioModel,
    fit_bundle,
    fit_glm,
    fit_variance_ratio,
    linear_specs,
)
from .simlab import (
    MCResult,
    MCSummary,
    ScenarioConfig,
    TrueEffects,
    export_boxplot_data,
    generate,
    run_monte_carlo,
    true_effects,
)

__version__ = "0.1.0"
