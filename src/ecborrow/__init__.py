"""Treatment-effect estimation for trials augmented with external controls.

The public names resolve on first access (PEP 562), so importing the
package loads none of its modules; each loads with the first name read
from it.
"""

from importlib import import_module

# defining module -> the public names it gives the package
_EXPORTS = {
    "dataset": "ColumnSchema CompositeDataset load_csv summarize validate write_csv",
    "errors": "EcborrowError",
    "estimators": "Estimate Estimator IFVector control_weight efficiency_bound_plugin"
    " efficiency_gain_analytic estimate estimate_psi estimate_tau_full"
    " estimate_tau_treated_only estimate_tau_trial estimate_xi influence_values"
    " variance_gap_psi variance_gap_xi",
    "inference": "BiasBound ExchangeabilityTest InferenceResult SharedFit bias_bound"
    " bootstrap_variance if_variance overlap_diagnostics test test_mean_exchangeability",
    "nuisance": "BlockFitter FittedGLM ModelSpec NuisanceSet RowTable Term VarianceRatioModel"
    " fit_bundle fit_glm fit_variance_ratio linear_specs",
    "simlab": "MCResult MCSummary ScenarioConfig TrueEffects export_boxplot_data generate"
    " run_monte_carlo true_effects",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
