"""Synthetic data generation and the Monte Carlo verification engine.

Four scenarios toggle whether the outcome-mean functions and the propensity
functions are linear in the observed covariates (so the analyst's raw-x
working models are correct) or in standardized nonlinear distortions of
them (so the same working models are misspecified):

    i   both sets of working models correct
    ii  outcome models correct, propensity models misspecified
    iii propensity models correct, outcome models misspecified
    iv  both sets misspecified

Control-outcome noise is heteroscedastic with different log-linear variance
functions per data source, so the variance ratio is a non-constant
log-linear function of x1. Control-outcome means never depend on the data
source (unless an engagement shift is injected), so mean exchangeability
holds by construction.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ._normal import ndtri
from .dataset import OUTCOME_CONTINUOUS, CompositeDataset
from .errors import ConfigError, EcborrowError, ReplicateFailure
from .estimators import (
    METHOD_BASELINE,
    METHOD_FULL,
    METHOD_TRIAL,
    efficiency_gain_analytic,
    estimate,
    influence_values,
)
from .inference import if_variance, ordered_map
from .nuisance import (
    RATIO_CONSTANT,
    RATIO_LOGLINEAR,
    RowTable,
    expit,
    fit_bundle,
    linear_specs,
)

SCENARIOS = ("i", "ii", "iii", "iv")

# Moments of the distorted features under the standard normal design,
# used to standardize them so the selection and treatment rates stay near
# one half in every scenario. Feature 1 is exp(x1/2) + x2^2 - 1 with mean
# e^{1/8} and variance (e^{1/2} - e^{1/4}) + 2; feature 2 is
# x2/(1+e^{x1}) + 10 - (x1^2 - 1) with mean 10 and variance
# E[(1+e^{x1})^{-2}] + 2, where E[(1+e^{x1})^{-2}] is fixed by quadrature.
_INV_SQ_LOGISTIC = 0.29337903585809294  # E[(1+e^Z)^{-2}], Z standard normal
_D1_MEAN = float(np.exp(0.125))
_D1_SD = float(np.sqrt(np.exp(0.5) - np.exp(0.25) + 2.0))
_D2_MEAN = 10.0
_D2_SD = float(np.sqrt(_INV_SQ_LOGISTIC + 2.0))

ORACLE_SEED = 20_240_601
ORACLE_DRAWS = 10_000_000
ORACLE_CHUNKS = 20
DRAW_RETENTION_CAP = 1_000_000

ALL_ESTIMATORS = (
    "tau_full",
    "tau_full_const",
    "tau_trial",
    "psi_full",
    "psi_base",
    "xi_full",
    "xi_base",
)

# name -> (estimand, method, ratio mode, nuisance set it reads)
_ESTIMATOR_META = {
    "tau_full": ("tau", METHOD_FULL, RATIO_LOGLINEAR, "pooled"),
    "tau_full_const": ("tau", METHOD_FULL, RATIO_CONSTANT, "pooled_const"),
    "tau_trial": ("tau", METHOD_TRIAL, None, "unpooled"),
    "psi_full": ("psi", METHOD_FULL, RATIO_LOGLINEAR, "pooled"),
    "psi_base": ("psi", METHOD_BASELINE, None, "unpooled"),
    "xi_full": ("xi", METHOD_FULL, RATIO_LOGLINEAR, "pooled"),
    "xi_base": ("xi", METHOD_BASELINE, None, "unpooled"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Data-generating truth plus which working models the analyst gets right."""

    scenario: str = "i"
    n: int = 1000
    outcome_kind: str = OUTCOME_CONTINUOUS
    selection_coefs: tuple[float, float, float] = (0.3, 0.4, -0.4)
    treatment_coefs: tuple[float, float, float] = (0.0, 0.2, 0.2)
    control_mean_coefs: tuple[float, float, float] = (1.0, 1.0, 0.5)
    effect_coefs: tuple[float, float, float] = (1.0, 0.5, 0.0)
    log_var_trial: tuple[float, float] = (0.2, 0.2)
    log_var_external: tuple[float, float] = (0.4, -0.2)
    engagement_coefs: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.n < 10:
            raise ConfigError("scenario sample size must be at least 10")
        if self.outcome_kind != OUTCOME_CONTINUOUS:
            raise ConfigError("the scenario study uses a continuous response")

    @property
    def outcome_distorted(self) -> bool:
        return self.scenario in ("iii", "iv")

    @property
    def propensity_distorted(self) -> bool:
        return self.scenario in ("ii", "iv")

    def to_dict(self) -> dict:
        return asdict(self)


def distort(x: np.ndarray) -> np.ndarray:
    """Standardized nonlinear features used by the misspecified arms.

    Exponential, ratio, and quadratic components keep the features poorly
    approximated by anything linear in x, so raw-x working models stay
    meaningfully wrong in the distorted arms.
    """
    w1 = np.exp(x[:, 0] / 2.0) + x[:, 1] ** 2 - 1.0
    w2 = x[:, 1] / (1.0 + np.exp(x[:, 0])) + 10.0 - (x[:, 0] ** 2 - 1.0)
    return np.column_stack([(w1 - _D1_MEAN) / _D1_SD, (w2 - _D2_MEAN) / _D2_SD])


def _linear(coefs: tuple[float, float, float], z: np.ndarray) -> np.ndarray:
    return coefs[0] + coefs[1] * z[:, 0] + coefs[2] * z[:, 1]


@dataclass
class TruthFrame:
    """Row-level potential outcomes, kept out of the analyst-facing dataset."""

    y0: np.ndarray
    y1: np.ndarray


def generate(cfg: ScenarioConfig, seed) -> tuple[CompositeDataset, TruthFrame]:
    """Draw one synthetic composite dataset plus its hidden truth."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((cfg.n, 2))
    z_ps = distort(x) if cfg.propensity_distorted else x
    z_out = distort(x) if cfg.outcome_distorted else x

    pi_true = expit(_linear(cfg.selection_coefs, z_ps))
    d = (rng.random(cfg.n) < pi_true).astype(int)
    p_true = expit(_linear(cfg.treatment_coefs, z_ps))
    t = (d == 1) & (rng.random(cfg.n) < p_true)
    t = t.astype(int)

    sd = np.where(
        d == 1,
        np.exp(0.5 * (cfg.log_var_trial[0] + cfg.log_var_trial[1] * x[:, 0])),
        np.exp(0.5 * (cfg.log_var_external[0] + cfg.log_var_external[1] * x[:, 0])),
    )
    noise = rng.standard_normal(cfg.n) * sd
    engagement = _linear(cfg.engagement_coefs, x)
    y0 = _linear(cfg.control_mean_coefs, z_out) + d * engagement + noise
    y1 = y0 + _linear(cfg.effect_coefs, z_out)
    y = np.where(t == 1, y1, y0)

    ds = CompositeDataset(
        y, x, t, d, covariate_names=("x1", "x2"), outcome_kind=OUTCOME_CONTINUOUS
    )
    return ds, TruthFrame(y0=y0, y1=y1)


# ----------------------------- oracle truth ----------------------------


@dataclass(frozen=True)
class TrueEffects:
    tau: float
    psi: float
    xi: float
    q: float
    se_tau: float
    se_psi: float
    se_xi: float
    draws: int

    def by_estimand(self) -> dict:
        return {"tau": self.tau, "psi": self.psi, "xi": self.xi}


_TRUTH_CACHE: dict = {}


def _truth_key(cfg: ScenarioConfig) -> tuple:
    # engagement and n do not move the potential-outcome contrasts
    return (
        cfg.scenario,
        cfg.selection_coefs,
        cfg.treatment_coefs,
        cfg.control_mean_coefs,
        cfg.effect_coefs,
    )


def true_effects(cfg: ScenarioConfig, draws: int = ORACLE_DRAWS) -> TrueEffects:
    """Population effects under the scenario, by large-sample integration.

    Conditioning on the data source is handled by weighting with the true
    selection probability rather than drawing source labels, which removes
    the Bernoulli noise. Results are cached per scenario truth.
    """
    return oracle_truths((cfg,), draws)[0]


def oracle_truths(cfgs, draws: int = ORACLE_DRAWS) -> tuple[TrueEffects, ...]:
    """``true_effects`` of several scenarios from one pass over the draws.

    Each scenario's sums are accumulated exactly as a pass of its own would,
    so the results equal one-at-a-time ``true_effects`` calls bit for bit;
    the pass only shares the draws, the distortion and each distinct
    selection propensity and effect between scenarios.
    """
    keys = [_truth_key(cfg) + (draws,) for cfg in cfgs]
    missing = {}
    for key, cfg in zip(keys, cfgs):
        if key not in _TRUTH_CACHE:
            missing.setdefault(key, cfg)
    results = _oracle_pass(list(missing.values()), draws) if missing else []
    for key, result in zip(missing, results):
        worst = max(result.se_tau, result.se_psi, result.se_xi)
        if worst >= 1e-3:
            raise EcborrowError(f"oracle truth too noisy (max se {worst:.2e}); increase draws")
        _TRUTH_CACHE[key] = result
    return tuple(_TRUTH_CACHE[key] for key in keys)


def _oracle_pass(cfgs: list[ScenarioConfig], draws: int) -> list[TrueEffects]:
    chunks = ORACLE_CHUNKS
    size = draws // chunks
    sums = np.zeros((len(cfgs), 4))  # pi*g, (1-pi)*g, g, pi
    per_chunk = np.zeros((len(cfgs), chunks, 3))
    for c in range(chunks):
        for k, chunk_sums in enumerate(_oracle_chunk(cfgs, c, size)):
            pi_g, rest_g, sum_g, sum_pi, sum_rest, mean_g = chunk_sums
            sums[k] += [pi_g, rest_g, sum_g, sum_pi]
            per_chunk[k, c] = [pi_g / sum_pi, rest_g / sum_rest, mean_g]
    total = chunks * size
    results = []
    for (sum_pi_g, sum_rest_g, sum_g, sum_pi), chunk_means in zip(sums, per_chunk):
        ses = chunk_means.std(axis=0, ddof=1) / np.sqrt(chunks)
        results.append(
            TrueEffects(
                tau=float(sum_pi_g / sum_pi),
                psi=float(sum_g / total),
                xi=float(sum_rest_g / (total - sum_pi)),
                q=float(sum_pi / total),
                se_tau=float(ses[0]),
                se_psi=float(ses[2]),
                se_xi=float(ses[1]),
                draws=total,
            )
        )
    return results


def _oracle_chunk(cfgs: list[ScenarioConfig], c: int, size: int) -> list[tuple]:
    """Each scenario's sums over oracle chunk ``c``.

    The draws, their distortion and each distinct selection propensity and
    effect are computed once for all scenarios. A function of its own, so
    the chunk's arrays are freed before the next chunk is drawn.
    """
    x = np.random.default_rng([ORACLE_SEED, c]).standard_normal((size, 2))
    any_distorted = any(cfg.propensity_distorted or cfg.outcome_distorted for cfg in cfgs)
    z = {False: x, True: distort(x) if any_distorted else None}
    selections: dict = {}  # (distorted?, coefs) -> (pi, sum pi, sum 1-pi)
    effects: dict = {}  # (distorted?, coefs) -> (g, sum g, mean g)
    for cfg in cfgs:
        key = (cfg.propensity_distorted, cfg.selection_coefs)
        if key not in selections:
            pi = expit(_linear(cfg.selection_coefs, z[cfg.propensity_distorted]))
            selections[key] = (pi, np.sum(pi), np.sum(1 - pi))
        key = (cfg.outcome_distorted, cfg.effect_coefs)
        if key not in effects:
            g = _linear(cfg.effect_coefs, z[cfg.outcome_distorted])
            effects[key] = (g, np.sum(g), np.mean(g))
    del x, z
    out = []
    for cfg in cfgs:
        pi, sum_pi, sum_rest = selections[(cfg.propensity_distorted, cfg.selection_coefs)]
        g, sum_g, mean_g = effects[(cfg.outcome_distorted, cfg.effect_coefs)]
        out.append((np.sum(pi * g), np.sum((1 - pi) * g), sum_g, sum_pi, sum_rest, mean_g))
    return out


# --------------------------- Monte Carlo core --------------------------


def _fit_replicate_nuisances(ds: CompositeDataset) -> tuple[dict, RowTable]:
    """The bundle's sets plus "pooled_const", the pooled set with a constant ratio.

    The analyst's working models are linear in the raw covariates, so they
    are correct in the undistorted arms only.
    """
    sets, table = fit_bundle(ds, linear_specs(ds.k), RATIO_LOGLINEAR)
    pooled = sets["pooled"]
    sets["pooled_const"] = replace(pooled, r=pooled.r.constant)
    return sets, table


def _mc_replicate(args) -> dict:
    cfg, master_seed, rep, estimators = args
    try:
        ds, _ = generate(cfg, [master_seed, rep])
        # one table: every estimator below shares its predictions and pieces
        sets, table = _fit_replicate_nuisances(ds)
        record: dict = {}
        for name in estimators:
            estimand, method, _, set_name = _ESTIMATOR_META[name]
            nuis = sets[set_name]
            point = estimate(ds, nuis, estimand, method, table=table).point
            ifv = influence_values(ds, nuis, estimand, method, point, table=table)
            record[name] = (point, if_variance(ifv))
        record["analytic_gain"] = efficiency_gain_analytic(ds, sets["pooled"], table=table)
        return {"ok": True, "record": record}
    except EcborrowError as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


@dataclass
class MCSummary:
    name: str
    estimand: str
    method: str
    ratio_mode: str | None
    reps: int
    truth: float
    mean_bias: float
    sd: float | None
    mse: float
    coverage: float
    mean_variance_estimate: float


@dataclass
class MCResult:
    config: ScenarioConfig
    reps: int
    master_seed: int
    level: float
    truth: TrueEffects
    summaries: dict
    failures: int
    failure_messages: list[str]
    mean_analytic_gain: float
    draws: dict | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["draws"]
        return out


def run_monte_carlo(
    cfg: ScenarioConfig,
    reps: int,
    master_seed: int = 0,
    jobs: int = 1,
    estimators: tuple[str, ...] = ALL_ESTIMATORS,
    level: float = 0.95,
    keep_draws: bool = False,
) -> MCResult:
    """Replicate generate-fit-estimate and aggregate bias, mse, coverage.

    Replicate r draws from the RNG stream (master_seed, r), and aggregation
    runs in replicate order, so results are identical for any ``jobs``.
    """
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    unknown = set(estimators) - set(ALL_ESTIMATORS)
    if unknown:
        raise ConfigError(f"unknown estimators: {sorted(unknown)}")
    if keep_draws and reps * len(estimators) > DRAW_RETENTION_CAP:
        raise ConfigError(
            "draw retention above the in-memory cap; lower reps or drop estimators"
        )
    truth = true_effects(cfg)
    tasks = [(cfg, master_seed, rep, tuple(estimators)) for rep in range(reps)]
    raw = ordered_map(_mc_replicate, tasks, jobs, chunksize=8)
    failures = [item for item in raw if not item["ok"]]
    if len(failures) > 0.02 * reps:
        raise ReplicateFailure(
            f"{len(failures)}/{reps} Monte Carlo replicates failed",
            messages=[f["error"] for f in failures[:5]],
        )
    records = [item["record"] for item in raw if item["ok"]]
    n_ok = len(records)
    crit = ndtri(0.5 + level / 2.0)
    truths = truth.by_estimand()
    summaries: dict = {}
    draws: dict = {} if keep_draws else None
    for name in estimators:
        estimand, method, ratio, _ = _ESTIMATOR_META[name]
        points = np.array([rec[name][0] for rec in records])
        variances = np.array([rec[name][1] for rec in records])
        target = truths[estimand]
        errors = points - target
        ses = np.sqrt(variances)
        cover = np.abs(errors) <= crit * ses
        mean_bias = float(np.mean(errors))
        sd = float(np.std(errors)) if n_ok > 1 else None
        mse = float(np.mean(errors**2))
        summaries[name] = MCSummary(
            name=name,
            estimand=estimand,
            method=method,
            ratio_mode=ratio,
            reps=n_ok,
            truth=float(target),
            mean_bias=mean_bias,
            sd=sd,
            mse=mse,
            coverage=float(np.mean(cover)),
            mean_variance_estimate=float(np.mean(variances)),
        )
        if keep_draws:
            draws[name] = points
    gains = np.array([rec["analytic_gain"] for rec in records])
    return MCResult(
        config=cfg,
        reps=reps,
        master_seed=master_seed,
        level=level,
        truth=truth,
        summaries=summaries,
        failures=len(failures),
        failure_messages=[f["error"] for f in failures],
        mean_analytic_gain=float(np.mean(gains)),
        draws=draws,
    )


def export_boxplot_data(results: list[MCResult], path: str | Path) -> int:
    """Write per-replicate biases in long format for external plotting."""
    path = Path(path)
    rows = 0
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "estimator", "replicate", "bias"])
        for result in results:
            if result.draws is None:
                raise ConfigError(
                    "boxplot export needs raw draws; run with keep_draws=True"
                )
            truths = result.truth.by_estimand()
            for name in result.summaries:
                target = truths[_ESTIMATOR_META[name][0]]
                for rep, point in enumerate(result.draws[name]):
                    writer.writerow(
                        [result.config.scenario, name, rep, repr(float(point - target))]
                    )
                    rows += 1
    return rows


def zero_effect_variant(cfg: ScenarioConfig) -> ScenarioConfig:
    """Same design with the treatment shift removed (all effects zero)."""
    return replace(cfg, effect_coefs=(0.0, 0.0, 0.0))
