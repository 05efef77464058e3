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

The Monte Carlo engine fits replicates a block at a time on the block path
that also serves the bootstrap's resamples: a block's datasets are built
at once as a ``DatasetBlock``, ``nuisance.BlockFitter`` fits every working
model of every replicate at once, and one scorer (``_record_columns``) reads
the moment of each ``estimators.Estimator`` record, the CLI's estimators too,
off the fits: each replicate's row of points, IF variances and analytic
gain. A replicate the block cannot stand in for is fit alone and scored by
it at K = 1. A study (``run_study``) runs its scenarios in one pass, block by
block: each replicate's stream is drawn once for every scenario
(``draw_streams``), each scenario builds its block from those draws
(``generate``), and twins, the scenarios that draw the same d and t, are fit
on one ``BlockFitter``, which computes once what depends only on those: the
designs, Grams and propensity fits; ``generate`` draws their arm once.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from ._normal import ndtri
from .dataset import (
    NO_TRIAL_ROWS,
    OUTCOME_CONTINUOUS,
    CompositeDataset,
    DatasetBlock,
    is_finite_number,
)
from .errors import (
    ConfigError,
    EcborrowError,
    InvariantViolation,
    NonConvergence,
    NonFiniteResult,
    ReplicateFailure,
)
from .estimators import (
    METHOD_BASELINE,
    METHOD_FULL,
    METHOD_TRIAL,
    Estimator,
    IFVector,
    efficiency_gain_analytic,
    uncentred,
)
from .inference import (
    BLOCK_BYTES,
    _block_points,
    _describe,
    block_ranges,
    if_variance,
    ordered_map,
)
from .nuisance import (
    RATIO_CONSTANT,
    RATIO_LOGLINEAR,
    BlockFitter,
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

# Gauss-Hermite nodes per covariate for the scenario truths. On the four
# default scenarios 120 nodes agree with 60 to 2.4e-14; a steeper selection
# index on the distorted features converges more slowly, so a truth that
# moves by more than TRUTH_TOL times max(1, |truth|) under twice the nodes is
# an error.
QUADRATURE_NODES = 60
TRUTH_TOL = 1e-8

DRAW_RETENTION_CAP = 1_000_000

# each estimator the study scores, by name; the replicates fit the loglinear
# ratio, and a constant-ratio estimator reads the constant one it carries
_ESTIMATOR_RECORDS = {
    "tau_full": Estimator("tau", METHOD_FULL),
    "tau_full_const": Estimator("tau", METHOD_FULL, constant=True),
    "tau_trial": Estimator("tau", METHOD_TRIAL),
    "psi_full": Estimator("psi", METHOD_FULL),
    "psi_base": Estimator("psi", METHOD_BASELINE),
    "xi_full": Estimator("xi", METHOD_FULL),
    "xi_base": Estimator("xi", METHOD_BASELINE),
}
ALL_ESTIMATORS = tuple(_ESTIMATOR_RECORDS)


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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("tuple[") and not (
                    isinstance(value, tuple) and len(value) == f.type.count("float")
                    and all(map(is_finite_number, value))):
                raise ConfigError(
                    f"{f.name} must be {f.type.count('float')} finite numbers, got {value!r}")
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
    w1 = np.exp(x[..., 0] / 2.0) + x[..., 1] ** 2 - 1.0
    w2 = x[..., 1] / (1.0 + np.exp(x[..., 0])) + 10.0 - (x[..., 0] ** 2 - 1.0)
    return np.stack([(w1 - _D1_MEAN) / _D1_SD, (w2 - _D2_MEAN) / _D2_SD], axis=-1)


def _once(memo: dict, key, compute):
    """``memo[key]``, set to ``compute()`` on the first call with ``key``."""
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _features(cfg: ScenarioConfig, x: np.ndarray, memo: dict
              ) -> tuple[np.ndarray, np.ndarray]:
    """The propensity and the outcome features of covariates ``x``: ``distort(x)``
    in the scenario's misspecified arms, computed once per ``memo``, and ``x``
    itself otherwise."""
    distorted = (_once(memo, "distort", partial(distort, x))
                 if cfg.propensity_distorted or cfg.outcome_distorted else x)
    return (distorted if cfg.propensity_distorted else x,
            distorted if cfg.outcome_distorted else x)


def _linear(coefs: tuple[float, float, float], z: np.ndarray) -> np.ndarray:
    return coefs[0] + coefs[1] * z[..., 0] + coefs[2] * z[..., 1]


@dataclass
class TruthFrame:
    """Row-level potential outcomes, kept out of the analyst-facing dataset."""

    y0: np.ndarray
    y1: np.ndarray


def draw_streams(seeds: list, n: int) -> tuple[np.ndarray, ...]:
    """The draws of each RNG stream in ``seeds`` that ``generate`` builds a dataset
    from, stacked over a leading axis of K streams, in the order each stream
    gives them: the covariates (K, n, 2), the selection and the treatment
    uniforms (K, n) and the noise normals (K, n)."""
    k = len(seeds)
    x, u_select, u_treat, noise = (np.empty((k, n, 2)), np.empty((k, n)), np.empty((k, n)),
                                   np.empty((k, n)))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=x[i])
        rng.random(out=u_select[i])
        rng.random(out=u_treat[i])
        rng.standard_normal(out=noise[i])
    return x, u_select, u_treat, noise


def _arm_key(cfg: ScenarioConfig) -> tuple:
    """The fields of ``cfg`` that ``_arm`` reads. Scenarios with one key are twins:
    on the same draws they draw the same arm (i and iii, ii and iv by default)."""
    return (cfg.propensity_distorted, cfg.selection_coefs, cfg.treatment_coefs,
            cfg.log_var_trial, cfg.log_var_external, cfg.engagement_coefs)


def _arm(cfg: ScenarioConfig, x, z_ps, u_select, u_treat, noise) -> tuple:
    """Source d and arm t (float codes), the engagement shift d * engagement, the scaled noise."""
    pi_true = expit(_linear(cfg.selection_coefs, z_ps))
    d = (u_select < pi_true).astype(float)
    p_true = expit(_linear(cfg.treatment_coefs, z_ps))
    t = ((d == 1) & (u_treat < p_true)).astype(float)

    sd = np.where(
        d == 1,
        np.exp(0.5 * (cfg.log_var_trial[0] + cfg.log_var_trial[1] * x[..., 0])),
        np.exp(0.5 * (cfg.log_var_external[0] + cfg.log_var_external[1] * x[..., 0])),
    )
    return d, t, d * _linear(cfg.engagement_coefs, x), noise * sd


def generate(cfg: ScenarioConfig, seed, draws: tuple | None = None, memo: dict | None = None
             ) -> tuple[CompositeDataset | DatasetBlock, TruthFrame]:
    """Draw one synthetic composite dataset from the RNG stream ``seed``, plus its
    hidden truth: dataset 0 of the block of that one stream.

    Given the ``draws`` of K streams (``draw_streams``), ``seed`` is not read:
    it builds the K datasets at once, by the same arithmetic over the leading
    axis, as a DatasetBlock with (K, n) truths. A dataset of the block may hold
    no trial row, which ``CompositeDataset`` refuses. A ``memo`` kept across the
    scenarios of one ``draws`` computes ``distort(x)`` and each ``_arm_key``'s arm once.
    """
    x, u_select, u_treat, noise = draw_streams([seed], cfg.n) if draws is None else draws
    memo = {} if memo is None else memo
    z_ps, z_out = _features(cfg, x, memo)
    d, t, shift, scaled = _once(memo, _arm_key(cfg),
                                partial(_arm, cfg, x, z_ps, u_select, u_treat, noise))
    # in the operand order (mean + shift) + noise, which fixes the bits
    y0 = _linear(cfg.control_mean_coefs, z_out) + shift + scaled
    y1 = y0 + _linear(cfg.effect_coefs, z_out)
    y = np.where(t == 1, y1, y0)

    block = DatasetBlock(y, x, t, d, ("x1", "x2"), OUTCOME_CONTINUOUS)
    if draws is not None:
        return block, TruthFrame(y0=y0, y1=y1)
    return block.dataset(0), TruthFrame(y0=y0[0], y1=y1[0])


# ------------------------------ true effects ----------------------------


@dataclass(frozen=True)
class TrueEffects:
    tau: float
    psi: float
    xi: float
    q: float

    def by_estimand(self) -> dict:
        return {"tau": self.tau, "psi": self.psi, "xi": self.xi}


@cache
def _normal_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes for the standard normal, and weights that sum to one,
    computed once per process and read-only, since every scenario shares them.

    ``numpy.polynomial`` is imported here, so that only ``simulate`` loads it.
    """
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(k)
    rule = nodes, weights / weights.sum()
    for array in rule:
        array.flags.writeable = False
    return rule


def true_effects(cfg: ScenarioConfig) -> TrueEffects:
    """Population effects under the scenario, by tensor Gauss-Hermite quadrature.

    With selection probability pi(x) and effect g(x), q = E[pi],
    tau = E[pi g] / q, xi = E[(1 - pi) g] / (1 - q) and psi = E[g], where x
    is the scenario's standard normal covariate pair. Weighting by the true
    pi conditions on the data source without drawing it. Sample size and
    engagement shift do not enter. The rule has QUADRATURE_NODES per
    covariate; one of twice as many checks it, and a truth that moves by
    more than TRUTH_TOL times max(1, |truth|) between them raises
    NonConvergence, so the check scales with the effects' units. The check
    rule's sums skip BLAS, whose multithreaded dot products cost more than they save
    at its size; their last bits reach only the gap.
    """
    truth = _quadrature_effects(cfg, QUADRATURE_NODES, np.dot)
    check = _quadrature_effects(cfg, 2 * QUADRATURE_NODES, _sum_of_products)
    gaps = {name: abs(getattr(truth, name) - getattr(check, name))
            for name in ("tau", "psi", "xi", "q")}
    scaled = {name: gap / max(1.0, abs(getattr(truth, name))) for name, gap in gaps.items()}
    if not all(miss <= TRUTH_TOL for miss in scaled.values()):
        name = max(scaled, key=scaled.get)
        raise NonConvergence(
            f"quadrature truth {name} moves by {gaps[name]:.2g} between {QUADRATURE_NODES} and"
            f" {2 * QUADRATURE_NODES} nodes per covariate", estimand=name, gap=gaps[name])
    return truth


def _sum_of_products(w: np.ndarray, f: np.ndarray) -> float:
    return np.sum(w * f)


def _quadrature_effects(cfg: ScenarioConfig, k: int, expect) -> TrueEffects:
    """``true_effects`` by the rule of ``k`` nodes per covariate, with
    ``expect(w, f)`` the rule's weighted sum of f."""
    nodes, weights = _normal_rule(k)
    x = np.column_stack([np.repeat(nodes, k), np.tile(nodes, k)])
    w = np.outer(weights, weights).ravel()
    z_ps, z_out = _features(cfg, x, {})
    pi = expit(_linear(cfg.selection_coefs, z_ps))
    g = _linear(cfg.effect_coefs, z_out)
    q = float(expect(w, pi))
    return TrueEffects(
        tau=float(expect(w, pi * g)) / q,
        psi=float(expect(w, g)),
        xi=float(expect(w, (1.0 - pi) * g)) / (1.0 - q),
        q=q,
    )


# --------------------------- Monte Carlo core --------------------------


def _fit_replicate_nuisances(data: CompositeDataset | DatasetBlock, fit=None):
    """``fit`` (``fit_bundle`` if None, ``BlockFitter`` on a block) on the analyst's working models:
    linear in the raw covariates, so correct in the undistorted arms only; the loglinear ratio."""
    return (fit or fit_bundle)(data, linear_specs(data.k), RATIO_LOGLINEAR)


def _mc_block(args) -> list[list]:
    """One block of replicates for every scenario of a study: each replicate's
    stream is drawn once, and each scenario builds its block from those draws
    (``generate``, with one memo for the block) and scores it (``_score_block``).

    Twins (one ``_arm_key``) hold the same covariates, d and t, so they are scored
    back to back on one ``BlockFitter``, dropped with their arm after them. The
    outcomes stay in scenario order.
    """
    cfgs, master_seed, reps, estimators = args
    draws = draw_streams([[master_seed, rep] for rep in reps], cfgs[0].n)
    twins: dict = {}
    for s, cfg in enumerate(cfgs):
        twins.setdefault(_arm_key(cfg), []).append(s)
    outcomes, memo, fitters = [None] * len(cfgs), {}, {}
    for key, scenarios in twins.items():
        for s in scenarios:
            block = generate(cfgs[s], None, draws, memo)[0]
            outcomes[s] = _score_block(block, estimators, fitters, key)
            del block  # one scenario's block at a time
        del memo[key]
        fitters.pop(key, None)
    return outcomes


def _score_block(block: DatasetBlock, estimators: tuple, fitters: dict, key) -> list:
    """Score a scenario's block of replicates at once, then finish each in order.

    A replicate drawn without a trial row is left out of the block and fails as
    its dataset alone does; one the block cannot stand in for is fit alone. The
    block is fit on ``fitters[key]``, made of the first twin block it scores.
    """
    drawn = block.n1[:, 0] > 0
    results = [None if ok else _describe(InvariantViolation(NO_TRIAL_ROWS)) for ok in drawn]
    rows = ()
    if drawn.any():
        # only the drawn replicates' columns stay: a replicate the block cannot
        # stand in for is taken back out of it
        block = block if drawn.all() else block.select(drawn)
        if key not in fitters:
            fitters[key] = _fit_replicate_nuisances(block, BlockFitter)
        rows = _block_points(fitters[key], (partial(_record_columns, estimators),), base=block)
    finished = (_mc_replicate(None if row is not None else block.dataset(k), estimators, row)
                for k, row in enumerate(rows))
    return [result or next(finished) for result in results]


def _record_columns(estimators: tuple, data: CompositeDataset | DatasetBlock,
                    fitted: tuple) -> np.ndarray:
    """Each estimator's point and IF variance, then the analytic gain, as (K, 2E + 1), on
    a DatasetBlock with its ``BlockFitter`` fit or on one replicate with its own (K = 1).
    A variance is NaN where its influence values are ``uncentred``: its row is not used."""
    sets, table = fitted
    columns, also = [], [_ESTIMATOR_RECORDS[name].full_data(sets) for name in estimators]
    for name in estimators:
        record = _ESTIMATOR_RECORDS[name]
        moment = record.moment(data, fitted, also)
        points = moment.point
        values = moment.influence(points)
        variances = if_variance(IFVector(values, record.estimand, record.method))
        columns += [points, np.where(uncentred(values, points), np.nan, variances)]
    # the gain comes last, so that a replicate fit alone raises an estimator's error first
    columns.append(efficiency_gain_analytic(data, sets["pooled"], table))
    return np.column_stack(columns)


def _mc_replicate(ds: CompositeDataset | None, estimators: tuple, row: np.ndarray | None = None):
    """Finish the replicate drawn as ``ds``: its ``_record_columns`` row from the block,
    or from its own fit alone, or its failure as "Type: message"; a row fit alone
    that holds a non-finite value is a NonFiniteResult naming the first such column."""
    if row is None:
        try:
            row = _record_columns(estimators, ds, _fit_replicate_nuisances(ds))[0]
            if not np.isfinite(row).all():
                labels = [f"{name} {kind}" for name in estimators
                          for kind in ("point", "IF variance")] + ["analytic gain"]
                column = int(np.argmin(np.isfinite(row)))
                raise NonFiniteResult(f"replicate {labels[column]} is {row[column]}")
        except EcborrowError as exc:
            return _describe(exc)
    return row


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
    draws: dict | None = None  # each estimator's points, one per number in replicates
    replicates: list | None = None

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["draws"], out["replicates"]
        return out


def run_study(
    cfgs: list[ScenarioConfig],
    reps: int,
    master_seed: int = 0,
    jobs: int = 1,
    estimators: tuple[str, ...] = ALL_ESTIMATORS,
    level: float = 0.95,
    keep_draws: bool = False,
) -> list[MCResult]:
    """``run_monte_carlo`` of each scenario of a study, from one Monte Carlo pass.

    The scenarios share one sample size and so one block rule. Each task is a
    block of replicates for every scenario (``_mc_block``): replicate r's
    stream (master_seed, r) is drawn once for all of them, and twins (i and
    iii, ii and iv under the default ``dgp``) share their arm and propensity
    work. Each scenario is then summarised in order, its truth checked before
    its replicate failures, so each scenario's result and the first error are
    those of ``run_monte_carlo`` run on it alone.
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
    if len({cfg.n for cfg in cfgs}) != 1:
        raise ConfigError("the scenarios of a study share one sample size")
    tasks = [(tuple(cfgs), master_seed, replicates, tuple(estimators))
             for replicates in block_ranges(reps, cfgs[0].n, BLOCK_BYTES)]
    blocks = ordered_map(_mc_block, tasks, jobs)
    return [run_monte_carlo(cfg, reps, master_seed, estimators=estimators, level=level,
                            keep_draws=keep_draws,
                            outcomes=[item for block in blocks for item in block[s]])
            for s, cfg in enumerate(cfgs)]


def run_monte_carlo(
    cfg: ScenarioConfig,
    reps: int,
    master_seed: int = 0,
    jobs: int = 1,
    estimators: tuple[str, ...] = ALL_ESTIMATORS,
    level: float = 0.95,
    keep_draws: bool = False,
    outcomes: list | None = None,
) -> MCResult:
    """Replicate generate-fit-estimate and aggregate bias, mse, coverage.

    Replicate r draws from the RNG stream (master_seed, r), and aggregation
    runs in replicate order. Replicates go to the fit in blocks of
    consecutive replicates, sized from ``cfg.n`` alone by the bootstrap's
    rule (``block_ranges``) at half its budget (BLOCK_BYTES), since each
    replicate stacks its own design. With ``jobs > 1`` the worker processes
    take whole blocks, so results are identical for any ``jobs``. Each block
    fits every working model of its replicates at once (``BlockFitter``); a
    replicate the block cannot stand in for is fit alone (``_mc_replicate``).
    ``outcomes``, each replicate's ``_mc_replicate`` row or failure message
    from a study's pass (``run_study``), skips that pass.
    """
    if outcomes is None:
        return run_study([cfg], reps, master_seed, jobs, estimators, level, keep_draws)[0]
    truth = true_effects(cfg)
    failures = [item for item in outcomes if isinstance(item, str)]
    if len(failures) > 0.02 * reps:
        raise ReplicateFailure(
            f"{len(failures)}/{reps} Monte Carlo replicates failed", messages=failures[:5])
    # each replicate that succeeded, by number, and its row (``_record_columns``)
    kept = [rep for rep, item in enumerate(outcomes) if not isinstance(item, str)]
    rows = np.stack([outcomes[rep] for rep in kept])
    n_ok = len(rows)
    crit = ndtri(0.5 + level / 2.0)
    truths = truth.by_estimand()
    summaries: dict = {}
    draws: dict = {} if keep_draws else None
    for i, name in enumerate(estimators):
        record = _ESTIMATOR_RECORDS[name]
        points, variances = rows[:, 2 * i], rows[:, 2 * i + 1]
        target = truths[record.estimand]
        errors = points - target
        ses = np.sqrt(variances)
        cover = np.abs(errors) <= crit * ses
        mean_bias = float(np.mean(errors))
        sd = float(np.std(errors)) if n_ok > 1 else None
        mse = float(np.mean(errors**2))
        summaries[name] = MCSummary(
            name=name,
            estimand=record.estimand,
            method=record.method,
            # the ratio the estimator reads; a comparator reads none
            ratio_mode=(RATIO_CONSTANT if record.constant else
                        RATIO_LOGLINEAR if record.method == METHOD_FULL else None),
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
    return MCResult(
        config=cfg,
        reps=reps,
        master_seed=master_seed,
        level=level,
        truth=truth,
        summaries=summaries,
        failures=len(failures),
        failure_messages=failures,
        mean_analytic_gain=float(np.mean(rows[:, -1])),
        draws=draws,
        replicates=kept if keep_draws else None,
    )


def export_boxplot_data(results: list[MCResult], path: str | Path) -> int:
    """Write per-replicate biases, by replicate number, in long format for plotting."""
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
            for name, summary in result.summaries.items():
                target = truths[summary.estimand]
                for rep, point in zip(result.replicates, result.draws[name]):
                    writer.writerow(
                        [result.config.scenario, name, rep, repr(float(point - target))]
                    )
                    rows += 1
    return rows


def zero_effect_variant(cfg: ScenarioConfig) -> ScenarioConfig:
    """Same design with the treatment shift removed (all effects zero)."""
    return replace(cfg, effect_coefs=(0.0, 0.0, 0.0))
