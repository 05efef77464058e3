"""Variance estimation, tests, and diagnostics for the estimators.

Influence-function variances and normal-approximation intervals are the
default; a nonparametric bootstrap is available as a cross-check. Each
resample is drawn once and its working models are fit once; every requested
estimator is evaluated on that one set of fits. Resamples reach the fit in
blocks, each also written as frequency counts on the base rows, so a block
fitter (``SharedFit.block``) can fit a whole block's working models and
points from the counts without building a dataset per resample; a resample
it cannot stand in for is fit alone on its own rows. The same block path
(``nuisance.BlockFitter``, the estimators' moments and the block scorer
``_block_points``), sized by the same rule (``block_ranges``), serves the
Monte Carlo replicates of ``simlab``, whose blocks stack the replicates' own
rows instead of counts. A bootstrap block's (resamples, rows) arrays stay
under 256 KiB and a Monte Carlo block's under 128 KiB; a unit's values do
not depend on its block. Also here: the specification test for equal
control-outcome means across data sources, overlap diagnostics, and the
bias bound under a source-specific control-mean shift.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from ._normal import ndtr, ndtri
from .dataset import OUTCOME_BINARY, CompositeDataset
from .errors import ConfigError, EmptyCell, NonFiniteResult, ReplicateFailure
from .estimators import DENOM_EPS, Estimate, IFVector, weight_denominator
from .nuisance import (
    IDENTITY,
    LOGIT,
    ModelSpec,
    NuisanceSet,
    RowTable,
    expit,
    fit_glm,
    row_table,
)

TWO_SIDED = "two_sided"
GREATER = "greater"
LESS = "less"
SIDEDNESS = (TWO_SIDED, GREATER, LESS)

VARIANCE_IF = "influence_function"
VARIANCE_BOOTSTRAP = "bootstrap"


@dataclass
class InferenceResult:
    estimate: Estimate
    variance: float
    se: float
    ci: tuple[float, float]
    level: float
    p_value: float
    null_value: float
    sidedness: str
    variance_method: str

    def to_dict(self) -> dict:
        out = asdict(self)
        out.update(out.pop("estimate"))
        return out


# --------------------------- IF variance ------------------------------


def if_variance(ifv: IFVector) -> float:
    """Estimator variance from mean-zero influence values: var(IF)/n.

    Values of shape (K, n), one row per dataset of a block, give K variances.
    """
    values = np.asarray(ifv.values, dtype=float)
    n = values.shape[-1]
    if n < 2:
        return 0.0
    # np.var(values, axis=-1, ddof=1)'s own steps, without its Python-level wrapper
    squares = values - np.add.reduce(values, axis=-1, keepdims=True) / n
    variance = np.add.reduce(np.square(squares, out=squares), axis=-1) / (n - 1) / n
    return float(variance) if values.ndim == 1 else variance


def test(
    est: Estimate,
    variance: float,
    null_value: float = 0.0,
    sidedness: str = TWO_SIDED,
    level: float = 0.95,
    variance_method: str = VARIANCE_IF,
) -> InferenceResult:
    """Normal-approximation z-test and confidence interval."""
    if sidedness not in SIDEDNESS:
        raise ConfigError(f"unknown sidedness {sidedness!r}")
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0,1), got {level}")
    if variance < 0:
        raise ConfigError(f"negative variance {variance}")
    se = float(np.sqrt(variance))
    if se == 0.0:
        z = np.inf if est.point > null_value else (-np.inf if est.point < null_value else 0.0)
    else:
        z = (est.point - null_value) / se
    if sidedness == GREATER:
        p = ndtr(-z)
    elif sidedness == LESS:
        p = ndtr(z)
    else:
        p = 2.0 * ndtr(-abs(z))
    crit = ndtri(0.5 + level / 2.0)
    ci = (est.point - crit * se, est.point + crit * se)
    return InferenceResult(
        estimate=est,
        variance=variance,
        se=se,
        ci=ci,
        level=level,
        p_value=p,
        null_value=null_value,
        sidedness=sidedness,
        variance_method=variance_method,
    )


# ----------------------------- bootstrap ------------------------------


def ordered_map(fn: Callable, tasks: list, jobs: int) -> list:
    """``[fn(task) for task in tasks]``, in ``jobs`` worker processes if ``jobs > 1``.

    Results come back in task order either way; with ``jobs > 1``, ``fn``
    and every task must be picklable.
    """
    if jobs <= 1:
        return [fn(task) for task in tasks]
    # imported here, which keeps it off the CLI's import path
    from concurrent.futures import ProcessPoolExecutor  # noqa: PLC0415

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


@dataclass
class BootstrapResult:
    variance: float
    ci: tuple[float, float]
    replicates: int
    failures: int
    points: np.ndarray

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["points"]
        return out


def _canonical_order(ds: CompositeDataset) -> np.ndarray:
    keys = [ds.x[:, j] for j in range(ds.k - 1, -1, -1)]
    keys.extend([ds.y, ds.t, ds.d])
    return np.lexsort(tuple(keys))


# a block's (resamples or replicates, rows) arrays stay under its caller's
# budget; a block fit keeps some twenty of them alive at once (predictions
# and estimator rows). A Monte Carlo replicate stacks its own design and
# covariates too, so the Monte Carlo keeps BLOCK_BYTES (16 replicates at
# n = 1000; 32 raise its peak RSS by 7%); bootstrap resamples share one
# design, and take twice the bytes (32 resamples at n = 1000). Both choose
# speed and memory only: no block size moves a bit.
BLOCK_BYTES = 1 << 17
BOOTSTRAP_BLOCK_BYTES = 2 * BLOCK_BYTES


def block_ranges(units: int, rows: int, array_bytes: int) -> list[range]:
    """Consecutive ranges of ``units`` resamples or replicates, of the largest
    size whose (units, rows) arrays stay under ``array_bytes``, and at least
    one. The size is a speed and memory choice: a unit's values are the
    same in a block of any size."""
    size = max(1, array_bytes // (8 * rows))
    return [range(start, min(start + size, units)) for start in range(0, units, size)]


@dataclass(frozen=True)
class SharedFit:
    """Several estimators that read one set of fitted working models.

    Per resample, ``fit(resample)`` runs once and each ``point(resample,
    fitted)`` in ``points`` turns its result into one estimate. ``block``,
    when given, makes a block fitter of the canonical base rows,
    ``block(base)``, that fits many resamples together (``nuisance.
    BlockFitter`` is one). Its ``solve(counts, base)`` takes K resamples as
    rows of frequency counts on the rows of ``base``, the base it was made
    of, and returns ``(ok, fitted)``: where it stands in for ``fit``, and a
    value on which each ``point(base, fitted)`` returns the K points at once,
    equal up to rounding to ``point(resample, fit(resample))`` wherever
    ``ok`` holds. A resample outside ``ok``, or with a non-finite block
    point, is fit alone. With ``jobs > 1`` every function must be picklable.
    """

    fit: Callable[[CompositeDataset], object]
    points: tuple[Callable[[CompositeDataset, object], float], ...]
    block: Callable[[CompositeDataset], object] | None = None


class BootstrapResults(list):
    """One BootstrapResult per estimator of a SharedFit, in ``points`` order."""

    @property
    def failures(self) -> int:
        return sum(result.failures for result in self)


def _fitted_value(resample: CompositeDataset, value: object) -> object:
    return value


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _draw(base: CompositeDataset, seed: int, rep: int, stratified: bool) -> np.ndarray:
    """Rows of resample ``rep``, drawn from the RNG stream (seed, rep)."""
    rng = np.random.default_rng([seed, rep])
    if not stratified:
        return rng.integers(0, base.n, base.n)
    idx1 = np.where(base.d == 1)[0]
    idx0 = np.where(base.d == 0)[0]
    take1 = idx1[rng.integers(0, idx1.size, idx1.size)]
    take0 = idx0[rng.integers(0, idx0.size, idx0.size)] if idx0.size else np.array([], dtype=int)
    return np.concatenate([take1, take0])


def _bootstrap_block(args) -> list:
    """Draw a block of resamples, fit what the block fitter can together, then finish each."""
    base, shared, fitter, seed, reps, stratified = args
    indices = [_draw(base, seed, rep, stratified) for rep in reps]
    states = [None] * len(indices)
    if fitter is not None:
        counts = np.array([np.bincount(idx, minlength=base.n) for idx in indices], dtype=float)
        states = _block_points(fitter, shared.points, counts)
    return [_bootstrap_one(base, shared, idx, state) for idx, state in zip(indices, states)]


def _block_points(fitter, points, counts: np.ndarray | None = None, base=None) -> list:
    """Each unit's values from one fit of the block, or None to fit it alone.

    The units are the resamples in ``counts`` of the fitter's base, or without
    counts the datasets of a DatasetBlock: the fitter's base, or ``base``, a
    twin of it (``BlockFitter.solve``). Each ``point(base, fitted)`` gives one
    value or one row of values per unit.
    """
    base = fitter.base if base is None else base
    k = len(base.y if counts is None else counts)
    try:
        ok, fitted = fitter.solve(counts, base)
        if not ok.any():
            return [None] * k
        # a unit cleared from ``ok``, or one whose rows the block's values
        # overflow on, gets a non-finite value here and is fit alone
        with np.errstate(all="ignore"):
            values = np.concatenate([
                np.asarray(point(base, fitted), dtype=float).reshape(k, -1) for point in points
            ], axis=1)
    except Warning:
        raise
    except Exception:  # noqa: BLE001 - each unit, fit alone, reports its own failure
        return [None] * k
    usable = ok & np.isfinite(values).all(axis=1)
    return [row if good else None for row, good in zip(values, usable)]


def _bootstrap_one(base: CompositeDataset, shared: SharedFit, idx: np.ndarray, state) -> list:
    """Finish resample ``idx``: its block points, or its own fit and every estimator on it.

    ``state`` holds the resample's points from its block, or None to fit it
    alone on ``base.take(idx)``. Returns one ``(point, None)`` or ``(None,
    message)`` per estimator. A failure to build or fit the resample counts
    against every estimator; a failing or non-finite point counts against its
    own estimator only. A warning raised as an exception (a warnings filter
    set to "error") is raised on, not counted.
    """
    if state is not None:
        return [(float(value), None) for value in state]
    try:
        resample = base.take(idx)
        fitted = shared.fit(resample)
    except Warning:
        raise
    except Exception as exc:  # noqa: BLE001 - failures are counted, not raised
        return [(None, _describe(exc))] * len(shared.points)
    outcomes = []
    for point in shared.points:
        try:
            value = float(point(resample, fitted))
            if not np.isfinite(value):
                raise NonFiniteResult(f"resample estimate is {value}")
            outcomes.append((value, None))
        except Warning:
            raise
        except Exception as exc:  # noqa: BLE001 - failures are counted, not raised
            outcomes.append((None, _describe(exc)))
    return outcomes


def _summarize(outcomes: list, level: float, max_failure_rate: float) -> BootstrapResult:
    """One estimator's replicates, in replicate order, as a BootstrapResult."""
    n_replicates = len(outcomes)
    points = np.array([p for p, _ in outcomes if p is not None], dtype=float)
    failures = n_replicates - points.size
    if failures > max_failure_rate * n_replicates or points.size == 0:
        raise ReplicateFailure(
            f"{failures}/{n_replicates} bootstrap replicates failed",
            failures=failures,
            messages=[m for _, m in outcomes if m is not None][:5],
        )
    variance = float(np.var(points, ddof=1)) if points.size > 1 else 0.0
    ordered = np.sort(points)
    lo, hi = (_linear_quantile(ordered, prob)
              for prob in ((1.0 - level) / 2.0, (1.0 + level) / 2.0))
    return BootstrapResult(
        variance=variance,
        ci=(lo, hi),
        replicates=int(points.size),
        failures=int(failures),
        points=points,
    )


def _linear_quantile(ordered: np.ndarray, prob: float) -> float:
    """numpy's default ("linear") quantile at ``prob``, bit for bit on sorted finite values,
    up to the sign of a zero, without the ``np.unique`` call that imports numpy.ma."""
    last = ordered.size - 1
    virtual = last * prob
    below = -1 if virtual >= last else math.floor(virtual)  # numpy's index at the end
    a, b = float(ordered[below]), float(ordered[below + 1 if below >= 0 else -1])
    gamma, diff = virtual - below, b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def bootstrap_variance(
    ds: CompositeDataset,
    estimator_fn: Callable[[CompositeDataset], float] | SharedFit,
    n_replicates: int = 500,
    seed: int = 0,
    level: float = 0.95,
    stratified: bool = False,
    jobs: int = 1,
    max_failure_rate: float = 0.05,
) -> BootstrapResult | BootstrapResults:
    """Nonparametric bootstrap that refits everything per resample.

    ``estimator_fn`` maps a resample to one estimate and gives one
    BootstrapResult. A SharedFit fits its working models once per resample
    and evaluates each of its estimators on that fit; it gives a
    BootstrapResults list equal to running each estimator on its own.

    Rows are resampled i.i.d. from a canonical ordering of the dataset, so
    the result depends only on the data values and the seed, never on row
    order or on the number of worker processes. Replicate r uses the RNG
    stream (seed, r). Resamples go to the fit in blocks of consecutive
    replicates (``block_ranges``); with ``jobs > 1`` the worker processes
    take whole blocks. A SharedFit's ``block`` fits each block at once where
    it can (see SharedFit). At least 100 replicates are recommended. The
    first estimator, in order, with more than ``max_failure_rate`` failed
    replicates, or with none that succeeded, raises ReplicateFailure.
    """
    if n_replicates < 2:
        raise ConfigError("bootstrap needs at least 2 replicates; 100+ recommended")
    single = not isinstance(estimator_fn, SharedFit)
    shared = SharedFit(estimator_fn, (_fitted_value,)) if single else estimator_fn
    base = ds.take(_canonical_order(ds))
    fitter = None if shared.block is None else shared.block(base)
    tasks = [(base, shared, fitter, seed, reps, stratified)
             for reps in block_ranges(n_replicates, base.n, BOOTSTRAP_BLOCK_BYTES)]
    blocks = ordered_map(_bootstrap_block, tasks, jobs)
    outcomes = [outcome for block in blocks for outcome in block]
    results = BootstrapResults(
        _summarize([outcome[k] for outcome in outcomes], level, max_failure_rate)
        for k in range(len(shared.points))
    )
    return results[0] if single else results


# ----------------------- exchangeability test -------------------------


def _chi2_sf(statistic: float, df: int) -> float:
    """Chi-square survival function, equal to scipy.stats.chi2.sf bit for bit.

    The bare ufunc returns NaN below zero, where the distribution's survival
    is 1; a rounded quadratic form can land a hair below zero.
    """
    from scipy.special import chdtrc  # noqa: PLC0415 - only diagnose pays for scipy

    return float(chdtrc(df, max(statistic, 0.0)))


@dataclass
class ExchangeabilityTest:
    statistic: float
    df: int
    p_value: float
    coefficients_tested: list[str]
    source_main_effect: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def test_mean_exchangeability(ds: CompositeDataset,
                              spec: ModelSpec | None = None) -> ExchangeabilityTest:
    """Wald test of source-by-covariate interactions on control outcomes.

    Fits one outcome model on all control rows with source main effect and
    source-covariate interactions, then tests the interaction block. Equal
    control-outcome means across sources given covariates imply all
    interaction coefficients are zero. The source main effect is reported
    separately but not included in the test.
    """
    controls = ds.t == 0
    d = ds.d[controls]
    if not (d == 1).any() or not (d == 0).any():
        raise EmptyCell("exchangeability test needs control rows from both sources")
    family = LOGIT if ds.outcome_kind == OUTCOME_BINARY else IDENTITY
    if spec is None:
        spec = ModelSpec.linear_in(ds.k, family)
    x = ds.x[controls]
    y = ds.y[controls]
    base_cols = [term.apply(x) for term in spec.terms]
    term_names = [term.name(ds.covariate_names) for term in spec.terms]
    cols = [np.ones(x.shape[0])] + base_cols + [d.astype(float)]
    names = ["intercept"] + term_names + ["source"]
    inter_slice = slice(len(cols), len(cols) + len(base_cols))
    cols.extend(d * col for col in base_cols)
    names.extend(f"source:{name}" for name in term_names)
    design = np.column_stack(cols)
    fit = fit_glm(design, y, family, column_names=names)

    # model-based covariance of the coefficients
    if family == LOGIT:
        mu = expit(design @ fit.coef)
        w = mu * (1.0 - mu)
        info = design.T @ (design * w[:, None])
        cov = np.linalg.inv(info)
    else:
        resid = y - design @ fit.coef
        dof = max(design.shape[0] - design.shape[1], 1)
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(design.T @ design)

    theta = fit.coef[inter_slice]
    block = cov[inter_slice, inter_slice]
    statistic = float(theta @ np.linalg.solve(block, theta))
    df = theta.shape[0]
    p_value = _chi2_sf(statistic, df)
    main_idx = len(base_cols) + 1
    main_se = float(np.sqrt(cov[main_idx, main_idx]))
    main = {
        "estimate": float(fit.coef[main_idx]),
        "se": main_se,
        "p_value": 2.0 * ndtr(-(abs(float(fit.coef[main_idx])) / main_se))
        if main_se > 0
        else 1.0,
    }
    return ExchangeabilityTest(
        statistic=statistic,
        df=df,
        p_value=p_value,
        coefficients_tested=names[inter_slice],
        source_main_effect=main,
    )


# ----------------------------- bias bound -----------------------------


@dataclass
class BiasBound:
    lambda_estimate: float | None
    lambda_abs_bound: float
    b_bound: float
    mean_weight: float

    def to_dict(self) -> dict:
        return asdict(self)


def bias_bound(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    b: Callable[[np.ndarray], np.ndarray] | None = None,
    bound: float | None = None,
    table: RowTable | None = None,
) -> BiasBound:
    """Asymptotic bias of the borrowing tau estimator under a control shift.

    ``b(x)`` is the source difference in conditional control-outcome means.
    The bias is the mean of w(x) * b(x) with w the borrowing weight; if only
    a magnitude bound on b is supplied (or derived from a supplied b), the
    reported absolute bound is bound * mean(w), which never exceeds the
    bound itself. A negative bound is a ConfigError.
    """
    if b is None and bound is None:
        raise ConfigError("bias_bound needs b(x), a bound, or both")
    if bound is not None and bound < 0:
        raise ConfigError(f"bias bound must be non-negative, got {bound}")
    if nuis.pi is None:
        raise EmptyCell("bias bound needs a fitted selection propensity")
    table = row_table(ds, table)
    pi = table.propensity(nuis.pi)[0]
    p = np.ones(ds.n) if nuis.p is None else table.propensity(nuis.p)[0]
    r = table.ratio(nuis.r)
    denom = np.maximum(weight_denominator(pi, p, r), DENOM_EPS)
    weight = (pi / ds.q_hat) * ((1.0 - pi) * r / denom)
    mean_weight = float(np.mean(weight))
    lambda_estimate = None
    if b is not None:
        b_values = np.asarray(b(ds.x), dtype=float)
        lambda_estimate = float(np.mean(weight * b_values))
        if bound is None:
            bound = float(np.max(np.abs(b_values)))
    return BiasBound(
        lambda_estimate=lambda_estimate,
        lambda_abs_bound=float(bound * mean_weight),
        b_bound=float(bound),
        mean_weight=mean_weight,
    )


# ------------------------- overlap diagnostics ------------------------


@dataclass
class OverlapReport:
    summaries: dict
    trim_counts: dict
    flagged_rows: list[int]
    notes: list[str]

    def to_dict(self) -> dict:
        return asdict(self)


def _five_numbers(values: np.ndarray) -> dict:
    ordered = np.sort(values)
    return {name: _linear_quantile(ordered, prob) for name, prob in
            (("min", 0.0), ("q25", 0.25), ("median", 0.5), ("q75", 0.75), ("max", 1.0))}


def overlap_diagnostics(
    ds: CompositeDataset, nuis: NuisanceSet, table: RowTable | None = None
) -> OverlapReport:
    """Distribution of the fitted propensities and weight denominators.

    Flags rows where the product of the treatment and selection propensities
    approaches one, the edge of the relaxed overlap condition.
    """
    table = row_table(ds, table)
    notes: list[str] = []
    summaries: dict = {}
    trim_counts: dict = {}
    if ds.n2 == 0 or nuis.pi is None:
        notes.append(
            "no external rows: selection propensity is identically one; "
            "only trial-based estimation is available"
        )
        pi = np.ones(ds.n)
        trim_counts["pi"] = 0
    else:
        pi, trimmed_pi = table.propensity(nuis.pi)
        summaries["selection_propensity"] = _five_numbers(pi)
        trim_counts["pi"] = int(trimmed_pi.sum())
    if nuis.p is not None:
        p, trimmed_p = table.propensity(nuis.p)
        trim_counts["p"] = int(trimmed_p.sum())
    else:
        p = np.ones(ds.n)
        trim_counts["p"] = 0
        notes.append("treated-only design: treatment propensity fixed at one")
    summaries["treatment_propensity"] = _five_numbers(p)
    product = pi * p
    summaries["propensity_product"] = _five_numbers(product)
    r = table.ratio(nuis.r)
    denom = weight_denominator(pi, p, r)
    summaries["weight_denominator"] = _five_numbers(denom)
    trim_counts["denominator_floored"] = int(np.sum(denom < DENOM_EPS))
    flagged = np.where(product > 1.0 - DENOM_EPS)[0]
    if flagged.size:
        notes.append(
            f"{flagged.size} rows violate the relaxed overlap condition "
            "(propensity product near one)"
        )
    return OverlapReport(
        summaries=summaries,
        trim_counts=trim_counts,
        flagged_rows=[int(i) for i in flagged],
        notes=notes,
    )
