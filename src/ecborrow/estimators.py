"""Doubly robust treatment-effect estimators and their efficiency quantities.

Three estimands: the effect in the trial population (tau), in the external
population (xi), and in the pooled population (psi). Each has a full-data
variant that borrows external controls through the selection propensity and
the variance ratio, and a comparator that ignores external outcomes
(trial-based for tau; baseline for psi/xi, obtained by zeroing the variance
ratio and refitting the control mean on trial controls only).

Every (estimand, method) is one ratio of means: per-row numerators N and
denominators D give point = sum(N)/sum(D) and influence values
(N - point*D)/mean(D). ``_moment`` writes each estimator's rows once, and
the ``estimate_*`` functions, ``estimate``, ``influence_values`` and the
``Estimator`` record, one (estimand, method) that the CLI and the Monte Carlo
both run, all read them. A row table, when one is passed, holds each prediction
and each ratio variant's full-data pieces once; the products the variants share
live in their one build alone (``_full_pieces``). psi's rows are tau's plus
xi's, so psi = q*tau + (1 - q)*xi holds row by row. On a block's row table
(``nuisance.RowTable`` with counts, or of a ``DatasetBlock``) the same rows are
(K, n): for K bootstrap resamples each point is sum(c*N)/sum(c*D), c the
resample's count of each row, and for a ``DatasetBlock`` of K Monte Carlo
replicates, whose columns are (K, n) too, it is each replicate's sum(N)/sum(D);
a plain table is the case K = 1, c = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dataset import OUTCOME_BINARY, CompositeDataset, DatasetBlock
from .errors import (
    ConfigError,
    EmptyCell,
    InvariantViolation,
    MismatchedPoint,
    OverlapNoExternal,
    VarianceModelRequired,
)
from .nuisance import (
    RATIO_KNOWN_ONE,
    NuisanceSet,
    RowTable,
    row_table,
)

DENOM_EPS = 1e-6   # floor on the pooled-control weight denominator
IF_MEAN_TOL = 1e-8  # influence values average to zero at the estimate, relative to their scale

ESTIMAND_TAU = "tau"
ESTIMAND_PSI = "psi"
ESTIMAND_XI = "xi"
ESTIMANDS = (ESTIMAND_TAU, ESTIMAND_PSI, ESTIMAND_XI)

METHOD_TRIAL = "trial_based"
METHOD_FULL = "full_data"
METHOD_TREATED_ONLY = "treated_only"
METHOD_BASELINE = "baseline"

# every estimator, (estimand, method), and the ``nuisance.fit_bundle`` set it reads
ESTIMATORS = {
    (ESTIMAND_TAU, METHOD_FULL): "pooled",
    (ESTIMAND_TAU, METHOD_TRIAL): "unpooled",
    (ESTIMAND_TAU, METHOD_TREATED_ONLY): "treated_only",
    (ESTIMAND_PSI, METHOD_FULL): "pooled",
    (ESTIMAND_PSI, METHOD_BASELINE): "unpooled",
    (ESTIMAND_XI, METHOD_FULL): "pooled",
    (ESTIMAND_XI, METHOD_BASELINE): "unpooled",
}


@dataclass
class Estimate:
    estimand: str
    method: str
    point: float
    n_used: int
    nuisance_fingerprint: str
    trim_count: int

    def __post_init__(self):
        _check_pair(self.estimand, self.method)


@dataclass
class IFVector:
    values: np.ndarray
    estimand: str
    method: str


# --------------------------- control weight ---------------------------


def weight_denominator(pi, p, r, product=lambda key, compute: compute()):
    """pi * (1 - p) + (1 - pi) * r, unfloored (r None is 0; ``product`` makes each product):
    the denominator of the borrowing weights, variance gaps, bias bound and overlap report."""
    denom = product("trial denom", lambda: pi * (1.0 - p))
    if r is None:
        return denom
    external = product("1 - pi", lambda: 1.0 - pi) * r  # its own array, never a product's
    return np.add(external, denom, out=external)


def control_weight(
    pi_x: np.ndarray,
    p_x: np.ndarray,
    r_x: np.ndarray,
    d: np.ndarray,
    t: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Weight attached to control residuals in the full-data moments.

    Trial controls get pi / denom, external rows pi * r / denom, everything
    else zero, with denom the ``weight_denominator``. The denominator is
    floored at DENOM_EPS; the number of floored rows is returned.
    """
    return _weight(*map(np.asarray, (pi_x, p_x, r_x, d, t)))


def _weight(pi, p, r, d, t, product=lambda key, compute: compute()) -> tuple[np.ndarray, int]:
    """``control_weight``, each product that reads no r made by ``product``; r None is 0."""
    numer = product("trial numer", lambda: d * (1 - t) * pi)
    if r is not None:
        external = product("external numer", lambda: (1 - d) * pi) * r
        numer = np.add(external, numer, out=external)
    denom = weight_denominator(pi, p, r, product)
    floored = int(np.count_nonzero(denom < DENOM_EPS))
    weight = np.maximum(denom, DENOM_EPS)
    return np.divide(numer, weight, out=weight), floored


# ---------------------------- ratio moments ----------------------------


@dataclass
class _Pieces:
    """The rows a table forms once per ratio variant (m0, r): core, delta = m1 - m0 and pi."""

    pi: np.ndarray
    delta: np.ndarray
    core: np.ndarray
    trim_count: int


@dataclass
class _Moment:
    """One estimator's rows: point = sum(c*N)/sum(c*D), IF = (N - point*D)/mean(D).

    ``denom`` is D (1.0 when every row counts). ``counts`` (c) is None where
    each row counts once, c = 1: on a plain table the point is one float and
    sum(D) is the row count n1, n2 or n of the dataset, and on the table of
    a DatasetBlock ``numer`` and ``denom`` are (K, n), one row per dataset,
    with one point each. On a bootstrap block table ``counts`` holds one row
    of counts per resample, ``numer`` is (K, n), ``denom`` is shared and
    there is one point per resample.
    """

    numer: np.ndarray
    denom: np.ndarray | float
    n_used: int
    trim_count: int
    counts: np.ndarray | None = None

    @cached_property
    def denom_sum(self):
        """sum(c*D) per point, summed once: an exact count, so no summation order
        moves its bits; the row count, or a resample's total count, where D is 1.0."""
        if self.counts is not None:
            return self.counts.sum(axis=-1) if np.ndim(self.denom) == 0 else (
                self.counts @ self.denom)
        if np.ndim(self.denom) == 0:
            return np.full(self.numer.shape[:-1], float(self.numer.shape[-1]))
        return np.sum(self.denom, axis=-1)

    @property
    def point(self):
        numer = self.numer if self.counts is None else self.counts * self.numer
        point = np.add.reduce(numer, axis=-1) / self.denom_sum
        return float(point) if self.numer.ndim == 1 else point

    def influence(self, point) -> np.ndarray:
        """(N - point*D)/mean(D), each row of a block at its own point, over N."""
        self.numer -= np.asarray(point)[..., None] * self.denom
        self.numer /= (self.denom_sum / self.numer.shape[-1])[..., None]
        return self.numer


def _full_pieces(table: RowTable, nuis: NuisanceSet, r_model, also=()) -> _Pieces:
    """The table's pieces of ``nuis`` with the ratio ``r_model`` (None for zero). A
    DatasetBlock's build also builds those of ``also`` (``Estimator.full_data``) on
    the same arm (m1, p, pi), forming ``_weight``'s products and the treated term once
    for all and keeping none; elsewhere each ratio is read, and may raise, alone."""
    ds, arm = table.ds, (nuis.m1, nuis.p, nuis.pi)

    def build():
        variants = dict.fromkeys([(nuis.m0, r_model)] + [
            (other.m0, None if zero else other.r) for other, zero in filter(None, also)
            if isinstance(ds, DatasetBlock) and (other.m1, other.p, other.pi) == arm])
        (p, trimmed_p), (pi, trimmed_pi) = table.propensity(nuis.p), table.propensity(nuis.pi)
        trims = int(trimmed_p.sum()) + int(trimmed_pi.sum())
        memo = {} if len(variants) > 1 else None  # one variant alone keeps nothing it forms

        def product(key, compute):
            return compute() if memo is None else table.cached(key, compute, memo)

        for m0, ratio in variants:
            weight, floored = _weight(pi, p, None if ratio is None else table.ratio(ratio),
                                      ds.d, ds.t, product)
            weight *= table.residual(m0)  # core = treated - weight*resid0, over the weight
            treated = product("treated", lambda: ds.d * ds.t * table.residual(nuis.m1) / p)
            delta = table.cached(("delta", nuis.m1, m0),
                                 lambda: table.predict(nuis.m1) - table.predict(m0))
            variants[m0, ratio] = table.cached(("pieces", *arm, m0, ratio), lambda: _Pieces(
                pi, delta, np.subtract(treated, weight, out=weight), trims + floored))
        return variants[nuis.m0, r_model]

    return table.cached(("pieces", *arm, nuis.m0, r_model), build)


def _full_moment(table: RowTable, pieces: _Pieces, estimand: str) -> _Moment:
    """The rows of tau, psi or xi, each built in place over one array of its own
    (a + b and a*b are b + a and b*a bit for bit; the pieces are shared)."""
    ds = table.ds
    if estimand == ESTIMAND_TAU:
        numer, denom = ds.d * pieces.delta, ds.d
        numer += pieces.core
    elif estimand == ESTIMAND_PSI:
        numer, denom = pieces.core / pieces.pi, 1.0
        numer += pieces.delta
    else:
        numer, denom = 1.0 - pieces.pi, 1 - ds.d
        numer *= pieces.core
        numer /= pieces.pi
        numer += denom * pieces.delta
    return _Moment(numer, denom, ds.n, pieces.trim_count, table.counts)


def _trial_moment(table: RowTable, m1_model, m0_model, p_model) -> _Moment:
    ds = table.ds
    m1 = table.predict(m1_model)
    m0 = table.predict(m0_model)
    p, trimmed = table.propensity(p_model)
    # d*((m1 - m0) + t*resid1/p - (1 - t)*resid0/(1 - p)), in place over two arrays
    numer = ds.t * table.residual(m1_model)
    numer /= p
    numer += m1 - m0
    control = (1 - ds.t) * table.residual(m0_model)
    control /= 1.0 - p
    numer -= control
    numer *= ds.d
    return _Moment(numer, ds.d, ds.n1, int(np.count_nonzero(trimmed & (ds.d == 1))),
                   table.counts)


def _treated_only_moment(table: RowTable, m0_model, pi_model) -> _Moment:
    ds = table.ds
    pi, trimmed = table.propensity(pi_model)
    resid0 = table.residual(m0_model)
    numer = ds.d * resid0 - (1 - ds.d) * (pi / (1.0 - pi)) * resid0
    return _Moment(numer, ds.d, ds.n, int(trimmed.sum()), table.counts)


def _check_pair(estimand: str, method: str) -> None:
    if (estimand, method) not in ESTIMATORS:
        raise ConfigError(f"no estimator for estimand {estimand!r} with method {method!r}")


def _check_comparator_nuisances(nuis: NuisanceSet, method: str) -> bool:
    """Whether a psi or xi of ``method`` (full_data or baseline) zeroes the ratio."""
    if method == METHOD_FULL:
        if not nuis.m0_pooled:
            raise ConfigError("full-data estimation needs m0 fit on all controls")
        return False
    if nuis.m0_pooled:
        raise ConfigError("baseline estimation needs m0 fit on trial controls only")
    return True


def _moment(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    estimand: str,
    method: str,
    table: RowTable | None = None,
    zero_ratio: bool = False,
    also=(),
) -> _Moment:
    """The (N, D) rows of one (estimand, method), from the table's shared pieces.

    With delta = m1 - m0 and core = d*t*(y - m1)/p - w*(y - m0), w the
    control weight:

    - tau full: N = d*delta + core, D = d
    - psi: N = delta + core/pi, D = 1
    - xi: N = (1 - d)*delta + core*(1 - pi)/pi, D = 1 - d
    - baseline psi and xi, and tau with ``zero_ratio``: the same rows with r = 0
    - tau trial-based: N = d times its AIPW row, D = d
    - tau treated-only: N = d*resid0 - (1 - d)*pi/(1 - pi)*resid0, D = d

    On a DatasetBlock a check on the data raises only where it fails for
    every dataset of the block; where it fails for some, their stacked fits
    are not ``ok`` already (``nuisance.BlockFitter``). A pair that is not
    an estimator is a ConfigError, whichever path asks for its rows.
    """
    _check_pair(estimand, method)
    table = row_table(ds, table)
    if estimand == ESTIMAND_TAU and method == METHOD_TRIAL:
        if nuis.m0_pooled:
            raise ConfigError("trial-based estimation needs m0 fit on trial controls only")
        if nuis.m1 is None or nuis.p is None or not table.rows("treated").any() or not (
                table.rows("trial_controls").any()):
            raise EmptyCell("trial-based estimation needs both trial arms")
        return _trial_moment(table, nuis.m1, nuis.m0, nuis.p)
    if estimand == ESTIMAND_TAU and method == METHOD_TREATED_ONLY:
        if int(((ds.d == 1) & (ds.t == 0)).sum()) > 0:
            raise InvariantViolation(
                "treated-only estimation requested but the trial has control rows"
            )
        if np.all(ds.n2 == 0):
            raise OverlapNoExternal("treated-only estimation needs external controls")
        if nuis.pi is None:
            raise EmptyCell("treated-only estimation needs a fitted selection propensity")
        return _treated_only_moment(table, nuis.m0, nuis.pi)
    if estimand != ESTIMAND_TAU:
        zero_ratio = _check_comparator_nuisances(nuis, method)
    elif not zero_ratio and not nuis.m0_pooled:
        raise ConfigError("full-data estimation needs m0 fit on all controls")
    if estimand == ESTIMAND_XI and np.all(ds.q_hat >= 1.0):
        raise OverlapNoExternal("external-population effect needs external rows")
    if np.all(ds.n2 == 0):
        raise OverlapNoExternal(
            "full-data estimation needs external rows; use the trial-based method"
        )
    if nuis.m1 is None or nuis.p is None:
        raise EmptyCell("full-data moments need fitted treated-arm models")
    if nuis.pi is None:
        raise EmptyCell("full-data moments need a fitted selection propensity")
    pieces = _full_pieces(table, nuis, None if zero_ratio else nuis.r, also)
    return _full_moment(table, pieces, estimand)


# ----------------------------- estimators -----------------------------


def _estimate(ds: CompositeDataset, nuis: NuisanceSet, estimand: str, method: str,
              table: RowTable | None = None, zero_ratio: bool = False) -> Estimate:
    moment = _moment(ds, nuis, estimand, method, table, zero_ratio)
    return Estimate(
        estimand=estimand,
        method=method,
        point=moment.point,
        n_used=moment.n_used,
        nuisance_fingerprint=nuis.fingerprint(),
        trim_count=moment.trim_count,
    )


def estimate_tau_trial(
    ds: CompositeDataset, nuis: NuisanceSet, table: RowTable | None = None
) -> Estimate:
    """Treatment effect in the trial, using trial rows only."""
    return _estimate(ds, nuis, ESTIMAND_TAU, METHOD_TRIAL, table)


def estimate_tau_full(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    zero_ratio: bool = False,
    table: RowTable | None = None,
) -> Estimate:
    """Treatment effect in the trial, borrowing external controls.

    With ``zero_ratio`` the variance ratio is replaced by zero, which
    removes the external contribution; combined with an unpooled m0 this
    reproduces the trial-based estimator.
    """
    return _estimate(ds, nuis, ESTIMAND_TAU, METHOD_FULL, table, zero_ratio)


def estimate_tau_treated_only(
    ds: CompositeDataset, nuis: NuisanceSet, table: RowTable | None = None
) -> Estimate:
    """Treatment effect when the trial has no control arm (p set to 1)."""
    return _estimate(ds, nuis, ESTIMAND_TAU, METHOD_TREATED_ONLY, table)


def estimate_psi(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    method: str = METHOD_FULL,
    table: RowTable | None = None,
) -> Estimate:
    """Treatment effect in the pooled population."""
    return _estimate(ds, nuis, ESTIMAND_PSI, method, table)


def estimate_xi(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    method: str = METHOD_FULL,
    table: RowTable | None = None,
) -> Estimate:
    """Treatment effect in the external population."""
    return _estimate(ds, nuis, ESTIMAND_XI, method, table)


def estimate(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    estimand: str,
    method: str,
    table: RowTable | None = None,
) -> Estimate:
    """The named estimator."""
    return _estimate(ds, nuis, estimand, method, table)


@dataclass(frozen=True)
class Estimator:
    """One estimator: an (estimand, method) pair of ``ESTIMATORS``. With
    ``constant`` it reads, in place of its set's loglinear ratio, the constant
    ratio that one carries (the Monte Carlo's ``tau_full_const``).

    Each method reads ``fitted``, the (sets, table) that ``fit_bundle`` or a
    ``BlockFitter`` solve returns; on a block's table ``moment`` holds (K, n)
    rows and ``point`` is one point per resample or dataset of the block.
    """

    estimand: str
    method: str
    constant: bool = False

    def __post_init__(self):
        _check_pair(self.estimand, self.method)

    def nuisances(self, sets: dict) -> NuisanceSet:
        nuis = sets[ESTIMATORS[self.estimand, self.method]]
        return replace(nuis, r=nuis.r.constant) if self.constant else nuis

    def full_data(self, sets: dict) -> tuple | None:
        """The set of the full-data pieces it reads, and whether their ratio is zero."""
        if self.method in (METHOD_FULL, METHOD_BASELINE):
            return self.nuisances(sets), self.method == METHOD_BASELINE

    def moment(self, ds: CompositeDataset, fitted: tuple, also=()) -> _Moment:
        sets, table = fitted
        return _moment(ds, self.nuisances(sets), self.estimand, self.method, table, False, also)

    def point(self, ds: CompositeDataset, fitted: tuple):
        """The point alone, with no Estimate or fingerprint."""
        return self.moment(ds, fitted).point

    def estimate(self, ds: CompositeDataset, fitted: tuple) -> Estimate:
        sets, table = fitted
        return estimate(ds, self.nuisances(sets), self.estimand, self.method, table)


# -------------------------- influence values --------------------------


def influence_values(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    estimand: str,
    method: str,
    point: float,
    table: RowTable | None = None,
) -> IFVector:
    """Per-row influence values of the named estimator at its estimate.

    The values average to zero (``uncentred``) when ``point`` is the
    matching estimator output; otherwise MismatchedPoint is raised.
    """
    values = _moment(ds, nuis, estimand, method, table).influence(point)
    if uncentred(values, point):
        raise MismatchedPoint(
            f"influence values average to {float(np.mean(values)):.3e}; point does not match"
            " the estimator",
            estimand=estimand,
            method=method,
        )
    return IFVector(values=values, estimand=estimand, method=method)


def uncentred(values: np.ndarray, point):
    """Whether influence values at ``point`` average further from zero than
    IF_MEAN_TOL times their mean magnitude plus |point| (each value holds
    point*D, so the point's rounding moves the mean by about eps*|point|);
    one verdict per row of a block's (K, n) values, none for a NaN mean."""
    n = values.shape[-1]  # np.mean's sum and division, without its Python-level wrapper
    scale = np.add.reduce(np.abs(values), axis=-1) / n + np.abs(point)
    return np.abs(np.add.reduce(values, axis=-1) / n) > IF_MEAN_TOL * scale


def efficiency_bound_plugin(
    ds: CompositeDataset, nuis: NuisanceSet, estimand: str, method: str
) -> float:
    """Plug-in estimate of the asymptotic variance bound, E[IF^2]."""
    table = RowTable(ds)
    point = estimate(ds, nuis, estimand, method, table=table).point
    ifv = influence_values(ds, nuis, estimand, method, point, table=table)
    return float(np.mean(ifv.values**2))


# ------------------------- efficiency formulas -------------------------


def _var_trial_controls(ds: CompositeDataset, nuis: NuisanceSet, table: RowTable) -> np.ndarray:
    """V1(x): conditional control-outcome variance in the trial."""
    if ds.outcome_kind == OUTCOME_BINARY:
        m0 = table.predict(nuis.m0)
        return m0 * (1.0 - m0)
    if nuis.r.mode == RATIO_KNOWN_ONE:
        raise VarianceModelRequired(
            "continuous outcomes need a constant or loglinear variance-ratio fit"
        )
    return table.var_trial(nuis.r)


def _gap_pieces(ds: CompositeDataset, nuis: NuisanceSet, table: RowTable | None = None):
    """p, pi, r and V1 on every row: what the gain and gap formulas read."""
    if nuis.p is None or nuis.pi is None:
        raise EmptyCell("gain and gap formulas need fitted treatment and selection propensities")
    table = row_table(ds, table)
    p = table.propensity(nuis.p)[0]
    pi = table.propensity(nuis.pi)[0]
    return p, pi, table.ratio(nuis.r), _var_trial_controls(ds, nuis, table)


def efficiency_gain_analytic(
    ds: CompositeDataset, nuis: NuisanceSet, table: RowTable | None = None
) -> float:
    """Drop in the tau variance bound from borrowing external controls.

    Averages, over trial rows, the gap between the trial-only and
    borrowing-adjusted inverse control-variance weights times V1(x)/q. On a
    DatasetBlock with its ``RowTable`` it is one gain per dataset.
    """
    p, pi, r, v1 = _gap_pieces(ds, nuis, table)
    gap, borrowed = 1.0 - p, (1.0 - pi) / pi * r  # 1/(1-p) - 1/(1-p + (1-pi)/pi*r), in place
    borrowed += gap
    np.subtract(np.divide(1.0, gap, out=gap), np.divide(1.0, borrowed, out=borrowed), out=gap)
    gap *= v1
    gain = np.mean(np.divide(gap, ds.q_hat, out=gap), axis=-1, where=ds.d == 1)
    return float(gain) if gain.ndim == 0 else gain


def variance_gap_psi(ds: CompositeDataset, nuis: NuisanceSet) -> float:
    """Asymptotic variance advantage of the full-data psi estimator."""
    p, pi, r, v1 = _gap_pieces(ds, nuis)
    gap = 1.0 / np.maximum(pi * (1.0 - p), DENOM_EPS) - 1.0 / np.maximum(
        weight_denominator(pi, p, r), DENOM_EPS)
    return float(np.mean(gap * v1))


def variance_gap_xi(ds: CompositeDataset, nuis: NuisanceSet) -> float:
    """Asymptotic variance advantage of the full-data xi estimator."""
    if ds.q_hat >= 1.0:
        raise OverlapNoExternal("gap for the external-population effect needs external rows")
    p, pi, r, v1 = _gap_pieces(ds, nuis)
    one_minus_pi_sq = (1.0 - pi) ** 2
    gap = one_minus_pi_sq / np.maximum(pi * (1.0 - p), DENOM_EPS) - one_minus_pi_sq / np.maximum(
        weight_denominator(pi, p, r), DENOM_EPS)
    return float(np.mean(gap * v1 / (1.0 - ds.q_hat) ** 2))
