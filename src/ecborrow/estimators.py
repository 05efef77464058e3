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
the ``estimate_*`` functions, ``estimate`` and ``influence_values`` all read
them, through the row table when one is passed. psi's rows are tau's plus
xi's, so psi = q*tau + (1 - q)*xi holds row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import OUTCOME_BINARY, CompositeDataset
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

DENOM_EPS = 1e-6   # floor on the pooled-control weight denominator and on p
IF_MEAN_TOL = 1e-8  # influence values must average to zero at the estimate

ESTIMAND_TAU = "tau"
ESTIMAND_PSI = "psi"
ESTIMAND_XI = "xi"
ESTIMANDS = (ESTIMAND_TAU, ESTIMAND_PSI, ESTIMAND_XI)

METHOD_TRIAL = "trial_based"
METHOD_FULL = "full_data"
METHOD_TREATED_ONLY = "treated_only"
METHOD_BASELINE = "baseline"

VALID_METHODS = {
    ESTIMAND_TAU: (METHOD_FULL, METHOD_TRIAL, METHOD_TREATED_ONLY),
    ESTIMAND_PSI: (METHOD_FULL, METHOD_BASELINE),
    ESTIMAND_XI: (METHOD_FULL, METHOD_BASELINE),
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
        if self.estimand not in ESTIMANDS:
            raise ConfigError(f"unknown estimand {self.estimand!r}")
        if self.method not in VALID_METHODS[self.estimand]:
            raise ConfigError(
                f"method {self.method!r} is not valid for estimand {self.estimand!r}"
            )


@dataclass
class IFVector:
    values: np.ndarray
    estimand: str
    method: str


# --------------------------- control weight ---------------------------


def control_weight(
    pi_x: np.ndarray,
    p_x: np.ndarray,
    r_x: np.ndarray,
    d: np.ndarray,
    t: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Weight attached to control residuals in the full-data moments.

    Trial controls get pi / denom, external rows pi * r / denom, everything
    else zero, with denom = pi * (1 - p) + (1 - pi) * r. The denominator is
    floored at DENOM_EPS; the number of floored rows is returned.
    """
    pi_x = np.asarray(pi_x, dtype=float)
    p_x = np.asarray(p_x, dtype=float)
    r_x = np.asarray(r_x, dtype=float)
    d = np.asarray(d)
    t = np.asarray(t)
    numer = d * (1 - t) * pi_x + (1 - d) * pi_x * r_x
    denom = pi_x * (1.0 - p_x) + (1.0 - pi_x) * r_x
    floored = int(np.sum(denom < DENOM_EPS))
    denom = np.maximum(denom, DENOM_EPS)
    return numer / denom, floored


# ---------------------------- ratio moments ----------------------------


@dataclass
class _Pieces:
    """Per-row ingredients shared by every full-data moment."""

    delta: np.ndarray  # m1 - m0
    pi: np.ndarray
    core: np.ndarray  # d*t*resid1/p - weight*resid0
    trim_count: int


@dataclass
class _Moment:
    """One estimator's rows: point = sum(N)/sum(D), IF = (N - point*D)/mean(D).

    ``denom`` is D (1.0 when every row counts) and ``denom_sum`` its sum, the
    row count n1, n2 or n of the dataset.
    """

    numer: np.ndarray
    denom: np.ndarray | float
    denom_sum: int
    n_used: int
    trim_count: int

    @property
    def point(self) -> float:
        return float(np.sum(self.numer) / self.denom_sum)

    def influence(self, point: float) -> np.ndarray:
        return (self.numer - point * self.denom) / (self.denom_sum / self.numer.shape[0])


def _full_pieces(table: RowTable, m1_model, m0_model, p_model, pi_model, r_model) -> _Pieces:
    """Full-data moment pieces; without ``r_model`` the ratio is zero."""
    ds = table.ds
    m1 = table.predict(m1_model)
    m0 = table.predict(m0_model)
    p, trimmed_p = table.propensity(p_model)
    pi, trimmed_pi = table.propensity(pi_model)
    floored_p = int(np.sum(p < DENOM_EPS))
    p = np.maximum(p, DENOM_EPS)
    r = np.zeros(ds.n) if r_model is None else table.ratio(r_model)
    weight, floored_w = control_weight(pi, p, r, ds.d, ds.t)
    resid0 = ds.y - m0
    resid1 = ds.y - m1
    core = ds.d * ds.t * resid1 / p - weight * resid0
    trims = int(trimmed_p.sum()) + int(trimmed_pi.sum())
    return _Pieces(delta=m1 - m0, pi=pi, core=core, trim_count=trims + floored_p + floored_w)


def _full_moment(ds: CompositeDataset, pieces: _Pieces, estimand: str) -> _Moment:
    if estimand == ESTIMAND_TAU:
        numer, denom, denom_sum = ds.d * pieces.delta + pieces.core, ds.d, ds.n1
    elif estimand == ESTIMAND_PSI:
        numer, denom, denom_sum = pieces.delta + pieces.core / pieces.pi, 1.0, ds.n
    else:
        denom, denom_sum = 1 - ds.d, ds.n2
        numer = denom * pieces.delta + pieces.core * (1.0 - pieces.pi) / pieces.pi
    return _Moment(numer, denom, denom_sum, ds.n, pieces.trim_count)


def _trial_moment(table: RowTable, m1_model, m0_model, p_model) -> _Moment:
    ds = table.ds
    trial = ds.d == 1
    m1 = table.predict(m1_model)
    m0 = table.predict(m0_model)
    p, trimmed = table.propensity(p_model)
    floored = int(np.sum(p[trial] < DENOM_EPS))
    p = np.maximum(p, DENOM_EPS)
    row = (m1 - m0) + ds.t * (ds.y - m1) / p - (1 - ds.t) * (ds.y - m0) / (1.0 - p)
    return _Moment(ds.d * row, ds.d, ds.n1, ds.n1, int(trimmed[trial].sum()) + floored)


def _treated_only_moment(table: RowTable, m0_model, pi_model) -> _Moment:
    ds = table.ds
    pi, trimmed = table.propensity(pi_model)
    resid0 = ds.y - table.predict(m0_model)
    numer = ds.d * resid0 - (1 - ds.d) * (pi / (1.0 - pi)) * resid0
    return _Moment(numer, ds.d, ds.n1, ds.n, int(trimmed.sum()))


def _check_comparator_nuisances(nuis: NuisanceSet, method: str) -> bool:
    if method == METHOD_FULL:
        if not nuis.m0_pooled:
            raise ConfigError("full-data estimation needs m0 fit on all controls")
        return False
    if method == METHOD_BASELINE:
        if nuis.m0_pooled:
            raise ConfigError("baseline estimation needs m0 fit on trial controls only")
        return True
    raise ConfigError(f"method {method!r} is not valid here")


def _moment(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    estimand: str,
    method: str,
    table: RowTable | None = None,
    zero_ratio: bool = False,
) -> _Moment:
    """The (N, D) rows of one (estimand, method), computed once per table.

    With delta = m1 - m0 and core = d*t*(y - m1)/p - w*(y - m0), w the
    control weight:

    - tau full: N = d*delta + core, D = d
    - psi: N = delta + core/pi, D = 1
    - xi: N = (1 - d)*delta + core*(1 - pi)/pi, D = 1 - d
    - baseline psi and xi, and tau with ``zero_ratio``: the same rows with r = 0
    - tau trial-based: N = d times its AIPW row, D = d
    - tau treated-only: N = d*resid0 - (1 - d)*pi/(1 - pi)*resid0, D = d
    """
    table = row_table(ds, table)
    if estimand == ESTIMAND_TAU and method == METHOD_TRIAL:
        if nuis.m0_pooled:
            raise ConfigError("trial-based estimation needs m0 fit on trial controls only")
        t = ds.t[ds.d == 1]
        if nuis.m1 is None or nuis.p is None or not (t == 1).any() or not (t == 0).any():
            raise EmptyCell("trial-based estimation needs both trial arms")
        owners = (nuis.m1, nuis.m0, nuis.p)
        compute = partial(_trial_moment, table, *owners)
    elif estimand == ESTIMAND_TAU and method == METHOD_TREATED_ONLY:
        if int(((ds.d == 1) & (ds.t == 0)).sum()) > 0:
            raise InvariantViolation(
                "treated-only estimation requested but the trial has control rows"
            )
        if ds.n2 == 0:
            raise OverlapNoExternal("treated-only estimation needs external controls")
        if nuis.pi is None:
            raise EmptyCell("treated-only estimation needs a fitted selection propensity")
        owners = (nuis.m0, nuis.pi)
        compute = partial(_treated_only_moment, table, *owners)
    else:
        if estimand != ESTIMAND_TAU:
            zero_ratio = _check_comparator_nuisances(nuis, method)
        elif not zero_ratio and not nuis.m0_pooled:
            raise ConfigError("full-data estimation needs m0 fit on all controls")
        if estimand == ESTIMAND_XI and ds.q_hat >= 1.0:
            raise OverlapNoExternal("external-population effect needs external rows")
        if ds.n2 == 0:
            raise OverlapNoExternal(
                "full-data estimation needs external rows; use the trial-based method"
            )
        if nuis.m1 is None or nuis.p is None:
            raise EmptyCell("full-data moments need fitted treated-arm models")
        if nuis.pi is None:
            raise EmptyCell("full-data moments need a fitted selection propensity")
        models = (nuis.m1, nuis.m0, nuis.p, nuis.pi, None if zero_ratio else nuis.r)
        pieces = table.cached(
            ("pieces", *map(id, models)), models, partial(_full_pieces, table, *models)
        )
        owners = (pieces,)
        compute = partial(_full_moment, ds, pieces, estimand)
    return table.cached((estimand, method, *map(id, owners)), owners, compute)


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


def _check_pair(estimand: str, method: str, what: str) -> None:
    if estimand not in ESTIMANDS or method not in VALID_METHODS[estimand]:
        raise ConfigError(f"no {what} for estimand {estimand!r} with method {method!r}")


def estimate(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    estimand: str,
    method: str,
    table: RowTable | None = None,
) -> Estimate:
    """The named estimator."""
    _check_pair(estimand, method, "estimator")
    return _estimate(ds, nuis, estimand, method, table)


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

    The values average to zero (within IF_MEAN_TOL) when ``point`` is the
    matching estimator output; otherwise MismatchedPoint is raised.
    """
    _check_pair(estimand, method, "influence function")
    if method == METHOD_TRIAL and nuis.m0_pooled:
        raise ConfigError("trial-based influence values need unpooled m0")
    values = _moment(ds, nuis, estimand, method, table).influence(point)
    mean = float(np.mean(values))
    if abs(mean) > IF_MEAN_TOL:
        raise MismatchedPoint(
            f"influence values average to {mean:.3e}; point does not match the estimator",
            estimand=estimand,
            method=method,
        )
    return IFVector(values=values, estimand=estimand, method=method)


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


def efficiency_gain_analytic(
    ds: CompositeDataset, nuis: NuisanceSet, table: RowTable | None = None
) -> float:
    """Drop in the tau variance bound from borrowing external controls.

    Averages, over trial rows, the gap between the trial-only and
    borrowing-adjusted inverse control-variance weights times V1(x)/q.
    """
    if nuis.p is None or nuis.pi is None:
        raise EmptyCell("gain formula needs fitted treatment and selection propensities")
    table = row_table(ds, table)
    trial = ds.d == 1
    p = table.propensity(nuis.p)[0][trial]
    pi = table.propensity(nuis.pi)[0][trial]
    r = table.ratio(nuis.r)[trial]
    v1 = _var_trial_controls(ds, nuis, table)[trial]
    gap = 1.0 / (1.0 - p) - 1.0 / (1.0 - p + (1.0 - pi) / pi * r)
    return float(np.mean(gap * v1 / ds.q_hat))


def _gap_pieces(ds: CompositeDataset, nuis: NuisanceSet):
    if nuis.p is None or nuis.pi is None:
        raise EmptyCell("gap formulas need fitted treatment and selection propensities")
    table = RowTable(ds)
    p = table.propensity(nuis.p)[0]
    pi = table.propensity(nuis.pi)[0]
    r = table.ratio(nuis.r)
    v1 = _var_trial_controls(ds, nuis, table)
    base = pi * (1.0 - p)
    return base, pi, r, v1


def variance_gap_psi(ds: CompositeDataset, nuis: NuisanceSet) -> float:
    """Asymptotic variance advantage of the full-data psi estimator."""
    base, pi, r, v1 = _gap_pieces(ds, nuis)
    gap = 1.0 / np.maximum(base, DENOM_EPS) - 1.0 / np.maximum(base + (1.0 - pi) * r, DENOM_EPS)
    return float(np.mean(gap * v1))


def variance_gap_xi(ds: CompositeDataset, nuis: NuisanceSet) -> float:
    """Asymptotic variance advantage of the full-data xi estimator."""
    if ds.q_hat >= 1.0:
        raise OverlapNoExternal("gap for the external-population effect needs external rows")
    base, pi, r, v1 = _gap_pieces(ds, nuis)
    one_minus_pi_sq = (1.0 - pi) ** 2
    gap = one_minus_pi_sq / np.maximum(base, DENOM_EPS) - one_minus_pi_sq / np.maximum(
        base + (1.0 - pi) * r, DENOM_EPS
    )
    return float(np.mean(gap * v1 / (1.0 - ds.q_hat) ** 2))
