"""Doubly robust treatment-effect estimators and their efficiency quantities.

Three estimands: the effect in the trial population (tau), in the external
population (xi), and in the pooled population (psi). Each has a full-data
variant that borrows external controls through the selection propensity and
the variance ratio, and a comparator that ignores external outcomes
(trial-based for tau; baseline for psi/xi, obtained by zeroing the variance
ratio and refitting the control mean on trial controls only).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    TRIM_EPS,
    FittedGLM,
    ModelSpec,
    NuisanceSet,
    VarianceRatioModel,
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

    def to_dict(self) -> dict:
        return {
            "estimand": self.estimand,
            "method": self.method,
            "point": self.point,
            "n_used": self.n_used,
            "nuisance_fingerprint": self.nuisance_fingerprint,
            "trim_count": self.trim_count,
        }


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


# ----------------------------- row table ------------------------------


@dataclass
class _Pieces:
    """Per-row ingredients shared by every full-data moment."""

    delta: np.ndarray
    pi: np.ndarray
    core: np.ndarray  # d*t*resid1/p - weight*resid0
    trim_count: int
    q_hat: float


class RowTable:
    """Per-row predictions of one dataset, each computed once.

    The table holds one design per distinct covariate transform, one
    prediction per fitted model and one set of full-data moment pieces per
    (m1, m0, p, pi, ratio) combination. Passing one table to every estimator
    and influence-value call on ``ds`` shares that work between them; every
    value is the one the call computes with a table of its own. Models must
    not change after a table has read them.
    """

    def __init__(self, ds: CompositeDataset):
        self.ds = ds
        self._designs: dict = {}
        self._values: dict = {}

    def _once(self, key: tuple, owners, compute):
        # ``owners`` stay referenced, so the ids in ``key`` cannot be reused
        hit = self._values.get(key)
        if hit is None:
            hit = self._values[key] = (owners, compute())
        return hit[1]

    def design(self, spec: ModelSpec | None) -> np.ndarray | None:
        """Design of ``spec`` on every row; the family does not enter it."""
        if spec is None:
            return None
        key = (spec.terms, spec.include_intercept)
        if key not in self._designs:
            self._designs[key] = spec.design(self.ds.x)
        return self._designs[key]

    def predict(self, model: FittedGLM) -> np.ndarray:
        return self._once(
            ("predict", id(model)), model,
            lambda: model.predict(self.ds.x, self.design(model.spec)),
        )

    def propensity(self, model: FittedGLM) -> tuple[np.ndarray, np.ndarray]:
        """Predictions trimmed into [TRIM_EPS, 1-TRIM_EPS], and the rows trimmed."""

        def compute():
            raw = self.predict(model)
            clipped = np.clip(raw, TRIM_EPS, 1.0 - TRIM_EPS)
            return clipped, clipped != raw

        return self._once(("propensity", id(model)), model, compute)

    def ratio(self, r: VarianceRatioModel) -> np.ndarray:
        return self._once(
            ("ratio", id(r)), r, lambda: r.predict_r(self.ds.x, self.design(r.spec))
        )

    def var_trial(self, r: VarianceRatioModel) -> np.ndarray:
        return self._once(
            ("var_trial", id(r)), r,
            lambda: r.predict_var_trial(self.ds.x, self.design(r.spec)),
        )

    def pieces(self, nuis: NuisanceSet, zero_ratio: bool = False) -> _Pieces:
        """Full-data moment pieces; ``zero_ratio`` replaces the ratio by zero."""
        if self.ds.n2 == 0:
            raise OverlapNoExternal(
                "full-data estimation needs external rows; use the trial-based method"
            )
        if nuis.m1 is None or nuis.p is None:
            raise EmptyCell("full-data moments need fitted treated-arm models")
        if nuis.pi is None:
            raise EmptyCell("full-data moments need a fitted selection propensity")
        models = (nuis.m1, nuis.m0, nuis.p, nuis.pi, None if zero_ratio else nuis.r)
        return self._once(
            ("pieces", *map(id, models)), models, lambda: self._full_pieces(*models)
        )

    def _full_pieces(self, m1_model, m0_model, p_model, pi_model, r_model) -> _Pieces:
        ds = self.ds
        m1 = self.predict(m1_model)
        m0 = self.predict(m0_model)
        p, trimmed_p = self.propensity(p_model)
        pi, trimmed_pi = self.propensity(pi_model)
        floored_p = int(np.sum(p < DENOM_EPS))
        p = np.maximum(p, DENOM_EPS)
        r = np.zeros(ds.n) if r_model is None else self.ratio(r_model)
        weight, floored_w = control_weight(pi, p, r, ds.d, ds.t)
        resid0 = ds.y - m0
        resid1 = ds.y - m1
        core = ds.d * ds.t * resid1 / p - weight * resid0
        trims = int(trimmed_p.sum()) + int(trimmed_pi.sum())
        return _Pieces(
            delta=m1 - m0,
            pi=pi,
            core=core,
            trim_count=trims + floored_p + floored_w,
            q_hat=ds.q_hat,
        )


def _table_for(ds: CompositeDataset, table: RowTable | None) -> RowTable:
    if table is None:
        return RowTable(ds)
    if table.ds is not ds:
        raise ConfigError("row table was built for a different dataset")
    return table


# ----------------------------- estimators -----------------------------


def estimate_tau_trial(
    ds: CompositeDataset, nuis: NuisanceSet, table: RowTable | None = None
) -> Estimate:
    """Treatment effect in the trial, using trial rows only."""
    if nuis.m0_pooled:
        raise ConfigError("trial-based estimation needs m0 fit on trial controls only")
    if nuis.m1 is None or nuis.p is None:
        raise EmptyCell("trial-based estimation needs both trial arms")
    trial = ds.d == 1
    y = ds.y[trial]
    t = ds.t[trial]
    if not (t == 1).any() or not (t == 0).any():
        raise EmptyCell("trial-based estimation needs both trial arms")
    table = _table_for(ds, table)
    m1 = table.predict(nuis.m1)[trial]
    m0 = table.predict(nuis.m0)[trial]
    p, trimmed = table.propensity(nuis.p)
    p = p[trial]
    floored = int(np.sum(p < DENOM_EPS))
    p = np.maximum(p, DENOM_EPS)
    rows = (m1 - m0) + t * (y - m1) / p - (1 - t) * (y - m0) / (1.0 - p)
    return Estimate(
        estimand=ESTIMAND_TAU,
        method=METHOD_TRIAL,
        point=float(np.mean(rows)),
        n_used=int(trial.sum()),
        nuisance_fingerprint=nuis.fingerprint(),
        trim_count=int(trimmed[trial].sum()) + floored,
    )


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
    if not zero_ratio and not nuis.m0_pooled:
        raise ConfigError("full-data estimation needs m0 fit on all controls")
    pieces = _table_for(ds, table).pieces(nuis, zero_ratio=zero_ratio)
    rows = ds.d * pieces.delta + pieces.core
    return Estimate(
        estimand=ESTIMAND_TAU,
        method=METHOD_FULL,
        point=float(np.mean(rows) / pieces.q_hat),
        n_used=ds.n,
        nuisance_fingerprint=nuis.fingerprint(),
        trim_count=pieces.trim_count,
    )


def estimate_tau_treated_only(
    ds: CompositeDataset, nuis: NuisanceSet, table: RowTable | None = None
) -> Estimate:
    """Treatment effect when the trial has no control arm (p set to 1)."""
    if int(((ds.d == 1) & (ds.t == 0)).sum()) > 0:
        raise InvariantViolation(
            "treated-only estimation requested but the trial has control rows"
        )
    if ds.n2 == 0:
        raise OverlapNoExternal("treated-only estimation needs external controls")
    if nuis.pi is None:
        raise EmptyCell("treated-only estimation needs a fitted selection propensity")
    table = _table_for(ds, table)
    m0 = table.predict(nuis.m0)
    pi, trimmed = table.propensity(nuis.pi)
    resid0 = ds.y - m0
    rows = ds.d * resid0 - (1 - ds.d) * (pi / (1.0 - pi)) * resid0
    return Estimate(
        estimand=ESTIMAND_TAU,
        method=METHOD_TREATED_ONLY,
        point=float(np.mean(rows) / ds.q_hat),
        n_used=ds.n,
        nuisance_fingerprint=nuis.fingerprint(),
        trim_count=int(trimmed.sum()),
    )


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


def estimate_psi(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    method: str = METHOD_FULL,
    table: RowTable | None = None,
) -> Estimate:
    """Treatment effect in the pooled population."""
    zero_ratio = _check_comparator_nuisances(nuis, method)
    pieces = _table_for(ds, table).pieces(nuis, zero_ratio=zero_ratio)
    rows = pieces.delta + pieces.core / pieces.pi
    return Estimate(
        estimand=ESTIMAND_PSI,
        method=method,
        point=float(np.mean(rows)),
        n_used=ds.n,
        nuisance_fingerprint=nuis.fingerprint(),
        trim_count=pieces.trim_count,
    )


def estimate_xi(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    method: str = METHOD_FULL,
    table: RowTable | None = None,
) -> Estimate:
    """Treatment effect in the external population."""
    zero_ratio = _check_comparator_nuisances(nuis, method)
    if ds.q_hat >= 1.0:
        raise OverlapNoExternal("external-population effect needs external rows")
    pieces = _table_for(ds, table).pieces(nuis, zero_ratio=zero_ratio)
    rows = (1 - ds.d) * pieces.delta + pieces.core * (1.0 - pieces.pi) / pieces.pi
    return Estimate(
        estimand=ESTIMAND_XI,
        method=method,
        point=float(np.mean(rows) / (1.0 - ds.q_hat)),
        n_used=ds.n,
        nuisance_fingerprint=nuis.fingerprint(),
        trim_count=pieces.trim_count,
    )


def estimate(
    ds: CompositeDataset,
    nuis: NuisanceSet,
    estimand: str,
    method: str,
    table: RowTable | None = None,
) -> Estimate:
    """Dispatch to the named estimator."""
    if estimand == ESTIMAND_TAU:
        if method == METHOD_TRIAL:
            return estimate_tau_trial(ds, nuis, table=table)
        if method == METHOD_FULL:
            return estimate_tau_full(ds, nuis, table=table)
        if method == METHOD_TREATED_ONLY:
            return estimate_tau_treated_only(ds, nuis, table=table)
    elif estimand == ESTIMAND_PSI and method in (METHOD_FULL, METHOD_BASELINE):
        return estimate_psi(ds, nuis, method, table=table)
    elif estimand == ESTIMAND_XI and method in (METHOD_FULL, METHOD_BASELINE):
        return estimate_xi(ds, nuis, method, table=table)
    raise ConfigError(f"no estimator for estimand {estimand!r} with method {method!r}")


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
    if estimand not in ESTIMANDS or method not in VALID_METHODS[estimand]:
        raise ConfigError(
            f"no influence function for estimand {estimand!r} with method {method!r}"
        )
    table = _table_for(ds, table)
    if estimand == ESTIMAND_TAU and method == METHOD_TRIAL:
        if nuis.m0_pooled:
            raise ConfigError("trial-based influence values need unpooled m0")
        m1 = table.predict(nuis.m1)
        m0 = table.predict(nuis.m0)
        p = np.maximum(table.propensity(nuis.p)[0], DENOM_EPS)
        resid1 = ds.y - m1
        resid0 = ds.y - m0
        values = (ds.d / ds.q_hat) * (
            (m1 - m0) - point + ds.t * resid1 / p - (1 - ds.t) * resid0 / (1.0 - p)
        )
    elif estimand == ESTIMAND_TAU and method == METHOD_TREATED_ONLY:
        m0 = table.predict(nuis.m0)
        pi = table.propensity(nuis.pi)[0]
        resid0 = ds.y - m0
        values = (
            ds.d * (resid0 - point) - (1 - ds.d) * (pi / (1.0 - pi)) * resid0
        ) / ds.q_hat
    else:
        pieces = table.pieces(nuis, zero_ratio=method == METHOD_BASELINE)
        if estimand == ESTIMAND_TAU:
            values = (ds.d * (pieces.delta - point) + pieces.core) / pieces.q_hat
        elif estimand == ESTIMAND_PSI:
            values = pieces.delta - point + pieces.core / pieces.pi
        else:
            values = (
                (1 - ds.d) * (pieces.delta - point)
                + pieces.core * (1.0 - pieces.pi) / pieces.pi
            ) / (1.0 - pieces.q_hat)
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
    table = _table_for(ds, table)
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
