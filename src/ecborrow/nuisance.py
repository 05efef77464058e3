"""Working models: outcome means, propensities, and the variance ratio.

All four nuisances are generalized linear models fit by maximum likelihood:
identity-link Gaussian models solved in closed form, logit-link binomial
models by iteratively reweighted least squares with step-halving. Covariate
transforms are declared per model, so misspecification studies only swap
the transform, never the fitting code. ``fit_bundle`` fits every working
model of one dataset once and hands back the nuisance sets with the
``RowTable`` that holds each design and prediction once.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import CompositeDataset
from .errors import (
    ConfigError,
    DegenerateVariance,
    EmptyCell,
    NonConvergence,
    NonFiniteResult,
    RankDeficient,
    SeparationDetected,
)

IDENTITY = "identity"
LOGIT = "logit"

GLM_TOL = 1e-10          # sup-norm of the score at convergence
MAX_ITER = 100
MAX_HALVINGS = 40
SEPARATION_BOUND = 30.0  # |coef| beyond this on the logit scale flags separation
TRIM_EPS = 1e-3          # propensity predictions trimmed into [eps, 1-eps]
VAR_FLOOR = 1e-8         # floor inside log(residual^2 + floor)
GRAM_COND_MAX = 1e10     # a stacked resample fit whose Gram is worse is refit alone

RATIO_KNOWN_ONE = "known_one"
RATIO_CONSTANT = "constant"
RATIO_LOGLINEAR = "loglinear"
RATIO_MODES = (RATIO_KNOWN_ONE, RATIO_CONSTANT, RATIO_LOGLINEAR)


# --------------------------- covariate terms ---------------------------

_TERM_RE = re.compile(r"^\s*(raw|pow|inter|log1pexp)\s*\(\s*(\d+)\s*(?:,\s*(-?\d+)\s*)?\)\s*$")


@dataclass(frozen=True)
class Term:
    """One design column: raw(i), pow(i,k), inter(i,j) or log1pexp(i)."""

    kind: str
    i: int
    j: int = 0

    def apply(self, x: np.ndarray) -> np.ndarray:
        col = x[:, self.i]
        if self.kind == "raw":
            return col
        if self.kind == "pow":
            return col ** self.j
        if self.kind == "inter":
            return col * x[:, self.j]
        if self.kind == "log1pexp":
            return np.logaddexp(0.0, col)
        raise ConfigError(f"unknown term kind {self.kind!r}")

    def name(self, covariate_names: Sequence[str] | None = None) -> str:
        def nm(idx: int) -> str:
            return covariate_names[idx] if covariate_names else f"x{idx + 1}"

        if self.kind == "raw":
            return nm(self.i)
        if self.kind == "pow":
            return f"pow({nm(self.i)},{self.j})"
        if self.kind == "inter":
            return f"inter({nm(self.i)},{nm(self.j)})"
        return f"log1pexp({nm(self.i)})"

    def serialize(self) -> str:
        if self.kind == "raw":
            return f"raw({self.i})"
        if self.kind == "pow":
            return f"pow({self.i},{self.j})"
        if self.kind == "inter":
            return f"inter({self.i},{self.j})"
        return f"log1pexp({self.i})"

    @classmethod
    def parse(cls, text: str) -> "Term":
        m = _TERM_RE.match(text)
        if not m:
            raise ConfigError(f"cannot parse term {text!r}")
        kind, i, j = m.group(1), int(m.group(2)), m.group(3)
        if kind in ("pow", "inter"):
            if j is None:
                raise ConfigError(f"term {text!r} needs two arguments")
            return cls(kind, i, int(j))
        if j is not None:
            raise ConfigError(f"term {text!r} takes one argument")
        return cls(kind, i)


@dataclass(frozen=True)
class ModelSpec:
    """Family plus covariate transform for one working model."""

    family: str
    terms: tuple[Term, ...]
    include_intercept: bool = True

    def __post_init__(self):
        if self.family not in (IDENTITY, LOGIT):
            raise ConfigError(f"unknown family {self.family!r}")
        if not self.terms and not self.include_intercept:
            raise ConfigError("a model spec needs at least one term or the intercept")

    @classmethod
    def linear_in(cls, k: int, family: str = IDENTITY, include_intercept: bool = True) -> "ModelSpec":
        """Intercept plus raw covariates x1..xk."""
        return cls(family, tuple(Term("raw", i) for i in range(k)), include_intercept)

    def design(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cols = []
        if self.include_intercept:
            cols.append(np.ones(x.shape[0]))
        cols.extend(term.apply(x) for term in self.terms)
        return np.column_stack(cols)

    def column_names(self, covariate_names: Sequence[str] | None = None) -> list[str]:
        names = ["intercept"] if self.include_intercept else []
        names.extend(term.name(covariate_names) for term in self.terms)
        return names

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "terms": [term.serialize() for term in self.terms],
            "include_intercept": self.include_intercept,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSpec":
        return cls(
            family=data.get("family", IDENTITY),
            terms=tuple(Term.parse(t) for t in data.get("terms", [])),
            include_intercept=bool(data.get("include_intercept", True)),
        )


# ------------------------------- fitting -------------------------------


@dataclass
class FittedGLM:
    family: str
    coef: np.ndarray
    converged: bool
    iterations: int
    loglik: float
    n_obs: int
    spec: ModelSpec | None = None
    column_names: list[str] = field(default_factory=list)

    def predict_design(self, design: np.ndarray) -> np.ndarray:
        eta = np.asarray(design, dtype=float) @ self.coef
        if self.family == LOGIT:
            return expit(eta)
        return eta

    def predict(self, x: np.ndarray, design: np.ndarray | None = None) -> np.ndarray:
        """Predictions at ``x``; ``design`` may pass ``spec.design(x)`` built beforehand."""
        if self.spec is None:
            raise ConfigError("model was fit on a raw design; use predict_design")
        return self.predict_design(self.spec.design(x) if design is None else design)


def expit(eta: np.ndarray) -> np.ndarray:
    """Numerically stable inverse logit."""
    eta = np.asarray(eta, dtype=float)
    # exp(-|eta|) is exp(-eta) where eta >= 0 and exp(eta) elsewhere, so both
    # branches see the same bits as a masked split, without the gather/scatter
    e = np.exp(-np.abs(eta))
    denom = 1.0 + e
    return np.where(eta >= 0, 1.0 / denom, e / denom)


def _check_rank(design: np.ndarray, column_names: list[str] | None, rank=None) -> None:
    # ``rank`` may pass the SVD rank of ``design`` when the caller has it already
    n, p = design.shape
    if n < p:
        raise RankDeficient(
            f"{n} rows cannot identify {p} coefficients", columns=column_names or []
        )
    # The SVD tolerance is at least the pivoted-QR one and the smallest
    # singular value is at most every |r_ii|, so a full SVD rank implies a
    # full QR rank; only a suspect design pays for scipy.linalg and the QR.
    if (np.linalg.matrix_rank(design) if rank is None else rank) == p:
        return
    import scipy.linalg  # noqa: PLC0415 - kept off the import path of the CLI

    _, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    tol = max(design.shape) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int((diag > tol).sum())
    if rank < p:
        names = column_names or [f"col{i}" for i in range(p)]
        collinear = [names[piv[i]] for i in range(rank, p)]
        raise RankDeficient(
            f"design is rank deficient ({rank} < {p})", columns=collinear
        )


def _gaussian_loglik(rss, wsum):
    """Gaussian log-likelihood at the ML variance, for scalars or arrays."""
    sigma2 = np.maximum(rss / wsum, 1e-300)
    return -0.5 * wsum * (np.log(2.0 * np.pi * sigma2) + 1.0)


def _logit_loglik(eta, response, weights) -> float:
    terms = response * eta - np.logaddexp(0.0, eta)
    return float(np.sum(terms if weights is None else weights * terms))


def fit_glm(
    design: np.ndarray,
    response: np.ndarray,
    family: str,
    weights: np.ndarray | None = None,
    spec: ModelSpec | None = None,
    column_names: list[str] | None = None,
) -> FittedGLM:
    """Maximum-likelihood fit of one GLM.

    Identity family solves the weighted least-squares problem with one SVD
    (``np.linalg.lstsq``), whose rank is also the rank check; logit family
    runs IRLS with step-halving until the score sup-norm is below GLM_TOL or
    MAX_ITER is hit. No weights means unit weights at no cost: the weighted
    arithmetic is skipped, which gives the same bits because x * 1.0 == x.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    response = np.asarray(response, dtype=float)
    n, p = design.shape
    if response.shape[0] != n:
        raise ConfigError(f"design has {n} rows, response has {response.shape[0]}")
    if n == 0:
        raise EmptyCell("cannot fit a model on zero rows")
    finite = np.isfinite(design).all(axis=0)
    if not finite.all():
        names = column_names or [f"col{i}" for i in range(p)]
        bad = [names[i] for i in np.flatnonzero(~finite)]
        raise NonFiniteResult(f"design columns hold NaN or infinite values: {bad}", columns=bad)
    w = None if weights is None else np.asarray(weights, dtype=float)
    sw = None if w is None else np.sqrt(w)
    scaled = design if w is None else design * sw[:, None]

    if family == IDENTITY:
        rhs = response if w is None else response * sw
        # lstsq's rank follows matrix_rank's rule (eps * max(n, p) * s_max)
        coef, _, rank, _ = np.linalg.lstsq(scaled, rhs, rcond=None)
        _check_rank(scaled, column_names, rank)
        resid2 = (response - design @ coef) ** 2
        wsum = float(n) if w is None else w.sum()
        loglik = _gaussian_loglik(float(np.sum(resid2 if w is None else w * resid2)), wsum)
        return FittedGLM(IDENTITY, coef, True, 1, loglik, n, spec, column_names or [])

    _check_rank(scaled, column_names)
    if family != LOGIT:
        raise ConfigError(f"unknown family {family!r}")

    coef = np.zeros(p)
    eta = design @ coef
    loglik = _logit_loglik(eta, response, w)
    for iteration in range(1, MAX_ITER + 1):
        mu = expit(eta)
        resid = response - mu
        score = design.T @ (resid if w is None else w * resid)
        score_norm = float(np.max(np.abs(score)))
        if score_norm <= GLM_TOL:
            return FittedGLM(LOGIT, coef, True, iteration, loglik, n, spec, column_names or [])
        info_w = mu * (1.0 - mu) if w is None else w * mu * (1.0 - mu)
        hessian = design.T @ (design * info_w[:, None])
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            raise SeparationDetected(
                "singular information matrix; fitted probabilities degenerate",
            ) from None
        candidate = coef + step
        candidate_eta = design @ candidate
        new_loglik = _logit_loglik(candidate_eta, response, w)
        halvings = 0
        while new_loglik < loglik - 1e-12 and halvings < MAX_HALVINGS:
            step *= 0.5
            candidate = coef + step
            candidate_eta = design @ candidate
            new_loglik = _logit_loglik(candidate_eta, response, w)
            halvings += 1
        coef, eta, loglik = candidate, candidate_eta, new_loglik
        if float(np.max(np.abs(coef))) > SEPARATION_BOUND:
            raise SeparationDetected(
                "coefficients diverging on the logit scale; data likely separated",
                max_coef=float(np.max(np.abs(coef))),
            )
    raise NonConvergence(f"IRLS did not converge in {MAX_ITER} iterations")


def fit_model(ds_x: np.ndarray, response: np.ndarray, spec: ModelSpec,
              covariate_names: Sequence[str] | None = None,
              weights: np.ndarray | None = None,
              design: np.ndarray | None = None) -> FittedGLM:
    """Fit ``spec`` on raw covariates; ``design`` may pass ``spec.design(ds_x)`` built beforehand."""
    return fit_glm(
        spec.design(ds_x) if design is None else design,
        response,
        spec.family,
        weights=weights,
        spec=spec,
        column_names=spec.column_names(covariate_names),
    )


# ------------------------- model-set fitting --------------------------

# rows of each identity-stage fit of a bundle, from the (d, t) columns; the
# variance ratio compares the trial-control rows with the external rows
_BUNDLE_ROWS = {
    "m1": lambda d, t: (d == 1) & (t == 1),
    "m0_pooled": lambda d, t: t == 0,
    "m0_trial": lambda d, t: (d == 1) & (t == 0),
    "external": lambda d, t: d == 0,
}


def fit_outcome_models(
    ds: CompositeDataset,
    spec1: ModelSpec,
    spec0: ModelSpec,
    pool_controls: bool,
) -> tuple[FittedGLM, FittedGLM]:
    """Fit the treated-arm and control outcome means.

    The treated model uses trial treated rows. With ``pool_controls`` the
    control model uses every control row (trial and external); otherwise
    trial controls only.
    """
    treated = _BUNDLE_ROWS["m1"](ds.d, ds.t)
    if not treated.any():
        raise EmptyCell("no treated trial rows to fit the treated outcome model")
    controls = _control_rows(ds, pool_controls)
    m1 = fit_model(ds.x[treated], ds.y[treated], spec1, ds.covariate_names)
    m0 = fit_model(ds.x[controls], ds.y[controls], spec0, ds.covariate_names)
    return m1, m0


def _control_rows(ds: CompositeDataset, pool_controls: bool) -> np.ndarray:
    controls = _BUNDLE_ROWS["m0_pooled" if pool_controls else "m0_trial"](ds.d, ds.t)
    if not controls.any():
        raise EmptyCell("no control rows to fit the control outcome model")
    return controls


def fit_control_model(ds: CompositeDataset, spec0: ModelSpec, pool_controls: bool) -> FittedGLM:
    """Fit only the control outcome mean, on the rows ``fit_outcome_models`` uses."""
    controls = _control_rows(ds, pool_controls)
    return fit_model(ds.x[controls], ds.y[controls], spec0, ds.covariate_names)


def fit_treatment_ps(ds: CompositeDataset, spec: ModelSpec) -> FittedGLM:
    """Logit model of treatment assignment among trial rows."""
    if spec.family != LOGIT:
        raise ConfigError("treatment propensity model must use the logit family")
    trial = ds.d == 1
    t = ds.t[trial]
    if not (t == 1).any() or not (t == 0).any():
        raise EmptyCell("trial needs both arms to fit the treatment propensity")
    return fit_model(ds.x[trial], t, spec, ds.covariate_names)


def fit_selection_ps(
    ds: CompositeDataset, spec: ModelSpec, design: np.ndarray | None = None
) -> FittedGLM:
    """Logit model of trial membership on the pooled sample.

    ``design`` may pass ``spec.design(ds.x)`` built beforehand.
    """
    if spec.family != LOGIT:
        raise ConfigError("selection propensity model must use the logit family")
    if ds.n2 == 0:
        raise EmptyCell("no external rows; selection propensity is degenerate")
    return fit_model(ds.x, ds.d, spec, ds.covariate_names, design=design)


# --------------------------- variance ratio ---------------------------


@dataclass
class VarianceRatioModel:
    """Ratio of control-outcome variance, trial over external.

    known_one: ratio fixed at 1 (appropriate for binary outcomes).
    constant: ratio of mean squared control residuals.
    loglinear: identity GLM of log(residual^2 + floor) in each source group;
    the per-group fits also provide smoothed conditional variances, rescaled
    so group means match the raw mean squared residuals. A loglinear model
    carries the constant model of the same residuals as ``constant``.
    """

    mode: str
    spec: ModelSpec | None = None
    coef_trial: np.ndarray | None = None
    coef_external: np.ndarray | None = None
    log_scale_trial: float = 0.0
    log_scale_external: float = 0.0
    const_ratio: float = 1.0
    const_var_trial: float | None = None
    const_var_external: float | None = None
    constant: VarianceRatioModel | None = None

    @property
    def params(self) -> np.ndarray:
        if self.mode == RATIO_KNOWN_ONE:
            return np.array([])
        if self.mode == RATIO_CONSTANT:
            return np.array([self.const_ratio, self.const_var_trial, self.const_var_external])
        return np.concatenate(
            [
                self.coef_trial,
                self.coef_external,
                [self.log_scale_trial, self.log_scale_external],
            ]
        )

    def predict_r(self, x: np.ndarray, design: np.ndarray | None = None) -> np.ndarray:
        """Ratio at ``x``; ``design`` may pass ``spec.design(x)`` built beforehand."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        if self.mode == RATIO_KNOWN_ONE:
            return np.ones(n)
        if self.mode == RATIO_CONSTANT:
            return np.full(n, self.const_ratio)
        design = self.spec.design(x) if design is None else design
        with np.errstate(over="ignore"):
            r = np.exp(design @ self.coef_trial - design @ self.coef_external)
        if not np.isfinite(r).all():
            bad = int(np.count_nonzero(~np.isfinite(r)))
            raise NonFiniteResult(f"variance ratio r(x) is not finite on {bad} of {n} rows")
        return r

    def predict_var_trial(self, x: np.ndarray, design: np.ndarray | None = None) -> np.ndarray:
        """Smoothed var(Y | X, trial controls); unavailable for known_one."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        if self.mode == RATIO_KNOWN_ONE:
            raise DegenerateVariance(
                "known_one ratio model carries no variance level; fit constant or loglinear"
            )
        if self.mode == RATIO_CONSTANT:
            return np.full(n, self.const_var_trial)
        design = self.spec.design(x) if design is None else design
        return np.exp(design @ self.coef_trial + self.log_scale_trial)


def _constant_ratio(v1: float, v0: float) -> VarianceRatioModel:
    """Constant ratio of the trial-control and external mean squared residuals."""
    return VarianceRatioModel(RATIO_CONSTANT, const_ratio=v1 / v0, const_var_trial=v1,
                              const_var_external=v0)


def _log_scale(v, smoothed_mean):
    """Calibrate a log-variance fit's level so the group's smoothed variance
    averages to its raw mean squared residual (log-scale fits are biased low
    otherwise); scalars or arrays."""
    return np.log(v / smoothed_mean)


def _loglinear_ratio(spec: ModelSpec, coefs, scales,
                     constant: VarianceRatioModel) -> VarianceRatioModel:
    return VarianceRatioModel(
        RATIO_LOGLINEAR,
        spec=spec,
        coef_trial=coefs[0],
        coef_external=coefs[1],
        log_scale_trial=scales[0],
        log_scale_external=scales[1],
        constant=constant,
    )


def fit_variance_ratio(
    ds: CompositeDataset,
    m0: FittedGLM,
    mode: str,
    spec: ModelSpec | None = None,
) -> VarianceRatioModel:
    """Estimate the control-outcome variance ratio from m0 residuals."""
    if mode not in RATIO_MODES:
        raise ConfigError(f"unknown ratio mode {mode!r}")
    if mode == RATIO_KNOWN_ONE:
        return VarianceRatioModel(RATIO_KNOWN_ONE)
    groups = tuple(_BUNDLE_ROWS[name](ds.d, ds.t) for name in ("m0_trial", "external"))
    if any(int(rows.sum()) < 2 for rows in groups):
        raise EmptyCell(
            "variance-ratio estimation needs at least two control rows per source"
        )
    if m0.spec is None:
        raise ConfigError("model was fit on a raw design; use predict_design")
    xs = [ds.x[rows] for rows in groups]
    # one design per group serves the m0 residuals and, when the variance spec
    # has m0's terms, the log-variance fit and its calibration
    m0_designs = [m0.spec.design(x) for x in xs]
    resid2 = [(ds.y[rows] - m0.predict(x, design=design)) ** 2
              for rows, x, design in zip(groups, xs, m0_designs)]
    if any(np.all(r2 < VAR_FLOOR) for r2 in resid2):
        raise DegenerateVariance(
            "all squared residuals below the variance floor in one source group"
        )
    v1, v0 = (float(np.mean(r2)) for r2 in resid2)
    constant = _constant_ratio(v1, v0)
    if mode == RATIO_CONSTANT:
        return constant
    if spec is None:
        spec = ModelSpec.linear_in(ds.k, IDENTITY)
    if spec.family != IDENTITY:
        raise ConfigError("loglinear variance regression must use the identity family")
    shared = (spec.terms, spec.include_intercept) == (m0.spec.terms, m0.spec.include_intercept)
    names = spec.column_names(ds.covariate_names)
    coefs, scales = [], []
    for x, design, r2, v in zip(xs, m0_designs, resid2, (v1, v0)):
        design = design if shared else spec.design(x)
        fit = fit_glm(design, np.log(r2 + VAR_FLOOR), IDENTITY, spec=spec, column_names=names)
        coefs.append(fit.coef)
        scales.append(float(_log_scale(v, np.mean(np.exp(fit.predict(x, design=design))))))
    return _loglinear_ratio(spec, coefs, scales, constant)


# ---------------------------- nuisance set ----------------------------


@dataclass
class NuisanceSet:
    """The fitted working models one estimator run consumes.

    ``m1`` and ``p`` may be absent in treated-only designs; ``pi`` may be
    absent when there are no external rows.
    """

    m0: FittedGLM
    r: VarianceRatioModel
    m0_pooled: bool
    m1: FittedGLM | None = None
    p: FittedGLM | None = None
    pi: FittedGLM | None = None
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        # a model swapped in after construction must not keep a stale fingerprint
        if name != "_fingerprint":
            object.__setattr__(self, "_fingerprint", None)
        object.__setattr__(self, name, value)

    def fingerprint(self) -> str:
        """Short SHA-256 of every model; hashed on the first call only."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            for model in (self.m1, self.m0, self.p, self.pi):
                if model is None:
                    h.update(b"absent")
                else:
                    h.update(model.family.encode())
                    h.update(np.ascontiguousarray(model.coef, dtype=float).tobytes())
            h.update(self.r.mode.encode())
            h.update(np.ascontiguousarray(self.r.params, dtype=float).tobytes())
            h.update(b"pooled" if self.m0_pooled else b"unpooled")
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint


# ------------------------------ row table ------------------------------


class RowTable:
    """Per-row values of one dataset, each computed once.

    The table holds one design per distinct covariate transform, one
    prediction per fitted model, and whatever the estimators keep in it
    through ``cached``. Passing one table to every call on ``ds`` shares that
    work between them; every value is the one the call computes with a table
    of its own. Models must not change after a table has read them.
    """

    def __init__(self, ds: CompositeDataset):
        self.ds = ds
        self._designs: dict = {}
        self._values: dict = {}

    def cached(self, key: tuple, owners, compute):
        """``compute()`` on the first call with ``key``, the stored value after.

        ``owners`` stay referenced, so the ids in ``key`` cannot be reused.
        """
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
        return self.cached(
            ("predict", id(model)), model,
            lambda: model.predict(self.ds.x, self.design(model.spec)),
        )

    def propensity(self, model: FittedGLM) -> tuple[np.ndarray, np.ndarray]:
        """Predictions trimmed into [TRIM_EPS, 1-TRIM_EPS], and the rows trimmed."""

        def compute():
            raw = self.predict(model)
            clipped = np.clip(raw, TRIM_EPS, 1.0 - TRIM_EPS)
            return clipped, clipped != raw

        return self.cached(("propensity", id(model)), model, compute)

    def ratio(self, r: VarianceRatioModel) -> np.ndarray:
        return self.cached(
            ("ratio", id(r)), r, lambda: r.predict_r(self.ds.x, self.design(r.spec))
        )

    def var_trial(self, r: VarianceRatioModel) -> np.ndarray:
        return self.cached(
            ("var_trial", id(r)), r,
            lambda: r.predict_var_trial(self.ds.x, self.design(r.spec)),
        )


def row_table(ds: CompositeDataset, table: RowTable | None = None) -> RowTable:
    """``table`` once checked to belong to ``ds``, or a new table of ``ds``."""
    if table is None:
        return RowTable(ds)
    if table.ds is not ds:
        raise ConfigError("row table was built for a different dataset")
    return table


# ------------------------------- bundle --------------------------------


def linear_specs(k: int, outcome_family: str = IDENTITY) -> dict:
    """``fit_bundle`` specs, each linear in x1..xk: the CLI's defaults."""
    return {
        "m1": ModelSpec.linear_in(k, outcome_family),
        "m0": ModelSpec.linear_in(k, outcome_family),
        "p": ModelSpec.linear_in(k, LOGIT),
        "pi": ModelSpec.linear_in(k, LOGIT),
        "variance": ModelSpec.linear_in(k, IDENTITY),
    }


def fit_bundle(
    ds: CompositeDataset, specs: dict, ratio_mode: str, treated_only: bool = False,
    solved: dict | None = None,
) -> tuple[dict, RowTable]:
    """Fit every working model once: the nuisance sets and their row table.

    ``specs`` maps "m1", "m0", "p", "pi" and "variance" to model specs. The
    "pooled" set fits m0 on every control and the "unpooled" set on trial
    controls only; they share m1, p, pi and the variance ratio, which is fit
    on the pooled m0's residuals. Without external rows pi is absent and the
    ratio is known_one: no estimator that runs on such data reads it. With
    ``treated_only`` (a trial without a control arm) there is one
    "treated_only" set of the pooled m0 and pi; its ratio is known_one
    because the ratio cancels from that estimator. The selection fit takes
    its design from the returned table, so every prediction shares it.

    ``solved`` may hold models of ``ds`` fit beforehand, under the names
    "m1", "m0_pooled", "m0_trial" and "r" (``BlockFitter`` solves them for
    many resamples at once); each one given takes the place of its fit, and
    the rest are fit here in the order above.
    """
    solved = solved or {}
    table = RowTable(ds)
    if treated_only:
        m0 = solved.get("m0_pooled") or fit_control_model(ds, specs["m0"], pool_controls=True)
        pi = fit_selection_ps(ds, specs["pi"], design=table.design(specs["pi"]))
        nuis = NuisanceSet(m0=m0, r=VarianceRatioModel(RATIO_KNOWN_ONE), m0_pooled=True, pi=pi)
        return {"treated_only": nuis}, table
    if "m1" in solved:
        m1, m0_pooled = solved["m1"], solved["m0_pooled"]
    else:
        m1, m0_pooled = fit_outcome_models(ds, specs["m1"], specs["m0"], pool_controls=True)
    p = fit_treatment_ps(ds, specs["p"])
    pi = None
    if ds.n2 > 0:
        pi = fit_selection_ps(ds, specs["pi"], design=table.design(specs["pi"]))
    mode = ratio_mode if ds.n2 > 0 else RATIO_KNOWN_ONE
    r = solved.get("r") or fit_variance_ratio(ds, m0_pooled, mode, specs["variance"])
    m0_trial = solved.get("m0_trial") or fit_control_model(ds, specs["m0"], pool_controls=False)
    shared = {"r": r, "m1": m1, "p": p, "pi": pi}
    sets = {
        "pooled": NuisanceSet(m0=m0_pooled, m0_pooled=True, **shared),
        "unpooled": NuisanceSet(m0=m0_trial, m0_pooled=False, **shared),
    }
    return sets, table


# --------------------------- resample blocks ---------------------------


def _stacked_wls(design: np.ndarray, weights: np.ndarray,
                 response: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares for each row of ``weights``, from the normal equations.

    ``response`` is one vector for every row of ``weights`` or one row each.
    Returns the coefficients and where they may stand in for ``fit_glm``: at
    least as many weighted rows as coefficients and a Gram matrix with
    condition number at most GRAM_COND_MAX (a design ``fit_glm`` calls rank
    deficient has a far larger one).
    """
    k, p = weights.shape[0], design.shape[1]
    gram = np.empty((k, p, p))
    # one column product at a time keeps the extra memory at one row count
    for a in range(p):
        for b in range(a, p):
            gram[:, a, b] = gram[:, b, a] = weights @ (design[:, a] * design[:, b])
    eig = np.linalg.eigvalsh(gram)
    ok = (weights.sum(axis=1) >= p) & (eig[:, 0] > 0) & (eig[:, -1] <= GRAM_COND_MAX * eig[:, 0])
    coef = np.zeros((k, p))
    if ok.any():
        rhs = (weights * response)[ok] @ design
        coef[ok] = np.linalg.solve(gram[ok], rhs[:, :, None])[:, :, 0]
    return coef, ok


class BlockFitter:
    """``fit_bundle`` for bootstrap resamples of ``base``, a block at a time.

    ``solve(counts)`` takes one row of frequency counts on ``base``'s rows
    per resample and fits every identity-family model of the bundle for all
    of them at once, from count-weighted normal equations on one design per
    spec built once on ``base``: m1, both m0, and the variance ratio (the two
    log-variance fits with their calibration, and the constant ratio).
    ``fit(idx, solved)`` fits the rest (p, pi, and logit outcome models) on
    ``base.take(idx)``, unchanged, and assembles the sets with
    ``fit_bundle``. A resample that a stacked solve cannot stand in for
    gets ``None`` and ``fit_bundle`` fits it alone, so each failure keeps its
    type, message and count: fewer weighted rows than coefficients, fewer
    than two rows of a source for the ratio, every squared residual of a
    source under VAR_FLOOR, or a Gram matrix beyond GRAM_COND_MAX.
    """

    def __init__(self, base: CompositeDataset, specs: dict, ratio_mode: str,
                 treated_only: bool = False):
        self.base = base
        self.specs = specs
        self.ratio_mode = ratio_mode
        self.treated_only = treated_only
        outcome = {"m0_pooled": "m0"} if treated_only else {
            "m1": "m1", "m0_pooled": "m0", "m0_trial": "m0"}
        self._models: dict = {}
        self._variance = None
        table = RowTable(base)
        designs = [table.design(specs[key]) for key in outcome.values()]
        if any(specs[key].family != IDENTITY for key in outcome.values()) or not all(
            np.isfinite(design).all() for design in designs
        ):
            return  # nothing to stack: every resample is fit alone
        rows = {name: mask(base.d, base.t) for name, mask in _BUNDLE_ROWS.items()}
        for (name, key), design in zip(outcome.items(), designs):
            self._models[name] = (rows[name], design[rows[name]], specs[key],
                                  specs[key].column_names(base.covariate_names))
        if treated_only or ratio_mode not in (RATIO_CONSTANT, RATIO_LOGLINEAR) or base.n2 == 0:
            return
        spec = None
        if ratio_mode == RATIO_LOGLINEAR:
            spec = specs["variance"] or ModelSpec.linear_in(base.k, IDENTITY)
            if spec.family != IDENTITY or not np.isfinite(table.design(spec)).all():
                return
        # per source group: its rows, m0's design on them for the residuals,
        # and the variance spec's design for the log-variance fit
        self._variance = spec, [
            (source, table.design(specs["m0"])[source],
             None if spec is None else table.design(spec)[source])
            for source in (rows["m0_trial"], rows["external"])
        ]

    def solve(self, counts: np.ndarray) -> list[dict | None]:
        """The stacked fits of each resample for ``fit``, or None to fit it alone."""
        counts = np.asarray(counts, dtype=float)
        k = counts.shape[0]
        if not self._models:
            return [None] * k
        ok = np.ones(k, dtype=bool)
        fits = {}
        # a resample cleared from ``ok`` may divide by a zero count; its values are dropped
        with np.errstate(divide="ignore", invalid="ignore"):
            for name, (rows, design, spec, names) in self._models.items():
                weights, y = counts[:, rows], self.base.y[rows]
                coef, good = _stacked_wls(design, weights, y)
                ok &= good
                rss = (weights * (y - coef @ design.T) ** 2).sum(axis=1)
                wsum = weights.sum(axis=1)
                fits[name] = coef, _gaussian_loglik(rss, wsum), wsum, spec, names
            ratio = self._solve_ratio(counts, fits["m0_pooled"][0], ok)
        out = []
        for i in range(k):
            if not ok[i]:
                out.append(None)
                continue
            solved = {
                name: FittedGLM(IDENTITY, coef[i], True, 1, float(loglik[i]), int(wsum[i]),
                                spec, names)
                for name, (coef, loglik, wsum, spec, names) in fits.items()
            }
            if ratio is not None:
                solved["r"] = ratio(i)
            out.append(solved)
        return out

    def _solve_ratio(self, counts, m0_coef, ok):
        """The variance ratio of resample i as ``ratio(i)``; clears ``ok`` where it fails."""
        if self._variance is None:
            return None
        spec, groups = self._variance
        v, coefs, scales = [], [], []
        for rows, m0_design, design in groups:
            weights = counts[:, rows]
            r2 = (self.base.y[rows] - m0_coef @ m0_design.T) ** 2
            count = weights.sum(axis=1)
            ok &= (count >= 2) & ~np.all((r2 < VAR_FLOOR) | (weights == 0), axis=1)
            v.append((weights * r2).sum(axis=1) / count)
            if design is not None:
                coef, good = _stacked_wls(design, weights, np.log(r2 + VAR_FLOOR))
                ok &= good
                smoothed = (weights * np.exp(coef @ design.T)).sum(axis=1) / count
                coefs.append(coef)
                scales.append(_log_scale(v[-1], smoothed))

        def ratio(i: int) -> VarianceRatioModel:
            constant = _constant_ratio(float(v[0][i]), float(v[1][i]))
            if spec is None:
                return constant
            return _loglinear_ratio(spec, [c[i] for c in coefs],
                                    [float(s[i]) for s in scales], constant)

        return ratio

    def fit(self, idx: np.ndarray,
            solved: dict | None) -> tuple[CompositeDataset, tuple[dict, RowTable]]:
        """Resample ``idx`` of ``base`` and its bundle, taking ``solved`` from ``solve``."""
        resample = self.base.take(idx)
        return resample, fit_bundle(
            resample, self.specs, self.ratio_mode, self.treated_only, solved=solved
        )
