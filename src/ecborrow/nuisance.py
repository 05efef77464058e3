"""Working models: outcome means, propensities, and the variance ratio.

All four nuisances are generalized linear models fit by maximum likelihood:
identity-link Gaussian models solved in closed form, logit-link binomial
models by iteratively reweighted least squares with step-halving. Covariate
transforms are declared per model, so misspecification studies only swap
the transform, never the fitting code. ``fit_bundle`` fits every working
model of one dataset once and hands back the nuisance sets with the
``RowTable`` that holds each design and prediction once; ``BlockFitter``
does the same for a block of bootstrap resamples written as row counts, or
for a ``DatasetBlock`` of Monte Carlo replicates and its twins, with stacked
models and the block's ``RowTable``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import CompositeDataset, DatasetBlock
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
DECREMENT_TOL = 1e-20    # or a whole Newton step's s'H^-1 s, relative to 1 + |loglik|
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
        col = x[..., self.i]
        if self.kind == "raw":
            return col
        if self.kind == "pow":
            return col ** self.j
        if self.kind == "inter":
            return col * x[..., self.j]
        if self.kind == "log1pexp":
            return np.logaddexp(0.0, col)
        raise ConfigError(f"unknown term kind {self.kind!r}")

    def _format(self, covariate) -> str:
        """The term with each covariate index written as ``covariate(index)``."""
        if self.kind == "raw":
            return covariate(self.i)
        if self.kind == "pow":
            return f"pow({covariate(self.i)},{self.j})"
        if self.kind == "inter":
            return f"inter({covariate(self.i)},{covariate(self.j)})"
        return f"log1pexp({covariate(self.i)})"

    def name(self, covariate_names: Sequence[str] | None = None) -> str:
        return self._format(lambda i: covariate_names[i] if covariate_names else f"x{i + 1}")

    def serialize(self) -> str:
        """The text ``parse`` reads back."""
        return f"raw({self.i})" if self.kind == "raw" else self._format(str)

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
    def linear_in(cls, k: int, family: str = IDENTITY,
                  include_intercept: bool = True) -> "ModelSpec":
        """Intercept plus raw covariates x1..xk."""
        return cls(family, tuple(Term("raw", i) for i in range(k)), include_intercept)

    def design(self, x: np.ndarray) -> np.ndarray:
        """(n, p) for covariates x (n, k); (K, n, p) for a block's (K, n, k)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cols = []
        if self.include_intercept:
            cols.append(np.ones(x.shape[:-1]))
        cols.extend(term.apply(x) for term in self.terms)
        return np.stack(cols, axis=-1)

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
        """The spec ``to_dict`` wrote; a ConfigError names a key of the wrong type."""
        unknown = sorted(set(data) - {"family", "terms", "include_intercept"})
        terms, intercept = data.get("terms", []), data.get("include_intercept", True)
        if unknown:
            raise ConfigError(f"unknown model spec keys: {unknown}")
        if not isinstance(terms, (list, tuple)) or not all(isinstance(t, str) for t in terms):
            raise ConfigError(f"model spec key 'terms' must be a list of terms, got {terms!r}")
        if not isinstance(intercept, bool):
            raise ConfigError(
                f"model spec key 'include_intercept' must be a boolean, got {intercept!r}")
        return cls(data.get("family", IDENTITY), tuple(map(Term.parse, terms)), intercept)


# ------------------------------- fitting -------------------------------


@dataclass(eq=False)
class FittedGLM:
    """One fitted GLM, of a fit that converged (a block's fits: where its ``ok`` holds).

    A stacked fit (``BlockFitter``) holds K fits: ``coef`` is (K, p),
    ``iterations``, ``loglik`` and ``n_obs`` hold one entry per fit, and
    ``predict`` gives (K, n) predictions, on one design (n, p) or on each
    fit's own (K, n, p).
    """

    family: str
    coef: np.ndarray
    iterations: int
    loglik: float
    n_obs: int
    spec: ModelSpec | None = None
    column_names: list[str] = field(default_factory=list)

    def predict(self, x: np.ndarray | None, design: np.ndarray | None = None) -> np.ndarray:
        """Predictions at ``x``; ``design`` may pass ``spec.design(x)`` built beforehand,
        and then ``x`` is not read."""
        if design is None:
            if self.spec is None:
                raise ConfigError("model was fit on a raw design; pass that design to predict")
            design = self.spec.design(x)
        eta = _eta(np.asarray(design, dtype=float), self.coef)
        return expit(eta) if self.family == LOGIT else eta


def _eta(design: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Linear predictor by one batched matmul per fit: (n,) for one fit's (p,), and (K, n)
    for K fits' (K, p), on one design (n, p) or on each fit's own (K, n, p)."""
    return (design @ coef[..., None])[..., 0]


def expit(eta: np.ndarray) -> np.ndarray:
    """Numerically stable inverse logit."""
    return _expit_parts(np.asarray(eta, dtype=float))[0]


def _expit_parts(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """expit(eta), and the exp(-|eta|) it is computed from.

    exp(-|eta|) is exp(-eta) where eta >= 0 and exp(eta) elsewhere, so both
    branches see the same bits as a masked split, without the gather/scatter;
    the numerator exp(min(eta, 0)) is exactly 1 or that same exp(eta), which
    gives the bits of a select between 1/(1 + e) and e/(1 + e) without one.
    Both are built in place, which a 0-d array's scalar results do not allow.
    """
    if eta.ndim == 0:
        mu, e = _expit_parts(eta.reshape(1))
        return mu[0], e[0]
    e = np.abs(eta)
    np.exp(np.negative(e, out=e), out=e)
    mu = np.minimum(eta, 0.0)
    np.exp(mu, out=mu)
    mu /= 1.0 + e
    return mu, e


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


def fit_glm(
    design: np.ndarray,
    response: np.ndarray,
    family: str,
    weights: np.ndarray | None = None,
    spec: ModelSpec | None = None,
    column_names: list[str] | None = None,
) -> FittedGLM:
    """Maximum-likelihood fit of one GLM.

    No weights means unit weights: an unweighted fit is the unit-weight fit,
    bit for bit, since x * 1.0 == x and n ones sum to n exactly. Identity
    family solves the weighted least-squares problem with one SVD
    (``np.linalg.lstsq``), whose rank is also the rank check. Logit family is
    one fit of the stacked IRLS (``_stacked_logit``) from the Gram of its
    weights, as a block's fit of one: each way it fails is a typed error.
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
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    sw = np.sqrt(w)
    scaled = design * sw[:, None]

    if family == IDENTITY:
        # lstsq's rank follows matrix_rank's rule (eps * max(n, p) * s_max)
        coef, _, rank, _ = np.linalg.lstsq(scaled, response * sw, rcond=None)
        _check_rank(scaled, column_names, rank)
        rss = float(np.sum(w * (response - design @ coef) ** 2))
        loglik = _gaussian_loglik(rss, w.sum())
        return FittedGLM(IDENTITY, coef, 1, loglik, n, spec, column_names or [])

    _check_rank(scaled, column_names)
    if family != LOGIT:
        raise ConfigError(f"unknown family {family!r}")

    coef, iterations, loglik, status = _stacked_logit(
        design, w[None], response, np.ones(1, dtype=bool), _gram(design, w[None]))
    if status[0] == _ONE_CLASS:
        raise SeparationDetected("response holds one class; the logit likelihood has no maximum")
    if status[0] == _SINGULAR:
        raise SeparationDetected("singular information matrix; fitted probabilities degenerate")
    if status[0] == _DIVERGED:
        raise SeparationDetected(
            "coefficients diverging on the logit scale; data likely separated",
            max_coef=float(np.max(np.abs(coef[0]))),
        )
    if status[0] == _UNCONVERGED:
        raise NonConvergence(f"IRLS did not converge in {MAX_ITER} iterations")
    return FittedGLM(LOGIT, coef[0], int(iterations[0]), float(loglik[0]), n, spec,
                     column_names or [])


# --------------------------- variance ratio ---------------------------


@dataclass(eq=False)
class VarianceRatioModel:
    """Ratio of control-outcome variance, trial over external.

    known_one: ratio fixed at 1 (appropriate for binary outcomes).
    constant: ratio of mean squared control residuals.
    loglinear: identity GLM of log(residual^2 + floor) in each source group;
    the per-group fits also provide smoothed conditional variances, rescaled
    so group means match the raw mean squared residuals (a log-scale fit is
    biased low otherwise). A loglinear model carries the constant model of
    the same residuals as ``constant``.

    A stacked model (``BlockFitter``) holds K fits: each array and number
    field gains a leading axis of K, and ratios come out (K, n).
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
        scales = np.stack([self.log_scale_trial, self.log_scale_external], axis=-1)
        return np.concatenate([self.coef_trial, self.coef_external, scales], axis=-1)

    def predict_r(self, x: np.ndarray, design: np.ndarray | None = None) -> np.ndarray:
        """Ratio at ``x``; ``design`` may pass ``spec.design(x)`` built beforehand."""
        r = self._unchecked_r(x, design)
        if not np.isfinite(r).all():
            bad = int(np.count_nonzero(~np.isfinite(r)))
            raise NonFiniteResult(f"variance ratio r(x) is not finite on {bad} of {r.size} rows")
        return r

    def _unchecked_r(self, x: np.ndarray, design: np.ndarray | None) -> np.ndarray:
        """``predict_r`` without its finiteness check: an overflow is left as inf."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[-2]
        if self.mode == RATIO_KNOWN_ONE:
            return np.ones(n)
        if self.mode == RATIO_CONSTANT:
            ratio = np.asarray(self.const_ratio)[..., None]
            return np.broadcast_to(ratio, (*ratio.shape[:-1], n))
        design = self.spec.design(x) if design is None else design
        with np.errstate(over="ignore"):
            return np.exp(_eta(design, self.coef_trial) - _eta(design, self.coef_external))

    def predict_var_trial(self, x: np.ndarray, design: np.ndarray | None = None) -> np.ndarray:
        """Smoothed var(Y | X, trial controls); unavailable for known_one."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[-2]
        if self.mode == RATIO_KNOWN_ONE:
            raise DegenerateVariance(
                "known_one ratio model carries no variance level; fit constant or loglinear"
            )
        if self.mode == RATIO_CONSTANT:
            return np.full(n, self.const_var_trial)
        design = self.spec.design(x) if design is None else design
        return np.exp(_eta(design, self.coef_trial) + np.expand_dims(self.log_scale_trial, -1))


def _constant_ratio(v1: float, v0: float) -> VarianceRatioModel:
    """Constant ratio of the trial-control and external mean squared residuals."""
    return VarianceRatioModel(RATIO_CONSTANT, const_ratio=v1 / v0, const_var_trial=v1,
                              const_var_external=v0)


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


def _variance_spec(spec: ModelSpec | None, k: int) -> ModelSpec:
    """The loglinear ratio's log-variance spec: ``spec``, or linear in x1..xk when None."""
    spec = ModelSpec.linear_in(k, IDENTITY) if spec is None else spec
    if spec.family != IDENTITY:
        raise ConfigError("loglinear variance regression must use the identity family")
    return spec


def fit_variance_ratio(
    ds: CompositeDataset,
    m0: FittedGLM,
    mode: str,
    spec: ModelSpec | None = None,
    table: RowTable | None = None,
) -> VarianceRatioModel:
    """Estimate the control-outcome variance ratio from m0 residuals.

    Each source group reads its rows (``table.rows``) of the residuals of
    ``table``'s prediction of m0, the one the estimators read, and of its
    design of ``spec``; a table of its own is made when none is passed.
    """
    if mode not in RATIO_MODES:
        raise ConfigError(f"unknown ratio mode {mode!r}")
    if mode == RATIO_KNOWN_ONE:
        return VarianceRatioModel(RATIO_KNOWN_ONE)
    table = row_table(ds, table)
    groups = tuple(table.rows(name) for name in _RATIO_GROUPS)
    if any(int(rows.sum()) < 2 for rows in groups):
        raise EmptyCell(
            "variance-ratio estimation needs at least two control rows per source"
        )
    if m0.spec is None:
        raise ConfigError("m0 was fit on a raw design; the variance ratio needs its spec")
    resid = table.residual(m0)
    resid2 = [resid[rows] ** 2 for rows in groups]
    if any(np.all(r2 < VAR_FLOOR) for r2 in resid2):
        raise DegenerateVariance(
            "all squared residuals below the variance floor in one source group"
        )
    v1, v0 = (float(np.mean(r2)) for r2 in resid2)
    constant = _constant_ratio(v1, v0)
    if mode == RATIO_CONSTANT:
        return constant
    spec = _variance_spec(spec, ds.k)
    names = spec.column_names(ds.covariate_names)
    coefs, scales = [], []
    for rows, r2, v in zip(groups, resid2, (v1, v0)):
        design = table.design(spec)[rows]
        fit = fit_glm(design, np.log(r2 + VAR_FLOOR), IDENTITY, spec=spec, column_names=names)
        coefs.append(fit.coef)
        scales.append(float(np.log(v / np.mean(np.exp(fit.predict(None, design))))))
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

    def fingerprint(self) -> str:
        """Short SHA-256 of every model."""
        import hashlib  # noqa: PLC0415 - under cli.run, CPython's builtin SHA-256, not OpenSSL's

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
        return h.hexdigest()[:16]


# ------------------------------ row table ------------------------------


class RowTable:
    """Per-row values of one dataset, or of a block, each computed once.

    The table holds one design per distinct covariate transform, one mask per
    row set, one prediction per fitted model, and whatever the estimators keep
    in it through ``cached``; a residual is formed afresh at each read. Passing
    one table to every call on ``ds`` shares that work between them; every
    value is the one the call computes with a table of its own. Models must not
    change after a table has read them. ``designs`` and ``propensities`` may
    pass the stores of another table on the same covariates, which then shares
    them.

    A table is on a block when it holds ``counts``, where ``counts[k, i]`` is
    how often bootstrap resample k of ``ds`` holds row i, or when ``ds`` is a
    DatasetBlock, whose dataset k holds each of its rows once. The models read
    through it are stacked (``BlockFitter``), so every prediction is (K, n),
    and an estimator's point is one per resample or dataset: sum(c*N) /
    sum(c*D) with c the resample's counts. A ratio that overflows on a block
    is left as inf, so that only the fits it reaches get a non-finite point.
    """

    def __init__(self, ds: CompositeDataset | DatasetBlock, counts: np.ndarray | None = None,
                 designs: dict | None = None, propensities: dict | None = None):
        self.ds, self.counts = ds, counts
        self._designs = {} if designs is None else designs
        self._propensities = {} if propensities is None else propensities
        self._values: dict = {}

    def cached(self, key: tuple, compute, store: dict | None = None):
        """``compute()`` on the first call with ``key``, the stored value after, kept in
        ``store`` or the table's own; a model in ``key`` hashes by identity
        (``eq=False``), and the key keeps it alive."""
        store = self._values if store is None else store
        hit = store.get(key)
        if hit is None:
            hit = store[key] = compute()
        return hit

    def design(self, spec: ModelSpec | None) -> np.ndarray | None:
        """Design of ``spec`` on every row; the family does not enter it."""
        if spec is None:
            return None
        key = (spec.terms, spec.include_intercept)
        if key not in self._designs:
            self._designs[key] = spec.design(self.ds.x)
        return self._designs[key]

    def rows(self, name: str) -> np.ndarray:
        """Row set ``name`` of ``_BUNDLE_ROWS``: (n,), or (K, n) on a DatasetBlock."""
        return self.cached(("rows", name), lambda: _BUNDLE_ROWS[name](self.ds.d, self.ds.t))

    def predict(self, model: FittedGLM) -> np.ndarray:
        return self.cached(("predict", model),
                           lambda: model.predict(self.ds.x, self.design(model.spec)))

    def residual(self, model: FittedGLM) -> np.ndarray:
        return self.ds.y - self.predict(model)

    def propensity(self, model: FittedGLM) -> tuple[np.ndarray, np.ndarray]:
        """Predictions trimmed into [TRIM_EPS, 1-TRIM_EPS], and the rows trimmed."""

        def compute():
            # the raw predictions are read here only, so they are not kept
            raw = model.predict(self.ds.x, self.design(model.spec))
            clipped = np.clip(raw, TRIM_EPS, 1.0 - TRIM_EPS)
            return clipped, clipped != raw

        return self.cached(("propensity", model), compute, self._propensities)

    def ratio(self, r: VarianceRatioModel) -> np.ndarray:
        on_block = self.counts is not None or isinstance(self.ds, DatasetBlock)
        predict = r._unchecked_r if on_block else r.predict_r
        return self.cached(("ratio", r), lambda: predict(self.ds.x, self.design(r.spec)))

    def var_trial(self, r: VarianceRatioModel) -> np.ndarray:
        # read once per table (by the efficiency formulas), so not kept
        return r.predict_var_trial(self.ds.x, self.design(r.spec))


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


# row sets of a bundle, from the (d, t) columns
_BUNDLE_ROWS = {
    "treated": lambda d, t: (d == 1) & (t == 1),
    "controls": lambda d, t: t == 0,
    "trial_controls": lambda d, t: (d == 1) & (t == 0),
    "trial": lambda d, t: d == 1,
    "external": lambda d, t: d == 0,
    "all": lambda d, t: np.ones(d.shape, dtype=bool),
}
_RATIO_GROUPS = ("trial_controls", "external")  # the variance ratio's source groups
_NO_TREATED = "no treated trial rows to fit the treated outcome model"
_NO_CONTROLS = "no control rows to fit the control outcome model"
_BOTH_ARMS = "trial needs both arms to fit the treatment propensity"
_NO_EXTERNAL = "no external rows; selection propensity is degenerate"

# A working model: its spec's key, the row set it is fit on, the dataset
# column it models, its guards (row set -> the EmptyCell message if the set
# holds no row), and for a propensity its name, since its spec must be logit.
_Model = namedtuple("_Model", "spec rows response guards logit_as", defaults=("",))

# Every working model of a bundle, in fit order; the variance ratio is fit
# between pi and trial m0. m1 also guards the pooled controls, so that data
# without any control fails on them before m1 is fit.
_BUNDLE_MODELS = {
    "m1": _Model("m1", "treated", "y", {"treated": _NO_TREATED, "controls": _NO_CONTROLS}),
    "m0_pooled": _Model("m0", "controls", "y", {"controls": _NO_CONTROLS}),
    "p": _Model("p", "trial", "t", {"treated": _BOTH_ARMS, "trial_controls": _BOTH_ARMS},
                "treatment"),
    "pi": _Model("pi", "all", "d", {"external": _NO_EXTERNAL}, "selection"),
    "m0_trial": _Model("m0", "trial_controls", "y", {"trial_controls": _NO_CONTROLS}),
}


def _rows_of(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``values``' rows in a row set of one dataset (n,), or ``values`` itself when the
    set holds every row or is a DatasetBlock's (K, n), whose 0/1 weights pick its rows."""
    return values if rows.ndim == 2 or rows.all() else values[rows]


def _columns(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each fit's ``values`` (K, n) on the rows ``_rows_of`` keeps: a C-ordered copy of
    the row set's columns, whose rows then reduce as a fit's alone would."""
    return values if rows.ndim == 2 or rows.all() else np.ascontiguousarray(values[:, rows])


def _bundle_models(ds: CompositeDataset | DatasetBlock, table: RowTable, specs: dict,
                   treated_only: bool):
    """Each working model of the bundle in fit order, once its checks pass:
    (name, row set, design, response, spec, column names), the design and the
    response being their rows (``_rows_of``) of ``table``'s design of its spec
    and of the modelled column. Without external rows pi is left out; with
    ``treated_only`` the models are the pooled m0 and pi. On a block each
    check holds when it holds for some dataset of the block."""
    names = ("m0_pooled", "pi") if treated_only else (
        "m1", "m0_pooled", "p", *(("pi",) if np.any(ds.n2 > 0) else ()), "m0_trial")
    for name in names:
        model = _BUNDLE_MODELS[name]
        spec = specs[model.spec]
        if model.logit_as and spec.family != LOGIT:
            raise ConfigError(f"{model.logit_as} propensity model must use the logit family")
        for guard, message in model.guards.items():
            if not table.rows(guard).any():
                raise EmptyCell(message)
        rows = table.rows(model.rows)
        response = _rows_of(getattr(ds, model.response), rows)
        yield (name, model.rows, _rows_of(table.design(spec), rows), response, spec,
               spec.column_names(ds.covariate_names))


def _bundle_sets(models: dict, r: VarianceRatioModel) -> dict:
    """A bundle's nuisance sets from its models by name; without "m1", the treated-only set."""
    if "m1" not in models:
        return {"treated_only": NuisanceSet(m0=models["m0_pooled"], r=VarianceRatioModel(
            RATIO_KNOWN_ONE), m0_pooled=True, pi=models["pi"])}
    shared = {"r": r, "m1": models["m1"], "p": models["p"], "pi": models.get("pi")}
    return {
        "pooled": NuisanceSet(m0=models["m0_pooled"], m0_pooled=True, **shared),
        "unpooled": NuisanceSet(m0=models["m0_trial"], m0_pooled=False, **shared),
    }


def fit_bundle(
    ds: CompositeDataset, specs: dict, ratio_mode: str, treated_only: bool = False
) -> tuple[dict, RowTable]:
    """Fit every working model once: the nuisance sets and their row table.

    ``specs`` maps "m1", "m0", "p", "pi" and "variance" to model specs. The
    "pooled" set fits m0 on every control and the "unpooled" set on trial
    controls only; they share m1, p, pi and the variance ratio, which is fit
    on the pooled m0's residuals. Without external rows pi is absent and the
    ratio is known_one: no estimator that runs on such data reads it. With
    ``treated_only`` (a trial without a control arm) there is one
    "treated_only" set of the pooled m0 and pi; its ratio is known_one
    because the ratio cancels from that estimator. Every fit reads its rows
    of the returned table's design of its spec, so each design is built once
    and every prediction shares it.
    """
    table = RowTable(ds)
    models, r = {}, None
    for name, _, design, response, spec, names in _bundle_models(ds, table, specs, treated_only):
        if name == "m0_trial":
            # the ratio is fit before trial m0, whose guard cannot fail once p's has passed
            mode = ratio_mode if ds.n2 > 0 else RATIO_KNOWN_ONE
            r = fit_variance_ratio(ds, models["m0_pooled"], mode, specs["variance"], table)
        models[name] = fit_glm(design, response, spec.family, spec=spec, column_names=names)
    return _bundle_sets(models, r), table


# ------------------------------- blocks --------------------------------

# A block stacks K fits of one working model. Its design is shared by the
# fits, (n, p) for the resamples of one dataset, or each fit's own, (K, n, p)
# for a DatasetBlock; the fits' responses are then (n,) or (K, n), and their
# weights are always (K, n). Each product is a batched matmul, one per fit, so
# a fit's row has the bits of a block of one on either design (row-stable).


def _at(index: np.ndarray, *arrays: np.ndarray) -> tuple:
    """Per-fit ``arrays`` at the fits ``index`` (a mask, or sorted positions)
    selects; the arrays themselves when it selects every fit."""
    every = index.all() if index.dtype == bool else index.size == len(arrays[0])
    return arrays if every else tuple(a[index] for a in arrays)


def _fits(index: np.ndarray, design: np.ndarray, *arrays: np.ndarray) -> tuple:
    """``design`` and its fits' ``arrays`` at the fits ``index`` selects (``_at``),
    or as they are when they are shared."""
    return (design, *arrays) if design.ndim == 2 else _at(index, design, *arrays)


def _xt(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """X'v for each fit's row of ``values`` (K, n): (K, p)."""
    return (values[:, None, :] @ design)[:, 0]


def _gram(design: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """X'WX for each row of ``weights``: (K, p, p)."""
    k, p = weights.shape[0], design.shape[-1]
    gram = np.empty((k, p, p))
    # one column product at a time keeps the extra memory at one row count
    for a in range(p):
        if design.ndim == 3:
            gram[:, a] = _xt(design, weights * design[..., a])
            continue
        for b in range(a, p):
            pair = design[:, a] * design[:, b]
            gram[:, a, b] = gram[:, b, a] = _xt(pair[:, None], weights)[:, 0]
    return gram


def _guarded_gram(design: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weighted Gram of each row of ``weights``, and where a stacked fit may
    stand in for ``fit_glm``: a Gram matrix with condition number at most
    GRAM_COND_MAX. A design ``fit_glm`` calls rank deficient (fewer weighted
    rows than coefficients among them) has a smallest eigenvalue of zero or of
    rounding size, far past that bound."""
    gram = _gram(design, weights)
    eig = np.linalg.eigvalsh(gram)
    return gram, (eig[:, 0] > 0) & (eig[:, -1] <= GRAM_COND_MAX * eig[:, 0])


def _stacked_wls(design: np.ndarray, weights: np.ndarray, response: np.ndarray,
                 guarded: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares for each row of ``weights``, from the normal equations.

    ``response`` is one vector for every row of ``weights`` or one row each,
    and ``guarded`` is ``_guarded_gram(design, weights)``. Returns the
    coefficients and where ``_guarded_gram`` lets them stand in for ``fit_glm``.
    """
    gram, ok = guarded
    coef = np.zeros((weights.shape[0], design.shape[-1]))
    if ok.any():
        rhs = _xt(_fits(ok, design)[0], (weights * response)[ok])
        coef[ok] = np.linalg.solve(gram[ok], rhs[:, :, None])[:, :, 0]
    return coef, ok


# how a stacked logit fit ends
_CONVERGED, _SINGULAR, _DIVERGED, _UNCONVERGED, _ONE_CLASS = range(5)


def _stacked_logit(design: np.ndarray, weights: np.ndarray, response: np.ndarray,
                   run: np.ndarray, gram: np.ndarray):
    """Logit IRLS for each fit (row of ``weights``) that ``run`` marks: coef,
    iterations, loglik and a status per fit. ``gram`` is ``_gram(design, weights)``,
    and the first information matrix is 0.25 times its rows: w m (1 - m) at m = 1/2
    is w/4, and a power of two scales a Gram's every product and sum exactly.

    A fit whose response holds one class under its weights has no maximum and
    is not run (_ONE_CLASS). Every other fit starts at zero and stops once its
    score sup-norm is at most GLM_TOL, or once it has taken a whole Newton
    step whose decrement s'H^-1 s is at most DECREMENT_TOL (1 + |loglik|)
    (_CONVERGED; Boyd & Vandenberghe, Convex Optimization, 9.5), a test that
    holds at any row count, where the sup-norm one grows with the sum. It
    halves a step that lowers its log-likelihood by more than 1e-12
    (1 + |loglik|), past that sum's rounding, and fails past SEPARATION_BOUND
    (_DIVERGED) or after MAX_ITER iterations (_UNCONVERGED, as does a fit not
    run). A singular information matrix fails every fit still iterating
    (_SINGULAR): the batched solve does not say whose.
    """
    k, p = weights.shape[0], design.shape[-1]

    def fitted(eta, w, y):
        # expit(eta) and the log-likelihood, log(1 + exp(eta)) taken from
        # expit's exp(-|eta|) (np.logaddexp is several times slower); the terms
        # are built in place, which keeps a block's temporaries few
        mu, e = _expit_parts(eta)
        terms = y * eta
        terms -= np.maximum(eta, 0.0)
        terms -= np.log1p(e, out=e)
        terms *= w
        return mu, np.sum(terms, axis=-1)

    coef = np.zeros((k, p))
    # at eta = 0 each term of the log-likelihood is exactly -log(2) w
    loglik = np.sum(weights * -np.log1p(1.0), axis=-1)
    iterations = np.zeros(k, dtype=int)
    status = np.full(k, _UNCONVERGED)
    one_class = run & ~((np.sum(weights * response, axis=-1) > 0)
                        & (np.sum(weights * (1.0 - response), axis=-1) > 0))
    status[one_class] = _ONE_CLASS
    # the batch of fits still iterating, narrowed (copied) only when one leaves it
    rows = np.flatnonzero(run & ~one_class)
    (w,) = _at(rows, weights)
    m = np.full(w.shape, 0.5)
    x, y = _fits(rows, design, response)
    for iteration in range(1, MAX_ITER + 1):
        # w (y - m) and w m (1 - m) in the operand order of the expressions,
        # with one temporary each
        residual = y - m
        residual *= w
        score = _xt(x, residual)
        done = np.max(np.abs(score), axis=1) <= GLM_TOL
        iterations[rows[done]] = iteration
        status[rows[done]] = _CONVERGED
        rows, w, m, score = _at(~done, rows, w, m, score)
        x, y = _fits(~done, x, y)
        if rows.size == 0:
            break
        try:
            if iteration == 1:
                info = 0.25 * gram[rows]
            else:
                info = w * m
                info *= 1.0 - m
                info = _gram(x, info)
            step = np.linalg.solve(info, score[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            status[rows] = _SINGULAR
            break
        scale = 1.0 + np.abs(loglik[rows])
        floor = loglik[rows] - 1e-12 * scale
        candidate = coef[rows] + step
        new_mu, new_loglik = fitted(_eta(x, candidate), w, y)
        worse = new_loglik < floor
        # a step that is halved is no evidence of convergence
        settled = ~worse & (np.sum(score * step, axis=1) <= DECREMENT_TOL * scale)
        for _ in range(MAX_HALVINGS):
            if not worse.any():
                break
            step[worse] *= 0.5
            candidate[worse] = coef[rows[worse]] + step[worse]
            xw, yw = _fits(worse, x, y)
            new_mu[worse], new_loglik[worse] = fitted(_eta(xw, candidate[worse]), w[worse], yw)
            worse &= new_loglik < floor
        coef[rows], loglik[rows], m = candidate, new_loglik, new_mu
        diverged = np.max(np.abs(candidate), axis=1) > SEPARATION_BOUND
        status[rows[diverged]] = _DIVERGED
        settled &= ~diverged
        iterations[rows[settled]] = iteration
        status[rows[settled]] = _CONVERGED
        going = ~(diverged | settled)
        rows, w, m = _at(going, rows, w, m)
        x, y = _fits(going, x, y)
    return coef, iterations, loglik, status


class BlockFitter:
    """``fit_bundle`` for a block at a time: bootstrap resamples of ``base``, or
    the datasets of ``base`` when it is a DatasetBlock.

    ``solve(counts)`` takes one row of frequency counts on ``base``'s rows
    per resample (``solve()`` takes each dataset of a DatasetBlock once) and
    fits every working model of the bundle for all of them at once: the
    identity-family models (m1, both m0, and the variance ratio with its two
    log-variance fits and their calibration) from weighted normal equations,
    the logit ones (p, pi, and binary-outcome m1 and m0) by the weighted IRLS
    ``fit_glm`` runs on one fit. A resample weights the rows of a model's row
    set by its counts, a dataset of a block its own row set's rows by 1 and
    every other row by 0; a solve takes each row set's weights once. It
    returns ``ok``, where the block stands in for ``fit_bundle``, and the
    block's bundle: nuisance sets of stacked models with the block's
    ``RowTable``, on which each estimator gives one point per resample or
    dataset. The fitter derives once what its solves read of ``base``: one
    design per spec, each row set, and the rows (``_rows_of``) of these and of
    the modelled column that each fit and each ratio source group reads.
    Every stacked product gives a fit's row as a block of one gives it, so a
    resample's or dataset's values do not depend on the block it is in.

    A resample or dataset with ``ok`` False is left to ``fit_bundle`` on its
    own rows, so each failure keeps its type, message and count: a weighted
    Gram matrix beyond GRAM_COND_MAX (as with fewer weighted rows than
    coefficients), a logit response of one class (an empty arm or source), a
    logit fit that separates or does not converge, fewer than two rows of a
    source for the ratio, or every squared residual of a source under
    VAR_FLOOR. Where a design holds a non-finite value, or ``base`` fails a
    check that ``fit_bundle`` makes before a model's fit (a propensity spec
    that is not logit, an empty arm or source in every dataset) or a ratio
    setting it raises on (an unknown mode, a variance spec that is not of the
    identity family), every one is left to ``fit_bundle``.

    ``solve(base=twin)`` fits a twin of a DatasetBlock ``base``: a block of the
    same covariates, d and t, with its own y. The solves without counts share
    one store (``RowTable.cached``) of what depends on nothing else, made by the
    first of them: the p and pi fits with their ``ok`` masks, the clipped p and
    pi predictions with their trims, and each guarded Gram. A
    ``solve(counts)`` has a store of its own, so trial m0 and the trial
    controls' log-variance fit still share one Gram.
    """

    def __init__(self, base: CompositeDataset | DatasetBlock, specs: dict, ratio_mode: str,
                 treated_only: bool = False):
        self.base = base
        self._table = RowTable(base)
        self._shared: dict = {}  # what the solves without counts share
        self._models: list | None = None
        # the ratio fit_bundle fits: known_one, or constant or loglinear with its spec
        self._ratio = RATIO_KNOWN_ONE if treated_only or not np.any(base.n2 > 0) else ratio_mode
        try:
            models = list(_bundle_models(base, self._table, specs, treated_only))
            self._variance = (_variance_spec(specs["variance"], base.k)
                              if self._ratio == RATIO_LOGLINEAR else None)
        except (ConfigError, EmptyCell):
            return  # every resample is fit alone, and fails as fit_bundle does
        # each ratio source group's rows of the variance design, if it has one
        design = self._table.design(self._variance)
        self._groups = [(name, None if design is None else _rows_of(design, self._table.rows(name)))
                        for name in (_RATIO_GROUPS if self._ratio != RATIO_KNOWN_ONE else ())]
        # a non-finite design (each distinct one checked once) leaves every resample
        # to its own fit, as does a ratio mode fit_bundle raises on
        if self._ratio in RATIO_MODES and all(
                np.isfinite(values).all() for values in self._table._designs.values()):
            self._models = models

    def solve(self, counts: np.ndarray | None = None,
              base: CompositeDataset | DatasetBlock | None = None
              ) -> tuple[np.ndarray, tuple[dict, RowTable] | None]:
        """Where the block stands in for ``fit_bundle``, and the block's bundle;
        ``base`` may pass a twin of the fitter's own DatasetBlock."""
        base = self.base if base is None else base
        counts = None if counts is None else np.asarray(counts, dtype=float)
        ok = np.full(len(base.y if counts is None else counts), self._models is not None)
        if not ok.any():
            return ok, None
        shared = self._shared if counts is None else {}
        table = RowTable(base, counts, self._table._designs, shared)
        models = {}

        def weigh(row_set: str) -> np.ndarray:
            # each fit's weight on the rows of ``row_set`` (``_rows_of``): a resample's
            # counts, or 1 on each dataset's own rows of a DatasetBlock
            rows = self._table.rows(row_set)
            return rows.astype(float) if counts is None else _columns(counts, rows)

        def guarded(spec: ModelSpec, row_set: str, design, weights) -> tuple:
            return table.cached(("gram", spec.terms, spec.include_intercept, row_set),
                                lambda: _guarded_gram(design, weights), shared)

        def fit(row_set, design, response, spec, names) -> tuple[FittedGLM, np.ndarray]:
            weights = weigh(row_set)
            wsum = weights.sum(axis=1)
            gram = guarded(spec, row_set, design, weights)
            if spec.family == IDENTITY:
                coef, good = _stacked_wls(design, weights, response, gram)
                rss = (weights * (response - _eta(design, coef)) ** 2).sum(axis=1)
                iterations, loglik = 1, _gaussian_loglik(rss, wsum)
            else:
                # a fit past the Gram guards
                coef, iterations, loglik, status = _stacked_logit(
                    design, weights, response, gram[1], gram[0])
                good = status == _CONVERGED
            return FittedGLM(spec.family, coef, iterations, loglik, wsum.astype(int), spec,
                             names), good

        # a fit cleared from ``ok`` may divide by a zero count or overflow;
        # its values are never read
        with np.errstate(all="ignore"):
            for name, row_set, design, response, spec, names in self._models:
                if _BUNDLE_MODELS[name].response != "y":  # a fit a twin shares
                    models[name], good = table.cached(("fit", name), lambda: fit(
                        row_set, design, response, spec, names), shared)
                else:
                    # a twin's own y; a block's weights pick its rows
                    y = response if base is self.base else base.y
                    models[name], good = fit(row_set, design, y, spec, names)
                ok &= good
            r = self._solve_ratio(table, models["m0_pooled"], ok, weigh, guarded)
        return ok, (_bundle_sets(models, r), table)

    def _solve_ratio(self, table, m0: FittedGLM, ok, weigh, guarded) -> VarianceRatioModel:
        """The stacked variance ratio from ``weigh`` and ``guarded``; clears ``ok`` where it fails.

        Both source groups read one squared residual of the table's m0 on every
        row (the table's y, a twin's own) and one log-variance response, each
        group its columns (``_columns``) of them."""
        if self._ratio == RATIO_KNOWN_ONE:
            return VarianceRatioModel(RATIO_KNOWN_ONE)
        spec, v, coefs, scales = self._variance, [], [], []
        squares = table.residual(m0) ** 2
        logs = None if spec is None else np.log(squares + VAR_FLOOR)
        for name, design in self._groups:
            weights, rows = weigh(name), self._table.rows(name)
            r2 = _columns(squares, rows)
            count = weights.sum(axis=1)
            ok &= (count >= 2) & ~np.all((r2 < VAR_FLOOR) | (weights == 0), axis=1)
            v.append((weights * r2).sum(axis=1) / count)
            if spec is not None:
                coef, good = _stacked_wls(design, weights, _columns(logs, rows),
                                          guarded(spec, name, design, weights))
                ok &= good
                smoothed = (weights * np.exp(_eta(design, coef))).sum(axis=1) / count
                coefs.append(coef)
                scales.append(np.log(v[-1] / smoothed))
        constant = _constant_ratio(v[0], v[1])
        return constant if spec is None else _loglinear_ratio(spec, coefs, scales, constant)
