"""Independent reference computations the test suite checks against.

Nothing here reuses the package's fitting or estimation code paths: GLMs
are re-solved by plain Newton iteration or normal equations, the
discrete-data estimators are evaluated by direct enumeration over
covariate cells with closed-form cell statistics, and population effects
are integrated by Monte Carlo draws.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

import numpy as np

TRIM = 1e-3
DEN_FLOOR = 1e-6


# ------------------------------ GLM oracles ----------------------------


def wls_normal_equations(design: np.ndarray, response: np.ndarray,
                         weights: np.ndarray | None = None) -> np.ndarray:
    w = np.ones(len(response)) if weights is None else np.asarray(weights, float)
    xtwx = design.T @ (design * w[:, None])
    xtwy = design.T @ (w * response)
    return np.linalg.solve(xtwx, xtwy)


def exact_wls(design: np.ndarray, weights: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Weighted least squares solved exactly: the normal equations in rational
    arithmetic (every float is a Fraction exactly), then each coefficient
    rounded once to the nearest float. A yardstick for the float solvers."""
    x = [[Fraction(float(v)) for v in row] for row in design]
    w = [Fraction(float(v)) for v in weights]
    y = [Fraction(float(v)) for v in response]
    rows = [i for i, wi in enumerate(w) if wi]
    p = len(x[0])
    # the augmented system [X'WX | X'Wy], reduced by Gauss-Jordan elimination
    system = [[sum(w[i] * x[i][a] * x[i][b] for i in rows) for b in range(p)]
              + [sum(w[i] * x[i][a] * y[i] for i in rows)] for a in range(p)]
    for col in range(p):
        pivot = next(r for r in range(col, p) if system[r][col])
        system[col], system[pivot] = system[pivot], system[col]
        for r in range(p):
            if r != col and system[r][col]:
                f = system[r][col] / system[col][col]
                system[r] = [a - f * b for a, b in zip(system[r], system[col])]
    return np.array([float(system[a][p] / system[a][a]) for a in range(p)])


def newton_logit(design: np.ndarray, response: np.ndarray,
                 weights: np.ndarray | None = None,
                 tol: float = 1e-12, max_iter: int = 200) -> np.ndarray:
    """Plain Newton-Raphson on the analytic score and Hessian."""
    w = np.ones(len(response)) if weights is None else np.asarray(weights, float)
    beta = np.zeros(design.shape[1])
    for _ in range(max_iter):
        eta = design @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        score = design.T @ (w * (response - mu))
        if np.max(np.abs(score)) < tol:
            break
        hess = design.T @ (design * (w * mu * (1 - mu))[:, None])
        beta = beta + np.linalg.solve(hess, score)
    return beta


# The single-fit logit IRLS that ``nuisance.fit_glm`` ran before its logit
# fit became the stacked loop at K = 1, frozen with its constants, its
# expit and its np.logaddexp log-likelihood. ``outcome`` is "converged",
# "SeparationDetected" or "NonConvergence", with the error's message and,
# for a divergence, its max_coef; ``halvings`` counts the step-halvings made.
# One rule has moved since on purpose: the stacked loop calls a step worse
# only when the log-likelihood falls by more than 1e-12 * (1 + |loglik|),
# where this loop's absolute 1e-12 sits below the rounding of a large fit's
# log-likelihood; the two agree wherever |loglik| stays small. Two rules were
# added to both since: a response of one class under its weights fails at
# once, and a fit also ends converged after a whole (unhalved) Newton step
# whose decrement score . step is at most IRLS_DECREMENT_TOL (1 + |loglik|).
IRLSOutcome = namedtuple("IRLSOutcome",
                         "outcome message coef iterations loglik max_coef halvings")

IRLS_TOL = 1e-10
IRLS_DECREMENT_TOL = 1e-20
IRLS_MAX_ITER = 100
IRLS_MAX_HALVINGS = 40
IRLS_SEPARATION_BOUND = 30.0


def _irls_expit(eta):
    e = np.exp(-np.abs(eta))
    return np.exp(np.minimum(eta, 0.0)) / (1.0 + e)


def _irls_loglik(eta, response, weights) -> float:
    terms = response * eta - np.logaddexp(0.0, eta)
    return float(np.sum(terms if weights is None else weights * terms))


def irls_logit(design: np.ndarray, response: np.ndarray,
               weights: np.ndarray | None = None) -> IRLSOutcome:
    design = np.atleast_2d(np.asarray(design, dtype=float))
    response = np.asarray(response, dtype=float)
    n, p = design.shape
    w = None if weights is None else np.asarray(weights, dtype=float)

    ones = np.sum(response if w is None else w * response)
    zeros = np.sum(1.0 - response if w is None else w * (1.0 - response))
    if not (ones > 0 and zeros > 0):
        return IRLSOutcome("SeparationDetected",
                           "response holds one class; the logit likelihood has no maximum",
                           None, 0, None, None, 0)
    coef = np.zeros(p)
    eta = design @ coef
    loglik = _irls_loglik(eta, response, w)
    total_halvings = 0
    for iteration in range(1, IRLS_MAX_ITER + 1):
        mu = _irls_expit(eta)
        resid = response - mu
        score = design.T @ (resid if w is None else w * resid)
        score_norm = float(np.max(np.abs(score)))
        if score_norm <= IRLS_TOL:
            return IRLSOutcome("converged", "", coef, iteration, loglik, None, total_halvings)
        info_w = mu * (1.0 - mu) if w is None else w * mu * (1.0 - mu)
        hessian = design.T @ (design * info_w[:, None])
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            return IRLSOutcome("SeparationDetected",
                               "singular information matrix; fitted probabilities degenerate",
                               None, iteration, None, None, total_halvings)
        decrement = float(score @ step)
        candidate = coef + step
        candidate_eta = design @ candidate
        new_loglik = _irls_loglik(candidate_eta, response, w)
        halvings = 0
        while new_loglik < loglik - 1e-12 and halvings < IRLS_MAX_HALVINGS:
            step *= 0.5
            candidate = coef + step
            candidate_eta = design @ candidate
            new_loglik = _irls_loglik(candidate_eta, response, w)
            halvings += 1
        total_halvings += halvings
        settled = halvings == 0 and decrement <= IRLS_DECREMENT_TOL * (1.0 + abs(loglik))
        coef, eta, loglik = candidate, candidate_eta, new_loglik
        if float(np.max(np.abs(coef))) > IRLS_SEPARATION_BOUND:
            return IRLSOutcome(
                "SeparationDetected",
                "coefficients diverging on the logit scale; data likely separated",
                coef, iteration, loglik, float(np.max(np.abs(coef))), total_halvings)
        if settled:
            return IRLSOutcome("converged", "", coef, iteration, loglik, None, total_halvings)
    return IRLSOutcome("NonConvergence", f"IRLS did not converge in {IRLS_MAX_ITER} iterations",
                       coef, IRLS_MAX_ITER, loglik, None, total_halvings)


# --------------------------- discrete-cell oracle ----------------------


class CellOracle:
    """Exact nonparametric plug-in on discrete covariates.

    All nuisance values are closed-form cell statistics (cell means and
    frequencies). Estimators and second moments are evaluated by direct
    formula arithmetic on the raw arrays; no model fitting is involved.
    The variance ratio is fixed at one (full) or zero (comparators).
    """

    def __init__(self, y, x, t, d):
        self.y = np.asarray(y, float)
        self.x = np.atleast_2d(np.asarray(x, float))
        self.t = np.asarray(t, int)
        self.d = np.asarray(d, int)
        self.n = self.y.shape[0]
        self.q = self.d.mean()
        cells, inverse = np.unique(self.x, axis=0, return_inverse=True)
        self.cell_of_row = inverse
        self.n_cells = cells.shape[0]
        self.m1 = np.zeros(self.n_cells)
        self.m0_pooled = np.zeros(self.n_cells)
        self.m0_trial = np.zeros(self.n_cells)
        self.p = np.zeros(self.n_cells)
        self.pi = np.zeros(self.n_cells)
        for c in range(self.n_cells):
            rows = inverse == c
            d_c = self.d[rows]
            t_c = self.t[rows]
            y_c = self.y[rows]
            self.pi[c] = d_c.mean()
            trial = d_c == 1
            self.p[c] = t_c[trial].mean()
            self.m1[c] = y_c[trial & (t_c == 1)].mean()
            self.m0_pooled[c] = y_c[t_c == 0].mean()
            self.m0_trial[c] = y_c[trial & (t_c == 0)].mean()
        self.pi = np.clip(self.pi, TRIM, 1 - TRIM)
        self.p = np.clip(self.p, TRIM, 1 - TRIM)

    # ------------------------ per-row ingredients ----------------------

    def _rows(self, pooled_m0: bool, r_value: float):
        c = self.cell_of_row
        m1 = self.m1[c]
        m0 = (self.m0_pooled if pooled_m0 else self.m0_trial)[c]
        p = self.p[c]
        pi = self.pi[c]
        r = np.full(self.n, r_value)
        numer = self.d * (1 - self.t) * pi + (1 - self.d) * pi * r
        denom = np.maximum(pi * (1 - p) + (1 - pi) * r, DEN_FLOOR)
        w = numer / denom
        resid0 = self.y - m0
        resid1 = self.y - m1
        core = self.d * self.t * resid1 / p - w * resid0
        return m1 - m0, core, pi, p, r, resid0, resid1

    # ----------------------------- estimates ---------------------------

    def tau_trial(self) -> float:
        trial = self.d == 1
        c = self.cell_of_row[trial]
        y = self.y[trial]
        t = self.t[trial]
        delta = self.m1[c] - self.m0_trial[c]
        rows = delta + t * (y - self.m1[c]) / self.p[c] \
            - (1 - t) * (y - self.m0_trial[c]) / (1 - self.p[c])
        return float(rows.mean())

    def tau_full(self) -> float:
        delta, core, *_ = self._rows(pooled_m0=True, r_value=1.0)
        return float(np.mean(self.d * delta + core) / self.q)

    def psi(self, full: bool = True) -> float:
        delta, core, pi, *_ = self._rows(pooled_m0=full, r_value=1.0 if full else 0.0)
        return float(np.mean(delta + core / pi))

    def xi(self, full: bool = True) -> float:
        delta, core, pi, *_ = self._rows(pooled_m0=full, r_value=1.0 if full else 0.0)
        rows = (1 - self.d) * delta + core * (1 - pi) / pi
        return float(np.mean(rows) / (1 - self.q))

    # ------------------------------ bounds ------------------------------

    def bound_tau_full(self) -> float:
        tau = self.tau_full()
        delta, core, *_ = self._rows(pooled_m0=True, r_value=1.0)
        values = (self.d * (delta - tau) + core) / self.q
        return float(np.mean(values**2))

    def bound_tau_trial(self) -> float:
        tau = self.tau_trial()
        c = self.cell_of_row
        delta = self.m1[c] - self.m0_trial[c]
        p = self.p[c]
        resid1 = self.y - self.m1[c]
        resid0 = self.y - self.m0_trial[c]
        values = (self.d / self.q) * (
            delta - tau + self.t * resid1 / p - (1 - self.t) * resid0 / (1 - p)
        )
        return float(np.mean(values**2))

    def bound_psi(self, full: bool = True) -> float:
        point = self.psi(full)
        delta, core, pi, *_ = self._rows(pooled_m0=full, r_value=1.0 if full else 0.0)
        values = delta - point + core / pi
        return float(np.mean(values**2))

    def bound_xi(self, full: bool = True) -> float:
        point = self.xi(full)
        delta, core, pi, *_ = self._rows(pooled_m0=full, r_value=1.0 if full else 0.0)
        values = ((1 - self.d) * (delta - point) + core * (1 - pi) / pi) / (1 - self.q)
        return float(np.mean(values**2))

    def lambda_bias(self, b_values: np.ndarray, r_value: float = 1.0) -> float:
        c = self.cell_of_row
        pi = self.pi[c]
        p = self.p[c]
        denom = np.maximum(pi * (1 - p) + (1 - pi) * r_value, DEN_FLOOR)
        weight = (pi / self.q) * ((1 - pi) * r_value / denom)
        return float(np.mean(weight * np.asarray(b_values, float)))


# -------------------- exact population-gap oracle ----------------------


class PopulationGapOracle:
    """Second-moment gaps on an explicit discrete population.

    The population lives on a handful of covariate cells; within each cell
    control outcomes take two equally likely values around the cell mean so
    conditional variances are exact. All bounds are computed by enumerating
    E[IF^2] with the true nuisances.
    """

    def __init__(self, cell_prob, pi, p, m0, m1, s1, s0, q=None):
        self.cell_prob = np.asarray(cell_prob, float)
        self.pi = np.asarray(pi, float)
        self.p = np.asarray(p, float)
        self.m0 = np.asarray(m0, float)
        self.m1 = np.asarray(m1, float)
        self.v1 = np.asarray(s1, float) ** 2
        self.v0 = np.asarray(s0, float) ** 2
        self.q = float(np.sum(self.cell_prob * self.pi)) if q is None else q
        self.r = self.v1 / self.v0

    def tau(self) -> float:
        return float(np.sum(self.cell_prob * self.pi * (self.m1 - self.m0)) / self.q)

    def bound_tau_full(self) -> float:
        """E[IF^2] for the borrowing estimator, enumerated cell by cell."""
        tau = self.tau()
        total = 0.0
        for c in range(len(self.cell_prob)):
            pc, pic, p_c = self.cell_prob[c], self.pi[c], self.p[c]
            delta = self.m1[c] - self.m0[c]
            den = pic * (1 - p_c) + (1 - pic) * self.r[c]
            # (d=1, t=1): IF = [delta - tau + R1/p] / q, E[R1^2] within cell
            w11 = pc * pic * p_c
            ev11 = (delta - tau) ** 2 + self.v1[c] / p_c**2
            # (d=1, t=0): IF = [delta - tau - W R0] / q with W = pi/den
            w10 = pc * pic * (1 - p_c)
            W10 = pic / den
            ev10 = (delta - tau) ** 2 + W10**2 * self.v1[c]
            # (d=0): IF = -W R0 / q with W = pi r / den
            w00 = pc * (1 - pic)
            W00 = pic * self.r[c] / den
            ev00 = W00**2 * self.v0[c]
            total += w11 * ev11 + w10 * ev10 + w00 * ev00
        return total / self.q**2

    def bound_tau_trial(self) -> float:
        tau = self.tau()
        total = 0.0
        for c in range(len(self.cell_prob)):
            pc, pic, p_c = self.cell_prob[c], self.pi[c], self.p[c]
            delta = self.m1[c] - self.m0[c]
            w11 = pc * pic * p_c
            ev11 = (delta - tau) ** 2 + self.v1[c] / p_c**2
            w10 = pc * pic * (1 - p_c)
            ev10 = (delta - tau) ** 2 + self.v1[c] / (1 - p_c) ** 2
            total += w11 * ev11 + w10 * ev10
        return total / self.q**2

    def gain_formula(self) -> float:
        """Displayed analytic gap between the two tau bounds."""
        inner = 1.0 / (1 - self.p) - 1.0 / (1 - self.p + (1 - self.pi) / self.pi * self.r)
        cond = self.cell_prob * self.pi / self.q  # pr(cell | trial)
        return float(np.sum(cond * inner * self.v1 / self.q))

    def psi_gap_formula(self) -> float:
        base = self.pi * (1 - self.p)
        inner = 1.0 / base - 1.0 / (base + (1 - self.pi) * self.r)
        return float(np.sum(self.cell_prob * inner * self.v1))

    def xi_gap_formula(self) -> float:
        base = self.pi * (1 - self.p)
        inner = (1 - self.pi) ** 2 / base - (1 - self.pi) ** 2 / (base + (1 - self.pi) * self.r)
        return float(np.sum(self.cell_prob * inner * self.v1) / (1 - self.q) ** 2)

    def bound_psi(self, full: bool = True) -> float:
        psi = float(np.sum(self.cell_prob * (self.m1 - self.m0)))
        r = self.r if full else np.zeros_like(self.r)
        total = 0.0
        for c in range(len(self.cell_prob)):
            pc, pic, p_c = self.cell_prob[c], self.pi[c], self.p[c]
            delta = self.m1[c] - self.m0[c]
            den = pic * (1 - p_c) + (1 - pic) * r[c]
            w11 = pc * pic * p_c
            ev11 = (delta - psi) ** 2 + self.v1[c] / (pic * p_c) ** 2
            w10 = pc * pic * (1 - p_c)
            W10 = pic / den
            ev10 = (delta - psi) ** 2 + (W10 / pic) ** 2 * self.v1[c]
            w00 = pc * (1 - pic)
            W00 = pic * r[c] / den
            ev00 = (delta - psi) ** 2 + (W00 / pic) ** 2 * self.v0[c]
            total += w11 * ev11 + w10 * ev10 + w00 * ev00
        return total


# ----------------------- per-estimator references ----------------------


def reference_estimator(y, t, d, m1, m0, p, pi, r, estimand: str, method: str):
    """(point, influence values) from each estimator's own expressions.

    These are the seven (estimand, method) formulas written out one by one,
    each as a mean scaled by q or 1 - q, where the package evaluates all of
    them as one ratio of means. ``m1``, ``m0``, ``p``, ``pi`` and ``r`` are
    raw predictions on every row; ``m1`` and ``p`` may be None for the
    treated-only estimator, and the baseline methods ignore ``r``.
    """
    y, t, d = (np.asarray(a, float) for a in (y, t, d))
    q = float(d.mean())
    pi = None if pi is None else np.clip(pi, TRIM, 1.0 - TRIM)
    if method == "treated_only":
        resid0 = y - m0
        rows = d * resid0 - (1 - d) * (pi / (1.0 - pi)) * resid0
        point = float(np.mean(rows) / q)
        return point, (d * (resid0 - point) - (1 - d) * (pi / (1.0 - pi)) * resid0) / q
    p = np.maximum(np.clip(p, TRIM, 1.0 - TRIM), DEN_FLOOR)
    resid1 = y - m1
    resid0 = y - m0
    if method == "trial_based":
        trial = d == 1
        rows = (m1 - m0) + t * resid1 / p - (1 - t) * resid0 / (1.0 - p)
        point = float(np.mean(rows[trial]))
        return point, (d / q) * ((m1 - m0) - point + t * resid1 / p - (1 - t) * resid0 / (1.0 - p))
    r = np.zeros_like(y) if method == "baseline" else r
    weight = (d * (1 - t) * pi + (1 - d) * pi * r) / np.maximum(
        pi * (1.0 - p) + (1.0 - pi) * r, DEN_FLOOR
    )
    delta = m1 - m0
    core = d * t * resid1 / p - weight * resid0
    if estimand == "tau":
        point = float(np.mean(d * delta + core) / q)
        return point, (d * (delta - point) + core) / q
    if estimand == "psi":
        point = float(np.mean(delta + core / pi))
        return point, delta - point + core / pi
    point = float(np.mean((1 - d) * delta + core * (1.0 - pi) / pi) / (1.0 - q))
    return point, ((1 - d) * (delta - point) + core * (1.0 - pi) / pi) / (1.0 - q)


# ------------------------ population-effect oracle ---------------------


def mc_population_effects(selection, effect, draws: int, seed: int = 20_240_601,
                          chunks: int = 20) -> dict:
    """tau, psi, xi and q over standard normal covariate pairs, by Monte Carlo.

    ``selection(x)`` and ``effect(x)`` give the true selection probability
    and treatment effect of each row of an (m, 2) draw. Conditioning on the
    data source weights by the selection probability instead of drawing it.
    Each estimate comes with ``se_<name>``, the spread of its chunk means
    over ``sqrt(chunks)``.
    """
    size = draws // chunks
    sums = np.zeros(4)  # pi*g, (1-pi)*g, g, pi
    per_chunk = np.zeros((chunks, 4))
    for c in range(chunks):
        x = np.random.default_rng([seed, c]).standard_normal((size, 2))
        pi, g = selection(x), effect(x)
        chunk = np.array([np.sum(pi * g), np.sum((1 - pi) * g), np.sum(g), np.sum(pi)])
        sums += chunk
        per_chunk[c] = [chunk[0] / chunk[3], chunk[2] / size,
                        chunk[1] / (size - chunk[3]), chunk[3] / size]
    total = chunks * size
    values = [sums[0] / sums[3], sums[2] / total, sums[1] / (total - sums[3]), sums[3] / total]
    ses = per_chunk.std(axis=0, ddof=1) / np.sqrt(chunks)
    out = dict(zip(("tau", "psi", "xi", "q"), map(float, values)))
    out.update({f"se_{name}": float(se) for name, se in zip(("tau", "psi", "xi", "q"), ses)})
    return out
