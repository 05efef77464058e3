#!/usr/bin/env python3
"""The error of each golden estimate point against a reference refit of its input.

    PYTHONPATH=src python scripts/yardstick.py

Every IF ``estimate`` golden of ``make_golden.GOLDENS`` is read with its
input, and each working model of that input is refit without
``ecborrow.nuisance``'s solvers:

- identity fits (m1, the pooled and trial-only m0, and the two log-variance
  fits of the loglinear ratio) by ``tests/oracles.exact_wls``, in rational
  arithmetic with each coefficient rounded once;
- logit fits (p, pi, and m1 and m0 of a binary outcome) by LOGIT_STEPS plain
  Newton steps from zero in ``np.longdouble``, each solved by elimination in
  ``np.longdouble``, since ``np.linalg`` does not take it;
- the constant ratio from ``math.fsum`` means of the squared pooled-m0
  residuals of the trial controls and the external controls, and the loglinear
  one as exp of the difference of the two log-variance fits on
  log(residual^2 + VAR_FLOOR). The calibration scales of those fits enter only
  the efficiency formulas, which no estimate golden holds, so none is refit.

Each point of the golden is then evaluated by ``tests/oracles.reference_estimator``
from these predictions in ``np.longdouble``, and one line per (file, estimand,
method) prints the relative error |point - reference| / |reference|. The
figures read only the golden files, their inputs and the yardstick itself, so a
change that moves no output bit prints the same lines; a change that moves
bits on purpose quotes them before and after.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "tests")]

from ecborrow.dataset import OUTCOME_BINARY, load_csv  # noqa: E402
from ecborrow.nuisance import VAR_FLOOR  # noqa: E402
from make_golden import DATA, GOLDENS  # noqa: E402
from oracles import exact_wls, reference_estimator  # noqa: E402

LOGIT_STEPS = 30  # Newton from zero settles to longdouble rounding well within this
LONG = np.longdouble

# the golden files whose estimates take the influence-function variance
ESTIMATE_GOLDENS = [name for name, argv in GOLDENS.items()
                    if argv[0] == "estimate" and "bootstrap" not in argv]


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``matrix`` x = ``rhs`` by Gaussian elimination with partial pivoting, in the
    arrays' own precision."""
    system = np.column_stack([matrix, rhs])
    p = len(rhs)
    for col in range(p):
        pivot = col + int(np.argmax(np.abs(system[col:, col])))
        system[[col, pivot]] = system[[pivot, col]]
        system[col + 1:] -= np.outer(system[col + 1:, col] / system[col, col], system[col])
    solution = np.zeros(p, dtype=system.dtype)
    for row in reversed(range(p)):
        solution[row] = (system[row, p] - system[row, row + 1:p] @ solution[row + 1:]) \
            / system[row, row]
    return solution


def _expit(eta: np.ndarray) -> np.ndarray:
    return 1 / (1 + np.exp(-eta))


def newton_logit(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """The logit MLE on ``design``'s rows by LOGIT_STEPS Newton steps from zero in
    np.longdouble; a last step that is not at rounding size raises."""
    x, y = design.astype(LONG), response.astype(LONG)
    coef = np.zeros(x.shape[1], dtype=LONG)
    for _ in range(LOGIT_STEPS):
        mu = _expit(x @ coef)
        step = _solve(x.T @ (x * (mu * (1 - mu))[:, None]), x.T @ (y - mu))
        coef += step
    if np.max(np.abs(step)) > 1e-15 * (1 + np.max(np.abs(coef))):
        raise SystemExit(f"Newton did not settle in {LOGIT_STEPS} steps: last step {step}")
    return coef


def _fit(design: np.ndarray, response: np.ndarray, rows: np.ndarray, logit: bool):
    """Predictions on every row, in np.longdouble, of a fit on the rows ``rows``."""
    x, y = design[rows], response[rows]
    if logit:
        return _expit(design.astype(LONG) @ newton_logit(x, y))
    coef = exact_wls(x, np.ones(len(y)), y)
    return design.astype(LONG) @ coef.astype(LONG)


def _mean(values: np.ndarray) -> float:
    """The mean of np.longdouble ``values`` by ``math.fsum`` of each value's two doubles."""
    high = values.astype(float)
    return math.fsum([*high, *(values - high).astype(float)]) / len(values)


def _ratio(ds, design: np.ndarray, m0_pooled: np.ndarray, mode: str) -> np.ndarray:
    """r(x) on every row: 1 for known_one, the ratio of the two groups' mean squared
    pooled-m0 residuals for constant, exp of the log-variance fits' difference for
    loglinear."""
    if mode == "known_one":
        return np.ones(ds.n, dtype=LONG)
    squares = (ds.y - m0_pooled) ** 2
    groups = ((ds.d == 1) & (ds.t == 0), ds.d == 0)
    if mode == "constant":
        trial, external = (_mean(squares[rows]) for rows in groups)
        return np.full(ds.n, LONG(trial) / LONG(external))
    logs = np.log(squares + LONG(VAR_FLOOR)).astype(float)
    trial, external = (_fit(design, logs, rows, logit=False) for rows in groups)
    return np.exp(trial - external)


def errors(name: str) -> dict[tuple[str, str], float]:
    """The relative error of each (estimand, method) point of golden file ``name``."""
    golden = json.loads((DATA / name).read_text(encoding="utf-8"))
    ds = load_csv(ROOT / golden["input"])
    design = np.column_stack([np.ones(ds.n), ds.x])  # the CLI's linear specs
    binary = ds.outcome_kind == OUTCOME_BINARY
    methods = {estimate["method"] for estimate in golden["estimates"]}
    treated_only, external = methods == {"treated_only"}, bool((ds.d == 0).any())
    controls, trial = ds.t == 0, ds.d == 1
    m0_pooled = _fit(design, ds.y, controls, binary)
    pi = _fit(design, ds.d, np.ones(ds.n, dtype=bool), True) if external else None
    if treated_only:
        models = {"treated_only": (None, m0_pooled, None)}
        r = None
    else:
        m1 = _fit(design, ds.y, trial & (ds.t == 1), binary)
        p = _fit(design, ds.t, trial, True)
        mode = golden["ratio_mode"] if external else "known_one"
        r = _ratio(ds, design, m0_pooled, mode)
        m0_trial = _fit(design, ds.y, trial & controls, binary)
        models = {"full_data": (m1, m0_pooled, p), "trial_based": (m1, m0_trial, p),
                  "baseline": (m1, m0_trial, p)}
    found = {}
    for estimate in golden["estimates"]:
        m1, m0, p = models[estimate["method"]]
        reference, _ = reference_estimator(ds.y, ds.t, ds.d, m1, m0, p, pi, r,
                                           estimate["estimand"], estimate["method"])
        found[estimate["estimand"], estimate["method"]] = \
            abs(estimate["point"] - reference) / abs(reference)
    return found


def main() -> int:
    for name in ESTIMATE_GOLDENS:
        for (estimand, method), error in errors(name).items():
            print(f"{name} {estimand} {method} {error:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
