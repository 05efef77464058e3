"""Shared fixtures: synthetic dataset builders used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from ecborrow.dataset import CompositeDataset
from ecborrow.nuisance import (
    IDENTITY,
    LOGIT,
    RATIO_LOGLINEAR,
    ModelSpec,
    Term,
    expit,
    fit_bundle,
    linear_specs,
)


def make_random_dataset(seed: int, n: int = 240) -> CompositeDataset:
    """Well-behaved continuous-outcome draw for algebraic identity checks."""
    rng = np.random.default_rng(seed)
    while True:
        x = rng.standard_normal((n, 2))
        pi = expit(0.2 + 0.5 * x[:, 0] - 0.3 * x[:, 1])
        d = (rng.random(n) < pi).astype(int)
        p = expit(0.1 + 0.4 * x[:, 0] + 0.2 * x[:, 1])
        t = ((d == 1) & (rng.random(n) < p)).astype(int)
        counts = (
            int(((d == 1) & (t == 1)).sum()),
            int(((d == 1) & (t == 0)).sum()),
            int((d == 0).sum()),
        )
        if min(counts) >= 8:
            break
    y = (
        1.0
        + x[:, 0]
        - 0.5 * x[:, 1]
        + t * (1.0 + 0.5 * x[:, 0])
        + rng.standard_normal(n) * np.exp(0.1 * x[:, 0])
    )
    return CompositeDataset(y, x, t, d, covariate_names=("x1", "x2"))


def saturated_spec(family: str) -> ModelSpec:
    """Intercept + x1 + x2 + x1:x2 - saturated for two binary covariates."""
    return ModelSpec(family, (Term("raw", 0), Term("raw", 1), Term("inter", 0, 1)))


def make_discrete_dataset(seed: int = 0) -> CompositeDataset:
    """Four covariate cells with every (d, t) stratum populated."""
    rng = np.random.default_rng(seed)
    blocks = []
    # per cell: (x1, x2, n treated-trial, n control-trial, n external)
    layout = [
        ((0.0, 0.0), 6, 5, 7),
        ((0.0, 1.0), 5, 6, 6),
        ((1.0, 0.0), 7, 6, 5),
        ((1.0, 1.0), 6, 7, 6),
    ]
    for (x1, x2), k11, k10, k00 in layout:
        for _ in range(k11):
            blocks.append((rng.normal(2.0 + x1, 1.0), x1, x2, 1, 1))
        for _ in range(k10):
            blocks.append((rng.normal(1.0 + 0.5 * x2, 0.8), x1, x2, 0, 1))
        for _ in range(k00):
            blocks.append((rng.normal(1.0 + 0.5 * x2, 1.2), x1, x2, 0, 0))
    arr = np.array(blocks)
    return CompositeDataset(
        arr[:, 0], arr[:, 1:3], arr[:, 3].astype(int), arr[:, 4].astype(int),
        covariate_names=("x1", "x2"),
    )


def make_population_dataset():
    """Discrete dataset whose empirical law is an exact population.

    Within every cell each stratum's outcomes sit symmetrically around the
    stratum mean, so cell means, variances, and frequencies are exact and
    the treated-arm spread matches the trial-control spread.
    """
    # per cell: (x1, x2), counts (k11, k10, k00), control mean, treated mean,
    # trial-control sd, external sd
    layout = [
        ((0.0, 0.0), (4, 6, 8), 1.0, 2.0, 0.8, 1.2),
        ((0.0, 1.0), (6, 4, 6), 1.5, 2.2, 1.1, 0.9),
        ((1.0, 0.0), (8, 6, 4), 0.5, 2.5, 0.9, 1.4),
        ((1.0, 1.0), (6, 8, 6), 1.2, 1.8, 1.3, 0.7),
    ]
    rows = []
    for (x1, x2), (k11, k10, k00), m0, m1, s1, s0 in layout:
        for i in range(k11):
            rows.append((m1 + (s1 if i % 2 == 0 else -s1), x1, x2, 1, 1))
        for i in range(k10):
            rows.append((m0 + (s1 if i % 2 == 0 else -s1), x1, x2, 0, 1))
        for i in range(k00):
            rows.append((m0 + (s0 if i % 2 == 0 else -s0), x1, x2, 0, 0))
    arr = np.array(rows)
    ds = CompositeDataset(
        arr[:, 0], arr[:, 1:3], arr[:, 3].astype(int), arr[:, 4].astype(int),
        covariate_names=("x1", "x2"),
    )
    return ds, layout


def fit_sets(ds: CompositeDataset, ratio_mode: str = RATIO_LOGLINEAR,
             saturated: bool = False) -> dict:
    """Pooled and unpooled nuisance sets with shared propensity fits."""
    specs = linear_specs(ds.k)
    if saturated:
        spec_m, spec_ps = saturated_spec(IDENTITY), saturated_spec(LOGIT)
        specs = {"m1": spec_m, "m0": spec_m, "p": spec_ps, "pi": spec_ps, "variance": spec_m}
    return fit_bundle(ds, specs, ratio_mode)[0]


def constant_propensity_model(value: float, k: int = 2):
    """Logit model predicting a constant probability regardless of x."""
    spec = ModelSpec(LOGIT, ())
    logit = float(np.log(value / (1.0 - value)))
    from ecborrow.nuisance import FittedGLM

    return FittedGLM(LOGIT, np.array([logit]), True, 1, 0.0, 1, spec, ["intercept"])


@pytest.fixture
def random_dataset():
    return make_random_dataset(7)


@pytest.fixture
def discrete_dataset():
    return make_discrete_dataset(3)
