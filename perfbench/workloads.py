"""Workload definitions: inputs made from the seed, CLI arguments, output checks.

Every input is generated here, before any timing starts. The program under
test only ever sees the generated files and command-line arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

IDENTITY_TOL = 1e-10  # psi = q*tau + (1-q)*xi, checked on every estimate output
BOOTSTRAP_B = 500     # the CLI default; the bootstrap check relies on it
MC_REPS = 250
MC_N = 1000
REGISTRY_ROWS = 200_000

# (tau, psi, xi) methods of the borrowing triple and of the comparator triple
TRIPLES = (
    ("full_data", "full_data", "full_data"),
    ("trial_based", "baseline", "baseline"),
)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each was chosen."""

    name: str
    unit: str                                    # what work_per_s counts
    unit_span: str                               # span that is one unit of work
    make_input: Callable[[int, Path], Path | None]
    argv: Callable[[int, Path | None], list[str]]
    units_done: Callable[[dict], int]            # units completed by one op


def _write_csv(path: Path, d, t, y, x, names) -> Path:
    """Header then one row per unit; floats in shortest round-trip text."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["d", "t", "y", *names]) + "\n")
        for i in range(y.shape[0]):
            cells = [str(int(d[i])), str(int(t[i])), repr(float(y[i]))]
            cells.extend(repr(float(v)) for v in x[i])
            fh.write(",".join(cells) + "\n")
    return path


def _scenario_csv(scenario: str, n: int, stream: int) -> Callable[[int, Path], Path]:
    def make(seed: int, work: Path) -> Path:
        from ecborrow.simlab import ScenarioConfig, generate

        ds, _ = generate(ScenarioConfig(scenario=scenario, n=n), [seed, stream])
        path = work / f"scenario_{scenario}_n{n}_seed{seed}.csv"
        return _write_csv(path, ds.d, ds.t, ds.y, ds.x, ds.covariate_names)

    return make


def _registry_csv(seed: int, work: Path) -> Path:
    """Registry-like draw: raw-unit covariates, ~20% trial rows, 1:1 trial arms."""
    n = REGISTRY_ROWS
    rng = np.random.default_rng([seed, 4])
    age = np.round(rng.normal(62.0, 10.0, n), 1)
    sex = (rng.random(n) < 0.5).astype(float)
    bmi = np.round(rng.normal(27.0, 4.0, n), 1)
    sbp = np.round(rng.normal(130.0, 15.0, n))
    egfr = np.round(rng.normal(80.0, 20.0, n), 1)
    ecog = rng.choice([0.0, 1.0, 2.0], n, p=[0.5, 0.35, 0.15])
    x = np.column_stack([age, sex, bmi, sbp, egfr, ecog])
    lin = -1.3 - 0.03 * (age - 62.0) + 0.2 * sex - 0.4 * ecog + 0.01 * (egfr - 80.0)
    d = (rng.random(n) < 1.0 / (1.0 + np.exp(-lin))).astype(int)
    t = ((d == 1) & (rng.random(n) < 0.5)).astype(int)
    y = (
        10.0 - 0.05 * (age - 62.0) + 0.5 * sex - 0.1 * (bmi - 27.0) + 0.02 * (sbp - 130.0)
        + 0.03 * (egfr - 80.0) - ecog + 1.5 * t
        + rng.standard_normal(n) * np.where(d == 1, 2.0, 2.5)
    )
    names = ("age", "sex", "bmi", "sbp", "egfr", "ecog")
    return _write_csv(work / f"registry_seed{seed}.csv", d, t, y, x, names)


def _estimate_argv(*extra: str) -> Callable[[int, Path | None], list[str]]:
    def argv(seed: int, path: Path | None) -> list[str]:
        return ["estimate", "--input", str(path), *extra, "--jobs", "1"]

    return argv


def _bootstrap_argv(seed: int, path: Path | None) -> list[str]:
    return ["estimate", "--input", str(path), "--variance", "bootstrap",
            "--seed", str(seed), "--jobs", "1"]


def _simulate_argv(seed: int, path: Path | None) -> list[str]:
    return ["simulate", "--scenario", "all", "--reps", str(MC_REPS), "--n", str(MC_N),
            "--seed", str(seed), "--jobs", "1"]


def _one(payload: dict) -> int:
    return 1


def _bootstrap_pairs(payload: dict) -> int:
    return sum(e["bootstrap"]["replicates"] for e in payload["estimates"])


def _mc_replicates(payload: dict) -> int:
    return sum(s["reps"] - s["failures"] for s in payload["scenarios"].values())


def _rows(payload: dict) -> int:
    return payload["dataset"]["n"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold_estimate",
            "analyses", "cli.main", _scenario_csv("i", 400, 1), _estimate_argv(), _one,
        ),
        Workload(
            "bootstrap_estimate",
            "replicate-pairs", "inference.bootstrap.replicate", _scenario_csv("ii", 1000, 2),
            _bootstrap_argv, _bootstrap_pairs,
        ),
        Workload(
            "mc_scenarios",
            "replicates", "simlab.replicate", lambda seed, work: None, _simulate_argv,
            _mc_replicates,
        ),
        Workload(
            "registry_estimate",
            "rows", "cli.main", _registry_csv, _estimate_argv(), _rows,
        ),
    )
}


# ----------------------------- output checks -----------------------------


def check_output(payload: dict, validator) -> list[str]:
    """Problems found in one successful command output; empty when it is correct."""
    problems = [f"schema: {e.message}" for e in validator.iter_errors(payload)]
    if problems:
        return problems
    if payload["command"] == "estimate":
        problems += _check_identity(payload)
        if payload["variance_method"] == "bootstrap":
            problems += _check_bootstrap(payload)
    elif payload["command"] == "simulate":
        for name, run in payload["scenarios"].items():
            for s in run["summaries"].values():
                if s["reps"] + run["failures"] != run["reps"]:
                    problems.append(f"scenario {name}: {s['name']} reps do not add up")
    return problems


def _check_identity(payload: dict) -> list[str]:
    q = payload["dataset"]["q_hat"]
    points = {(e["estimand"], e["method"]): e["point"] for e in payload["estimates"]}
    problems = []
    for tau_m, psi_m, xi_m in TRIPLES:
        keys = (("tau", tau_m), ("psi", psi_m), ("xi", xi_m))
        if not all(k in points for k in keys):
            continue
        tau, psi, xi = (points[k] for k in keys)
        gap = abs(psi - (q * tau + (1.0 - q) * xi))
        if not gap <= IDENTITY_TOL:
            problems.append(f"psi != q*tau + (1-q)*xi for {tau_m}/{psi_m}: gap {gap:.3e}")
    return problems


def _check_bootstrap(payload: dict) -> list[str]:
    problems = []
    for e in payload["estimates"]:
        boot = e["bootstrap"]
        if boot["replicates"] + boot["failures"] != BOOTSTRAP_B:
            problems.append(f"{e['estimand']}/{e['method']}: replicates + failures != B")
        if not (math.isfinite(boot["variance"]) and math.isfinite(e["variance"])):
            problems.append(f"{e['estimand']}/{e['method']}: bootstrap variance not finite")
    return problems


def inner_failures(payload: dict) -> int:
    """Failures counted inside a successful op: bootstrap or Monte Carlo replicates."""
    if payload.get("command") == "estimate":
        return sum(e.get("bootstrap", {}).get("failures", 0) for e in payload["estimates"])
    if payload.get("command") == "simulate":
        return sum(run["failures"] for run in payload["scenarios"].values())
    return 0
