"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure). Monte Carlo criteria run at fixed master seeds so the whole suite
is deterministic. Run via::

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from ecborrow.cli import main
from ecborrow.dataset import write_csv
from ecborrow.errors import SeparationDetected
from ecborrow.estimators import (
    METHOD_FULL,
    METHOD_TRIAL,
    Estimate,
    efficiency_bound_plugin,
    estimate_psi,
    estimate_tau_full,
    estimate_tau_trial,
    estimate_xi,
)
from ecborrow.inference import bias_bound
from ecborrow.inference import test as z_test
from ecborrow.inference import test_mean_exchangeability as exchangeability_test
from ecborrow.nuisance import IDENTITY, LOGIT, expit, fit_glm
from ecborrow.simlab import (
    ScenarioConfig,
    _fit_replicate_nuisances,
    generate,
    run_monte_carlo,
    true_effects,
)

from conftest import fit_sets, make_discrete_dataset, make_random_dataset
from oracles import CellOracle, newton_logit, wls_normal_equations

MASTER_SEED = 2026
MC_REPS = 1000
MC_N = 1000


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def mc_runs():
    runs = {}
    for scenario in ("i", "ii", "iii", "iv"):
        start = time.time()
        runs[scenario] = run_monte_carlo(
            ScenarioConfig(scenario=scenario, n=MC_N),
            reps=MC_REPS,
            master_seed=MASTER_SEED,
        )
        print(f"scenario {scenario}: {time.time() - start:.0f}s")
    return runs


@pytest.fixture(scope="module")
def identity_cases():
    cases = []
    for seed in range(100):
        ds = make_random_dataset(seed, n=200)
        cases.append((ds, fit_sets(ds)))
    return cases


def test_criterion_01_reference_p_values():
    table = [
        (5.82, 16.10, 0.073),
        (5.43, 19.55, 0.110),
        (6.72, 14.98, 0.041),
        (6.55, 19.56, 0.069),
        (9.67, 21.50, 0.019),
        (10.24, 38.05, 0.048),
    ]
    worst = 0.0
    for point100, var10000, expected in table:
        est = Estimate("tau", METHOD_FULL, point100 / 100, 472, "ref", 0)
        p = z_test(est, var10000 / 10000, null_value=0.0, sidedness="greater").p_value
        worst = max(worst, abs(p - expected))
    report(1, "one-sided p-values from reference point/variance pairs",
           worst <= 1e-3, f"max |p - expected| = {worst:.2e}")


def test_criterion_02_reduction_identity(identity_cases):
    worst = 0.0
    for ds, sets in identity_cases:
        trial = estimate_tau_trial(ds, sets["unpooled"]).point
        reduced = estimate_tau_full(ds, sets["unpooled"], zero_ratio=True).point
        worst = max(worst, abs(trial - reduced))
    report(2, "zero-ratio unpooled estimator reduces to the trial-based one",
           worst <= 1e-12, f"max deviation = {worst:.2e} over 100 datasets")


def test_criterion_03_mixture_identity(identity_cases):
    worst = 0.0
    for ds, sets in identity_cases:
        tau = estimate_tau_full(ds, sets["pooled"]).point
        psi = estimate_psi(ds, sets["pooled"]).point
        xi = estimate_xi(ds, sets["pooled"]).point
        worst = max(worst, abs(psi - (ds.q_hat * tau + (1 - ds.q_hat) * xi)))
    report(3, "pooled effect equals the q-weighted mixture",
           worst <= 1e-10, f"max deviation = {worst:.2e} over 100 datasets")


def test_criterion_04_oracle_equivalence():
    ds = make_discrete_dataset(3)
    sets = fit_sets(ds, ratio_mode="known_one", saturated=True)
    oracle = CellOracle(ds.y, ds.x, ds.t, ds.d)
    checks = [
        abs(estimate_tau_full(ds, sets["pooled"]).point - oracle.tau_full()),
        abs(estimate_tau_trial(ds, sets["unpooled"]).point - oracle.tau_trial()),
        abs(estimate_psi(ds, sets["pooled"]).point - oracle.psi(True)),
        abs(estimate_psi(ds, sets["unpooled"], "baseline").point - oracle.psi(False)),
        abs(estimate_xi(ds, sets["pooled"]).point - oracle.xi(True)),
        abs(estimate_xi(ds, sets["unpooled"], "baseline").point - oracle.xi(False)),
        abs(efficiency_bound_plugin(ds, sets["pooled"], "tau", METHOD_FULL)
            - oracle.bound_tau_full()),
        abs(efficiency_bound_plugin(ds, sets["unpooled"], "tau", METHOD_TRIAL)
            - oracle.bound_tau_trial()),
    ]
    worst = max(checks)
    report(4, "saturated fits match exact cell enumeration",
           worst <= 1e-8, f"max deviation = {worst:.2e} across 6 estimators + 2 bounds")


def test_criterion_05_double_robustness(mc_runs):
    details = []
    ok = True
    for scenario in ("ii", "iii"):
        for name in ("tau_full", "tau_trial", "psi_full", "xi_full"):
            s = mc_runs[scenario].summaries[name]
            mcse = s.sd / np.sqrt(s.reps)
            ratio = abs(s.mean_bias) / mcse
            ok = ok and ratio <= 3.0
            details.append(f"{scenario}/{name}: |bias|/mcse = {ratio:.2f}")
    report(5, "single-sided misspecification leaves no detectable bias",
           ok, "; ".join(details))


def test_criterion_06_coverage(mc_runs):
    details = []
    ok = True
    for scenario in ("i", "ii", "iii"):
        for name in ("tau_full", "tau_full_const"):
            cov = mc_runs[scenario].summaries[name].coverage
            ok = ok and 0.93 <= cov <= 0.97
            details.append(f"{scenario}/{name}: {cov:.3f}")
    for name in ("tau_full", "tau_full_const"):
        cov = mc_runs["iv"].summaries[name].coverage
        ok = ok and cov < 0.5
        details.append(f"iv/{name}: {cov:.3f}")
    report(6, "95% CI coverage in band for i-iii and collapsed in iv",
           ok, "; ".join(details))


def test_criterion_07_efficiency_gain(mc_runs):
    run = mc_runs["i"]
    var_full = run.summaries["tau_full"].sd ** 2
    var_trial = run.summaries["tau_trial"].sd ** 2
    gap_scaled = (var_trial - var_full) * MC_N
    gain = run.mean_analytic_gain
    rel_err = abs(gap_scaled - gain) / gain
    ok = var_full < var_trial and rel_err <= 0.25
    report(7, "borrowing shrinks the tau variance by the predicted amount", ok,
           f"n*(var gap) = {gap_scaled:.3f}, analytic = {gain:.3f}, rel err = {rel_err:.3f}")


def test_criterion_08_exchangeability_test_and_bias_bound():
    size_cfg = ScenarioConfig(scenario="i", n=MC_N)
    rejections = 0
    for rep in range(1000):
        ds, _ = generate(size_cfg, [55, rep])
        rejections += exchangeability_test(ds).p_value < 0.05
    size = rejections / 1000

    power_cfg = ScenarioConfig(scenario="i", n=MC_N, engagement_coefs=(0.0, 0.5, 0.0))
    hits = 0
    for rep in range(400):
        ds, _ = generate(power_cfg, [56, rep])
        hits += exchangeability_test(ds).p_value < 0.05
    power = hits / 400

    truth = true_effects(power_cfg)
    errors, lams, ok_bound = [], [], True
    for rep in range(400):
        ds, _ = generate(power_cfg, [57, rep])
        sets, table = _fit_replicate_nuisances(ds)
        errors.append(estimate_tau_full(ds, sets["pooled"], table=table).point - truth.tau)
        bb = bias_bound(ds, sets["pooled"], b=lambda x: 0.5 * x[:, 0], table=table)
        lams.append(bb.lambda_estimate)
        ok_bound = ok_bound and abs(bb.lambda_estimate) <= bb.lambda_abs_bound + 1e-12
    errors = np.array(errors)
    lams = np.array(lams)
    mcse = errors.std() / np.sqrt(len(errors))
    bias_matches = abs(errors.mean() - lams.mean()) <= 3 * mcse

    ok = (0.03 <= size <= 0.07) and power > 0.5 and ok_bound and bias_matches
    report(8, "exchangeability test is calibrated and the bias bound holds", ok,
           f"size = {size:.3f}, power = {power:.3f}, "
           f"bias = {errors.mean():.4f} vs lambda = {lams.mean():.4f} (3 mcse = {3 * mcse:.4f})")


def test_criterion_09_glm_correctness():
    rng = np.random.default_rng(90)
    worst_identity = 0.0
    for _ in range(20):
        n = 30
        design = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        response = rng.standard_normal(n)
        weights = rng.uniform(0.3, 2.0, n)
        fit = fit_glm(design, response, IDENTITY, weights=weights)
        oracle = wls_normal_equations(design, response, weights)
        worst_identity = max(worst_identity, float(np.max(np.abs(fit.coef - oracle))))

    worst_logit = 0.0
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        local = np.random.default_rng(seed)
        n = 20
        design = np.column_stack([np.ones(n), local.standard_normal((n, 2))])
        prob = expit(design @ np.array([0.3, 0.7, -0.6]))
        response = (local.random(n) < prob).astype(float)
        if response.min() == response.max():
            continue
        try:
            fit = fit_glm(design, response, LOGIT)
        except SeparationDetected:
            continue
        oracle = newton_logit(design, response)
        worst_logit = max(worst_logit, float(np.max(np.abs(fit.coef - oracle))))
        checked += 1

    ok = worst_identity <= 1e-10 and worst_logit <= 1e-8
    report(9, "GLM fits match closed-form and Newton oracles", ok,
           f"identity max dev = {worst_identity:.2e}, logit max dev = {worst_logit:.2e} "
           f"on {checked} fixtures")


def test_criterion_10_determinism(tmp_path, capsys):
    sim_outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"sim_{jobs}.json"
        code = main(
            ["simulate", "--scenario", "ii", "--reps", "40", "--n", "300",
             "--seed", "77", "--jobs", jobs, "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        sim_outputs.append(out.read_bytes())

    ds, _ = generate(ScenarioConfig(scenario="i", n=250), 888)
    csv_path = tmp_path / "boot.csv"
    write_csv(ds, csv_path)
    boot_outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"boot_{jobs}.json"
        code = main(
            ["estimate", "--input", str(csv_path), "--estimand", "tau",
             "--method", "full", "--variance", "bootstrap", "--B", "120",
             "--seed", "9", "--jobs", jobs, "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        boot_outputs.append(out.read_bytes())

    ok = sim_outputs[0] == sim_outputs[1] and boot_outputs[0] == boot_outputs[1]
    report(10, "same seed gives byte-identical JSON at any --jobs", ok,
           f"simulate bytes equal = {sim_outputs[0] == sim_outputs[1]}, "
           f"bootstrap bytes equal = {boot_outputs[0] == boot_outputs[1]}")
