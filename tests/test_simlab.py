import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit as sp_expit

import ecborrow.simlab as sl
from ecborrow.errors import ConfigError, ReplicateFailure
from ecborrow.simlab import (
    ScenarioConfig,
    export_boxplot_data,
    generate,
    run_monte_carlo,
    true_effects,
    zero_effect_variant,
)


# ------------------------------ generate -------------------------------


def test_external_rows_are_controls():
    for scenario in ("i", "iv"):
        ds, _ = generate(ScenarioConfig(scenario=scenario, n=800), 1)
        assert int(((ds.d == 0) & (ds.t == 1)).sum()) == 0


def test_observed_outcome_masks_potential_outcomes():
    ds, truth = generate(ScenarioConfig(scenario="i", n=500), 2)
    treated = ds.t == 1
    assert np.array_equal(ds.y[treated], truth.y1[treated])
    assert np.array_equal(ds.y[~treated], truth.y0[~treated])
    assert not hasattr(ds, "y0")


def test_generate_deterministic():
    cfg = ScenarioConfig(scenario="ii", n=300)
    a, _ = generate(cfg, 7)
    b, _ = generate(cfg, 7)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.d, b.d)


def _quadrature_q() -> float:
    # E[expit(0.3 + 0.4 z1 - 0.4 z2)], z standard normal: the linear index
    # is N(0.3, 0.32)
    sd = np.sqrt(0.32)
    f = lambda u: sp_expit(0.3 + sd * u) * np.exp(-u * u / 2) / np.sqrt(2 * np.pi)
    val, _ = integrate.quad(f, -12, 12)
    return val


def test_trial_fraction_matches_quadrature():
    q_expected = _quadrature_q()
    counts = 0
    n = 200_000
    for seed in range(5):
        ds, _ = generate(ScenarioConfig(scenario="i", n=n), [31, seed])
        counts += ds.n1
    q_hat = counts / (5 * n)
    se = np.sqrt(q_expected * (1 - q_expected) / (5 * n))
    assert abs(q_hat - q_expected) < 4 * se


def test_trial_treated_fraction_near_half():
    ds, _ = generate(ScenarioConfig(scenario="i", n=200_000), 17)
    frac = ((ds.d == 1) & (ds.t == 1)).sum() / ds.n1
    # treatment index is orthogonal to the selection index, so exactly 1/2
    assert frac == pytest.approx(0.5, abs=0.01)


def test_engagement_shifts_trial_controls_only():
    cfg = ScenarioConfig(scenario="i", n=120_000, engagement_coefs=(0.3, 0.0, 0.0))
    ds, truth = generate(cfg, 23)
    base = ScenarioConfig(scenario="i", n=120_000)
    ds0, truth0 = generate(base, 23)
    shift = truth.y0 - truth0.y0
    assert np.allclose(shift[ds.d == 1], 0.3)
    assert np.allclose(shift[ds.d == 0], 0.0)


# ----------------------------- true effects ----------------------------


def _quadrature_tau_scenario_i() -> float:
    # tau = 1 + 0.5 E[x1 | trial]; E[x1 | trial] reduces to a 1-d integral
    # through the linear selection index s ~ N(0.3, 0.32), E[x1|s] = 1.25 (s - 0.3)
    sd = np.sqrt(0.32)
    num = integrate.quad(
        lambda u: 1.25 * (sd * u) * sp_expit(0.3 + sd * u) * np.exp(-u * u / 2) / np.sqrt(2 * np.pi),
        -12,
        12,
    )[0]
    den = _quadrature_q()
    return 1.0 + 0.5 * num / den


def test_true_tau_matches_quadrature():
    te = true_effects(ScenarioConfig(scenario="i", n=1000), draws=4_000_000)
    assert te.tau == pytest.approx(_quadrature_tau_scenario_i(), abs=4 * te.se_tau + 1e-6)
    assert te.q == pytest.approx(_quadrature_q(), abs=1e-3)


def test_true_effects_mixture_identity():
    for scenario in ("i", "iv"):
        te = true_effects(ScenarioConfig(scenario=scenario, n=1000), draws=2_000_000)
        assert te.psi == pytest.approx(te.q * te.tau + (1 - te.q) * te.xi, abs=1e-9)
        assert max(te.se_tau, te.se_psi, te.se_xi) < 1e-3


def test_true_effects_cached():
    cfg = ScenarioConfig(scenario="ii", n=777)
    a = true_effects(cfg, draws=2_000_000)
    b = true_effects(ScenarioConfig(scenario="ii", n=55), draws=2_000_000)
    assert a is b  # same truth regardless of sample size


def _truth_alone(cfg, draws):
    """Reference: one scenario's own pass over the oracle draws."""
    chunks = sl.ORACLE_CHUNKS
    size = draws // chunks
    sums = np.zeros(4)
    per_chunk = np.zeros((chunks, 3))
    for c in range(chunks):
        x = np.random.default_rng([sl.ORACLE_SEED, c]).standard_normal((size, 2))
        z_ps = sl.distort(x) if cfg.propensity_distorted else x
        z_out = sl.distort(x) if cfg.outcome_distorted else x
        pi = sl.expit(sl._linear(cfg.selection_coefs, z_ps))
        g = sl._linear(cfg.effect_coefs, z_out)
        sums += [np.sum(pi * g), np.sum((1 - pi) * g), np.sum(g), np.sum(pi)]
        per_chunk[c] = [np.sum(pi * g) / np.sum(pi),
                        np.sum((1 - pi) * g) / np.sum(1 - pi), np.mean(g)]
    total = chunks * size
    ses = per_chunk.std(axis=0, ddof=1) / np.sqrt(chunks)
    return sl.TrueEffects(
        tau=float(sums[0] / sums[3]), psi=float(sums[2] / total),
        xi=float(sums[1] / (total - sums[3])), q=float(sums[3] / total),
        se_tau=float(ses[0]), se_psi=float(ses[2]), se_xi=float(ses[1]), draws=total,
    )


def test_shared_oracle_pass_equals_one_scenario_at_a_time(monkeypatch):
    draws = 2_000_000
    cfgs = [ScenarioConfig(scenario=s, n=100) for s in sl.SCENARIOS]
    cfgs += [
        zero_effect_variant(ScenarioConfig(scenario="iii", n=100)),
        ScenarioConfig(scenario="ii", n=100, selection_coefs=(0.1, 0.9, -0.2)),
        ScenarioConfig(scenario="i", n=50),  # same truth as the first: computed once
    ]
    monkeypatch.setattr(sl, "_TRUTH_CACHE", {})
    shared = sl.oracle_truths(cfgs, draws=draws)
    assert shared[-1] is shared[0]

    def no_pass(cfgs, draws):
        raise AssertionError("cached truths must not run the oracle again")

    with monkeypatch.context() as patch:
        patch.setattr(sl, "_oracle_pass", no_pass)
        assert sl.oracle_truths(cfgs, draws=draws) == shared
    for cfg, truth in zip(cfgs, shared):
        monkeypatch.setattr(sl, "_TRUTH_CACHE", {})
        assert true_effects(cfg, draws=draws) == truth
        assert _truth_alone(cfg, draws) == truth


def test_zero_effect_variant_has_zero_truth():
    te = true_effects(zero_effect_variant(ScenarioConfig(scenario="i", n=100)),
                      draws=2_000_000)
    assert te.tau == 0.0
    assert te.psi == 0.0
    assert te.xi == 0.0


def test_scenario_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="v", n=100)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="i", n=5)
    with pytest.raises(ConfigError):
        ScenarioConfig(scenario="i", n=100, outcome_kind="binary")


def test_distortion_constant_matches_quadrature():
    value = integrate.quad(
        lambda u: (1 + np.exp(u)) ** -2 * np.exp(-u * u / 2) / np.sqrt(2 * np.pi),
        -40,
        40,
    )[0]
    assert sl._INV_SQ_LOGISTIC == pytest.approx(value, abs=1e-12)


# ----------------------------- Monte Carlo -----------------------------


def test_monte_carlo_deterministic_across_jobs():
    cfg = ScenarioConfig(scenario="i", n=200)
    serial = run_monte_carlo(cfg, reps=8, master_seed=4, jobs=1)
    parallel = run_monte_carlo(cfg, reps=8, master_seed=4, jobs=2)
    assert serial.to_dict() == parallel.to_dict()


def test_monte_carlo_single_rep_sd_absent():
    cfg = ScenarioConfig(scenario="i", n=300)
    res = run_monte_carlo(cfg, reps=1, master_seed=5)
    summary = res.summaries["tau_full"]
    assert summary.sd is None
    assert summary.mse == pytest.approx(summary.mean_bias**2)


def test_monte_carlo_mse_identity():
    cfg = ScenarioConfig(scenario="i", n=300)
    res = run_monte_carlo(cfg, reps=12, master_seed=6)
    for summary in res.summaries.values():
        assert summary.mse == pytest.approx(
            summary.mean_bias**2 + summary.sd**2, abs=1e-12
        )


def test_monte_carlo_estimator_subset():
    cfg = ScenarioConfig(scenario="i", n=250)
    res = run_monte_carlo(cfg, reps=3, master_seed=1, estimators=("tau_full",))
    assert set(res.summaries) == {"tau_full"}
    with pytest.raises(ConfigError):
        run_monte_carlo(cfg, reps=3, estimators=("tau_bogus",))


def test_monte_carlo_failures_abort(monkeypatch):
    cfg = ScenarioConfig(scenario="i", n=250)
    real = sl._fit_replicate_nuisances

    def flaky(ds):
        from ecborrow.errors import EmptyCell

        raise EmptyCell("synthetic failure")

    monkeypatch.setattr(sl, "_fit_replicate_nuisances", flaky)
    with pytest.raises(ReplicateFailure):
        run_monte_carlo(cfg, reps=10, master_seed=2)
    monkeypatch.setattr(sl, "_fit_replicate_nuisances", real)


def test_replicate_fits_seven_models_and_predicts_each_once(monkeypatch):
    import ecborrow.nuisance as nuisance

    fits, designs, predicts = [], [], []
    fit_glm, design = nuisance.fit_glm, nuisance.ModelSpec.design
    predict = nuisance.FittedGLM.predict
    cfg = ScenarioConfig(scenario="iv", n=300)

    def counting_fit_glm(*args, **kwargs):
        fits.append(args[2])
        return fit_glm(*args, **kwargs)

    def counting_design(spec, x):
        designs.append(len(x))
        return design(spec, x)

    def counting_predict(model, x, design=None):
        predicts.append(len(x))
        return predict(model, x, design=design)

    monkeypatch.setattr(nuisance, "fit_glm", counting_fit_glm)
    monkeypatch.setattr(nuisance.ModelSpec, "design", counting_design)
    monkeypatch.setattr(nuisance.FittedGLM, "predict", counting_predict)
    result = sl._mc_replicate((cfg, 5, 0, sl.ALL_ESTIMATORS))
    assert result["ok"]
    # m1, pooled m0, p, pi, the two log-variance fits and trial m0
    assert fits == ["identity"] * 2 + ["logit"] * 2 + ["identity"] * 3
    # the selection fit builds the table's all-row design, which every estimator shares
    assert designs.count(cfg.n) == 1
    # 5 fits, one design per control source for both ratio modes
    assert len(designs) == 7
    # pooled m0 residuals and the two calibrations once, plus 5 table predictions
    assert len(predicts) == 9


def test_draw_retention_cap():
    cfg = ScenarioConfig(scenario="i", n=250)
    with pytest.raises(ConfigError):
        run_monte_carlo(cfg, reps=200_000, keep_draws=True)


# --------------------------- boxplot export ----------------------------


def test_boxplot_export_shape_and_determinism(tmp_path):
    cfg = ScenarioConfig(scenario="i", n=250)
    res = run_monte_carlo(cfg, reps=5, master_seed=9, keep_draws=True)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    rows_a = export_boxplot_data([res], path_a)
    res_again = run_monte_carlo(cfg, reps=5, master_seed=9, keep_draws=True)
    export_boxplot_data([res_again], path_b)
    assert rows_a == 5 * len(res.summaries)
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0]
    assert header == "scenario,estimator,replicate,bias"


def test_boxplot_export_requires_draws(tmp_path):
    res = run_monte_carlo(ScenarioConfig(scenario="i", n=250), reps=3, master_seed=1)
    with pytest.raises(ConfigError):
        export_boxplot_data([res], tmp_path / "x.csv")
