import csv
import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit as sp_expit

import ecborrow.simlab as sl
from ecborrow.cli import main
from ecborrow.dataset import DatasetBlock
from ecborrow.errors import ConfigError, InvariantViolation, NonConvergence, ReplicateFailure
from ecborrow.simlab import (
    ScenarioConfig,
    export_boxplot_data,
    generate,
    run_monte_carlo,
    true_effects,
    zero_effect_variant,
)

from oracles import mc_population_effects


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
        epsabs=1e-14,
        epsrel=1e-14,
    )[0]
    den = _quadrature_q()
    return 1.0 + 0.5 * num / den


def _scenario_functions(cfg):
    """The scenario's true selection probability and effect as functions of x."""
    z_ps = lambda x: sl.distort(x) if cfg.propensity_distorted else x
    z_out = lambda x: sl.distort(x) if cfg.outcome_distorted else x
    selection = lambda x: sl.expit(sl._linear(cfg.selection_coefs, z_ps(x)))
    effect = lambda x: sl._linear(cfg.effect_coefs, z_out(x))
    return selection, effect


_TRUTH_CASES = [ScenarioConfig(scenario=s, n=100) for s in sl.SCENARIOS] + [
    zero_effect_variant(ScenarioConfig(scenario="iii", n=100)),
    ScenarioConfig(scenario="ii", n=100, selection_coefs=(0.1, 0.9, -0.2)),
]


@pytest.mark.parametrize("cfg", _TRUTH_CASES, ids=["i", "ii", "iii", "iv", "zero", "selection"])
def test_true_effects_match_monte_carlo_oracle(cfg):
    te = true_effects(cfg)
    mc = mc_population_effects(*_scenario_functions(cfg), draws=2_000_000)
    for name in ("tau", "psi", "xi", "q"):
        assert abs(getattr(te, name) - mc[name]) <= 4 * mc[f"se_{name}"], name


def test_sixty_nodes_agree_with_one_hundred_twenty(monkeypatch):
    # a steeper selection index on the distorted features converges more
    # slowly: the non-default case agrees to about 2e-11
    bounds = [1e-12] * 5 + [1e-10]
    coarse = [true_effects(cfg) for cfg in _TRUTH_CASES]
    monkeypatch.setattr(sl, "QUADRATURE_NODES", 120)
    for cfg, low, bound in zip(_TRUTH_CASES, coarse, bounds):
        high = true_effects(cfg)
        for name in ("tau", "psi", "xi", "q"):
            assert getattr(low, name) == pytest.approx(getattr(high, name), abs=bound)


def test_truth_check_scales_with_the_effects(tmp_path, capsys):
    # effects near 1e9 move by rounding alone (3.6e-7 for xi) between the two rules
    dgp = {"control_mean_coefs": [1e9, 1.0, 0.5], "effect_coefs": [1e9, 0.5, 0.0]}
    config = tmp_path / "large.json"
    config.write_text(json.dumps({"dgp": dgp}))
    code = main(["simulate", "--scenario", "i", "--reps", "20", "--n", "300",
                 "--config", str(config)])
    result = json.loads(capsys.readouterr().out)
    assert code == 0, result
    study = result["scenarios"]["i"]
    assert study["failures"] == 0
    assert study["truth"]["psi"] == pytest.approx(1e9, rel=1e-9)


@pytest.mark.parametrize("selection, effect, name", [
    ((0.0, 5.0, -5.0), (1.0, 1.0, 1.0), "tau"),
    ((1.0, 10.0, 0.0), (0.0, 1.0, 1.0), "xi"),
])
def test_true_effects_raise_where_the_rule_has_not_converged(
        tmp_path, capsys, selection, effect, name):
    # a steep selection index on scenario iv's distorted features: the truths
    # move by about 1e-3 between 60 and 120 nodes
    cfg = ScenarioConfig(scenario="iv", n=100, selection_coefs=selection, effect_coefs=effect)
    with pytest.raises(NonConvergence, match=f"^quadrature truth {name} moves by ") as failed:
        true_effects(cfg)
    assert 1e-4 < failed.value.details["gap"] < 1e-2
    config = tmp_path / "steep.json"
    config.write_text(json.dumps({"dgp": {"selection_coefs": selection, "effect_coefs": effect}}))
    from ecborrow.cli import main

    code = main(["simulate", "--scenario", "iv", "--reps", "2", "--n", "100",
                 "--config", str(config)])
    assert code == 4
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "NON_CONVERGENCE"


def test_true_tau_matches_quadrature():
    te = true_effects(ScenarioConfig(scenario="i", n=1000))
    assert te.tau == pytest.approx(_quadrature_tau_scenario_i(), abs=1e-12)
    assert te.q == pytest.approx(_quadrature_q(), abs=1e-12)


def test_true_effects_mixture_identity():
    for cfg in _TRUTH_CASES:
        te = true_effects(cfg)
        assert te.psi == pytest.approx(te.q * te.tau + (1 - te.q) * te.xi, abs=1e-14)


def test_true_effects_ignore_sample_size_and_engagement():
    for scenario in sl.SCENARIOS:
        base = true_effects(ScenarioConfig(scenario=scenario, n=777))
        assert true_effects(ScenarioConfig(scenario=scenario, n=55)) == base
        shifted = ScenarioConfig(scenario=scenario, n=55, engagement_coefs=(0.3, 0.5, -0.2))
        assert true_effects(shifted) == base


def test_zero_effect_variant_has_zero_truth():
    te = true_effects(zero_effect_variant(ScenarioConfig(scenario="i", n=100)))
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
    # the truths' quadrature rule reproduces it too
    nodes, weights = sl._normal_rule(sl.QUADRATURE_NODES)
    assert float(weights @ (1 + np.exp(nodes)) ** -2) == pytest.approx(
        sl._INV_SQ_LOGISTIC, abs=1e-15
    )


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

    def flaky(*args, **kwargs):
        from ecborrow.errors import EmptyCell

        raise EmptyCell("synthetic failure")

    # the block's fit fails, and so does each replicate's fit alone
    monkeypatch.setattr(sl.BlockFitter, "solve", flaky)
    monkeypatch.setattr(sl, "fit_bundle", flaky)
    with pytest.raises(ReplicateFailure) as failed:
        run_monte_carlo(cfg, reps=10, master_seed=2)
    assert failed.value.details["messages"] == ["EmptyCell: synthetic failure"] * 5


def test_replicate_fits_seven_models_and_predicts_each_once(monkeypatch):
    import ecborrow.nuisance as nuisance

    fits, designs, predicts = [], [], []
    fit_glm, design = nuisance.fit_glm, nuisance.ModelSpec.design
    predict = nuisance.FittedGLM.predict
    cfg = ScenarioConfig(scenario="iv", n=300)
    ds, _ = generate(cfg, [5, 0])

    def counting_fit_glm(*args, **kwargs):
        fits.append(args[2])
        return fit_glm(*args, **kwargs)

    def counting_design(spec, x):
        designs.append(len(x))
        return design(spec, x)

    def counting_predict(model, x, design=None):
        predicts.append(len(x if design is None else design))
        return predict(model, x, design=design)

    monkeypatch.setattr(nuisance, "fit_glm", counting_fit_glm)
    monkeypatch.setattr(nuisance.ModelSpec, "design", counting_design)
    monkeypatch.setattr(nuisance.FittedGLM, "predict", counting_predict)
    row = sl._mc_replicate(ds, sl.ALL_ESTIMATORS)
    assert row.shape == (2 * len(sl.ALL_ESTIMATORS) + 1,) and np.isfinite(row).all()
    # m1, pooled m0, p, pi, the two log-variance fits and trial m0
    assert fits == ["identity"] * 2 + ["logit"] * 2 + ["identity"] * 3
    # every fit, the variance ratio's too, reads its rows of the table's one all-row
    # design, which every estimator shares
    assert designs == [cfg.n]
    # the two calibrations, plus 5 table predictions, of which pooled m0's is also
    # what its residuals read
    assert len(predicts) == 7


def _block_and_alone(cfg, seed, reps):
    """Each replicate's row from one block of ``reps`` (None where the block hands
    it back), and its row or failure message from _mc_replicate alone."""
    drawn = [generate(cfg, [seed, rep])[0] for rep in reps]
    block = DatasetBlock.stack(drawn)
    rows = sl._block_points(sl.BlockFitter(block, sl.linear_specs(block.k), sl.RATIO_LOGLINEAR),
                            (partial(sl._record_columns, sl.ALL_ESTIMATORS),))
    alone = [sl._mc_replicate(ds, sl.ALL_ESTIMATORS) for ds in drawn]
    return rows, alone


def test_block_gives_back_each_drawn_dataset_bit_for_bit():
    # a replicate the block cannot stand in for is fit alone on what the block holds
    drawn = [generate(ScenarioConfig(scenario="iii", n=60), [4, rep])[0] for rep in range(5)]
    block = DatasetBlock.stack(drawn)
    for k, ds in enumerate(drawn):
        back = block.dataset(k)
        for name in ("y", "x", "t", "d"):
            mine, theirs = getattr(back, name), getattr(ds, name)
            assert (mine.dtype, mine.shape, mine.tobytes()) == (
                theirs.dtype, theirs.shape, theirs.tobytes())
        assert (back.n1, back.covariate_names, back.outcome_kind) == (
            ds.n1, ds.covariate_names, ds.outcome_kind)


@pytest.mark.parametrize("n", [60, 1000])
@pytest.mark.parametrize("scenario", sl.SCENARIOS)
def test_block_matches_each_replicate_fit_alone(scenario, n):
    cfg = ScenarioConfig(scenario=scenario, n=n)
    for seed in (0, 1, 2):
        rows, alone = _block_and_alone(cfg, seed, range(12))
        for block, own in zip(rows, alone):
            # the block stands in for every replicate here, so each is compared
            assert block is not None and not isinstance(own, str)
            for column in range(0, 2 * len(sl.ALL_ESTIMATORS), 2):
                (point, variance), (own_point, own_variance) = (
                    block[column:column + 2], own[column:column + 2])
                # a point near zero is compared on the scale of its standard error
                assert abs(point - own_point) <= 1e-12 * max(abs(own_point), own_variance**0.5)
                assert variance == pytest.approx(own_variance, rel=1e-12, abs=0)
            # the gain reads the log-variance fits, whose responses log(r^2 + floor)
            # magnify the last bits in which m0 from normal equations and from lstsq
            # differ by 2/|r| where a residual r is near zero (2.6e-12 seen at n = 60)
            assert block[-1] == pytest.approx(own[-1], rel=1e-11, abs=0)


def _outcome(cfg, reps):
    try:
        return sl.run_monte_carlo(cfg, reps, master_seed=7).to_dict()
    except ReplicateFailure as exc:
        return exc.to_dict()


@pytest.mark.parametrize("n, scenario, reps, failures", [
    (20, "i", 100, None),  # 18 of 100 fail: the study raises ReplicateFailure
    (35, "ii", 300, 2),
    (40, "iv", 200, 1),
])
def test_block_failures_match_replicates_fit_alone(monkeypatch, n, scenario, reps, failures):
    cfg = ScenarioConfig(scenario=scenario, n=n)
    rows, alone = _block_and_alone(cfg, 7, range(reps))
    # the block hands back exactly the replicates that fail alone
    assert [row is None for row in rows] == [isinstance(own, str) for own in alone]
    with_block = _outcome(cfg, reps)
    # with the block disabled every replicate is fit alone
    monkeypatch.setattr(sl, "_block_points", lambda fitter, points, base: [None] * len(base.y))
    fit_alone = _outcome(cfg, reps)
    if failures is None:
        assert with_block == fit_alone
        assert with_block["code"] == "REPLICATE_FAILURE"
        return
    assert with_block["failures"] == fit_alone["failures"] == failures
    assert with_block["failure_messages"] == fit_alone["failure_messages"]
    for name, summary in with_block["summaries"].items():
        own = fit_alone["summaries"][name]
        assert (summary["reps"], summary["coverage"]) == (own["reps"], own["coverage"])
        for key in ("mean_bias", "sd", "mse", "mean_variance_estimate"):
            assert summary[key] == pytest.approx(own[key], rel=1e-11, abs=1e-12 * own["sd"])
    assert with_block["mean_analytic_gain"] == pytest.approx(
        fit_alone["mean_analytic_gain"], rel=1e-11)


@pytest.mark.parametrize("patch, message", [
    (("efficiency_gain_analytic", lambda gain: lambda *args: gain(*args) + np.inf),
     "replicate analytic gain is inf"),
    (("uncentred", lambda check: lambda values, points: np.ones_like(points, dtype=bool)),
     "replicate tau_full IF variance is nan"),
], ids=["gain", "variance"])
def test_replicate_fit_alone_with_a_non_finite_value_is_a_typed_failure(monkeypatch, patch,
                                                                         message):
    # every row holds a non-finite value: the block hands each replicate back,
    # and each one fit alone is a failure that names the first such column
    name, wrap = patch
    monkeypatch.setattr(sl, name, wrap(getattr(sl, name)))
    with pytest.raises(ReplicateFailure) as failed:
        run_monte_carlo(ScenarioConfig(scenario="i", n=200), reps=3, master_seed=1)
    assert failed.value.details["messages"] == [f"NonFiniteResult: {message}"] * 3


def test_failed_draw_is_its_replicates_failure(tmp_path, capsys):
    # at n = 40 this selection index leaves most draws without a trial row:
    # each such draw fails as its replicate, and the study reports them all
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dgp": {"selection_coefs": [-4.0, 0.0, 0.0]}}))
    code = main(["simulate", "--scenario", "i", "--reps", "50", "--n", "40",
                 "--config", str(config)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 4
    assert error["code"] == "REPLICATE_FAILURE"
    assert error["message"] == "50/50 Monte Carlo replicates failed"
    assert error["details"]["messages"] == [
        "EmptyCell: no treated trial rows to fit the treated outcome model",
        "InvariantViolation: no trial rows (d=1) present",
        "RankDeficient: 1 rows cannot identify 3 coefficients",
        "InvariantViolation: no trial rows (d=1) present",
        "InvariantViolation: no trial rows (d=1) present",
    ]


# the engagement shift with a treatment index that differs from the default's
ENGAGEMENT_DGP = {"engagement_coefs": [0.5, 0.2, 0.0], "treatment_coefs": [0.3, 0.1, -0.2]}
FAILED_DRAW_DGP = {"selection_coefs": [-4.0, 0.0, 0.0]}


def _simulate(capsys, tmp_path, argv, dgp=None):
    if dgp is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dgp": dgp}))
        argv = [*argv, "--config", str(config)]
    code = main(["simulate", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, dgp", [
    (["--reps", "20", "--n", "200", "--seed", "5"], None),
    (["--reps", "12", "--n", "150", "--seed", "2"], ENGAGEMENT_DGP),
], ids=["default", "engagement"])
def test_study_gives_each_scenario_the_bytes_of_its_run_alone(capsys, tmp_path, argv, dgp):
    code, out = _simulate(capsys, tmp_path, ["--scenario", "all", *argv], dgp)
    study = json.loads(out)
    assert code == 0
    for scenario in sl.SCENARIOS:
        code, alone = _simulate(capsys, tmp_path, ["--scenario", scenario, *argv], dgp)
        assert code == 0
        assert json.dumps({**study, "scenarios": {scenario: study["scenarios"][scenario]}}) == (
            json.dumps(json.loads(alone)))


def test_study_fails_with_the_first_scenarios_error_bytes(capsys, tmp_path):
    argv = ["--reps", "50", "--n", "40"]
    study = _simulate(capsys, tmp_path, ["--scenario", "all", *argv], FAILED_DRAW_DGP)
    assert study == _simulate(capsys, tmp_path, ["--scenario", "i", *argv], FAILED_DRAW_DGP)
    assert study[0] == 4


def test_study_draws_each_stream_once_and_fits_twin_propensities_once(monkeypatch, capsys):
    import ecborrow.nuisance as nuisance

    seeds, logits = [], []
    default_rng, stacked_logit = np.random.default_rng, nuisance._stacked_logit

    def counting_rng(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    def counting_logit(*args, **kwargs):
        logits.append(args[0].shape)
        return stacked_logit(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(nuisance, "_stacked_logit", counting_logit)
    assert main(["simulate", "--scenario", "all", "--reps", "20", "--n", "1000",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    blocks = sl.block_ranges(20, 1000, sl.BLOCK_BYTES)
    assert [len(block) for block in blocks] == [16, 4]
    assert seeds == [[5, rep] for rep in range(20)]
    # every fit is a block's: p and pi once for i and iii and once for ii and iv
    assert logits == [(len(block), 1000, 3) for block in blocks for _ in range(4)]


def _scored(monkeypatch, cfgs, seed, reps):
    """``_mc_block``'s outcomes over ``reps``, and the (fitter, block) of each scenario
    block it scores, in the order it scores them."""
    scored, block_points = [], sl._block_points

    def recording(fitter, points, base):
        scored.append((fitter, base))
        return block_points(fitter, points, base=base)

    monkeypatch.setattr(sl, "_block_points", recording)
    return sl._mc_block((cfgs, seed, reps, sl.ALL_ESTIMATORS)), scored


def _assert_block_holds_each_replicate_drawn_alone(cfg, block, scored, seed, reps) -> list:
    """The failed draws of ``reps``, once ``block`` holds the bytes of the others drawn
    alone and ``scored`` each failed draw's message."""
    drawn, failed = [], []
    for rep in reps:
        try:
            drawn.append(generate(cfg, [seed, rep])[0])
        except InvariantViolation as exc:
            failed.append((rep, f"InvariantViolation: {exc}"))
    assert drawn
    alone = DatasetBlock.stack(drawn)
    for name in ("y", "x", "t", "d", "n1"):
        mine, theirs = getattr(block, name), getattr(alone, name)
        assert (mine.dtype, mine.shape, mine.tobytes()) == (
            theirs.dtype, theirs.shape, theirs.tobytes())
    assert [(rep, scored[rep]) for rep, _ in failed] == failed
    return failed


@pytest.mark.parametrize("dgp, n, seed", [
    ({}, 60, 3),
    (ENGAGEMENT_DGP, 60, 3),
    (FAILED_DRAW_DGP, 40, 0),
], ids=["default", "engagement", "failed-draws"])
def test_study_blocks_hold_the_bytes_of_each_replicate_drawn_alone(monkeypatch, dgp, n, seed):
    overrides = {key: tuple(value) for key, value in dgp.items()}
    cfgs = [ScenarioConfig(scenario=scenario, n=n, **overrides) for scenario in sl.SCENARIOS]
    reps = range(8)
    outcomes, scored = _scored(monkeypatch, cfgs, seed, reps)
    # twins are scored back to back: i and iii, then ii and iv
    order = [sl.SCENARIOS.index(scenario) for scenario in ("i", "iii", "ii", "iv")]
    assert len(scored) == len(cfgs)
    for s, (_, block) in zip(order, scored):
        failed = _assert_block_holds_each_replicate_drawn_alone(
            cfgs[s], block, outcomes[s], seed, reps)
        assert bool(failed) == (dgp is FAILED_DRAW_DGP)


def _count_stacked_work(monkeypatch) -> dict:
    """Counts, as the run goes, of ``BlockFitter`` constructions, ``_guarded_gram``
    calls and the predictions of stacked models: logit ones (the propensities the
    block tables read) and identity ones (the outcome means)."""
    import ecborrow.nuisance as nuisance

    counts = {"fitters": 0, "grams": 0, "propensities": 0, "identities": 0}
    init, guarded_gram = nuisance.BlockFitter.__init__, nuisance._guarded_gram
    predict = nuisance.FittedGLM.predict

    def counting_init(fitter, *args, **kwargs):
        counts["fitters"] += 1
        init(fitter, *args, **kwargs)

    def counting_gram(design, weights):
        counts["grams"] += 1
        return guarded_gram(design, weights)

    def counting_predict(model, x, design=None):
        stacked = np.ndim(model.coef) == 2
        counts["propensities"] += stacked and model.family == nuisance.LOGIT
        counts["identities"] += stacked and model.family == nuisance.IDENTITY
        return predict(model, x, design=design)

    monkeypatch.setattr(nuisance.BlockFitter, "__init__", counting_init)
    monkeypatch.setattr(nuisance, "_guarded_gram", counting_gram)
    monkeypatch.setattr(nuisance.FittedGLM, "predict", counting_predict)
    return counts


def test_study_builds_each_gram_and_propensity_once_per_twin_pair(monkeypatch, capsys):
    counts = _count_stacked_work(monkeypatch)
    assert main(["simulate", "--scenario", "all", "--reps", "20", "--n", "1000",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    # 2 blocks of 2 twin pairs, each pair on one fitter building the Grams of m1,
    # pooled m0, p, pi, trial m0 (which the trial controls' log-variance fit shares)
    # and the external log-variance fit, and predicting p and pi; each of the 2 x 4
    # scenario blocks predicts m1, pooled m0 (which the ratio's residuals read too)
    # and trial m0 once
    assert counts == {"fitters": 2 * 2, "grams": 2 * 2 * 6, "propensities": 2 * 2 * 2,
                      "identities": 2 * 4 * 3}


def test_twins_follow_the_draw_fields_not_the_scenario_names(monkeypatch):
    # iii selects on other coefficients than i, so its d is not i's: each is
    # scored alone, after ii and iv, which are still twins
    cfgs = [ScenarioConfig(scenario=scenario, n=200) for scenario in sl.SCENARIOS]
    cfgs[2] = replace(cfgs[2], selection_coefs=(0.2, 0.5, -0.3))
    counts = _count_stacked_work(monkeypatch)
    seed, reps = 3, range(8)
    outcomes, scored = _scored(monkeypatch, cfgs, seed, reps)
    order = [sl.SCENARIOS.index(scenario) for scenario in ("i", "ii", "iv", "iii")]
    assert len(scored) == len(cfgs)
    for s, (_, block) in zip(order, scored):
        assert not _assert_block_holds_each_replicate_drawn_alone(
            cfgs[s], block, outcomes[s], seed, reps)
    first, twin, other_twin, third = (fitter for fitter, _ in scored)
    assert twin is other_twin and len({id(first), id(twin), id(third)}) == 3
    assert not np.array_equal(scored[0][1].d, scored[3][1].d)
    # i and iii share no fitter, Gram or propensity: each twin set builds its own
    assert counts == {"fitters": 3, "grams": 3 * 6, "propensities": 3 * 2,
                      "identities": 4 * 3}


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


def test_boxplot_ids_are_each_points_replicate(tmp_path):
    # at n = 40, scenarios ii and iv each lose one replicate to RankDeficient;
    # the points after it keep their own replicate numbers
    cfgs = [ScenarioConfig(scenario=scenario, n=40) for scenario in sl.SCENARIOS]
    outcomes = sl._mc_block((tuple(cfgs), 1, range(100), sl.ALL_ESTIMATORS))
    failed = {cfg.scenario: [rep for rep, item in enumerate(items) if isinstance(item, str)]
              for cfg, items in zip(cfgs, outcomes)}
    path = tmp_path / "boxplot.csv"
    export_boxplot_data(sl.run_study(cfgs, 100, master_seed=1, keep_draws=True), path)
    ids: dict = {}
    for row in csv.DictReader(path.open()):
        if row["estimator"] == "tau_full":
            ids.setdefault(row["scenario"], []).append(int(row["replicate"]))
    assert failed["i"] == [] and ids["i"] == list(range(100))
    for scenario in ("ii", "iv"):
        assert len(failed[scenario]) == 1
        assert ids[scenario] == [rep for rep in ids["i"] if rep not in failed[scenario]]


def test_boxplot_export_requires_draws(tmp_path):
    res = run_monte_carlo(ScenarioConfig(scenario="i", n=250), reps=3, master_seed=1)
    with pytest.raises(ConfigError):
        export_boxplot_data([res], tmp_path / "x.csv")
