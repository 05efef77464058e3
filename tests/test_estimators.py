import numpy as np
import pytest

from ecborrow.dataset import CompositeDataset, DatasetBlock
from ecborrow.errors import (
    ConfigError,
    EmptyCell,
    InvariantViolation,
    MismatchedPoint,
    OverlapNoExternal,
)
from ecborrow.estimators import (
    METHOD_BASELINE,
    METHOD_FULL,
    METHOD_TRIAL,
    METHOD_TREATED_ONLY,
    Estimate,
    Estimator,
    RowTable,
    _moment,
    control_weight,
    efficiency_bound_plugin,
    efficiency_gain_analytic,
    estimate,
    estimate_psi,
    estimate_tau_full,
    estimate_tau_treated_only,
    estimate_tau_trial,
    estimate_xi,
    influence_values,
    variance_gap_psi,
    variance_gap_xi,
)
from ecborrow.nuisance import (
    IDENTITY,
    LOGIT,
    RATIO_CONSTANT,
    RATIO_KNOWN_ONE,
    RATIO_LOGLINEAR,
    BlockFitter,
    FittedGLM,
    NuisanceSet,
    VarianceRatioModel,
    expit,
    fit_bundle,
    linear_specs,
)
from ecborrow.simlab import ScenarioConfig, generate

from conftest import (
    constant_propensity_model,
    fit_sets,
    make_discrete_dataset,
    make_population_dataset,
    make_random_dataset,
)
from oracles import CellOracle, PopulationGapOracle, reference_estimator


# ------------------------------ row table ------------------------------


def test_shared_row_table_gives_the_values_of_separate_calls(random_dataset, monkeypatch):
    ds = random_dataset
    sets = fit_sets(ds)
    pairs = [("tau", METHOD_FULL, "pooled"), ("tau", METHOD_TRIAL, "unpooled"),
             ("psi", METHOD_FULL, "pooled"), ("psi", METHOD_BASELINE, "unpooled"),
             ("xi", METHOD_FULL, "pooled"), ("xi", METHOD_BASELINE, "unpooled")]
    alone = [estimate(ds, sets[name], estimand, method) for estimand, method, name in pairs]
    alone_ifs = [influence_values(ds, sets[name], estimand, method, est.point).values
                 for (estimand, method, name), est in zip(pairs, alone)]
    alone_gain = efficiency_gain_analytic(ds, sets["pooled"])

    predicted = []
    predict = FittedGLM.predict

    def counting_predict(model, *args, **kwargs):
        predicted.append(model)
        return predict(model, *args, **kwargs)

    monkeypatch.setattr(FittedGLM, "predict", counting_predict)
    table = RowTable(ds)
    for (estimand, method, name), est, ifv in zip(pairs, alone, alone_ifs):
        assert estimate(ds, sets[name], estimand, method, table=table) == est
        shared_if = influence_values(ds, sets[name], estimand, method, est.point, table=table)
        assert np.array_equal(shared_if.values, ifv)
    assert efficiency_gain_analytic(ds, sets["pooled"], table=table) == alone_gain
    # m1, pooled m0, trial m0, p and pi: each predicted once for all six pairs
    assert len(predicted) == len({id(m) for m in predicted}) == 5


def test_row_table_of_another_dataset_is_rejected(random_dataset):
    nuis = fit_sets(random_dataset)["pooled"]
    other = RowTable(make_random_dataset(8))
    with pytest.raises(ConfigError):
        estimate_tau_full(random_dataset, nuis, table=other)


# ---------------------------- ratio moments ----------------------------


def _binary_dataset(seed: int, n: int = 300) -> CompositeDataset:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    d = (rng.random(n) < expit(0.2 + 0.4 * x[:, 0])).astype(int)
    t = ((d == 1) & (rng.random(n) < 0.5)).astype(int)
    y = (rng.random(n) < expit(0.1 + 0.6 * x[:, 0] - 0.3 * x[:, 1] + 0.7 * t)).astype(float)
    return CompositeDataset(y, x, t, d)


_FULL_AND_COMPARATORS = [
    ("tau", METHOD_FULL, "pooled"), ("tau", METHOD_TRIAL, "unpooled"),
    ("psi", METHOD_FULL, "pooled"), ("psi", METHOD_BASELINE, "unpooled"),
    ("xi", METHOD_FULL, "pooled"), ("xi", METHOD_BASELINE, "unpooled"),
]


def test_moment_form_matches_each_estimators_own_expressions():
    cases = [(make_random_dataset(seed), IDENTITY, RATIO_LOGLINEAR, False) for seed in range(4)]
    cases.append((_binary_dataset(5), LOGIT, RATIO_KNOWN_ONE, False))
    cases.append((_treated_only_dataset(6), IDENTITY, RATIO_KNOWN_ONE, True))
    for ds, family, ratio, treated_only in cases:
        sets, table = fit_bundle(ds, linear_specs(ds.k, family), ratio, treated_only=treated_only)
        pairs = [("tau", METHOD_TREATED_ONLY, "treated_only")] if treated_only else _FULL_AND_COMPARATORS
        for estimand, method, name in pairs:
            nuis = sets[name]
            predictions = [None if model is None else model.predict(ds.x)
                           for model in (nuis.m1, nuis.m0, nuis.p, nuis.pi)]
            ref_point, ref_if = reference_estimator(
                ds.y, ds.t, ds.d, *predictions, nuis.r.predict_r(ds.x), estimand, method
            )
            est = estimate(ds, nuis, estimand, method, table=table)
            values = influence_values(ds, nuis, estimand, method, est.point, table=table).values
            assert est.point == pytest.approx(ref_point, rel=1e-12, abs=0)
            assert np.max(np.abs(values - ref_if)) <= 1e-12 * np.max(np.abs(ref_if))
        if treated_only:
            continue
        # psi's rows are tau's plus xi's, which is psi = q*tau + (1 - q)*xi
        for name, method in (("pooled", METHOD_FULL), ("unpooled", METHOD_BASELINE)):
            nuis = sets[name]
            zero_ratio = method == METHOD_BASELINE
            tau = _moment(ds, nuis, "tau", METHOD_FULL, table, zero_ratio=zero_ratio).numer
            psi = _moment(ds, nuis, "psi", method, table).numer
            xi = _moment(ds, nuis, "xi", method, table).numer
            np.testing.assert_allclose(psi, tau + xi, rtol=0, atol=1e-12)


# ---------------------------- control weight ---------------------------


def test_weight_trial_control_with_pi_one():
    w, floored = control_weight(
        np.array([1.0]), np.array([0.3]), np.array([2.0]), np.array([1]), np.array([0])
    )
    assert w[0] == pytest.approx(1.0 / 0.7)
    assert floored == 0


def test_weight_zero_ratio_kills_external():
    w, _ = control_weight(
        np.array([0.6]), np.array([0.3]), np.array([0.0]), np.array([0]), np.array([0])
    )
    assert w[0] == 0.0


def test_weight_direct_arithmetic():
    w, _ = control_weight(
        np.array([0.5]), np.array([0.5]), np.array([1.0]), np.array([0]), np.array([0])
    )
    assert w[0] == pytest.approx(2.0 / 3.0)


def test_weight_floors_tiny_denominator():
    w, floored = control_weight(
        np.array([1e-9]), np.array([1.0 - 1e-12]), np.array([1e-9]),
        np.array([0]), np.array([0]),
    )
    assert floored == 1
    assert np.isfinite(w[0])


# --------------------------- identity checks ---------------------------


def test_reduction_identity_across_datasets():
    for seed in range(25):
        ds = make_random_dataset(seed)
        sets = fit_sets(ds)
        trial = estimate_tau_trial(ds, sets["unpooled"])
        reduced = estimate_tau_full(ds, sets["unpooled"], zero_ratio=True)
        assert reduced.point == pytest.approx(trial.point, abs=1e-12)


def test_mixture_identity_across_datasets():
    for seed in range(25):
        ds = make_random_dataset(seed + 100)
        sets = fit_sets(ds)
        tau = estimate_tau_full(ds, sets["pooled"]).point
        psi = estimate_psi(ds, sets["pooled"]).point
        xi = estimate_xi(ds, sets["pooled"]).point
        q = ds.q_hat
        assert psi == pytest.approx(q * tau + (1 - q) * xi, abs=1e-10)


def test_influence_mean_zero_every_method(random_dataset):
    sets = fit_sets(random_dataset)
    cases = [
        ("tau", METHOD_FULL, sets["pooled"], estimate_tau_full),
        ("tau", METHOD_TRIAL, sets["unpooled"], estimate_tau_trial),
        ("psi", METHOD_FULL, sets["pooled"], lambda d, n: estimate_psi(d, n, METHOD_FULL)),
        ("psi", METHOD_BASELINE, sets["unpooled"], lambda d, n: estimate_psi(d, n, METHOD_BASELINE)),
        ("xi", METHOD_FULL, sets["pooled"], lambda d, n: estimate_xi(d, n, METHOD_FULL)),
        ("xi", METHOD_BASELINE, sets["unpooled"], lambda d, n: estimate_xi(d, n, METHOD_BASELINE)),
    ]
    for estimand, method, nuis, fn in cases:
        point = fn(random_dataset, nuis).point
        ifv = influence_values(random_dataset, nuis, estimand, method, point)
        assert abs(np.mean(ifv.values)) <= 1e-8
        assert ifv.values.shape == (random_dataset.n,)


def test_wrong_point_raises(random_dataset):
    sets = fit_sets(random_dataset)
    point = estimate_tau_full(random_dataset, sets["pooled"]).point
    with pytest.raises(MismatchedPoint):
        influence_values(random_dataset, sets["pooled"], "tau", METHOD_FULL, point + 0.5)


def test_estimate_type_validation(random_dataset):
    with pytest.raises(ConfigError):
        Estimate("tau", "baseline", 0.0, 1, "x", 0)
    with pytest.raises(ConfigError):
        Estimate("psi", "treated_only", 0.0, 1, "x", 0)


# ------------------------- enumeration oracle --------------------------


@pytest.fixture(scope="module")
def discrete_case():
    ds = make_discrete_dataset(3)
    sets = fit_sets(ds, ratio_mode="known_one", saturated=True)
    oracle = CellOracle(ds.y, ds.x, ds.t, ds.d)
    return ds, sets, oracle


def test_oracle_equivalence_estimates(discrete_case):
    ds, sets, oracle = discrete_case
    checks = [
        (estimate_tau_full(ds, sets["pooled"]).point, oracle.tau_full()),
        (estimate_tau_trial(ds, sets["unpooled"]).point, oracle.tau_trial()),
        (estimate_psi(ds, sets["pooled"]).point, oracle.psi(True)),
        (estimate_psi(ds, sets["unpooled"], METHOD_BASELINE).point, oracle.psi(False)),
        (estimate_xi(ds, sets["pooled"]).point, oracle.xi(True)),
        (estimate_xi(ds, sets["unpooled"], METHOD_BASELINE).point, oracle.xi(False)),
    ]
    for got, expected in checks:
        assert got == pytest.approx(expected, abs=1e-8)


def test_oracle_equivalence_bounds(discrete_case):
    ds, sets, oracle = discrete_case
    assert efficiency_bound_plugin(ds, sets["pooled"], "tau", METHOD_FULL) == pytest.approx(
        oracle.bound_tau_full(), abs=1e-8
    )
    assert efficiency_bound_plugin(ds, sets["unpooled"], "tau", METHOD_TRIAL) == pytest.approx(
        oracle.bound_tau_trial(), abs=1e-8
    )
    assert efficiency_bound_plugin(ds, sets["pooled"], "psi", METHOD_FULL) == pytest.approx(
        oracle.bound_psi(True), abs=1e-8
    )
    assert efficiency_bound_plugin(ds, sets["pooled"], "xi", METHOD_FULL) == pytest.approx(
        oracle.bound_xi(True), abs=1e-8
    )


def test_bounds_nonnegative(random_dataset):
    sets = fit_sets(random_dataset)
    assert efficiency_bound_plugin(random_dataset, sets["pooled"], "tau", METHOD_FULL) >= 0
    assert efficiency_bound_plugin(random_dataset, sets["unpooled"], "tau", METHOD_TRIAL) >= 0


def test_bound_ordering_on_correct_spec_draws():
    wins = 0
    for rep in range(30):
        ds, _ = generate(ScenarioConfig(scenario="i", n=600), [909, rep])
        sets = fit_sets(ds)
        full = efficiency_bound_plugin(ds, sets["pooled"], "tau", METHOD_FULL)
        trial = efficiency_bound_plugin(ds, sets["unpooled"], "tau", METHOD_TRIAL)
        wins += full <= trial
    assert wins >= 27


# ----------------------------- treated-only ----------------------------


def _treated_only_dataset(seed=0, n1=150, n2=150):
    rng = np.random.default_rng(seed)
    n = n1 + n2
    x = rng.standard_normal((n, 2))
    d = np.array([1] * n1 + [0] * n2)
    t = d.copy()
    y = 1.0 + 0.8 * x[:, 0] + t * 1.5 + rng.standard_normal(n)
    return CompositeDataset(y, x, t, d)


def _treated_only_nuisances(ds, m0_coef=None):
    nuis = fit_bundle(ds, linear_specs(2), RATIO_KNOWN_ONE, treated_only=True)[0]["treated_only"]
    if m0_coef is not None:
        nuis.m0.coef = np.asarray(m0_coef, dtype=float)
    return nuis


def test_treated_only_rejects_trial_controls(random_dataset):
    nuis = fit_sets(random_dataset)["pooled"]
    with pytest.raises(InvariantViolation):
        estimate_tau_treated_only(random_dataset, nuis)


def test_treated_only_constant_selection_matches_hand_formula():
    ds = _treated_only_dataset(4)
    nuis = _treated_only_nuisances(ds)
    nuis.pi = constant_propensity_model(ds.q_hat)
    est = estimate_tau_treated_only(ds, nuis)
    resid = ds.y - nuis.m0.predict(ds.x)
    hand = resid[ds.d == 1].mean() - resid[ds.d == 0].mean()
    assert est.point == pytest.approx(hand, abs=1e-10)


def test_treated_only_double_robustness_mc():
    # correct outcome model, arbitrary selection model: mean bias within MC noise
    errors_m0, errors_pi = [], []
    for rep in range(200):
        ds = _treated_only_dataset(seed=rep + 1000, n1=120, n2=120)
        nuis = _treated_only_nuisances(ds)
        good_pi = nuis.pi
        nuis.pi = constant_propensity_model(0.35)  # wrong on purpose
        errors_m0.append(estimate_tau_treated_only(ds, nuis).point - 1.5)
        nuis.pi = good_pi
        bad_m0 = _treated_only_nuisances(ds, m0_coef=(0.2, 0.1, 0.3))
        errors_pi.append(estimate_tau_treated_only(ds, bad_m0).point - 1.5)
    for errors in (errors_m0, errors_pi):
        arr = np.array(errors)
        assert abs(arr.mean()) <= 3 * arr.std() / np.sqrt(len(arr))


def test_treated_only_influence_mean_zero():
    ds = _treated_only_dataset(9)
    nuis = _treated_only_nuisances(ds)
    point = estimate_tau_treated_only(ds, nuis).point
    ifv = influence_values(ds, nuis, "tau", "treated_only", point)
    assert abs(np.mean(ifv.values)) <= 1e-8


# ----------------------- limits and gap formulas -----------------------


def test_psi_collapses_to_tau_when_trial_dominates():
    rng = np.random.default_rng(17)
    n1 = 2000
    x = rng.standard_normal((n1 + 1, 2))
    d = np.array([1] * n1 + [0])
    t = np.concatenate([(rng.random(n1) < 0.5).astype(int), [0]])
    y = 1.0 + x[:, 0] + t * 1.2 + rng.standard_normal(n1 + 1)
    ds = CompositeDataset(y, x, t, d)
    sets = fit_sets(ds, ratio_mode="known_one")
    high_pi = constant_propensity_model(1.0 - 1e-3)
    for key in sets:
        sets[key].pi = high_pi
    tau = estimate_tau_full(ds, sets["pooled"]).point
    psi = estimate_psi(ds, sets["pooled"]).point
    trial = estimate_tau_trial(ds, sets["unpooled"]).point
    assert psi == pytest.approx(tau, abs=0.02)
    assert psi == pytest.approx(trial, abs=0.05)


def _constant_ratio_nuis(base: NuisanceSet, r: float, v1: float) -> NuisanceSet:
    ratio = VarianceRatioModel(
        RATIO_CONSTANT, const_ratio=r, const_var_trial=v1, const_var_external=v1 / r
    )
    return NuisanceSet(
        m0=base.m0, r=ratio, m0_pooled=base.m0_pooled, m1=base.m1, p=base.p, pi=base.pi
    )


def test_gain_vanishes_as_selection_probability_approaches_one(random_dataset):
    base = fit_sets(random_dataset)["pooled"]
    gains = []
    for pi_const in (0.5, 0.9, 0.999):
        nuis = _constant_ratio_nuis(base, r=1.0, v1=1.0)
        nuis.pi = constant_propensity_model(pi_const)
        gains.append(efficiency_gain_analytic(random_dataset, nuis))
    assert gains[0] > gains[1] > gains[2] >= 0
    assert gains[2] < 0.01 * gains[0]


def test_gain_monotone_in_ratio_and_saturates(random_dataset):
    base = fit_sets(random_dataset)["pooled"]
    values = [
        efficiency_gain_analytic(random_dataset, _constant_ratio_nuis(base, r, 1.0))
        for r in (0.5, 1.0, 2.0, 10.0, 1000.0)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))
    # saturation point: mean over trial rows of V1 / ((1 - p) * q)
    trial = random_dataset.d == 1
    p = RowTable(random_dataset).propensity(base.p)[0][trial]
    limit = np.mean(1.0 / (1.0 - p) / random_dataset.q_hat)
    assert values[-1] == pytest.approx(limit, rel=0.01)


def test_gap_formulas_nonnegative(random_dataset):
    sets = fit_sets(random_dataset)
    assert efficiency_gain_analytic(random_dataset, sets["pooled"]) >= 0
    assert variance_gap_psi(random_dataset, sets["pooled"]) >= 0
    assert variance_gap_xi(random_dataset, sets["pooled"]) >= 0


# ------------------ exact population-identity checks -------------------


@pytest.fixture(scope="module")
def population_case():
    ds, layout = make_population_dataset()
    probs = np.array([sum(counts) for _, counts, *_ in layout], dtype=float)
    probs /= probs.sum()
    pi = np.array([(c[0] + c[1]) / sum(c) for _, c, *_ in layout])
    p = np.array([c[0] / (c[0] + c[1]) for _, c, *_ in layout])
    m0 = np.array([row[2] for row in layout])
    m1 = np.array([row[3] for row in layout])
    s1 = np.array([row[4] for row in layout])
    s0 = np.array([row[5] for row in layout])
    oracle = PopulationGapOracle(probs, pi, p, m0, m1, s1, s0)
    sets = fit_sets(ds, ratio_mode=RATIO_LOGLINEAR, saturated=True)
    return ds, sets, oracle


def test_tau_gap_identity_on_population(population_case):
    _, _, oracle = population_case
    enumerated = oracle.bound_tau_trial() - oracle.bound_tau_full()
    assert enumerated == pytest.approx(oracle.gain_formula(), abs=1e-10)


def test_psi_gap_identity_on_population(population_case):
    _, _, oracle = population_case
    enumerated = oracle.bound_psi(False) - oracle.bound_psi(True)
    assert enumerated == pytest.approx(oracle.psi_gap_formula(), abs=1e-10)


def test_package_gain_matches_enumeration(population_case):
    ds, sets, oracle = population_case
    gain = efficiency_gain_analytic(ds, sets["pooled"])
    assert gain == pytest.approx(oracle.gain_formula(), abs=1e-6)


def test_package_bounds_match_enumeration_on_population(population_case):
    ds, sets, oracle = population_case
    full = efficiency_bound_plugin(ds, sets["pooled"], "tau", METHOD_FULL)
    trial = efficiency_bound_plugin(ds, sets["unpooled"], "tau", METHOD_TRIAL)
    assert full == pytest.approx(oracle.bound_tau_full(), abs=1e-6)
    assert trial == pytest.approx(oracle.bound_tau_trial(), abs=1e-6)
    assert trial - full == pytest.approx(oracle.gain_formula(), abs=1e-6)


def test_package_psi_xi_gaps_match_enumeration(population_case):
    ds, sets, oracle = population_case
    assert variance_gap_psi(ds, sets["pooled"]) == pytest.approx(
        oracle.psi_gap_formula(), abs=1e-6
    )
    assert variance_gap_xi(ds, sets["pooled"]) == pytest.approx(
        oracle.xi_gap_formula(), abs=1e-6
    )


def test_gap_identity_vanishes_with_tiny_ratio():
    ds, layout = make_population_dataset()
    probs = np.array([sum(counts) for _, counts, *_ in layout], dtype=float)
    probs /= probs.sum()
    pi = np.array([(c[0] + c[1]) / sum(c) for _, c, *_ in layout])
    p = np.array([c[0] / (c[0] + c[1]) for _, c, *_ in layout])
    m0 = np.array([row[2] for row in layout])
    m1 = np.array([row[3] for row in layout])
    s0 = np.array([row[5] for row in layout])
    tiny = PopulationGapOracle(probs, pi, p, m0, m1, np.full(4, 1e-6), s0)
    # ratio near zero: borrowing adds nothing, both gaps collapse
    assert tiny.gain_formula() == pytest.approx(0.0, abs=1e-6)
    assert tiny.bound_tau_trial() - tiny.bound_tau_full() == pytest.approx(0.0, abs=1e-6)


# ------------------------------ guards ---------------------------------


def test_full_estimators_need_external_rows():
    rng = np.random.default_rng(2)
    n = 80
    x = rng.standard_normal((n, 2))
    d = np.ones(n, dtype=int)
    t = (rng.random(n) < 0.5).astype(int)
    y = rng.standard_normal(n)
    ds = CompositeDataset(y, x, t, d)
    # no external rows: the pooled m0 is fit on the trial controls, and pi is absent
    nuis = fit_bundle(ds, linear_specs(2), RATIO_KNOWN_ONE)[0]["pooled"]
    assert nuis.pi is None
    with pytest.raises(OverlapNoExternal):
        estimate_tau_full(ds, nuis)


def test_trial_based_estimation_needs_both_trial_arms():
    # a dataset without trial controls or without treated rows raises; a
    # DatasetBlock raises only where every dataset lacks an arm, since one
    # dataset's missing arm already leaves its stacked fits not ok
    ds, _ = generate(ScenarioConfig(scenario="i", n=40), 11)
    sets = fit_bundle(ds, linear_specs(ds.k), RATIO_LOGLINEAR)[0]
    no_controls = CompositeDataset(ds.y, ds.x, np.maximum(ds.t, ds.d), ds.d)
    no_treated = CompositeDataset(ds.y, ds.x, np.zeros(ds.n, dtype=int), ds.d)
    trial = Estimator("tau", METHOD_TRIAL)
    for data in (no_controls, no_treated, DatasetBlock.stack([no_controls, no_controls])):
        with pytest.raises(EmptyCell, match="^trial-based estimation needs both trial arms$"):
            trial.moment(data, (sets, None))
    block = DatasetBlock.stack([ds, no_controls])
    ok, fitted = BlockFitter(block, linear_specs(ds.k), RATIO_LOGLINEAR).solve()
    assert ok.tolist() == [True, False]
    assert np.isfinite(trial.point(block, fitted)[0])


def test_method_nuisance_consistency(random_dataset):
    sets = fit_sets(random_dataset)
    with pytest.raises(ConfigError):
        estimate_tau_full(random_dataset, sets["unpooled"])
    with pytest.raises(ConfigError):
        estimate_tau_trial(random_dataset, sets["pooled"])
    with pytest.raises(ConfigError):
        estimate_psi(random_dataset, sets["pooled"], METHOD_BASELINE)


def test_fit_bundle_and_dispatch(random_dataset):
    from ecborrow.estimators import estimate as dispatch

    sets, table = fit_bundle(random_dataset, linear_specs(2), RATIO_LOGLINEAR)
    nuis = sets["pooled"]
    assert nuis.m0_pooled and not sets["unpooled"].m0_pooled
    assert table.ds is random_dataset
    est = dispatch(random_dataset, nuis, "tau", METHOD_FULL, table=table)
    assert est.estimand == "tau"
    assert np.isfinite(est.point)
    with pytest.raises(ConfigError):
        dispatch(random_dataset, nuis, "tau", "baseline")
    with pytest.raises(ConfigError):
        Estimator("tau", "baseline")


def test_fit_bundle_treated_only_path():
    ds = _treated_only_dataset(21)
    from ecborrow.estimators import estimate as dispatch

    sets, table = fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR, treated_only=True)
    nuis = sets["treated_only"]
    assert nuis.m1 is None and nuis.p is None
    assert nuis.r.mode == "known_one"
    est = dispatch(ds, nuis, "tau", "treated_only", table=table)
    assert est.point == pytest.approx(1.5, abs=0.5)


def test_estimator_table_names_sets_fit_bundle_returns(random_dataset):
    from ecborrow import simlab
    from ecborrow.cli import RunConfig, _requested_pairs
    from ecborrow.estimators import ESTIMANDS, ESTIMATORS

    fitted = fit_bundle(random_dataset, linear_specs(2), RATIO_LOGLINEAR)
    for name in simlab.ALL_ESTIMATORS:
        record = simlab._ESTIMATOR_RECORDS[name]
        assert ESTIMATORS[record.estimand, record.method] in fitted[0], name
    cases = [(random_dataset, fitted, flag, estimand)
             for flag in ("full", "trial", "both") for estimand in ESTIMANDS]
    # treated-only runs on a trial without controls, whose bundle is the treated-only set
    ds = _treated_only_dataset(21)
    cases.append((ds, fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR, treated_only=True),
                  "treated-only", "tau"))
    for ds, fitted, flag, estimand in cases:
        cfg = RunConfig(command="estimate", input="data.csv", estimand=estimand, method=flag)
        for pair in _requested_pairs(ds, cfg):
            assert ESTIMATORS[pair.estimand, pair.method] in fitted[0], (flag, pair)
            # the set passes the estimator's own check that it matches the method
            assert np.isfinite(pair.estimate(ds, fitted).point), (flag, pair)


def _reference_fingerprint(nuis: NuisanceSet) -> str:
    import hashlib

    h = hashlib.sha256()
    for model in (nuis.m1, nuis.m0, nuis.p, nuis.pi):
        if model is None:
            h.update(b"absent")
        else:
            h.update(model.family.encode())
            h.update(np.ascontiguousarray(model.coef, dtype=float).tobytes())
    h.update(nuis.r.mode.encode())
    h.update(np.ascontiguousarray(nuis.r.params, dtype=float).tobytes())
    h.update(b"pooled" if nuis.m0_pooled else b"unpooled")
    return h.hexdigest()[:16]


def test_each_estimate_carries_its_set_fingerprint(random_dataset):
    from ecborrow.estimators import estimate as dispatch

    sets = fit_sets(random_dataset)
    pairs = [("tau", METHOD_FULL), ("tau", METHOD_TRIAL), ("psi", METHOD_FULL),
             ("psi", METHOD_BASELINE), ("xi", METHOD_FULL), ("xi", METHOD_BASELINE)]
    for estimand, method in pairs:
        nuis = sets["unpooled" if method in (METHOD_TRIAL, METHOD_BASELINE) else "pooled"]
        est = dispatch(random_dataset, nuis, estimand, method)
        assert est.nuisance_fingerprint == _reference_fingerprint(nuis)


def test_fingerprint_follows_a_swapped_model(random_dataset):
    nuis = fit_sets(random_dataset)["pooled"]
    before = nuis.fingerprint()
    nuis.pi = constant_propensity_model(0.4)
    assert nuis.fingerprint() != before
    assert nuis.fingerprint() == _reference_fingerprint(nuis)
    assert "_fingerprint" not in repr(nuis)
