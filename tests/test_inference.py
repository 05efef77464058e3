from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecborrow.dataset import CompositeDataset
from ecborrow.errors import ConfigError, EmptyCell, ReplicateFailure
from ecborrow.estimators import (
    METHOD_FULL,
    Estimate,
    IFVector,
    estimate,
    estimate_tau_full,
    influence_values,
)
from ecborrow.inference import (
    GREATER,
    LESS,
    TWO_SIDED,
    BiasBound,
    SharedFit,
    bias_bound,
    bootstrap_variance,
    if_variance,
    overlap_diagnostics,
    test as z_test,
    test_mean_exchangeability as run_exchangeability_test,
)
from ecborrow.nuisance import (
    IDENTITY,
    LOGIT,
    RATIO_LOGLINEAR,
    BlockFitter,
    ModelSpec,
    NuisanceSet,
    Term,
    VarianceRatioModel,
    fit_bundle,
    fit_model,
    fit_selection_ps,
    linear_specs,
)
from ecborrow.simlab import ScenarioConfig, generate

from conftest import fit_sets, make_discrete_dataset, make_random_dataset
from oracles import CellOracle


def _estimate(point: float) -> Estimate:
    return Estimate("tau", METHOD_FULL, point, 100, "fp", 0)


# ------------------------------- z test --------------------------------


def test_zero_point_two_sided_p_is_one():
    res = z_test(_estimate(0.0), 0.04, null_value=0.0, sidedness=TWO_SIDED)
    assert res.p_value == pytest.approx(1.0)


def test_ci_contains_point_and_se_matches():
    res = z_test(_estimate(0.3), 0.01, level=0.95)
    assert res.ci[0] < 0.3 < res.ci[1]
    assert res.se == pytest.approx(0.1)
    assert res.variance == pytest.approx(res.se**2)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=1e-6, max_value=10.0),
)
def test_one_sided_p_values_sum_to_one(point, variance):
    greater = z_test(_estimate(point), variance, sidedness=GREATER).p_value
    less = z_test(_estimate(point), variance, sidedness=LESS).p_value
    assert greater + less == pytest.approx(1.0, abs=1e-12)


def test_reference_one_sided_p_values():
    # (point x100, variance x10000) pairs with their one-sided p-values
    table = [
        (5.82, 16.10, 0.073),
        (5.43, 19.55, 0.110),
        (6.72, 14.98, 0.041),
        (6.55, 19.56, 0.069),
        (9.67, 21.50, 0.019),
        (10.24, 38.05, 0.048),
    ]
    for point100, var10000, expected in table:
        res = z_test(
            _estimate(point100 / 100), var10000 / 10000, null_value=0.0, sidedness=GREATER
        )
        assert res.p_value == pytest.approx(expected, abs=1e-3)


def test_z_test_equals_scipy_stats_exactly():
    from scipy import stats

    points = [-np.inf, -1e300, -60.0, -8.5, -1.3, -1e-300, 0.0, 1e-300, 0.7, 8.5, 60.0,
              1e300, np.inf]
    variances = [0.0, 1e-300, 1e-12, 0.04, 1.0, 1e6]
    levels = [0.5, 0.8, 0.9, 0.95, 0.99, 1 - 1e-12]
    for point in points:
        for variance in variances:
            for level in levels:
                for side in (GREATER, LESS, TWO_SIDED):
                    res = z_test(_estimate(point), variance, sidedness=side, level=level)
                    se = np.sqrt(variance)
                    if se == 0:
                        z = np.sign(point) * np.inf if point else 0.0
                    else:
                        with np.errstate(over="ignore"):
                            z = point / se
                    expected = {
                        GREATER: stats.norm.sf(z),
                        LESS: stats.norm.cdf(z),
                        TWO_SIDED: 2.0 * stats.norm.sf(abs(z)),
                    }[side]
                    crit = stats.norm.ppf(0.5 + level / 2.0)
                    assert np.array_equal(res.p_value, expected, equal_nan=True)
                    assert np.array_equal(
                        res.ci, (point - crit * se, point + crit * se), equal_nan=True
                    )


def test_chi2_p_value_equals_scipy_stats_exactly():
    from scipy import stats

    from ecborrow.inference import _chi2_sf

    grid = [-np.inf, -1.0, -1e-17, -0.0, 0.0, 1e-300, 1e-12, 0.1, 1.0, 3.84, 12.6, 50.0,
            300.0, 1500.0, 1e5, 1e300, np.inf]
    for df in range(1, 7):
        for statistic in grid:
            assert _chi2_sf(statistic, df) == stats.chi2.sf(statistic, df)
    # the test's own p-value, one degree of freedom per covariate
    for k in range(1, 7):
        rng = np.random.default_rng(k)
        n = 300
        x = rng.standard_normal((n, k))
        d = (rng.random(n) < 0.5).astype(int)
        t = ((d == 1) & (rng.random(n) < 0.5)).astype(int)
        y = x.sum(axis=1) + 0.4 * k * (1 - d) * x[:, 0] + rng.standard_normal(n)
        res = run_exchangeability_test(CompositeDataset(y, x, t, d))
        assert res.df == k
        assert res.p_value == stats.chi2.sf(res.statistic, k)
        main = res.source_main_effect
        assert main["p_value"] == 2.0 * stats.norm.sf(abs(main["estimate"]) / main["se"])


def test_bad_inputs_rejected():
    with pytest.raises(ConfigError):
        z_test(_estimate(0.0), 0.01, sidedness="sideways")
    with pytest.raises(ConfigError):
        z_test(_estimate(0.0), 0.01, level=1.5)
    with pytest.raises(ConfigError):
        z_test(_estimate(0.0), -1.0)


# ----------------------------- IF variance -----------------------------


def test_if_variance_zero_for_constant_zero():
    ifv = IFVector(np.zeros(50), "tau", METHOD_FULL)
    assert if_variance(ifv) == 0.0


def test_if_variance_matches_formula(random_dataset):
    sets = fit_sets(random_dataset)
    point = estimate_tau_full(random_dataset, sets["pooled"]).point
    ifv = influence_values(random_dataset, sets["pooled"], "tau", METHOD_FULL, point)
    n = random_dataset.n
    assert if_variance(ifv) == pytest.approx(np.var(ifv.values, ddof=1) / n)


# ------------------------------ bootstrap ------------------------------


def _mean_diff_estimator(ds: CompositeDataset) -> float:
    return float(ds.y[ds.t == 1].mean() - ds.y[ds.t == 0].mean())


def test_bootstrap_deterministic(random_dataset):
    a = bootstrap_variance(random_dataset, _mean_diff_estimator, 60, seed=5)
    b = bootstrap_variance(random_dataset, _mean_diff_estimator, 60, seed=5)
    assert a.variance == b.variance
    assert a.ci == b.ci
    c = bootstrap_variance(random_dataset, _mean_diff_estimator, 60, seed=6)
    assert c.variance != a.variance


def test_bootstrap_row_order_invariant(random_dataset):
    rng = np.random.default_rng(0)
    perm = rng.permutation(random_dataset.n)
    shuffled = random_dataset.take(perm)
    a = bootstrap_variance(random_dataset, _mean_diff_estimator, 40, seed=9)
    b = bootstrap_variance(shuffled, _mean_diff_estimator, 40, seed=9)
    assert a.variance == b.variance


def test_bootstrap_identical_replicates_give_zero_variance():
    # find a seed whose first two replicate index draws coincide on 4 rows
    ds = CompositeDataset(
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([[0.1], [0.2], [0.3], [0.4]]),
        np.array([1, 0, 0, 0]),
        np.array([1, 1, 1, 0]),
    )
    seed = None
    for candidate in range(5000):
        first = np.random.default_rng([candidate, 0]).integers(0, 4, 4)
        second = np.random.default_rng([candidate, 1]).integers(0, 4, 4)
        if np.array_equal(first, second) and len(set(first.tolist()) & {0}) and len(
            set(first.tolist()) - {0}
        ):
            seed = candidate
            break
    assert seed is not None
    out = bootstrap_variance(ds, _mean_diff_estimator, 2, seed=seed)
    assert out.variance == 0.0


def test_bootstrap_failure_abort():
    ds = make_random_dataset(1, n=60)

    def flaky(resample: CompositeDataset) -> float:
        if resample.y[0] > 0:
            raise ValueError("boom")
        return 0.0

    with pytest.raises(ReplicateFailure):
        bootstrap_variance(ds, flaky, 50, seed=2, max_failure_rate=0.05)


def test_bootstrap_needs_two_replicates(random_dataset):
    with pytest.raises(ConfigError):
        bootstrap_variance(random_dataset, _mean_diff_estimator, 1, seed=1)


def test_bootstrap_agrees_with_if_variance_on_clean_draw():
    ds, _ = generate(ScenarioConfig(scenario="i", n=1000), 202)
    sets = fit_sets(ds)
    point = estimate_tau_full(ds, sets["pooled"]).point
    ifv = influence_values(ds, sets["pooled"], "tau", METHOD_FULL, point)
    analytic = if_variance(ifv)

    def refit_tau(resample: CompositeDataset) -> float:
        return estimate_tau_full(resample, fit_sets(resample)["pooled"]).point

    boot = bootstrap_variance(ds, refit_tau, 400, seed=77)
    assert boot.failures == 0
    assert abs(boot.variance - analytic) / analytic < 0.15


def test_bootstrap_stratified_keeps_group_sizes(random_dataset):
    captured = []

    def spy(resample: CompositeDataset) -> float:
        captured.append((resample.n1, resample.n2))
        return 0.0

    bootstrap_variance(random_dataset, spy, 5, seed=3, stratified=True)
    assert all(pair == (random_dataset.n1, random_dataset.n2) for pair in captured)


def _shared_fit_case(ds: CompositeDataset):
    """A shared fit failing on ~2% of resamples and a point failing on ~20% more."""
    fit_cut = np.quantile(ds.y, 0.98)
    point_cut = np.quantile(ds.y, 0.8)

    def fit(resample: CompositeDataset) -> float:
        if resample.y[0] > fit_cut:
            raise ValueError("fit failed")
        return float(resample.y.mean())

    def steady(resample: CompositeDataset, mean: float) -> float:
        return mean

    def flaky(resample: CompositeDataset, mean: float) -> float:
        if resample.y[1] > point_cut:
            raise ValueError("point failed")
        return mean - float(resample.y[1])

    return fit, (steady, flaky)


def _alone(fit, point):
    return lambda resample: point(resample, fit(resample))


def test_bootstrap_shared_fit_failure_accounting(random_dataset):
    fit, points = _shared_fit_case(random_dataset)
    together = bootstrap_variance(
        random_dataset, SharedFit(fit, points), 100, seed=4, max_failure_rate=1.0
    )
    steady, flaky = together
    # a failed shared fit counts against both estimators, a failed point only its own
    assert 0 < steady.failures < flaky.failures
    assert together.failures == steady.failures + flaky.failures
    for result, point in zip(together, points):
        alone = bootstrap_variance(
            random_dataset, _alone(fit, point), 100, seed=4, max_failure_rate=1.0
        )
        assert result.failures == alone.failures
        assert result.variance == alone.variance
        assert result.ci == alone.ci
        np.testing.assert_array_equal(result.points, alone.points)


def test_bootstrap_shared_fit_raises_for_first_failing_estimator(random_dataset):
    fit, (steady, flaky) = _shared_fit_case(random_dataset)
    with pytest.raises(ReplicateFailure) as together:
        bootstrap_variance(random_dataset, SharedFit(fit, (steady, flaky, flaky)), 100, seed=4)
    with pytest.raises(ReplicateFailure) as alone:
        bootstrap_variance(random_dataset, _alone(fit, flaky), 100, seed=4)
    # the steady estimator passes; the first flaky one raises, as it would alone
    assert together.value.to_dict() == alone.value.to_dict()


def test_bootstrap_raises_when_no_replicate_succeeds(random_dataset):
    def broken(resample: CompositeDataset) -> float:
        raise ValueError("always fails")

    with pytest.raises(ReplicateFailure) as failed:
        bootstrap_variance(random_dataset, broken, 20, seed=1, max_failure_rate=1.0)
    assert failed.value.details["failures"] == 20
    assert failed.value.details["messages"] == ["ValueError: always fails"] * 5


def _tau_full(resample: CompositeDataset, fitted) -> float:
    sets, table = fitted
    return estimate(resample, sets["pooled"], "tau", METHOD_FULL, table=table).point


def _tiny_dataset(treated=12, controls=10, external=3) -> CompositeDataset:
    """Treated, trial-control and external rows: most resamples fail."""
    n = treated + controls + external
    rng = np.random.default_rng(2)
    x = rng.standard_normal((n, 2))
    d = np.array([1] * (treated + controls) + [0] * external)
    t = np.array([1] * treated + [0] * (controls + external))
    y = 1.0 + x[:, 0] + t + rng.standard_normal(n)
    return CompositeDataset(y, x, t, d)


def test_bootstrap_blocks_keep_failure_counts_and_messages():
    ds = _tiny_dataset()
    specs = linear_specs(2)
    fit = partial(fit_bundle, specs=specs, ratio_mode=RATIO_LOGLINEAR)
    alone = SharedFit(fit, (_tau_full,))
    blocked = SharedFit(fit, (_tau_full,), block=partial(
        BlockFitter, specs=specs, ratio_mode=RATIO_LOGLINEAR))
    want, got = (bootstrap_variance(ds, shared, 200, seed=3, max_failure_rate=1.0)[0]
                 for shared in (alone, blocked))
    assert 0 < got.failures == want.failures < 200
    assert abs(got.variance - want.variance) <= 1e-10 * want.variance
    np.testing.assert_allclose(got.ci, want.ci, rtol=1e-10)
    errors = []
    for shared in (alone, blocked):
        with pytest.raises(ReplicateFailure) as failed:
            bootstrap_variance(ds, shared, 200, seed=3)
        errors.append(failed.value.to_dict())
    assert errors[0] == errors[1]
    codes = {message.split(":")[0] for message in errors[0]["details"]["messages"]}
    assert {"RankDeficient", "EmptyCell"} <= codes


def test_bootstrap_counts_a_non_finite_point_as_failed():
    # on these 21 rows a loglinear ratio overflows on some resamples, and tau is NaN
    ds = _tiny_dataset(treated=8, controls=8, external=5)
    specs = linear_specs(2)
    fit = partial(fit_bundle, specs=specs, ratio_mode=RATIO_LOGLINEAR)
    block = partial(BlockFitter, specs=specs, ratio_mode=RATIO_LOGLINEAR)
    results = [bootstrap_variance(ds, SharedFit(fit, (_tau_full,), block=blk), 200, seed=3,
                                  max_failure_rate=1.0)[0]
               for blk in (None, block)]
    for result in results:
        assert np.isfinite(result.variance) and np.isfinite(result.ci).all()
        assert np.isfinite(result.points).all()
        assert result.replicates + result.failures == 200
    assert results[0].failures == results[1].failures
    with pytest.raises(ReplicateFailure) as failed:
        bootstrap_variance(ds, lambda resample: float("nan"), 4)
    assert failed.value.details["failures"] == 4
    assert failed.value.details["messages"] == ["NonFiniteResult: resample estimate is nan"] * 4


# ----------------------- exchangeability test --------------------------


def test_exchangeability_exact_zero_interactions():
    # identical control-outcome cell means in both sources, saturated model
    rows = []
    for x1 in (0.0, 1.0):
        for d in (0, 1):
            for sign in (1.0, -1.0):
                rows.append((1.0 + 0.5 * x1 + sign * 0.3, x1, 0, d))
                rows.append((1.0 + 0.5 * x1 + sign * 0.3, x1, 0, d))
    for x1 in (0.0, 1.0):  # treated rows so the dataset is well formed
        rows.append((2.0, x1, 1, 1))
    arr = np.array(rows)
    ds = CompositeDataset(arr[:, 0], arr[:, 1:2], arr[:, 2].astype(int), arr[:, 3].astype(int))
    res = run_exchangeability_test(ds, ModelSpec(IDENTITY, (Term("raw", 0),)))
    assert res.statistic == pytest.approx(0.0, abs=1e-16)
    assert res.p_value == pytest.approx(1.0)
    assert res.df == 1
    assert res.coefficients_tested == ["source:x1"]


def test_exchangeability_needs_both_sources():
    ds = make_random_dataset(2)
    trial_only = ds.take(np.where(ds.d == 1)[0])
    with pytest.raises(EmptyCell):
        run_exchangeability_test(trial_only)


def test_exchangeability_detects_shift():
    cfg = ScenarioConfig(scenario="i", n=2000, engagement_coefs=(0.0, 1.0, 0.0))
    ds, _ = generate(cfg, 5)
    res = run_exchangeability_test(ds)
    assert res.p_value < 0.01


def test_exchangeability_binary_outcome_uses_logit():
    rng = np.random.default_rng(12)
    n = 400
    x = rng.standard_normal((n, 1))
    d = (rng.random(n) < 0.5).astype(int)
    t = ((d == 1) & (rng.random(n) < 0.5)).astype(int)
    y = (rng.random(n) < 0.6).astype(float)
    ds = CompositeDataset(y, x, t, d)
    res = run_exchangeability_test(ds)
    assert 0.0 <= res.p_value <= 1.0
    assert res.df == 1


# ------------------------------ bias bound -----------------------------


def test_bias_bound_zero_shift(random_dataset):
    nuis = fit_sets(random_dataset)["pooled"]
    out = bias_bound(random_dataset, nuis, b=lambda x: np.zeros(x.shape[0]))
    assert out.lambda_estimate == 0.0
    assert out.lambda_abs_bound == 0.0


def test_bias_bound_constant_shift_factorizes(random_dataset):
    nuis = fit_sets(random_dataset)["pooled"]
    B = 0.7
    out = bias_bound(random_dataset, nuis, b=lambda x: np.full(x.shape[0], B), bound=B)
    assert out.lambda_estimate == pytest.approx(out.lambda_abs_bound, abs=1e-12)


def test_bias_bound_never_exceeds_b():
    for seed in range(10):
        ds = make_random_dataset(seed + 40)
        nuis = fit_sets(ds)["pooled"]
        out = bias_bound(ds, nuis, bound=2.5)
        assert out.lambda_abs_bound <= 2.5 + 1e-12


def test_bias_bound_dominates_estimate(random_dataset):
    nuis = fit_sets(random_dataset)["pooled"]
    out = bias_bound(random_dataset, nuis, b=lambda x: 0.5 * x[:, 0])
    assert abs(out.lambda_estimate) <= out.lambda_abs_bound + 1e-12


def test_bias_bound_matches_enumeration():
    ds = make_discrete_dataset(3)
    sets = fit_sets(ds, ratio_mode="known_one", saturated=True)
    oracle = CellOracle(ds.y, ds.x, ds.t, ds.d)
    b_values = 0.4 + 0.2 * ds.x[:, 0] - 0.1 * ds.x[:, 1]
    got = bias_bound(ds, sets["pooled"], b=lambda x: 0.4 + 0.2 * x[:, 0] - 0.1 * x[:, 1])
    assert got.lambda_estimate == pytest.approx(oracle.lambda_bias(b_values), abs=1e-8)


def test_bias_bound_requires_input(random_dataset):
    nuis = fit_sets(random_dataset)["pooled"]
    with pytest.raises(ConfigError):
        bias_bound(random_dataset, nuis)


# --------------------------- overlap report ----------------------------


def test_overlap_clean_scenario_no_flags():
    ds, _ = generate(ScenarioConfig(scenario="i", n=1500), 3)
    sets = fit_sets(ds)
    report = overlap_diagnostics(ds, sets["pooled"])
    assert report.flagged_rows == []
    assert report.summaries["propensity_product"]["max"] < 1.0
    assert report.trim_counts["denominator_floored"] == 0


def test_overlap_no_external_notes(random_dataset):
    trial_only = random_dataset.take(np.where(random_dataset.d == 1)[0])
    spec = ModelSpec.linear_in(2, IDENTITY)
    m1 = fit_model(trial_only.x[trial_only.t == 1], trial_only.y[trial_only.t == 1], spec)
    m0 = fit_model(trial_only.x[trial_only.t == 0], trial_only.y[trial_only.t == 0], spec)
    from ecborrow.nuisance import fit_treatment_ps

    p = fit_treatment_ps(trial_only, ModelSpec.linear_in(2, LOGIT))
    nuis = NuisanceSet(m0=m0, r=VarianceRatioModel("known_one"), m0_pooled=False,
                       m1=m1, p=p, pi=None)
    report = overlap_diagnostics(trial_only, nuis)
    assert any("trial-based" in note for note in report.notes)


def test_overlap_treated_only_product_below_one():
    rng = np.random.default_rng(14)
    n = 200
    x = rng.standard_normal((n, 2))
    d = np.array([1] * 100 + [0] * 100)
    t = d.copy()
    y = 1.0 + x[:, 0] + rng.standard_normal(n)
    ds = CompositeDataset(y, x, t, d)
    spec = ModelSpec.linear_in(2, IDENTITY)
    m0 = fit_model(ds.x[ds.t == 0], ds.y[ds.t == 0], spec)
    pi = fit_selection_ps(ds, ModelSpec.linear_in(2, LOGIT))
    nuis = NuisanceSet(m0=m0, r=VarianceRatioModel("known_one"), m0_pooled=True, pi=pi)
    report = overlap_diagnostics(ds, nuis)
    # p is one, pi is trimmed below one, so the product stays below the edge
    assert report.flagged_rows == []
    assert any("treated-only" in note for note in report.notes)


def test_bias_bound_serialization():
    bb = BiasBound(lambda_estimate=0.1, lambda_abs_bound=0.2, b_bound=0.5, mean_weight=0.4)
    payload = bb.to_dict()
    assert payload["lambda_estimate"] == 0.1
    assert payload["lambda_abs_bound"] == 0.2
