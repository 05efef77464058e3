import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecborrow.cli import (
    RunConfig,
    _model_specs,
    _requested_pairs,
    _resolve_ratio,
    main,
)
from ecborrow.dataset import CompositeDataset, load_csv
from ecborrow.errors import ConfigError, EmptyCell, NonFiniteResult, ReplicateFailure
from ecborrow.estimators import (
    IF_MEAN_TOL,
    METHOD_BASELINE,
    METHOD_FULL,
    METHOD_TREATED_ONLY,
    METHOD_TRIAL,
    Estimate,
    Estimator,
    IFVector,
    estimate,
    estimate_tau_full,
    influence_values,
    uncentred,
)
from ecborrow import inference, simlab
from ecborrow.inference import (
    BLOCK_BYTES,
    BOOTSTRAP_BLOCK_BYTES,
    GREATER,
    LESS,
    TWO_SIDED,
    BiasBound,
    SharedFit,
    _block_points,
    _bootstrap_one,
    _five_numbers,
    _linear_quantile,
    bias_bound,
    block_ranges,
    bootstrap_variance,
    if_variance,
    overlap_diagnostics,
    test as z_test,
    test_mean_exchangeability as run_exchangeability_test,
)
from ecborrow.nuisance import (
    IDENTITY,
    LOGIT,
    RATIO_CONSTANT,
    RATIO_KNOWN_ONE,
    RATIO_LOGLINEAR,
    BlockFitter,
    ModelSpec,
    Term,
    VarianceRatioModel,
    expit,
    fit_bundle,
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


def _around(centres, k: int = 500, width: float = 1e-3, n: int = 4001) -> np.ndarray:
    """Each centre, the k doubles on either side of it, and a linear grid over +-width."""
    out = []
    for c in centres:
        steps = np.arange(-k, k + 1, dtype=float) * np.spacing(c)
        out += [c + steps, np.linspace(c - width, c + width, n)]
    return np.concatenate(out)


def _assert_bits_equal(fn, reference, values):
    ours = np.array([fn(float(v)) for v in values])
    ref = reference(values)
    same = (ours == ref) & (np.signbit(ours) == np.signbit(ref)) | np.isnan(ours) & np.isnan(ref)
    bad = np.flatnonzero(~same)
    assert bad.size == 0, (f"{bad.size} of {values.size} differ, first at {values[bad[0]]!r}: "
                           f"{ours[bad[0]]!r} != {ref[bad[0]]!r}")


def test_normal_port_equals_scipy_special_bit_for_bit():
    """The Cephes ports match scipy.special on every branch edge, tails and specials."""
    from scipy import special

    from ecborrow._normal import MAXLOG, ndtr, ndtri

    rng = np.random.default_rng(11)
    # ndtr: |a|/sqrt2 against 1/sqrt2 (erf or erfc), 1 (erfc's erf branch), 8 (P/Q or R/S);
    # the lower tail turns subnormal near a = -37.5 and is 0 past -sqrt(2*MAXLOG) (MAXLOG cut)
    edges = [1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.5, np.sqrt(2.0 * MAXLOG)]
    z = np.concatenate([
        _around(edges), -_around(edges), np.linspace(-40.0, 40.0, 40_001),
        rng.standard_normal(10_000) * 6.0,
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308],
    ])
    assert z.size > 90_000
    _assert_bits_equal(ndtr, special.ndtr, z)
    # ndtri: p against exp(-2) and 1 - exp(-2) (centre or tails), exp(-32) and 1 - exp(-32)
    # (x = 8: P1/Q1 or P2/Q2); 0 and 1 are -inf and inf, outside [0, 1] is NaN
    e2, e32 = np.exp(-2.0), np.exp(-32.0)
    p = np.concatenate([
        _around([e2, 1.0 - e2], width=1e-4), _around([e32], width=1e-17),
        _around([1.0 - e32], k=40, width=1e-13, n=2001),
        rng.random(30_000), 10.0 ** rng.uniform(-323.0, 0.0, 30_000),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 15_000),
        [0.0, -0.0, 1.0, 5e-324, 0.5, 1.0 - 2.0**-53, np.nextafter(1.0, 2.0), -1e-300, 2.0,
         np.inf, -np.inf, np.nan],
    ])
    assert p.size > 90_000
    _assert_bits_equal(ndtri, special.ndtri, p)


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


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 300), st.integers(0, 4), st.integers(-12, 12), st.integers(0, 2**32 - 1))
def test_if_statistics_are_numpys_var_and_mean_byte_for_byte(n, k, exponent, seed):
    # k = 0 draws one dataset's (n,) values, else a block's (k, n); the shared
    # offset keeps the mean off zero, so the deviations carry its rounding
    rng = np.random.default_rng(seed)
    shape = (n,) if k == 0 else (k, n)
    values = (rng.standard_normal(shape) + 3.0 * rng.standard_normal()) * 10.0**exponent
    variance = if_variance(IFVector(values, "tau", METHOD_FULL))
    assert type(variance) is (float if k == 0 else np.ndarray)
    assert np.asarray(variance).tobytes() == np.asarray(
        np.var(values, axis=-1, ddof=1) / n).tobytes()
    # values that average to about 2 IF_MEAN_TOL times their magnitude are
    # centred from a point near that magnitude on: uncentred flips between the
    # two doubles where the np.mean form does, so one ulp of its means shows
    values -= np.mean(values, axis=-1, keepdims=True)
    values += 2.0 * IF_MEAN_TOL * np.mean(np.abs(values), axis=-1, keepdims=True)
    mean, magnitude = np.mean(values, axis=-1), np.mean(np.abs(values), axis=-1)

    def numpy_form(point):
        return np.abs(mean) > IF_MEAN_TOL * (magnitude + np.abs(point))

    point = np.abs(mean) / IF_MEAN_TOL - magnitude
    for _ in range(64):
        point = np.where(numpy_form(point), point, np.nextafter(point, 0.0))
    for _ in range(64):
        above = np.nextafter(point, np.inf)
        point = np.where(numpy_form(above), above, point)
    above = np.nextafter(point, np.inf)
    assert numpy_form(point).all() and not numpy_form(above).any()
    assert np.all(uncentred(values, point)) and not np.any(uncentred(values, above))


# ------------------------------ bootstrap ------------------------------


def _mean_diff_estimator(ds: CompositeDataset) -> float:
    return float(ds.y[ds.t == 1].mean() - ds.y[ds.t == 0].mean())


def test_interval_quantile_equals_numpy_bit_for_bit():
    rng = np.random.default_rng(8)
    for size in [1, 2, 3, *rng.integers(4, 1200, 60)]:
        points = rng.standard_normal(size) * 10.0 ** rng.uniform(-6, 6)
        if size % 3 == 0:
            points = np.round(points, 1) + 0.0  # ties, without a signed zero
        ordered = np.sort(points)
        for level in (0.0, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0, *rng.uniform(0, 1, 5)):
            for prob in ((1.0 - level) / 2.0, (1.0 + level) / 2.0):
                want = np.float64(np.quantile(points, prob)).tobytes()
                assert np.float64(_linear_quantile(ordered, prob)).tobytes() == want, (size, prob)
        # the overlap diagnostics' five-number summaries read the same rule
        five = np.array(list(_five_numbers(points).values()))
        assert five.tobytes() == np.quantile(points, [0.0, 0.25, 0.5, 0.75, 1.0]).tobytes(), size


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


@pytest.mark.parametrize("name, label", [("p", "treatment"), ("pi", "selection")])
def test_bootstrap_with_a_non_logit_propensity_fails_every_resample_alone(
        random_dataset, name, label):
    specs = {**linear_specs(2), name: ModelSpec.linear_in(2, IDENTITY)}
    bundle = {"specs": specs, "ratio_mode": RATIO_LOGLINEAR}
    block = BlockFitter(random_dataset, **bundle)
    ok, fitted = block.solve(np.ones((3, random_dataset.n)))
    assert not ok.any() and fitted is None
    shared = SharedFit(partial(fit_bundle, **bundle), (_tau_full,),
                       block=partial(BlockFitter, **bundle))
    with pytest.raises(ReplicateFailure) as failed:
        bootstrap_variance(random_dataset, shared, 100, seed=1)
    message = f"ConfigError: {label} propensity model must use the logit family"
    assert failed.value.details["failures"] == 100
    assert failed.value.details["messages"] == [message] * 5


@pytest.mark.parametrize("ratio_mode, variance, message", [
    ("bogus", IDENTITY, "unknown ratio mode 'bogus'"),
    (RATIO_LOGLINEAR, LOGIT, "loglinear variance regression must use the identity family"),
], ids=["unknown_mode", "logit_variance"])
def test_bootstrap_with_a_ratio_setting_fit_bundle_rejects_fails_every_resample_alone(
        random_dataset, ratio_mode, variance, message):
    specs = {**linear_specs(2), "variance": ModelSpec.linear_in(2, variance)}
    bundle = {"specs": specs, "ratio_mode": ratio_mode}
    ok, fitted = BlockFitter(random_dataset, **bundle).solve(np.ones((3, random_dataset.n)))
    assert not ok.any() and fitted is None
    shared = SharedFit(partial(fit_bundle, **bundle), (_tau_full,),
                       block=partial(BlockFitter, **bundle))
    with pytest.raises(ReplicateFailure) as failed:
        bootstrap_variance(random_dataset, shared, 100, seed=1)
    assert failed.value.details["failures"] == 100
    assert failed.value.details["messages"] == [f"ConfigError: {message}"] * 5


def test_bootstrap_counts_a_non_finite_point_as_failed():
    # on these 21 rows a loglinear ratio overflows on some resamples
    ds = _tiny_dataset(treated=8, controls=8, external=5)
    specs = linear_specs(2)
    fit = partial(fit_bundle, specs=specs, ratio_mode=RATIO_LOGLINEAR)
    block = partial(BlockFitter, specs=specs, ratio_mode=RATIO_LOGLINEAR)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = [bootstrap_variance(ds, SharedFit(fit, (_tau_full,), block=blk), 200, seed=3,
                                      max_failure_rate=1.0)[0]
                   for blk in (None, block)]
    assert [str(w.message) for w in caught] == []
    for result in results:
        assert np.isfinite(result.variance) and np.isfinite(result.ci).all()
        assert np.isfinite(result.points).all()
        assert result.replicates + result.failures == 200
        assert result.failures == 71
    # the overflow is a typed error at its source that names the ratio
    ratio = fit(ds)[0]["pooled"].r
    huge = VarianceRatioModel(RATIO_LOGLINEAR, spec=ratio.spec, coef_trial=ratio.coef_trial + 800.0,
                              coef_external=ratio.coef_external)
    with pytest.raises(NonFiniteResult, match="variance ratio"):
        huge.predict_r(ds.x)
    with pytest.raises(ReplicateFailure) as failed:
        bootstrap_variance(ds, lambda resample: float("nan"), 4)
    assert failed.value.details["failures"] == 4
    assert failed.value.details["messages"] == ["NonFiniteResult: resample estimate is nan"] * 4


@pytest.mark.parametrize("where", ["fit", "point"])
def test_bootstrap_raises_a_warning_leaking_from_a_resample(random_dataset, where):
    def fit(resample: CompositeDataset) -> float:
        if where == "fit":
            warnings.warn("leaked from the fit", RuntimeWarning)
        return float(resample.y.mean())

    def point(resample: CompositeDataset, mean: float) -> float:
        if where == "point":
            warnings.warn("leaked from the point", RuntimeWarning)
        return mean

    # under an "error" filter the warning is an exception: it must fail the
    # run, not be counted as a failed replicate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match=f"leaked from the {where}"):
            bootstrap_variance(random_dataset, SharedFit(fit, (point,)), 10, seed=1,
                               max_failure_rate=1.0)


# every (estimand, method) with the nuisance set it reads
_PAIRS = (
    ("tau", METHOD_FULL, "pooled"), ("tau", METHOD_TRIAL, "unpooled"),
    ("psi", METHOD_FULL, "pooled"), ("psi", METHOD_BASELINE, "unpooled"),
    ("xi", METHOD_FULL, "pooled"), ("xi", METHOD_BASELINE, "unpooled"),
)


def _pair_point(estimand, method, set_name, resample, fitted):
    record = Estimator(estimand, method)
    assert record.nuisances(fitted[0]) is fitted[0][set_name]
    return record.point(resample, fitted)


def _block_case(case: str):
    """(dataset, specs, ratio mode, treated_only, pairs) on n=300 rows, or 40 with few_rows."""
    ds, _ = generate(ScenarioConfig(scenario="ii", n=40 if case == "few_rows" else 300), 21)
    mode = {"constant": RATIO_CONSTANT, "known_one": RATIO_KNOWN_ONE}.get(case, RATIO_LOGLINEAR)
    if case == "treated_only":
        ds = ds.take(np.flatnonzero((ds.d == 0) | (ds.t == 1)))
        return ds, linear_specs(ds.k), mode, True, (("tau", METHOD_TREATED_ONLY, "treated_only"),)
    if case == "trial_only":
        ds = ds.take(np.flatnonzero(ds.d == 1))
        return ds, linear_specs(ds.k), mode, False, (("tau", METHOD_TRIAL, "unpooled"),)
    if case == "binary":
        rng = np.random.default_rng(6)
        y = (rng.random(ds.n) < expit(0.3 * ds.x[:, 0] + 0.5 * ds.t)).astype(float)
        ds = CompositeDataset(y, ds.x, ds.t, ds.d)
        return ds, linear_specs(ds.k, LOGIT), RATIO_KNOWN_ONE, False, _PAIRS
    return ds, linear_specs(ds.k), mode, False, _PAIRS


def _bootstrap_outcome(ds, shared, stratified):
    results = bootstrap_variance(ds, shared, 100, seed=5, stratified=stratified,
                                 max_failure_rate=1.0)
    try:
        bootstrap_variance(ds, shared, 100, seed=5, stratified=stratified, max_failure_rate=0.0)
        failure = None
    except ReplicateFailure as failed:
        failure = failed.to_dict()
    return results, failure


@pytest.mark.parametrize("case", [
    "loglinear", "constant", "known_one", "binary", "treated_only", "trial_only", "stratified",
    "few_rows"])
def test_bootstrap_block_path_matches_fitting_each_resample_alone(case):
    ds, specs, mode, treated_only, pairs = _block_case(case)
    bundle = {"specs": specs, "ratio_mode": mode, "treated_only": treated_only}
    fits = []

    def fit(resample):
        fits.append(resample.n)
        return fit_bundle(resample, **bundle)

    points = tuple(partial(_pair_point, *pair) for pair in pairs)
    outcomes, alone_fits = [], []
    for block in (None, partial(BlockFitter, **bundle)):
        fits.clear()
        outcomes.append(_bootstrap_outcome(ds, SharedFit(fit, points, block=block),
                                           case == "stratified"))
        alone_fits.append(len(fits))
    (want, want_failure), (got, got_failure) = outcomes
    assert got_failure == want_failure
    for g, w in zip(got, want):
        assert g.failures == w.failures
        np.testing.assert_allclose(g.points, w.points, rtol=1e-10, atol=0)
    # two runs of 100 resamples: without a block each is fit alone, with one
    # only those the block leaves to their own fit, a superset of the failures
    assert alone_fits[0] == 200
    failed = max(result.failures for result in got)
    if case == "few_rows":
        assert 0 < 2 * failed <= alone_fits[1] < 200
    else:
        assert alone_fits[1] == 0 and want_failure is None


# the stratified bootstrap of the golden input's six CLI pairs, B=100, seed 11:
# (variance, ci, replicates, failures) per pair, in the CLI's order
_STRATIFIED_GOLDEN = [
    (0.019692050050469895, (0.9428924128912262, 1.4888602982266472), 100, 0),
    (0.024929186779865876, (0.7251640825827084, 1.3124191315337368), 100, 0),
    (0.020163841181738574, (0.9487874400811126, 1.486016014523509), 100, 0),
    (0.0435253443333794, (0.7342454137058314, 1.4074324195893098), 100, 0),
    (0.025556911981833262, (0.9224339657568205, 1.4939853587715293), 100, 0),
    (0.11096175563338288, (0.7099284460165566, 1.633332482292212), 100, 0),
]


def _golden_cli_pairs(path: str = "tests/data/golden_input.csv"
                      ) -> tuple[CompositeDataset, SharedFit]:
    """A golden input and the SharedFit of its six CLI pairs, as ``estimate`` builds it."""
    ds = load_csv(path)
    cfg = RunConfig(command="estimate", input=path)
    pairs = _requested_pairs(ds, cfg)
    bundle = {"specs": _model_specs(ds, cfg), "ratio_mode": _resolve_ratio(ds, cfg),
              "treated_only": False}
    return ds, SharedFit(partial(fit_bundle, **bundle), tuple(pair.point for pair in pairs),
                         block=partial(BlockFitter, **bundle))


@pytest.mark.parametrize("jobs", [1, 2])
def test_stratified_bootstrap_of_the_cli_pairs_is_pinned(jobs):
    # the CLI never stratifies, so the library's stratified bootstrap has no
    # golden output: its figures are pinned here, for any number of jobs
    ds, shared = _golden_cli_pairs()
    results = bootstrap_variance(ds, shared, 100, seed=11, stratified=True, jobs=jobs)
    got = [(r.variance, r.ci, r.replicates, r.failures) for r in results]
    assert got == _STRATIFIED_GOLDEN


def test_golden_bootstrap_points_are_the_same_at_blocks_of_16_32_and_80(monkeypatch):
    # each golden bootstrap input's resamples (B=100, seed 3) in blocks of 1, 5,
    # 16, 32 and 80 rows of counts: the same points, bit for bit, since every
    # stacked product gives a resample's row as a block of one gives it
    for path in ("tests/data/golden_input.csv", "tests/data/golden_input_ii_n1000.csv"):
        ds, shared = _golden_cli_pairs(path)
        points = []
        for size in (1, 5, 16, 32, 80):
            monkeypatch.setattr(inference, "BOOTSTRAP_BLOCK_BYTES", size * 8 * ds.n)
            assert len(block_ranges(100, ds.n, inference.BOOTSTRAP_BLOCK_BYTES)[0]) == size
            results = bootstrap_variance(ds, shared, 100, seed=3)
            assert [r.replicates for r in results] == [100] * 6
            points.append(np.stack([r.points for r in results]).view(np.int64))
        assert [np.array_equal(points[0], other) for other in points[1:]] == [True] * 4, path


def test_each_bootstrap_block_builds_one_gram_per_design_and_row_set(monkeypatch, capsys):
    # B = 500 at n = 400 is 7 blocks of up to 81 resamples; each builds the Grams of m1,
    # pooled m0, p, pi, trial m0 and the external log-variance fit, and the trial
    # controls' log-variance fit takes trial m0's (the same design and weights)
    from ecborrow import nuisance

    grams, guarded_gram = [], nuisance._guarded_gram

    def counting(design, weights):
        grams.append(weights.shape)
        return guarded_gram(design, weights)

    monkeypatch.setattr(nuisance, "_guarded_gram", counting)
    assert main(["estimate", "--input", "tests/data/golden_input.csv", "--variance",
                 "bootstrap", "--seed", "11"]) == 0
    capsys.readouterr()
    assert len(block_ranges(500, 400, BOOTSTRAP_BLOCK_BYTES)) == 7
    assert len(grams) == 7 * 6


@pytest.mark.parametrize("rows", [40, 200, 400, 1000])
@pytest.mark.parametrize("budget", [BLOCK_BYTES, BOOTSTRAP_BLOCK_BYTES])
def test_block_ranges_cut_the_largest_multiple_of_4_under_the_budget(rows, budget):
    # the largest size under the budget; the name is older than the rule
    ranges = block_ranges(1001, rows, budget)
    size = len(ranges[0])
    assert 8 * rows * size <= budget < 8 * rows * (size + 1)
    assert [r.start for r in ranges] == list(range(0, 1001, size))
    assert ranges[-1].stop == 1001 and all(len(r) == size for r in ranges[:-1])


@pytest.mark.parametrize("size", [1, 2, 3])
def test_block_ranges_keep_blocks_of_fewer_than_4_units(size):
    ranges = block_ranges(7, BLOCK_BYTES // (8 * size), BLOCK_BYTES)
    assert [r.start for r in ranges] == list(range(0, 7, size)) and ranges[-1].stop == 7
    # rows past the budget still make blocks of one
    assert len(block_ranges(3, BLOCK_BYTES, BLOCK_BYTES)) == 3


class _Recorded(Exception):
    pass


def test_blocks_at_n_1000_hold_32_resamples_and_16_monte_carlo_replicates(monkeypatch):
    sizes = {}

    def recording(module):
        def ordered_map(fn, tasks, jobs):
            sizes[module] = [len(next(a for a in task if isinstance(a, range))) for task in tasks]
            raise _Recorded

        return ordered_map

    monkeypatch.setattr(inference, "ordered_map", recording("bootstrap"))
    monkeypatch.setattr(simlab, "ordered_map", recording("monte_carlo"))
    ds, _ = generate(ScenarioConfig(scenario="ii", n=1000), 1)
    with pytest.raises(_Recorded):
        bootstrap_variance(ds, lambda resample: 0.0, 500)
    with pytest.raises(_Recorded):
        simlab.run_monte_carlo(ScenarioConfig(scenario="ii", n=1000), 250)
    assert sizes == {"bootstrap": [32] * 15 + [20], "monte_carlo": [16] * 15 + [10]}


def _separable_dataset() -> CompositeDataset:
    """Trial arms split by x1 but for rows 0 and 1; external rows anywhere."""
    rng = np.random.default_rng(4)
    n11, n10, n00 = 30, 30, 30
    x = rng.standard_normal((n11 + n10 + n00, 2))
    x[:n11, 0] = np.abs(x[:n11, 0]) + 0.5
    x[n11:n11 + n10, 0] = -np.abs(x[n11:n11 + n10, 0]) - 0.5
    x[0, 0], x[n11, 0] = -1.0, 1.0  # one treated and one control on the wrong side
    d = np.array([1] * (n11 + n10) + [0] * n00)
    t = np.array([1] * n11 + [0] * (n10 + n00))
    y = 1.0 + x[:, 0] + t + rng.standard_normal(d.size)
    return CompositeDataset(y, x, t, d)


def test_block_leaves_one_arm_and_separated_resamples_to_their_own_fit():
    ds = _separable_dataset()
    specs = linear_specs(2)
    shared = SharedFit(partial(fit_bundle, specs=specs, ratio_mode=RATIO_LOGLINEAR),
                       (partial(_pair_point, "tau", METHOD_FULL, "pooled"),),
                       block=partial(BlockFitter, specs=specs, ratio_mode=RATIO_LOGLINEAR))
    rest = np.r_[1:30, 31:90]
    indices = [
        np.r_[0, 30, rest],                # both overlap rows: fits
        np.r_[np.arange(30), 60:90, 0],    # no trial controls: one arm
        np.r_[rest, rest[:2]],             # neither overlap row: p separates
    ]
    counts = np.stack([np.bincount(idx, minlength=ds.n) for idx in indices])
    states = _block_points(shared.block(ds), shared.points, counts)
    assert [state is None for state in states] == [False, True, True]
    got = [_bootstrap_one(ds, shared, idx, state) for idx, state in zip(indices, states)]
    alone = [_bootstrap_one(ds, shared, idx, None) for idx in indices]
    assert got[0][0][0] == pytest.approx(alone[0][0][0], rel=1e-10)
    assert got[1:] == alone[1:]
    assert got[1] == [(None, "EmptyCell: trial needs both arms to fit the treatment propensity")]
    assert got[2][0][1].startswith("SeparationDetected: ")


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
    nuis = fit_bundle(trial_only, linear_specs(2), RATIO_KNOWN_ONE)[0]["unpooled"]
    assert nuis.pi is None
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
    nuis = fit_bundle(ds, linear_specs(2), RATIO_KNOWN_ONE, treated_only=True)[0]["treated_only"]
    report = overlap_diagnostics(ds, nuis)
    # p is one, pi is trimmed below one, so the product stays below the edge
    assert report.flagged_rows == []
    assert any("treated-only" in note for note in report.notes)


def test_bias_bound_serialization():
    bb = BiasBound(lambda_estimate=0.1, lambda_abs_bound=0.2, b_bound=0.5, mean_weight=0.4)
    payload = bb.to_dict()
    assert payload["lambda_estimate"] == 0.1
    assert payload["lambda_abs_bound"] == 0.2
