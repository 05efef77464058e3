import collections
import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecborrow.nuisance as nuisance
from ecborrow.dataset import CompositeDataset, DatasetBlock, load_csv
from ecborrow.errors import (
    ConfigError,
    DegenerateVariance,
    EcborrowError,
    EmptyCell,
    NonConvergence,
    NonFiniteResult,
    RankDeficient,
    SeparationDetected,
)
from ecborrow.nuisance import (
    GLM_TOL,
    IDENTITY,
    LOGIT,
    RATIO_CONSTANT,
    RATIO_KNOWN_ONE,
    RATIO_LOGLINEAR,
    BlockFitter,
    FittedGLM,
    ModelSpec,
    NuisanceSet,
    RowTable,
    Term,
    VarianceRatioModel,
    expit,
    fit_bundle,
    fit_glm,
    fit_variance_ratio,
    linear_specs,
)
from ecborrow.simlab import ALL_ESTIMATORS, ScenarioConfig, _record_columns, generate

import oracles
from oracles import newton_logit, wls_normal_equations


# ------------------------------ fit_glm --------------------------------


# (kind, cond(X) aimed at): designs whose conditioning comes from a column
# with a large mean, or from two near-collinear columns
_LADDER = [(kind, 10.0**e) for kind in ("large_mean", "near_collinear") for e in range(1, 8)]


@pytest.mark.parametrize("kind, target", _LADDER,
                         ids=[f"{kind}-1e{int(np.log10(t))}" for kind, t in _LADDER])
def test_identity_solvers_against_exact_wls_on_a_conditioning_ladder(kind, target):
    """fit_glm's lstsq is backward stable: error under 100*eps*cond(X). The
    block's normal equations square the condition number: error under
    10*eps*cond(X)^2 wherever the Gram guard lets them stand in. Measured
    worst cases on this ladder: 2.2 and 0.28 of those units."""
    n = 200
    rng = np.random.default_rng([int(np.log10(target)), kind == "large_mean"])
    z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
    weights = rng.integers(0, 3, n).astype(float)
    if kind == "large_mean":
        design = np.column_stack([np.ones(n), np.sqrt(target) + z1, z2])
    else:
        design = np.column_stack([np.ones(n), z1, z1 + z2 / target])
    response = design @ np.array([0.5, -1.0, 2.0]) + 0.1 * rng.standard_normal(n)
    cond = np.linalg.cond(design * np.sqrt(weights)[:, None])
    exact = oracles.exact_wls(design, weights, response)
    eps = np.finfo(float).eps

    def error(coef):
        return np.max(np.abs(coef - exact)) / np.max(np.abs(exact))

    assert error(fit_glm(design, response, IDENTITY, weights=weights).coef) <= 100 * eps * cond
    coef, ok = nuisance._stacked_wls(design, weights[None], response,
                                     nuisance._guarded_gram(design, weights[None]))
    if ok[0]:
        assert error(coef[0]) <= 10 * eps * cond**2


def test_identity_exact_interpolation():
    fit = fit_glm(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([1.0, 3.0]), IDENTITY)
    assert fit.coef == pytest.approx([1.0, 2.0], abs=1e-12)


def test_logit_balanced_intercept_is_zero():
    design = np.ones((10, 1))
    response = np.array([1, 0] * 5, dtype=float)
    fit = fit_glm(design, response, LOGIT)
    assert fit.coef[0] == pytest.approx(0.0, abs=1e-10)


def test_logit_matches_newton_oracle_on_fixtures():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = 20
        design = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        prob = expit(design @ np.array([0.2, 0.8, -0.5]))
        response = (rng.random(n) < prob).astype(float)
        if response.min() == response.max():
            response[0] = 1 - response[0]
        try:
            fit = fit_glm(design, response, LOGIT)
        except SeparationDetected:
            continue
        oracle = newton_logit(design, response)
        assert np.max(np.abs(fit.coef - oracle)) < 1e-8


def test_identity_matches_wls_oracle():
    rng = np.random.default_rng(5)
    design = np.column_stack([np.ones(40), rng.standard_normal((40, 3))])
    response = rng.standard_normal(40)
    weights = rng.uniform(0.2, 2.0, 40)
    fit = fit_glm(design, response, IDENTITY, weights=weights)
    oracle = wls_normal_equations(design, response, weights)
    assert np.max(np.abs(fit.coef - oracle)) < 1e-10


def test_logit_weighted_matches_oracle():
    rng = np.random.default_rng(6)
    n = 60
    design = np.column_stack([np.ones(n), rng.standard_normal(n)])
    response = (rng.random(n) < 0.5).astype(float)
    weights = rng.uniform(0.5, 1.5, n)
    fit = fit_glm(design, response, LOGIT, weights=weights)
    oracle = newton_logit(design, response, weights)
    assert np.max(np.abs(fit.coef - oracle)) < 1e-8


def test_score_norm_at_solution():
    rng = np.random.default_rng(11)
    n = 80
    design = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    response = (rng.random(n) < expit(design[:, 1])).astype(float)
    fit = fit_glm(design, response, LOGIT)
    mu = expit(design @ fit.coef)
    score = design.T @ (response - mu)
    assert np.max(np.abs(score)) <= GLM_TOL


def test_refit_on_permuted_rows_identical():
    rng = np.random.default_rng(13)
    n = 90
    design = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    response = (rng.random(n) < expit(0.3 + design[:, 1])).astype(float)
    perm = rng.permutation(n)
    fit = fit_glm(design, response, LOGIT)
    fit_perm = fit_glm(design[perm], response[perm], LOGIT)
    assert np.max(np.abs(fit.coef - fit_perm.coef)) < 1e-12
    gauss = fit_glm(design, response, IDENTITY)
    gauss_perm = fit_glm(design[perm], response[perm], IDENTITY)
    assert np.max(np.abs(gauss.coef - gauss_perm.coef)) < 1e-12


def test_separation_detected():
    x = np.linspace(-2, 2, 20)
    design = np.column_stack([np.ones(20), x])
    response = (x > 0).astype(float)
    with pytest.raises(SeparationDetected):
        fit_glm(design, response, LOGIT)


@pytest.mark.parametrize("weights", ["none", "counts", "none_on_the_other_class"])
@pytest.mark.parametrize("label", [0.0, 1.0])
def test_one_class_logit_fit_raises_separation(label, weights):
    # a response of one class under its weights has no finite maximum; the
    # IRLS used to run on until the score fell under GLM_TOL near |coef| = 27
    rng = np.random.default_rng(2)
    design = np.column_stack([np.ones(50), rng.standard_normal(50)])
    response = np.full(50, label)
    w = {"none": None, "counts": rng.integers(1, 4, 50).astype(float),
         "none_on_the_other_class": np.r_[np.ones(40), np.zeros(10)]}[weights]
    if w is not None and not w.all():
        response[40:] = 1.0 - label
    with pytest.raises(SeparationDetected, match="response holds one class") as err:
        fit_glm(design, response, LOGIT, weights=w)
    assert "max_coef" not in err.value.details


def test_stacked_logit_on_a_singular_information_matrix_fails_every_fit_it_runs():
    rng = np.random.default_rng(0)
    x = np.column_stack([np.ones(50), rng.standard_normal(50)])
    design = np.column_stack([x, x[:, 1]])  # a duplicated column
    response = (rng.random(50) < 0.5).astype(float)
    weights = rng.integers(0, 3, size=(4, 50)).astype(float)
    run = np.array([True, False, True, True])
    coef, iterations, _, status = nuisance._stacked_logit(
        design, weights, response, run, nuisance._gram(design, weights))
    assert status.tolist() == [nuisance._SINGULAR, nuisance._UNCONVERGED, nuisance._SINGULAR,
                               nuisance._SINGULAR]
    assert not coef.any() and not iterations.any()


def test_first_irls_step_from_the_guard_gram_moves_no_byte():
    # every logit fit takes its first information matrix as 0.25 times the Gram
    # of its weights, which must equal the Gram of w m (1 - m) = w/4 at m = 1/2
    # byte for byte. The treatment propensity of a DatasetBlock whose second
    # dataset has no trial controls: its response is one class, so the IRLS
    # batch starts narrowed, and the first step reads the other two rows
    ds, _ = generate(ScenarioConfig(scenario="i", n=40), 11)
    other, _ = generate(ScenarioConfig(scenario="i", n=40), 12)
    no_controls = CompositeDataset(ds.y, ds.x, np.maximum(ds.t, ds.d), ds.d)
    block = DatasetBlock.stack([ds, no_controls, other])
    table, spec = RowTable(block), linear_specs(ds.k)["p"]
    design, weights = table.design(spec), table.rows("trial").astype(float)
    gram, ok = nuisance._guarded_gram(design, weights)
    assert ok.all()
    assert (0.25 * gram).tobytes() == nuisance._gram(design, 0.25 * weights).tobytes()
    status = nuisance._stacked_logit(design, weights, block.t, ok, gram)[3]
    assert status.tolist() == [nuisance._CONVERGED, nuisance._ONE_CLASS, nuisance._CONVERGED]
    # the bootstrap's shared 2-D design, whose products are row-stable too
    design = RowTable(ds).design(spec)
    weights = (_counts(_resample_indices(ds.n, 3, seed=2), ds.n) * (ds.d == 1)).astype(float)
    gram, ok = nuisance._guarded_gram(design, weights)
    assert (0.25 * gram).tobytes() == nuisance._gram(design, 0.25 * weights).tobytes()
    status = nuisance._stacked_logit(design, weights, ds.t.astype(float), ok, gram)[3]
    assert (status == nuisance._CONVERGED).all()


def test_rank_deficient_names_columns():
    rng = np.random.default_rng(3)
    col = rng.standard_normal(30)
    design = np.column_stack([np.ones(30), col, 2 * col])
    with pytest.raises(RankDeficient) as err:
        fit_glm(design, rng.standard_normal(30), IDENTITY,
                column_names=["intercept", "a", "b"])
    assert err.value.columns == ["a"]


def test_non_finite_design_column_is_typed_error():
    rng = np.random.default_rng(4)
    design = np.column_stack([np.ones(30), rng.standard_normal(30), rng.standard_normal(30)])
    design[5, 2] = np.inf
    design[7, 1] = np.nan
    for family in (IDENTITY, LOGIT):
        with pytest.raises(NonFiniteResult) as err:
            fit_glm(design, (rng.random(30) < 0.5).astype(float), family,
                    column_names=["intercept", "a", "b"])
        assert err.value.details["columns"] == ["a", "b"]
        assert err.value.exit_code == 4


def _masked_expit(eta):
    """The boolean-mask form of the stable inverse logit."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_expit_equals_masked_form_bit_for_bit():
    special = np.array([-np.inf, -746.0, -745.2, -745.0, -744.0, -709.8, -40.0, -1e-300,
                        -5e-324, -0.0, 0.0, 5e-324, 1e-300, 40.0, 709.8, 744.0, 745.0,
                        745.2, 746.0, np.inf, np.nan])
    rng = np.random.default_rng(12)
    eta = np.concatenate([special, np.linspace(-60.0, 60.0, 120_001),
                          rng.standard_normal(200_000) * 8.0])
    got, want = expit(eta), _masked_expit(eta)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))
    assert np.isnan(expit(np.nan))
    assert expit(-0.0) == 0.5
    assert expit(np.inf) == 1.0 and expit(-np.inf) == 0.0


def _pivoted_qr_verdict(design):
    """The rank rule of the pivoted QR: |r_ii| above max(n, p) eps |r_11|."""
    import scipy.linalg

    _, r, piv = scipy.linalg.qr(design, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int((diag > max(design.shape) * np.finfo(float).eps * diag[0]).sum())
    return rank, [f"c{piv[i]}" for i in range(rank, design.shape[1])]


def _rank_designs():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for n, p in ((30, 3), (200, 5), (1000, 4)):
            scale = (1e-3, 1.0, 1e3)[seed % 3]
            base = np.column_stack([np.ones(n), scale * rng.standard_normal((n, p - 1))])
            j = 1 + seed % (p - 1)
            mix = base[:, 0] * rng.uniform(-3, 3) + base[:, 1 + (j % (p - 1))] * 0.5
            for k in range(4, 29):  # eps from 1e-2 down to 1e-14
                eps = 10.0 ** (-k / 2)
                design = base.copy()
                design[:, j] = mix + eps * np.abs(mix).max() * rng.standard_normal(n)
                yield design
            design = base.copy()
            design[:, j] = mix  # exactly collinear
            yield design


def _assert_verdict(check, design):
    rank, collinear = _pivoted_qr_verdict(design)
    if rank == design.shape[1]:
        check()
    else:
        with pytest.raises(RankDeficient) as err:
            check()
        assert err.value.columns == collinear
    return rank == design.shape[1]


def test_rank_check_matches_pivoted_qr_verdict():
    from ecborrow.nuisance import _check_rank

    verdicts = {True: 0, False: 0}
    for design in _rank_designs():
        p = design.shape[1]
        names = [f"c{i}" for i in range(p)]
        # the numpy fast path may only pass designs the QR also passes
        if np.linalg.matrix_rank(design) == p:
            assert _pivoted_qr_verdict(design)[0] == p
        full = _assert_verdict(lambda: _check_rank(design, names), design)
        verdicts[full] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_identity_fit_rank_verdict_matches_pivoted_qr():
    # the identity fit takes its rank from lstsq; the verdict on the
    # sqrt(w)-scaled design and the named columns must stay the QR's
    verdicts = {True: 0, False: 0}
    for i, design in enumerate(_rank_designs()):
        n, p = design.shape
        names = [f"c{j}" for j in range(p)]
        rng = np.random.default_rng(i)
        response = rng.standard_normal(n)
        weights = rng.integers(0, 3, n).astype(float)
        for w in (None, weights):
            scaled = design if w is None else design * np.sqrt(w)[:, None]
            full = _assert_verdict(
                lambda: fit_glm(design, response, IDENTITY, weights=w, column_names=names), scaled
            )
            verdicts[full] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100


def test_identity_coef_equals_lstsq_on_scaled_design_bit_for_bit():
    rng = np.random.default_rng(12)
    n = 300
    design = np.column_stack([np.ones(n), rng.standard_normal((n, 3)) * [1e-3, 1.0, 1e3]])
    response = design @ [0.5, 2.0, -1.0, 3e-3] + rng.standard_normal(n)
    for w in (None, np.ones(n), rng.integers(0, 3, n).astype(float), rng.uniform(0.1, 4.0, n)):
        sw = np.ones(n) if w is None else np.sqrt(w)
        expected, *_ = np.linalg.lstsq(design * sw[:, None], response * sw, rcond=None)
        fit = fit_glm(design, response, IDENTITY, weights=w)
        assert fit.coef.tobytes() == expected.tobytes()
    unweighted = fit_glm(design, response, IDENTITY)
    unit = fit_glm(design, response, IDENTITY, weights=np.ones(n))
    assert unweighted.loglik == unit.loglik


def test_logit_without_weights_equals_unit_weights_bit_for_bit():
    rng = np.random.default_rng(21)
    n = 400
    design = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    response = (rng.random(n) < expit(design @ [0.3, 1.2, -0.7])).astype(float)
    fit = fit_glm(design, response, LOGIT)
    unit = fit_glm(design, response, LOGIT, weights=np.ones(n))
    assert fit.coef.tobytes() == unit.coef.tobytes()
    assert (fit.iterations, fit.loglik) == (unit.iterations, unit.loglik)
    separated = (design[:, 1] > 0).astype(float)
    for w in (None, np.ones(n)):
        with pytest.raises(SeparationDetected):
            fit_glm(design, separated, LOGIT, weights=w)


def _logit_grid():
    """(design, response, weights) for n 5..600, p 1..4, covariates at three
    scales, without and with integer count weights, and five response kinds:
    a logistic draw, a rare class, a separated one, a single class, and a
    separated one with one label flipped on heavy-tailed covariates, where
    some Newton steps overshoot and are halved."""
    for case, (n, p, scale, weighted, kind) in enumerate(
            (n, p, scale, weighted, kind)
            for n in (5, 8, 20, 60, 200, 600) for p in (1, 2, 3, 4)
            for scale in (1e-3, 1.0, 30.0) for weighted in (False, True)
            for kind in ("logistic", "rare", "separated", "one_class", "overlap")):
        rng = np.random.default_rng(case)
        x = rng.standard_normal((n, p - 1))
        if kind == "overlap":
            x *= np.exp(3.0 * rng.standard_normal((n, 1)))
        design = np.column_stack([np.ones(n), x * scale])
        eta = 0.3 + x @ np.linspace(1.0, -0.5, p - 1)
        if kind == "logistic":
            response = rng.random(n) < expit(eta)
        elif kind == "rare":
            response = rng.random(n) < expit(eta - 3.0)
        elif kind in ("separated", "overlap"):
            response = (x[:, 0] if p > 1 else rng.standard_normal(n)) > 0
            if kind == "overlap":
                response[rng.integers(n)] ^= True
        else:
            response = np.full(n, case % 2 == 0)
        weights = rng.integers(0, 4, n).astype(float) if weighted else None
        if weighted:
            weights[:p] += 1.0  # full rank on the rows that carry weight
        yield design, response.astype(float), weights


def _compare_with_frozen_irls() -> dict:
    """Each grid fit against the frozen loop: outcome, message, iterations and
    estimates; returns how often each outcome occurred and how many halved."""
    outcomes = {}
    for design, response, weights in _logit_grid():
        want = oracles.irls_logit(design, response, weights)
        outcomes[want.outcome] = outcomes.get(want.outcome, 0) + 1
        outcomes["halved"] = outcomes.get("halved", 0) + (want.halvings > 0)
        try:
            fit = fit_glm(design, response, LOGIT, weights=weights)
        except (SeparationDetected, NonConvergence) as exc:
            assert (type(exc).__name__, exc.message) == (want.outcome, want.message)
            if want.max_coef is not None:
                assert exc.details["max_coef"] == pytest.approx(want.max_coef, rel=1e-9)
            else:
                assert "max_coef" not in exc.details
            continue
        assert want.outcome == "converged"
        assert fit.iterations == want.iterations
        scale = np.max(np.abs(want.coef))
        assert np.max(np.abs(fit.coef - want.coef), initial=0.0) <= 1e-12 * scale
        assert abs(fit.loglik - want.loglik) <= 1e-11 * (1.0 + abs(want.loglik))
    return outcomes


def test_logit_fit_matches_the_frozen_single_fit_irls():
    # 720 cases: 302 converge, 53 of them one iteration early on the Newton
    # decrement, and 418 separate, 195 on a response of one class; 5 halve a
    # step, and none reaches the iteration cap
    assert _compare_with_frozen_irls() == {"converged": 302, "SeparationDetected": 418,
                                           "halved": 5}


def test_logit_fit_at_the_iteration_cap_raises_non_convergence(monkeypatch):
    # at three iterations most grid fits stop short of the score tolerance
    monkeypatch.setattr(nuisance, "MAX_ITER", 3)
    monkeypatch.setattr(oracles, "IRLS_MAX_ITER", 3)
    assert oracles.irls_logit(np.ones((4, 1)), np.array([0.0, 0.0, 0.0, 1.0])).message == (
        "IRLS did not converge in 3 iterations")
    outcomes = _compare_with_frozen_irls()
    assert outcomes["NonConvergence"] > 0 and outcomes["converged"] > 0


def _registry_covariates(seed: int, n: int = 40_000):
    """Raw-unit registry covariates (age, sex, eGFR, ECOG) and the stream that drew them."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.round(rng.normal(62.0, 10.0, n), 1), rng.random(n) < 0.5,
                         np.round(rng.normal(80.0, 20.0, n), 1),
                         rng.choice([0.0, 1.0, 2.0], n, p=[0.5, 0.35, 0.15])])
    return rng, x


def test_registry_scale_logit_fits_converge():
    # 40k rows, |loglik| about 2.7e4: near the optimum a Newton step moves the
    # log-likelihood by less than its rounding, which an absolute halving
    # test of 1e-12 could read as a worse step (draw 17 then stalled until
    # MAX_ITER)
    for seed in range(20):
        rng, x = _registry_covariates(seed)
        response = (rng.random(len(x)) < 0.5).astype(float)
        fit = fit_glm(np.column_stack([np.ones(len(x)), x]), response, LOGIT)
        assert fit.iterations <= 6 and abs(fit.loglik) > 2e4


def test_registry_scale_bootstrap_logits_converge_in_their_block(monkeypatch):
    # at 40k rows a block holds one resample, so p and pi are count-weighted
    # fits; their score sup-norm sits near GLM_TOL in rounding alone, and
    # before the Newton-decrement stop they took up to 83 iterations here
    from functools import partial

    from ecborrow.estimators import Estimator
    from ecborrow.inference import SharedFit, bootstrap_variance

    rng, x = _registry_covariates(0)
    n = len(x)
    d = (rng.random(n) < 0.2).astype(int)
    t = ((d == 1) & (rng.random(n) < 0.5)).astype(int)
    y = 0.03 * x[:, 0] + x[:, 1] - x[:, 3] + 1.5 * t + rng.standard_normal(n)
    ds = CompositeDataset(y, x, t, d)
    bundle = {"specs": linear_specs(ds.k), "ratio_mode": RATIO_LOGLINEAR}
    fits, alone = [], []
    stacked = nuisance._stacked_logit

    def recorded(*args):
        coef, iterations, loglik, status = stacked(*args)
        fits.extend(zip(iterations.tolist(), status.tolist()))
        return coef, iterations, loglik, status

    def fit_alone(resample):
        alone.append(resample.n)
        return fit_bundle(resample, **bundle)

    monkeypatch.setattr(nuisance, "_stacked_logit", recorded)
    shared = SharedFit(fit_alone, (Estimator("tau", "full_data").point,),
                       block=partial(BlockFitter, **bundle))
    bootstrap_variance(ds, shared, 4, seed=1)
    assert alone == [] and len(fits) == 8  # p and pi of each resample
    assert all(status == nuisance._CONVERGED and iterations <= 15
               for iterations, status in fits), fits


# ----------------------------- transforms ------------------------------


def test_term_parse_and_serialize_round_trip():
    for text in ("raw(0)", "pow(1,3)", "inter(0,1)", "log1pexp(1)"):
        term = Term.parse(text)
        assert term.serialize() == text


def test_term_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        Term.parse("cube(0)")
    with pytest.raises(ConfigError):
        Term.parse("pow(0)")
    with pytest.raises(ConfigError):
        Term.parse("raw(0,1)")


def test_modelspec_round_trip():
    spec = ModelSpec(LOGIT, (Term("raw", 0), Term("pow", 1, 2), Term("inter", 0, 1)))
    again = ModelSpec.from_dict(spec.to_dict())
    assert again == spec


@settings(max_examples=50, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6))
def test_design_finite_for_finite_x(value):
    spec = ModelSpec(
        IDENTITY,
        (Term("raw", 0), Term("pow", 0, 2), Term("inter", 0, 0), Term("log1pexp", 0)),
    )
    row = spec.design(np.array([[value]]))
    assert np.isfinite(row).all()


def test_design_column_names():
    spec = ModelSpec(IDENTITY, (Term("raw", 0), Term("inter", 0, 1)))
    assert spec.column_names(("age", "bmi")) == ["intercept", "age", "inter(age,bmi)"]


# --------------------------- model-set fits ----------------------------


def _shaped_dataset(seed=1, n11=182, n10=180, n00=110) -> CompositeDataset:
    rng = np.random.default_rng(seed)
    n = n11 + n10 + n00
    x = rng.standard_normal((n, 2))
    d = np.array([1] * (n11 + n10) + [0] * n00)
    t = np.array([1] * n11 + [0] * (n10 + n00))
    y = 0.5 + 0.3 * x[:, 0] + t * 0.4 + rng.standard_normal(n)
    return CompositeDataset(y, x, t, d)


def _pooled_m0(ds: CompositeDataset) -> FittedGLM:
    """The bundle's pooled control-outcome model, linear in x."""
    controls = ds.t == 0
    spec = ModelSpec.linear_in(ds.k, IDENTITY)
    return fit_glm(spec.design(ds.x[controls]), ds.y[controls], IDENTITY, spec=spec)


def test_outcome_models_pooling_row_counts():
    ds = _shaped_dataset()
    sets, _ = fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR)
    assert sets["pooled"].m0.n_obs == 180 + 110
    assert sets["unpooled"].m0.n_obs == 180


def test_outcome_models_empty_cell():
    ds = _shaped_dataset(n11=60, n10=0, n00=40)
    with pytest.raises(EmptyCell, match="trial needs both arms"):
        fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR)
    # pooled controls still exist via the external arm
    sets, _ = fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR, treated_only=True)
    assert sets["treated_only"].m0.n_obs == 40


def test_bundle_without_controls_fails_on_them_before_fitting_m1():
    # two treated rows cannot identify m1's three coefficients, but the
    # missing controls are reported first
    ds = _shaped_dataset(n11=2, n10=0, n00=0)
    with pytest.raises(EmptyCell, match="^no control rows to fit the control outcome model$"):
        fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR)
    with pytest.raises(RankDeficient):
        fit_bundle(_shaped_dataset(n11=2, n10=0, n00=5), linear_specs(2), RATIO_LOGLINEAR)


def test_treatment_ps_randomized_coefs_near_zero():
    rng = np.random.default_rng(21)
    n = 4000
    x = rng.standard_normal((n, 2))
    d = np.ones(n, dtype=int)
    t = (rng.random(n) < 0.4).astype(int)
    y = rng.standard_normal(n)
    ds = CompositeDataset(y, x, t, d)
    fit = fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR)[0]["pooled"].p
    # randomization: covariate effects are zero, intercept near logit(0.4)
    assert abs(fit.coef[1]) < 0.15
    assert abs(fit.coef[2]) < 0.15
    frac = t.mean()
    assert fit.coef[0] == pytest.approx(np.log(frac / (1 - frac)), abs=0.02)


def test_treatment_ps_all_treated_empty_cell():
    ds = _shaped_dataset(n11=80, n10=0, n00=40)
    with pytest.raises(EmptyCell, match="trial needs both arms to fit the treatment propensity"):
        fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR)


def test_selection_ps_intercept_only_matches_q_hat():
    ds = _shaped_dataset()
    specs = {**linear_specs(2), "pi": ModelSpec(LOGIT, ())}
    fit = fit_bundle(ds, specs, RATIO_LOGLINEAR)[0]["pooled"].pi
    assert expit(fit.coef)[0] == pytest.approx(ds.q_hat, abs=1e-10)


def test_selection_ps_no_external_empty_cell():
    ds = _shaped_dataset(n00=0)
    with pytest.raises(EmptyCell, match="no external rows; selection propensity is degenerate"):
        fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR, treated_only=True)


def test_fitted_treatment_ps_tracks_truth_on_grid():
    ds, _ = generate(ScenarioConfig(scenario="i", n=40000), 123)
    fit = fit_bundle(ds, linear_specs(2), RATIO_LOGLINEAR)[0]["pooled"].p
    grid = np.array([[x1, x2] for x1 in (-1.0, 0.0, 1.0) for x2 in (-1.0, 0.0, 1.0)])
    truth = expit(0.2 * grid[:, 0] + 0.2 * grid[:, 1])
    assert np.max(np.abs(fit.predict(grid) - truth)) < 0.03


# --------------------------- variance ratio ----------------------------


def test_known_one_predicts_exactly_one(random_dataset):
    m0 = _pooled_m0(random_dataset)
    ratio = fit_variance_ratio(random_dataset, m0, RATIO_KNOWN_ONE)
    assert np.all(ratio.predict_r(random_dataset.x) == 1.0)
    assert ratio.params.size == 0


def test_constant_ratio_near_one_when_noise_equal():
    rng = np.random.default_rng(31)
    n = 6000
    x = rng.standard_normal((n, 2))
    d = (rng.random(n) < 0.5).astype(int)
    t = ((d == 1) & (rng.random(n) < 0.5)).astype(int)
    y = 1.0 + x[:, 0] + rng.standard_normal(n)
    ds = CompositeDataset(y, x, t, d)
    m0 = _pooled_m0(ds)
    ratio = fit_variance_ratio(ds, m0, RATIO_CONSTANT)
    assert ratio.const_ratio == pytest.approx(1.0, abs=0.1)


def test_loglinear_recovers_log_ratio_shape():
    ds, _ = generate(ScenarioConfig(scenario="i", n=20000), 77)
    spec = ModelSpec.linear_in(2, IDENTITY)
    m0 = _pooled_m0(ds)
    ratio = fit_variance_ratio(ds, m0, RATIO_LOGLINEAR, spec)
    # log r(x) = (0.2 + 0.2 x1) - (0.4 - 0.2 x1) = -0.2 + 0.4 x1
    slope = ratio.coef_trial[1] - ratio.coef_external[1]
    intercept = np.log(ratio.predict_r(np.zeros((1, 2))))[0]
    assert slope == pytest.approx(0.4, abs=0.15)
    assert intercept == pytest.approx(-0.2, abs=0.15)


def test_variance_ratio_needs_rows():
    ds = _shaped_dataset(n11=40, n10=1, n00=40)
    m0 = _pooled_m0(ds)
    with pytest.raises(EmptyCell):
        fit_variance_ratio(ds, m0, RATIO_CONSTANT)


def test_degenerate_variance_detected():
    rng = np.random.default_rng(8)
    n = 60
    x = rng.standard_normal((n, 2))
    d = np.array([1] * 40 + [0] * 20)
    t = np.array([1] * 20 + [0] * 40)
    y = 1.0 + 2.0 * x[:, 0] - x[:, 1] + t * 0.5  # zero control noise
    ds = CompositeDataset(y, x, t, d)
    m0 = _pooled_m0(ds)
    with pytest.raises(DegenerateVariance):
        fit_variance_ratio(ds, m0, RATIO_CONSTANT)


def test_variance_ratio_builds_one_design_per_spec_and_carries_constant(monkeypatch):
    ds, _ = generate(ScenarioConfig(scenario="ii", n=400), 5)
    spec = ModelSpec.linear_in(2, IDENTITY)
    m0 = _pooled_m0(ds)
    designs = []
    design = ModelSpec.design

    def counting_design(self, x):
        designs.append(len(x))
        return design(self, x)

    monkeypatch.setattr(ModelSpec, "design", counting_design)
    ratio = fit_variance_ratio(ds, m0, RATIO_LOGLINEAR, spec)
    # the variance spec has m0's terms: one all-row design serves both source groups
    assert designs == [ds.n]
    designs.clear()
    other = fit_variance_ratio(ds, m0, RATIO_LOGLINEAR, ModelSpec(IDENTITY, (Term("raw", 0),)))
    assert designs == [ds.n, ds.n]
    designs.clear()
    # a table that holds m0's design already: no design is built
    table = RowTable(ds)
    table.design(spec)
    designs.clear()
    with_table = fit_variance_ratio(ds, m0, RATIO_LOGLINEAR, spec, table)
    assert designs == []
    monkeypatch.undo()
    np.testing.assert_array_equal(with_table.params, ratio.params)
    constant = fit_variance_ratio(ds, m0, RATIO_CONSTANT)
    assert vars(ratio.constant) == vars(constant) and vars(other.constant) == vars(constant)


def test_loglinear_smoothed_variance_calibrated():
    ds, _ = generate(ScenarioConfig(scenario="i", n=20000), 99)
    spec = ModelSpec.linear_in(2, IDENTITY)
    m0 = _pooled_m0(ds)
    ratio = fit_variance_ratio(ds, m0, RATIO_LOGLINEAR, spec)
    trial_controls = (ds.d == 1) & (ds.t == 0)
    resid2 = (ds.y[trial_controls] - m0.predict(ds.x[trial_controls])) ** 2
    smoothed = ratio.predict_var_trial(ds.x[trial_controls])
    assert np.mean(smoothed) == pytest.approx(np.mean(resid2), rel=1e-9)


# ------------------------------- predict -------------------------------


def test_predict_through_link():
    lin = FittedGLM(IDENTITY, np.array([1.0, 2.0]), 1, 0.0, 2, ModelSpec.linear_in(1, IDENTITY))
    assert lin.predict(np.array([[1.0]]))[0] == pytest.approx(3.0)
    logit0 = FittedGLM(LOGIT, np.array([0.0]), 1, 0.0, 2, ModelSpec(LOGIT, ()))
    assert logit0.predict(np.array([[0.5]]))[0] == pytest.approx(0.5)


def test_trimming_counts_and_clips():
    raw = 0.9999
    model = FittedGLM(
        LOGIT, np.array([np.log(raw / (1 - raw))]), 1, 0.0, 1, ModelSpec(LOGIT, ())
    )
    ds = CompositeDataset(np.zeros(3), np.zeros((3, 1)), [0, 0, 0], [1, 1, 1])
    values, trimmed = RowTable(ds).propensity(model)
    assert np.all(values == 0.999)
    assert trimmed.sum() == 3


def test_fingerprint_stable_and_sensitive(random_dataset):
    from conftest import fit_sets

    sets = fit_sets(random_dataset)
    a = sets["pooled"].fingerprint()
    b = fit_sets(random_dataset)["pooled"].fingerprint()
    assert a == b
    assert a != sets["unpooled"].fingerprint()


def test_fit_model_applies_transform(random_dataset):
    specs = {**linear_specs(2), "m0": ModelSpec(IDENTITY, (Term("raw", 0), Term("pow", 0, 2)))}
    fit = fit_bundle(random_dataset, specs, RATIO_LOGLINEAR)[0]["pooled"].m0
    assert fit.coef.shape == (3,)
    assert fit.column_names == ["intercept", "x1", "pow(x1,2)"]


# --------------------------- resample blocks ---------------------------


def _rel_gap(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if want.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _assert_bundles_close(got, want):
    (got_sets, _), (want_sets, _) = got, want
    assert got_sets.keys() == want_sets.keys()
    for name, want_set in want_sets.items():
        got_set = got_sets[name]
        assert got_set.m0_pooled == want_set.m0_pooled
        for attr in ("m1", "m0", "p", "pi"):
            g, w = getattr(got_set, attr), getattr(want_set, attr)
            if w is None:
                assert g is None
                continue
            assert (g.family, g.n_obs, g.spec, g.column_names) == (
                w.family, w.n_obs, w.spec, w.column_names)
            assert _rel_gap(g.coef, w.coef) <= 1e-12, (name, attr)
            assert _rel_gap(g.loglik, w.loglik) <= 1e-12, (name, attr)
            assert g.iterations == w.iterations, (name, attr)
        assert (got_set.r.mode, got_set.r.spec) == (want_set.r.mode, want_set.r.spec)
        assert _rel_gap(got_set.r.params, want_set.r.params) <= 1e-9, name
        if want_set.r.constant is not None:
            assert _rel_gap(got_set.r.constant.params, want_set.r.constant.params) <= 1e-9


def _resample_sets(sets: dict, k: int) -> dict:
    """Resample k of a BlockFitter's stacked nuisance sets, shaped as fit_bundle's sets."""

    def one(model):
        if model is None:
            return None
        changes = {}
        for f in dataclasses.fields(model):
            value = getattr(model, f.name)
            if isinstance(value, np.ndarray):
                changes[f.name] = value[k]
            elif isinstance(value, VarianceRatioModel):
                changes[f.name] = one(value)
        return dataclasses.replace(model, **changes)

    return {
        name: NuisanceSet(m0=one(s.m0), r=one(s.r), m0_pooled=s.m0_pooled, m1=one(s.m1),
                          p=one(s.p), pi=one(s.pi))
        for name, s in sets.items()
    }


def _resample_indices(n: int, k: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, n, n) for _ in range(k)]


def _counts(indices, n: int) -> np.ndarray:
    return np.stack([np.bincount(idx, minlength=n) for idx in indices])


def _block_case(case: str):
    """(dataset, specs, ratio mode, treated_only) of one block-fitter case."""
    if case in ("i", "ii", "iii", "iv"):
        ds, _ = generate(ScenarioConfig(scenario=case, n=300), 11)
        return ds, linear_specs(ds.k), RATIO_LOGLINEAR, False
    ds, _ = generate(ScenarioConfig(scenario="i", n=300), 12)
    specs = linear_specs(ds.k)
    if case == "variance_terms":
        specs["variance"] = ModelSpec(IDENTITY, (Term("raw", 0), Term("pow", 1, 2)))
        return ds, specs, RATIO_LOGLINEAR, False
    if case == "no_intercept":
        specs["m1"] = specs["m0"] = ModelSpec.linear_in(ds.k, IDENTITY, include_intercept=False)
        return ds, specs, RATIO_LOGLINEAR, False
    if case == "constant":
        return ds, specs, RATIO_CONSTANT, False
    if case == "treated_only":
        ds = ds.take(np.flatnonzero((ds.d == 0) | (ds.t == 1)))
        return ds, specs, RATIO_LOGLINEAR, True
    # binary outcome: logit outcome models and a ratio known to be one
    rng = np.random.default_rng(5)
    y = (rng.random(ds.n) < expit(0.3 * ds.x[:, 0] + 0.5 * ds.t)).astype(float)
    ds = CompositeDataset(y, ds.x, ds.t, ds.d)
    return ds, linear_specs(ds.k, LOGIT), RATIO_KNOWN_ONE, False


@pytest.mark.parametrize(
    "case",
    ["i", "ii", "iii", "iv", "variance_terms", "no_intercept", "constant", "treated_only", "binary"],
)
def test_block_fitter_matches_fit_bundle_per_resample(case):
    ds, specs, mode, treated_only = _block_case(case)
    indices = _resample_indices(ds.n, 24, seed=3)
    counts = _counts(indices, ds.n)
    ok, (sets, table) = BlockFitter(ds, specs, mode, treated_only).solve(counts)
    # every model is stacked, the logit ones (p, pi, binary m1 and m0) too
    assert ok.all()
    np.testing.assert_array_equal(table.counts, counts)
    for k, idx in enumerate(indices):
        want = fit_bundle(ds.take(idx), specs, mode, treated_only)
        _assert_bundles_close((_resample_sets(sets, k), None), want)


def _failure_base() -> CompositeDataset:
    """Treated rows, then trial controls and external rows whose first 12
    outcomes lie exactly on one line."""
    rng = np.random.default_rng(8)
    n11, n10, n00 = 40, 30, 30
    n = n11 + n10 + n00
    x = rng.standard_normal((n, 2))
    d = np.array([1] * (n11 + n10) + [0] * n00)
    t = np.array([1] * n11 + [0] * (n10 + n00))
    y = 1.0 + x[:, 0] - 0.5 * x[:, 1] + t + rng.standard_normal(n)
    exact = np.r_[n11:n11 + 12, n11 + n10:n11 + n10 + 12]
    y[exact] = 1.0 + x[exact, 0] - 0.5 * x[exact, 1]
    return CompositeDataset(y, x, t, d)


def _outcome(fit):
    try:
        sets, _ = fit()
    except Exception as exc:  # noqa: BLE001 - the failure is what is compared
        return type(exc).__name__, str(exc), exc.to_dict()
    return sets


def test_block_fitter_evaluates_each_row_set_once(monkeypatch):
    # each fitter evaluates each row set of the bundle once; its solves, on
    # counts or on a twin block, read the row sets it holds and evaluate none;
    # fit_bundle evaluates each once on its table, the ratio's groups included
    calls = dict.fromkeys(nuisance._BUNDLE_ROWS, 0)
    for name, rows in list(nuisance._BUNDLE_ROWS.items()):
        def counted(d, t, name=name, rows=rows):
            calls[name] += 1
            return rows(d, t)

        monkeypatch.setitem(nuisance._BUNDLE_ROWS, name, counted)
    ds, _ = generate(ScenarioConfig(scenario="i", n=40), 11)
    block = DatasetBlock.stack([ds, ds])
    twin = DatasetBlock(block.y + 1.0, block.x, block.t, block.d, block.covariate_names,
                        block.outcome_kind)
    resamples = BlockFitter(ds, linear_specs(ds.k), RATIO_LOGLINEAR)
    datasets = BlockFitter(block, linear_specs(ds.k), RATIO_LOGLINEAR)
    assert calls == dict.fromkeys(calls, 2)
    counts = _counts(_resample_indices(ds.n, 2, seed=3), ds.n)
    for ok, _ in (resamples.solve(counts), resamples.solve(counts[::-1]), datasets.solve(),
                  datasets.solve(base=twin)):
        assert ok.all()
    assert calls == dict.fromkeys(calls, 2)
    fit_bundle(ds, linear_specs(ds.k), RATIO_LOGLINEAR)
    assert calls == dict.fromkeys(calls, 3)


class _Counted(np.ndarray):
    """A view that counts the ufuncs it takes part in, by its ``role`` and the
    ufunc's name, and hands back plain arrays."""

    counts: collections.Counter = collections.Counter()
    role = ""

    def __array_finalize__(self, obj):
        self.role = getattr(obj, "role", "")

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        roles = {a.role for a in inputs if isinstance(a, _Counted)}
        type(self).counts.update((role, ufunc.__name__) for role in roles)
        plain = [a.view(np.ndarray) if isinstance(a, _Counted) else a for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def test_block_solve_and_scoring_form_each_shared_product_once(monkeypatch):
    # one solve and one scoring of a DatasetBlock form one log-variance
    # response for both ratio groups, and each of control_weight's products
    # d(1 - t)pi, (1 - d)pi and pi(1 - p) once, for the loglinear, constant and
    # zero ratios alike
    ds, _ = generate(ScenarioConfig(scenario="i", n=40), 11)
    block = DatasetBlock.stack([ds, ds])
    propensity = RowTable.propensity

    def counted_propensity(table, model):
        clipped, trimmed = propensity(table, model)
        clipped = clipped.view(_Counted)
        clipped.role = "propensity"
        return clipped, trimmed

    responses = []

    def recorded_wls(design, weights, response, guarded):
        responses.append(response)
        return stacked_wls(design, weights, response, guarded)

    stacked_wls = nuisance._stacked_wls
    monkeypatch.setattr(RowTable, "propensity", counted_propensity)
    monkeypatch.setattr(nuisance, "_stacked_wls", recorded_wls)
    monkeypatch.setattr(_Counted, "counts", collections.Counter())
    ok, fitted = BlockFitter(block, linear_specs(ds.k), RATIO_LOGLINEAR).solve()
    assert ok.all()
    _record_columns(ALL_ESTIMATORS, block, fitted)
    assert _Counted.counts["propensity", "multiply"] == 3
    # both ratio groups fit the one log-variance response
    assert len([r for r in responses if r is not block.y]) == 2
    assert len({id(r) for r in responses if r is not block.y}) == 1


def test_block_fitter_failures_match_fit_bundle():
    ds = _failure_base()
    treated, controls = np.arange(40), np.arange(40, 100)
    exact = np.r_[40:52, 70:82]
    rng = np.random.default_rng(1)
    indices = {
        "ok": rng.integers(0, 100, 100),
        "rank": np.r_[np.full(10, 3), rng.choice(controls, 90)],
        "one_external": np.r_[treated, np.arange(40, 70), rng.choice(treated, 29), 95],
        "no_treated": np.r_[rng.choice(controls, 100)],
        "degenerate": np.r_[treated, rng.choice(exact, 60)],
    }
    specs = linear_specs(2)
    ok, (sets, _) = BlockFitter(ds, specs, RATIO_LOGLINEAR).solve(
        _counts(list(indices.values()), ds.n))
    codes = {}
    for k, (name, idx) in enumerate(indices.items()):
        # a resample the block cannot stand in for is left to fit_bundle, failure and all
        assert ok[k] == (name == "ok"), name
        want = _outcome(lambda: fit_bundle(ds.take(idx), specs, RATIO_LOGLINEAR))
        if name == "ok":
            _assert_bundles_close((_resample_sets(sets, k), None), (want, None))
        else:
            codes[name] = want[2]["code"]
    assert codes == {
        "rank": "RANK_DEFICIENT", "one_external": "EMPTY_CELL", "no_treated": "EMPTY_CELL",
        "degenerate": "DEGENERATE_VARIANCE",
    }


def test_block_leaves_a_one_class_logit_response_unfit():
    # a treated-only resample with no external row: its selection propensity
    # has one class, which the IRLS does not run (it would converge near
    # |coef| = 28, inside SEPARATION_BOUND), so the block does not stand in
    # for a fit_bundle failure
    ds = _failure_base()
    specs = linear_specs(2)
    rng = np.random.default_rng(1)
    indices = [rng.integers(0, 100, 100), rng.choice(70, 100)]
    ok, (sets, _) = BlockFitter(ds, specs, RATIO_LOGLINEAR, treated_only=True).solve(
        _counts(indices, ds.n))
    assert ok.tolist() == [True, False]
    pi = sets["treated_only"].pi
    assert pi.iterations[1] == 0 and not pi.coef[1].any()
    with pytest.raises(EmptyCell, match="no external rows"):
        fit_bundle(ds.take(indices[1]), specs, RATIO_LOGLINEAR, treated_only=True)


def test_block_and_fit_bundle_agree_on_a_treated_arm_of_one_class():
    # a binary outcome whose treated arm holds one failure, row 0: a resample
    # without it fits m1 on successes alone, which fit_bundle fails as
    # separation and the block leaves to it
    rng = np.random.default_rng(4)
    n11, n10, n00 = 30, 30, 40
    n = n11 + n10 + n00
    x = rng.standard_normal((n, 2))
    d = np.r_[np.ones(n11 + n10), np.zeros(n00)]
    t = np.r_[np.ones(n11), np.zeros(n10 + n00)]
    y = np.r_[0.0, np.ones(n11 - 1), (rng.random(n10 + n00) < 0.5)]
    ds = CompositeDataset(y, x, t, d)
    specs = linear_specs(2, LOGIT)
    with_failure = rng.integers(0, n, n)
    with_failure[:3] = 0
    indices = [with_failure, rng.integers(1, n, n)]
    ok, (sets, _) = BlockFitter(ds, specs, RATIO_KNOWN_ONE).solve(_counts(indices, n))
    assert ok.tolist() == [True, False]
    _assert_bundles_close((_resample_sets(sets, 0), None),
                          (fit_bundle(ds.take(indices[0]), specs, RATIO_KNOWN_ONE)[0], None))
    with pytest.raises(SeparationDetected, match="response holds one class"):
        fit_bundle(ds.take(indices[1]), specs, RATIO_KNOWN_ONE)


# trial-treated, trial-control and external row counts of the degenerate grid;
# a dataset without a trial row cannot be built, so those triples drop out
_GRID_SIZES = [sizes for sizes in itertools.product((0, 1, 2, 5, 30), (0, 1, 2, 5, 30),
                                                    (0, 1, 2, 30)) if sizes[0] + sizes[1]]
# collinear x, propensity family, treated_only, ratio mode
_GRID_MODES = list(itertools.product((False, True), (LOGIT, IDENTITY), (False, True),
                                     (RATIO_KNOWN_ONE, RATIO_CONSTANT, RATIO_LOGLINEAR)))


def _grid_dataset(n11: int, n10: int, n2: int, collinear: bool) -> CompositeDataset:
    """Treated rows, then trial controls, then external rows, drawn from a stream of the sizes."""
    rng = np.random.default_rng([n11, n10, n2])
    n = n11 + n10 + n2
    x = rng.standard_normal((n, 2))
    if collinear:
        x[:, 1] = 1.0 - 2.0 * x[:, 0]
    d = np.repeat([1, 0], [n11 + n10, n2])
    t = np.repeat([1, 0], [n11, n10 + n2])
    return CompositeDataset(1.0 + x[:, 0] - 0.5 * x[:, 1] + t + rng.standard_normal(n), x, t, d)


def _assert_block_fits(got: dict, want: dict, ds: CompositeDataset, sizes: tuple) -> None:
    """A block's bundle against fit_bundle's on a grid dataset: each model's
    row count is the grid's own, coefficients and ratio parameters agree to
    1e-12 relative, and each logit propensity is the frozen single-fit IRLS's."""
    n11, n10, n2 = sizes
    design = ModelSpec.linear_in(ds.k, LOGIT).design(ds.x)
    logits = {"p": (ds.d == 1, ds.t), "pi": (np.ones(ds.n, dtype=bool), ds.d)}
    assert got.keys() == want.keys()
    for name, want_set in want.items():
        got_set = got[name]
        counts = {"m1": n11, "m0": n10 + n2 if want_set.m0_pooled else n10, "p": n11 + n10,
                  "pi": ds.n}
        for attr, count in counts.items():
            g, w = getattr(got_set, attr), getattr(want_set, attr)
            if w is None:
                assert g is None
                continue
            assert g.n_obs == w.n_obs == count, (name, attr)
            assert _rel_gap(g.coef, w.coef) <= 1e-12, (name, attr)
            if attr in logits:
                rows, response = logits[attr]
                frozen = oracles.irls_logit(design[rows], response[rows])
                assert frozen.outcome == "converged", (name, attr)
                assert _rel_gap(g.coef, frozen.coef) <= 1e-12, (name, attr)
        assert _rel_gap(got_set.r.params, want_set.r.params) <= 1e-12, name
        if want_set.r.constant is not None:
            assert _rel_gap(got_set.r.constant.params, want_set.r.constant.params) <= 1e-12
    # the constant ratio's variances are the pooled m0's mean squared residuals
    # on the trial controls and on the external rows
    pooled = got.get("pooled")
    if pooled is not None and pooled.r.mode != RATIO_KNOWN_ONE:
        constant = pooled.r.constant or pooled.r
        r2 = (ds.y - pooled.m0.predict(ds.x)) ** 2
        v = [np.mean(r2[(ds.d == 1) & (ds.t == 0)]), np.mean(r2[ds.d == 0])]
        assert _rel_gap([constant.const_var_trial, constant.const_var_external], v) <= 1e-12


def test_block_fitter_stands_in_for_fit_bundle_on_the_degenerate_grid():
    # every size triple, each with half of the other axes' 24 combinations
    # (alternating halves), solved as one resample of unit counts and as a
    # one-dataset block: where fit_bundle fails the block is not ok, and where
    # the block is ok it fits what fit_bundle fits
    fitted = 0
    for i, sizes in enumerate(_GRID_SIZES):
        for collinear, family, treated_only, mode in _GRID_MODES[i % 2::2]:
            ds = _grid_dataset(*sizes, collinear)
            specs = linear_specs(ds.k)
            specs["p"] = specs["pi"] = ModelSpec.linear_in(ds.k, family)
            try:
                want, _ = fit_bundle(ds, specs, mode, treated_only)
            except EcborrowError:
                want = None
            case = (sizes, collinear, family, treated_only, mode)
            for base, counts in ((ds, np.ones((1, ds.n))), (DatasetBlock.stack([ds]), None)):
                ok, block = BlockFitter(base, specs, mode, treated_only).solve(counts)
                assert ok.shape == (1,), case
                if want is None:
                    assert not ok[0], case
                elif ok[0]:
                    _assert_block_fits(_resample_sets(block[0], 0), want, ds, sizes)
                    fitted += 1
    # 96 of the 1,152 cases fit, each both ways
    assert fitted == 192


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the block's normal equations on raw columns square the condition "
    "number, so its Gram guard refuses designs lstsq fits until designs carry one scale"))
def test_block_fitter_stands_in_under_an_affine_rescaling_of_a_covariate():
    # x1 as a covariate in dollars: fit_bundle fits every resample, and the
    # block should stand in for each as it does on the raw golden input
    ds = load_csv(Path(__file__).parent / "data" / "golden_input.csv")
    x = ds.x.copy()
    x[:, 0] = 2e4 * x[:, 0] + 5e4
    dollars = CompositeDataset(ds.y, x, ds.t, ds.d, ds.covariate_names)
    counts = _counts(_resample_indices(ds.n, 32, seed=1), ds.n)
    ok, _ = BlockFitter(dollars, linear_specs(ds.k), RATIO_LOGLINEAR).solve(counts)
    assert ok.all(), f"{int(ok.sum())} of 32 resamples stand in"


def test_trial_only_bundle_skips_the_ratio():
    ds, _ = generate(ScenarioConfig(scenario="i", n=300), 4)
    trial = ds.take(np.flatnonzero(ds.d == 1))
    sets, _ = fit_bundle(trial, linear_specs(trial.k), RATIO_LOGLINEAR)
    assert sets["pooled"].pi is None
    assert sets["pooled"].r.mode == RATIO_KNOWN_ONE
