import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from ecborrow.cli import main, render_report
from ecborrow.dataset import write_csv
from ecborrow.simlab import ScenarioConfig, generate

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schemas" / "results.schema.json").read_text())


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def make_input(tmp_path, scenario="i", n=300, seed=42) -> Path:
    ds, _ = generate(ScenarioConfig(scenario=scenario, n=n), seed)
    path = tmp_path / "input.csv"
    write_csv(ds, path)
    return path


def make_binary_input(tmp_path) -> Path:
    rng = np.random.default_rng(3)
    n = 400
    x = rng.standard_normal((n, 2))
    d = (rng.random(n) < 0.6).astype(int)
    t = ((d == 1) & (rng.random(n) < 0.5)).astype(int)
    from scipy.special import expit

    y = (rng.random(n) < expit(0.2 + 0.5 * x[:, 0] + 0.8 * t)).astype(float)
    from ecborrow.dataset import CompositeDataset

    ds = CompositeDataset(y, x, t, d)
    path = tmp_path / "binary.csv"
    write_csv(ds, path)
    return path


# ------------------------------- estimate ------------------------------


def test_estimate_output_validates_against_schema(tmp_path, capsys):
    path = make_input(tmp_path)
    code, out = run_cli(["estimate", "--input", str(path), "--seed", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert {e["estimand"] for e in payload["estimates"]} == {"tau", "psi", "xi"}


def assert_golden_bytes(name, argv, tmp_path, capsys, monkeypatch):
    """The CLI run recorded by scripts/make_golden.py writes the golden file byte for byte."""
    monkeypatch.chdir(ROOT)
    out_path = tmp_path / "fresh.json"
    code = main([*argv, "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert out_path.read_bytes() == (ROOT / "tests" / "data" / name).read_bytes()


def test_estimate_golden_bytes(tmp_path, capsys, monkeypatch):
    argv = ["estimate", "--input", "tests/data/golden_input.csv", "--estimand", "tau,psi,xi",
            "--side", "greater", "--seed", "11"]
    assert_golden_bytes("golden_estimate.json", argv, tmp_path, capsys, monkeypatch)


def test_bootstrap_golden_bytes(tmp_path, capsys, monkeypatch):
    argv = ["estimate", "--input", "tests/data/golden_input.csv", "--variance", "bootstrap",
            "--B", "100", "--seed", "3"]
    assert_golden_bytes("golden_bootstrap.json", argv, tmp_path, capsys, monkeypatch)


def test_diagnose_golden_bytes(tmp_path, capsys, monkeypatch):
    argv = ["diagnose", "--input", "tests/data/golden_input.csv", "--bias-bound", "0.1"]
    assert_golden_bytes("golden_diagnose.json", argv, tmp_path, capsys, monkeypatch)


def test_readme_library_snippet_matches_the_cli(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert '"data.csv"' in snippet
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(snippet.replace('"data.csv"', '"tests/data/golden_input.csv"'), namespace)
    capsys.readouterr()
    golden = json.loads((ROOT / "tests" / "data" / "golden_estimate.json").read_text())
    (cli_point,) = [e["point"] for e in golden["estimates"]
                    if (e["estimand"], e["method"]) == ("tau", "full_data")]
    assert namespace["est"].point == cli_point


def test_simulate_golden_bytes(tmp_path, capsys, monkeypatch):
    argv = ["simulate", "--scenario", "all", "--reps", "8", "--n", "200", "--seed", "3"]
    assert_golden_bytes("golden_simulate.json", argv, tmp_path, capsys, monkeypatch)


def test_estimate_binary_forces_ratio_one(tmp_path, capsys):
    path = make_binary_input(tmp_path)
    code, out = run_cli(
        ["estimate", "--input", str(path), "--estimand", "tau", "--seed", "1"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ratio_mode"] == "known_one"


def test_estimate_no_external_full_method_errors(tmp_path, capsys):
    ds, _ = generate(ScenarioConfig(scenario="i", n=300), 9)
    trial_only = ds.take(np.where(ds.d == 1)[0])
    path = tmp_path / "trial.csv"
    write_csv(trial_only, path)
    code, out = run_cli(
        ["estimate", "--input", str(path), "--estimand", "tau", "--method", "full"],
        capsys,
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["error"]["code"] == "OVERLAP_NO_EXTERNAL"
    jsonschema.validate(payload, SCHEMA)


def test_estimate_trial_only_input_gives_trial_tau(tmp_path, capsys):
    # no external rows: the ratio is never read, so the default (loglinear)
    # run equals the known1 run instead of failing on the ratio fit
    ds, _ = generate(ScenarioConfig(scenario="i", n=300), 9)
    path = tmp_path / "trial.csv"
    write_csv(ds.take(np.where(ds.d == 1)[0]), path)
    args = ["estimate", "--input", str(path), "--estimand", "tau", "--method", "trial"]
    for variance in (["--variance", "if"], ["--variance", "bootstrap", "--B", "100"]):
        runs = []
        for ratio in ([], ["--ratio", "known1"]):
            code, out = run_cli(args + variance + ratio, capsys)
            assert code == 0, out
            payload = json.loads(out)
            jsonschema.validate(payload, SCHEMA)
            runs.append(payload["estimates"])
        assert len(runs[0]) == 1
        assert runs[0][0]["method"] == "trial_based"
        assert runs[0] == runs[1]


def test_estimate_missing_input_is_data_error(capsys):
    code, out = run_cli(["estimate", "--input", "/nonexistent.csv"], capsys)
    assert code == 3
    assert json.loads(out)["error"]["code"] == "MISSING_COLUMN"


def test_estimate_b_without_bootstrap_is_config_error(tmp_path, capsys):
    path = make_input(tmp_path)
    code, out = run_cli(
        ["estimate", "--input", str(path), "--B", "200"], capsys
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "CONFIG"


def test_estimate_bootstrap_variance(tmp_path, capsys):
    path = make_input(tmp_path, n=200)
    code, out = run_cli(
        [
            "estimate",
            "--input",
            str(path),
            "--estimand",
            "tau",
            "--method",
            "full",
            "--variance",
            "bootstrap",
            "--B",
            "120",
            "--seed",
            "4",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    est = payload["estimates"][0]
    assert est["variance_method"] == "bootstrap"
    assert est["bootstrap"]["replicates"] == 120
    jsonschema.validate(payload, SCHEMA)


def _bootstrap_estimates(path, capsys, *extra):
    code, out = run_cli(
        ["estimate", "--input", str(path), "--variance", "bootstrap", "--B", "100",
         "--seed", "6", *extra],
        capsys,
    )
    assert code == 0
    return json.loads(out)["estimates"]


def test_bootstrap_pairs_match_each_pair_run_alone(tmp_path, capsys):
    path = make_input(tmp_path, n=250)
    together = _bootstrap_estimates(path, capsys)
    assert len(together) == 6
    for est in together:
        method = "full" if est["method"] == "full_data" else "trial"
        alone = _bootstrap_estimates(path, capsys, "--estimand", est["estimand"], "--method", method)
        assert alone == [est]


def test_bootstrap_fits_working_models_once_per_resample(tmp_path, capsys, monkeypatch):
    import ecborrow.nuisance as nuisance

    calls = []
    fit_glm = nuisance.fit_glm

    def counting_fit_glm(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs["family"])
        return fit_glm(*args, **kwargs)

    monkeypatch.setattr(nuisance, "fit_glm", counting_fit_glm)
    path = make_input(tmp_path, n=250)
    assert len(_bootstrap_estimates(path, capsys, "--jobs", "1")) == 6
    # on the data: m1, pooled m0, trial m0, p, pi and two variance-ratio fits;
    # per resample only the p and pi logits, because every identity-family
    # model of a resample is solved with its block
    assert calls.count("identity") == 5
    assert calls.count("logit") == 2 * 100 + 2
    assert len(calls) == 2 * 100 + 7


def test_bootstrap_all_pairs_identical_across_jobs(tmp_path, capsys):
    path = make_input(tmp_path, n=250)
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"boot_{jobs}.json"
        _bootstrap_estimates(path, capsys, "--jobs", jobs, "--out", str(out))
        outputs.append(out.read_bytes())
    assert len(json.loads(outputs[0])["estimates"]) == 6
    assert outputs[0] == outputs[1]


def test_out_into_missing_directory_is_config_error(tmp_path, capsys):
    path = make_input(tmp_path, n=200)
    code = main(
        ["estimate", "--input", str(path), "--out", str(tmp_path / "missing" / "r.json")]
    )
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)
    assert payload["error"]["code"] == "CONFIG"
    jsonschema.validate(payload, SCHEMA)
    assert "Traceback" not in captured.err


def test_estimate_treated_only_mode(tmp_path, capsys):
    rng = np.random.default_rng(8)
    n = 240
    x = rng.standard_normal((n, 2))
    d = np.array([1] * 120 + [0] * 120)
    t = d.copy()
    y = 1.0 + x[:, 0] + 1.5 * t + rng.standard_normal(n)
    from ecborrow.dataset import CompositeDataset

    ds = CompositeDataset(y, x, t, d)
    path = tmp_path / "treated.csv"
    write_csv(ds, path)
    code, out = run_cli(
        [
            "estimate",
            "--input",
            str(path),
            "--estimand",
            "tau",
            "--method",
            "treated-only",
            "--seed",
            "2",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["estimates"][0]["method"] == "treated_only"
    assert payload["estimates"][0]["point"] == pytest.approx(1.5, abs=0.5)
    # default two-arm analysis on the same data is a data error
    code2, out2 = run_cli(
        ["estimate", "--input", str(path), "--estimand", "tau"], capsys
    )
    assert code2 == 3
    assert json.loads(out2)["error"]["code"] == "EMPTY_CELL"


def test_estimate_schema_flag(tmp_path, capsys):
    ds, _ = generate(ScenarioConfig(scenario="i", n=200), 12)
    path = tmp_path / "renamed.csv"
    from ecborrow.dataset import ColumnSchema

    write_csv(ds, path, ColumnSchema(d="src", t="arm", y="resp", x=("a", "b")))
    schema = '{"d": "src", "t": "arm", "y": "resp", "x": ["a", "b"]}'
    code, out = run_cli(
        ["estimate", "--input", str(path), "--schema", schema, "--estimand", "tau"],
        capsys,
    )
    assert code == 0


def test_config_file_with_cli_override(tmp_path, capsys):
    path = make_input(tmp_path, n=200)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": str(path), "estimand": "tau", "level": 0.9}))
    code, out = run_cli(
        ["estimate", "--config", str(cfg), "--level", "0.95"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 0.95  # CLI wins over the file
    assert {e["estimand"] for e in payload["estimates"]} == {"tau"}


# ------------------------------- diagnose ------------------------------


def test_diagnose_output(tmp_path, capsys):
    path = make_input(tmp_path)
    code, out = run_cli(
        ["diagnose", "--input", str(path), "--bias-bound", "0.5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert 0 <= payload["exchangeability"]["p_value"] <= 1
    assert payload["bias_bound"]["lambda_abs_bound"] <= 0.5
    assert payload["bias_bound"]["lambda_estimate"] is None


def test_diagnose_zero_bound(tmp_path, capsys):
    path = make_input(tmp_path)
    code, out = run_cli(
        ["diagnose", "--input", str(path), "--bias-bound", "0"], capsys
    )
    assert code == 0
    assert json.loads(out)["bias_bound"]["lambda_abs_bound"] == 0.0


def test_diagnose_missing_controls_errors(tmp_path, capsys):
    rng = np.random.default_rng(5)
    n = 100
    x = rng.standard_normal((n, 2))
    d = np.array([1] * 50 + [0] * 50)
    t = d.copy()
    y = rng.standard_normal(n)
    from ecborrow.dataset import CompositeDataset

    write_csv(CompositeDataset(y, x, t, d), tmp_path / "to.csv")
    code, out = run_cli(["diagnose", "--input", str(tmp_path / "to.csv")], capsys)
    assert code == 3
    assert json.loads(out)["error"]["code"] == "EMPTY_CELL"


# ------------------------------- simulate ------------------------------


def test_simulate_deterministic_across_jobs(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out_path, jobs in ((out1, "1"), (out2, "2")):
        code = main(
            [
                "simulate",
                "--scenario",
                "i",
                "--reps",
                "6",
                "--n",
                "200",
                "--seed",
                "3",
                "--jobs",
                jobs,
                "--out",
                str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_all_scenarios(tmp_path, capsys):
    code, out = run_cli(
        ["simulate", "--scenario", "all", "--reps", "2", "--n", "200", "--seed", "1"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert set(payload["scenarios"]) == {"i", "ii", "iii", "iv"}


def test_simulate_boxplot_csv(tmp_path, capsys):
    csv_path = tmp_path / "box.csv"
    code, _ = run_cli(
        [
            "simulate",
            "--scenario",
            "ii",
            "--reps",
            "3",
            "--n",
            "200",
            "--seed",
            "2",
            "--boxplot-csv",
            str(csv_path),
        ],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scenario,estimator,replicate,bias"
    assert len(lines) == 1 + 3 * 7


# -------------------------------- report -------------------------------


def test_report_renders_table(tmp_path, capsys):
    path = make_input(tmp_path, n=200)
    out_path = tmp_path / "est.json"
    main(
        [
            "estimate", "--input", str(path), "--estimand", "tau",
            "--seed", "1", "--out", str(out_path),
        ]
    )
    capsys.readouterr()
    code, out = run_cli(["report", "--results", str(out_path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "point x100" in lines[0]
    assert any("full_data" in line for line in lines)


def test_report_rejects_wrong_payload(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "diagnose"}))
    code, out = run_cli(["report", "--results", str(bad)], capsys)
    assert code == 2


@pytest.mark.parametrize("text", ["not json {", "[1, 2]"])
def test_report_non_object_json_is_config_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out = run_cli(["report", "--results", str(bad)], capsys)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "CONFIG"


@pytest.mark.parametrize(
    "flags, exit_code, code",
    [
        (["estimate", "--input", "{dir}"], 3, "MISSING_COLUMN"),
        (["estimate", "--input", "{csv}", "--config", "{dir}"], 2, "CONFIG"),
        (["estimate", "--input", "{csv}", "--schema", "{dir}"], 2, "CONFIG"),
        (["estimate", "--input", "{csv}", "--schema", "@{dir}"], 2, "CONFIG"),
        (["report", "--results", "{dir}"], 2, "CONFIG"),
    ],
    ids=["input", "config", "schema", "schema_at", "results"],
)
def test_directory_in_place_of_a_file_is_typed_error(tmp_path, capsys, flags, exit_code, code):
    directory = tmp_path / "dir.json"  # the suffix also tempts the schema's file branch
    directory.mkdir()
    csv = make_input(tmp_path, n=200)
    args = [f.format(dir=directory, csv=csv) for f in flags]
    code_out = main(args)
    captured = capsys.readouterr()
    assert code_out == exit_code
    payload = json.loads(captured.out)
    assert payload["error"]["code"] == code
    jsonschema.validate(payload, SCHEMA)


def test_non_finite_design_column_is_numeric_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(
        {"models": {"m0": {"family": "identity", "terms": ["raw(0)", "pow(1,3000)"]}}}
    ))
    with np.errstate(over="ignore"):
        code = main(["estimate", "--input", "tests/data/golden_input.csv", "--config", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["error"]["code"] == "NON_FINITE"
    assert payload["error"]["details"]["columns"] == ["pow(x2,3000)"]
    jsonschema.validate(payload, SCHEMA)


def test_model_spec_without_columns_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps(
        {"models": {"m1": {"family": "identity", "terms": [], "include_intercept": False}}}
    ))
    code = main(["estimate", "--input", "tests/data/golden_input.csv", "--config", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == {
        "code": "CONFIG", "message": "a model spec needs at least one term or the intercept"
    }
    jsonschema.validate(payload, SCHEMA)


def test_missing_schema_file_is_named(tmp_path, capsys):
    csv = make_input(tmp_path, n=200)
    missing = tmp_path / "missing.json"
    for value in (str(missing), f"@{missing}"):
        code = main(["estimate", "--input", str(csv), "--schema", value])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["error"] == {
            "code": "CONFIG", "message": f"schema file not found: {missing}"
        }


def test_nan_in_result_is_numeric_error_before_output(tmp_path, capsys, monkeypatch):
    import ecborrow.cli as cli

    out_path = tmp_path / "r.json"
    monkeypatch.setitem(
        cli._COMMANDS, "estimate", lambda cfg: {"command": "estimate", "point": float("nan")}
    )
    code = main(["estimate", "--out", str(out_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["error"]["code"] == "NON_FINITE"
    jsonschema.validate(payload, SCHEMA)
    assert not out_path.exists()


def test_error_details_that_json_cannot_hold_are_dropped(capsys, monkeypatch):
    import ecborrow.cli as cli
    from ecborrow.errors import DegenerateVariance

    def failing(cfg):
        raise DegenerateVariance("degenerate", level=float("inf"))

    monkeypatch.setitem(cli._COMMANDS, "estimate", failing)
    code = main(["estimate"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload == {"error": {"code": "DEGENERATE_VARIANCE", "message": "degenerate"}}
    jsonschema.validate(payload, SCHEMA)


def test_cli_import_leaves_scipy_stats_and_linalg_unloaded():
    """No scipy module nor the process pool loads with the CLI, estimate or simulate.

    Only diagnose's chi-square p-value (and the rank-failure QR) imports scipy.
    """
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    golden = "tests/data/golden_input.csv"
    probe = (
        "import contextlib, io, json, sys\n"
        "from ecborrow.cli import main\n"
        "def run(argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0, argv\n"
        "    return json.loads(out.getvalue())\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith(("
        "'multiprocessing', 'concurrent.futures.process')))\n"
        "print(loaded())\n"
        f"run(['estimate', '--input', '{golden}', '--seed', '11'])\n"
        f"run(['estimate', '--input', '{golden}', '--estimand', 'tau', '--variance', 'bootstrap',"
        " '--B', '100', '--seed', '3'])\n"
        "run(['simulate', '--scenario', 'i', '--reps', '4', '--n', '200', '--seed', '3'])\n"
        "print(loaded())\n"
        f"print(run(['diagnose', '--input', '{golden}'])['exchangeability']['p_value'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
        cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    after_import, after_runs, diagnose_p = out.stdout.strip().splitlines()
    assert after_import == "[]"
    assert after_runs == "[]"
    golden_p = json.loads((ROOT / "tests" / "data" / "golden_diagnose.json").read_text())
    assert float(diagnose_p) == golden_p["exchangeability"]["p_value"]


def test_report_renders_simulation_table(tmp_path, capsys):
    out_path = tmp_path / "sim.json"
    main(
        ["simulate", "--scenario", "i", "--reps", "3", "--n", "200",
         "--seed", "4", "--out", str(out_path)]
    )
    capsys.readouterr()
    code, out = run_cli(["report", "--results", str(out_path)], capsys)
    assert code == 0
    assert "coverage" in out.splitlines()[0]
    assert any("tau_full" in line for line in out.splitlines())


def test_simulate_smoke_run_within_budget(tmp_path, capsys):
    import time

    start = time.time()
    code, out = run_cli(
        ["simulate", "--scenario", "i", "--reps", "50", "--n", "500", "--seed", "8"],
        capsys,
    )
    elapsed = time.time() - start
    assert code == 0
    assert elapsed < 60
    payload = json.loads(out)
    assert payload["scenarios"]["i"]["summaries"]["tau_full"]["reps"] == 50


def test_simulate_dgp_override_from_config(tmp_path, capsys):
    cfg = tmp_path / "sim_cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "i",
                "reps": 2,
                "n": 200,
                "dgp": {"engagement_coefs": [0.0, 0.5, 0.0]},
            }
        )
    )
    code, out = run_cli(["simulate", "--config", str(cfg), "--seed", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["scenarios"]["i"]["config"]["engagement_coefs"] == [0.0, 0.5, 0.0]
    bad = tmp_path / "bad_cfg.json"
    bad.write_text(json.dumps({"scenario": "i", "dgp": {"bogus_field": 1}}))
    code2, _ = run_cli(["simulate", "--config", str(bad), "--seed", "1"], capsys)
    assert code2 == 2


def test_render_report_scaling():
    payload = {
        "command": "estimate",
        "estimates": [
            {
                "estimand": "tau",
                "method": "full_data",
                "point": 0.0582,
                "variance": 16.10e-4,
                "p_value": 0.073,
            }
        ],
    }
    lines = render_report(payload)
    assert "5.82" in lines[2]
    assert "16.10" in lines[2]
    assert "0.073" in lines[2]
