import importlib.util
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


def test_estimate_points_scale_with_the_outcome(tmp_path, capsys):
    # the influence values' centring check is relative to their own scale, so
    # an outcome in large units is no MISMATCHED_POINT; the variance ratio's
    # VAR_FLOOR moves the unscaled points by about 4e-8, so two large scales
    # are compared
    header, *rows = (ROOT / "tests" / "data" / "golden_input.csv").read_text().splitlines()
    points = {}
    for scale in (1e8, 1e10):
        path = tmp_path / f"scaled_{scale:g}.csv"
        scaled = [line.split(",") for line in rows]
        path.write_text("\n".join([header] + [",".join(
            [d, t, repr(float(y) * scale), *x]) for d, t, y, *x in scaled]) + "\n")
        code, out = run_cli(["estimate", "--input", str(path)], capsys)
        assert code == 0, out
        points[scale] = np.array([e["point"] for e in json.loads(out)["estimates"]])
    assert np.allclose(points[1e10], 100.0 * points[1e8], rtol=1e-12, atol=0)


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


def _golden_runs() -> dict:
    """scripts/make_golden.py's table of golden file -> CLI run."""
    spec = importlib.util.spec_from_file_location(
        "make_golden", ROOT / "scripts" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDENS


GOLDEN_RUNS = _golden_runs()
# the goldens with a test of their own in this file
OWN_TESTS = ("golden_estimate.json", "golden_bootstrap.json", "golden_diagnose.json",
             "golden_simulate.json")


@pytest.mark.parametrize("name", [name for name in GOLDEN_RUNS if name not in OWN_TESTS])
def test_unpinned_mode_golden_bytes(name, tmp_path, capsys, monkeypatch):
    assert_golden_bytes(name, GOLDEN_RUNS[name], tmp_path, capsys, monkeypatch)


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


_HEADER = "d,t,y,x1\n"
_ROWS = "1,1,0.5,0.1\n1,0,0.2,0.3\n0,0,0.4,-0.2\n"


@pytest.mark.parametrize(
    "text, schema, status, code, message, details",
    [
        (_HEADER + _ROWS + "1,0,0.1,nan\n", None, 3, "PARSE_ERROR", "non-finite value 'nan'",
         {"row": 3, "column": "x1"}),
        (_HEADER + "1,1,inf,0.1\n" + _ROWS, None, 3, "PARSE_ERROR", "non-finite value 'inf'",
         {"row": 0, "column": "y"}),
        (_HEADER + _ROWS + "1,0,0.1\n", None, 3, "PARSE_ERROR", "row has 3 fields, header has 4",
         {"row": 3, "column": ""}),
        ("", None, 3, "INVARIANT_VIOLATION", "empty CSV: ", None),
        (_HEADER, None, 3, "INVARIANT_VIOLATION", "no data rows in ", None),
        (_HEADER + "1,1,0.5,0.1\n\n \n1,0,abc,0.3\n", None, 3, "PARSE_ERROR",
         "cannot parse 'abc' as a number", {"row": 3, "column": "y"}),
        (_HEADER + _ROWS, '{"x": ["x1", "age"]}', 3, "MISSING_COLUMN",
         "covariate column 'age' not in header", {"column": "age"}),
        ("d,t,y\n1,1,0.5\n", None, 3, "MISSING_COLUMN", "no covariate columns found", None),
        (_HEADER + _ROWS, '{"z": "x1"}', 2, "CONFIG", "unknown schema keys: ['z']", None),
    ],
    ids=["nan_cell", "inf_cell", "field_count", "empty_file", "header_only",
         "blank_lines_keep_row_numbers", "schema_covariate_missing", "no_covariates",
         "unknown_schema_key"],
)
def test_csv_errors_are_typed_and_located(tmp_path, capsys, text, schema, status, code, message,
                                          details):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    argv = ["estimate", "--input", str(path)]
    if schema is not None:
        argv += ["--schema", schema]
    exit_status, out = run_cli(argv, capsys)
    error = json.loads(out)["error"]
    assert (exit_status, error["code"], error.get("details")) == (status, code, details)
    assert message in error["message"]
    jsonschema.validate({"error": error}, SCHEMA)


@pytest.mark.parametrize("estimand", [",", " , ", []], ids=["comma", "blank", "empty_list"])
def test_empty_estimand_list_is_config_error(tmp_path, capsys, monkeypatch, estimand):
    monkeypatch.chdir(ROOT)
    argv = ["estimate", "--input", "tests/data/golden_input.csv"]
    if isinstance(estimand, list):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"estimand": estimand}))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--estimand", estimand]
    code, out = run_cli(argv, capsys)
    assert code == 2
    assert json.loads(out)["error"] == {"code": "CONFIG", "message": "no estimand requested"}


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["estimate", "--variance", "bootstrap", "--seed", "-1"], None, "seed"),
        (["simulate", "--reps", "2", "--n", "100", "--seed", "-1"], None, "seed"),
        (["estimate", "--variance", "bootstrap"], {"B": "x"}, "B"),
        (["estimate", "--variance", "bootstrap"], {"B": 150.0}, "B"),
        (["estimate"], {"seed": "x"}, "seed"),
        (["estimate"], {"jobs": True}, "jobs"),
    ],
    ids=["seed_bootstrap", "seed_simulate", "B_text", "B_float", "seed_text", "jobs_bool"],
)
def test_seed_b_and_jobs_must_be_non_negative_integers(tmp_path, capsys, argv, config, key):
    if argv[0] == "estimate":
        argv = [*argv, "--input", str(make_input(tmp_path, n=200))]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)
    assert payload["error"]["code"] == "CONFIG"
    assert payload["error"]["message"].startswith(f"{key} must be a non-negative integer, got ")
    jsonschema.validate(payload, SCHEMA)
    assert "Traceback" not in captured.err


def test_negative_bias_bound_is_config_error(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run_cli(["diagnose", "--input", "tests/data/golden_input.csv",
                         "--bias-bound", "-0.1"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "CONFIG", "message": "bias bound must be non-negative, got -0.1"}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("estimate", '{"level": "x"}', "level must be a finite number, got 'x'"),
        ("estimate", '{"null": "a"}', "null must be a finite number, got 'a'"),
        ("estimate", '{"null": Infinity}', "null must be a finite number, got inf"),
        ("diagnose", '{"bias_bound": "x"}', "bias_bound must be a finite number, got 'x'"),
        ("simulate", '{"reps": "x"}', "reps must be a non-negative integer, got 'x'"),
        ("simulate", '{"n": 2.5}', "n must be a non-negative integer, got 2.5"),
    ],
    ids=["level", "null", "null_infinite", "bias_bound", "reps", "n"],
)
def test_numeric_config_values_are_typed(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    argv = [command, "--config", str(cfg)]
    if command != "simulate":
        argv += ["--input", str(make_input(tmp_path, n=200))]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)
    assert payload["error"] == {"code": "CONFIG", "message": message}
    jsonschema.validate(payload, SCHEMA)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["estimate", "--B", "abc"], "argument --B: invalid int value: 'abc'"),
        (["simulate", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["B", "n", "subcommand", "none"],
)
def test_usage_errors_are_config_json(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.out)
    assert payload["error"]["code"] == "CONFIG"
    assert payload["error"]["message"].startswith(message)
    jsonschema.validate(payload, SCHEMA)
    assert captured.err.startswith("usage: ecborrow")


# each subcommand's flags, as the parser offered them before it was built
# from RunConfig's fields
_FLAGS = {
    "estimate": {"--config", "--seed", "--jobs", "--out", "--input", "--schema", "--estimand",
                 "--method", "--ratio", "--variance", "--B", "--null", "--side", "--level"},
    "diagnose": {"--config", "--seed", "--jobs", "--out", "--input", "--schema", "--ratio",
                 "--bias-bound"},
    "simulate": {"--config", "--seed", "--jobs", "--out", "--scenario", "--reps", "--n",
                 "--boxplot-csv"},
    "report": {"--config", "--results"},
}


def test_each_subcommand_offers_its_flag_set():
    import argparse

    from ecborrow.cli import build_parser

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    offered = {command: {flag for action in parser._actions for flag in action.option_strings}
               - {"-h", "--help"} for command, parser in sub.choices.items()}
    assert offered == _FLAGS


def _runnable_argv(command: str, tmp_path) -> list[str]:
    """Arguments on which ``command`` exits 0, so that only the option added can fail it."""
    if command in ("estimate", "diagnose"):
        return [command, "--input", str(make_input(tmp_path, n=200))]
    if command == "simulate":
        return [command, "--reps", "2", "--n", "200"]
    results = tmp_path / "results.json"
    results.write_text(json.dumps({"command": "estimate", "estimates": []}))
    return [command, "--results", str(results)]


@pytest.mark.parametrize("option, value", [("method", "bogus"), ("ratio", "known_one"),
                                           ("variance", "bogus"), ("side", "two_sided")])
@pytest.mark.parametrize("command", list(_FLAGS))
def test_a_value_outside_an_options_choices_is_config_as_flag_and_in_config(
        tmp_path, capsys, command, option, value):
    # a config value takes the flag's spellings only; before, {"ratio":
    # "known_one"} ran and simulate ignored {"method": "bogus"}
    argv = _runnable_argv(command, tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({option: value}))
    runs = [argv + ["--config", str(config)]]
    if f"--{option}" in _FLAGS[command]:
        runs.append(argv + [f"--{option}", value])
    for run in runs:
        code = main(run)
        payload = json.loads(capsys.readouterr().out)
        assert code == 2 and payload["error"]["code"] == "CONFIG", run
        assert option in payload["error"]["message"] and repr(value) in payload["error"][
            "message"], run


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
    # per resample none, because every working model of a resample is fit
    # with its block
    assert calls.count("identity") == 5
    assert calls.count("logit") == 2
    assert len(calls) == 7


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
    # at n = 1000 a block holds 16 replicates: 37 of them make two whole blocks
    # and a partial last one, spread over the workers
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out_path, jobs in ((out1, "1"), (out2, "2")):
        code = main(
            [
                "simulate",
                "--scenario",
                "i",
                "--reps",
                "37",
                "--n",
                "1000",
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


@pytest.mark.parametrize(
    "argv, target",
    [
        (["simulate", "--scenario", "i", "--reps", "2", "--n", "200"], "ecborrow.simlab.generate"),
        (["estimate", "--input", "tests/data/golden_input.csv"], "ecborrow.nuisance._expit_parts"),
    ],
    ids=["simulate", "estimate"],
)
def test_out_of_memory_is_typed_error(capsys, monkeypatch, argv, target):
    message = "Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type float64"

    def fail(*args, **kwargs):  # numpy's allocation failure, without the allocation
        raise MemoryError(message)

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(target, fail)
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 5
    assert payload == {"error": {"code": "OUT_OF_MEMORY", "message": f"out of memory: {message}"}}
    assert captured.err == ""
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


@pytest.mark.parametrize("name, label", [("p", "treatment"), ("pi", "selection")])
def test_non_logit_propensity_spec_is_config_error(tmp_path, capsys, monkeypatch, name, label):
    monkeypatch.chdir(ROOT)
    cfg = tmp_path / "family.json"
    cfg.write_text(json.dumps({"models": {name: {"family": "identity", "terms": ["raw(0)"]}}}))
    code = main(["estimate", "--input", "tests/data/golden_input.csv", "--config", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"] == {
        "code": "CONFIG", "message": f"{label} propensity model must use the logit family"
    }
    jsonschema.validate(payload, SCHEMA)


@pytest.mark.parametrize(
    "config, named",
    [
        ({"models": {"m1": "x"}}, "'models.m1'"),
        ({"models": ["m1"]}, "models must be"),
        ({"schema": 5}, "schema must be"),
        ({"models": {"m1": {"include_intercept": "false"}}}, "'include_intercept'"),
        ({"models": {"m1": {"term": ["raw(0)"]}}}, "['term']"),
        ({"models": {"m1": {"terms": "raw(0)"}}}, "'terms'"),
        ({"models": {"m1": {"terms": ["raw(0)", "raw(2)"]}}}, "'raw(2)'"),
        ({"schema": {"d": 5}}, "'d'"),
        ({"schema": {"x": "x1"}}, "'x'"),
        ({"side": []}, "side must be"),
        ({"treated_only": "no"}, "unknown config keys"),
        ({"out": 5}, "out must be"),
        ({"estimand": ["tau", 5]}, "estimand '5'"),
        ({"dgp": {"selection_coefs": "abc"}}, "selection_coefs must be"),
        ({"dgp": {"effect_coefs": [1, 2]}}, "effect_coefs must be"),
    ],
    ids=["model_not_object", "models_not_object", "schema_not_object", "intercept_string",
         "unknown_spec_key", "terms_string", "term_beyond_covariates", "schema_role_number",
         "schema_x_string", "side_list", "treated_only_string", "out_number",
         "estimand_list_number", "dgp_coefs_string", "dgp_coefs_short"],
)
def test_structured_config_values_are_typed(tmp_path, capsys, monkeypatch, config, named):
    monkeypatch.chdir(ROOT)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    argv = ["estimate", "--input", "tests/data/golden_input.csv"]
    if "dgp" in config:
        argv = ["simulate", "--reps", "2", "--n", "100"]
    code = main([*argv, "--config", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["error"]["code"] == "CONFIG"
    assert named in payload["error"]["message"]
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

    Only diagnose's chi-square p-value (and the rank-failure QR) imports scipy,
    only simulate's quadrature truths import numpy.polynomial, and neither
    estimate imports numpy.ma (the bootstrap interval takes no np.quantile). Only
    simulate runs ecborrow.simlab: until then the module may be entered in
    sys.modules, but its code has not run. The import alone leaves OpenSSL's
    _hashlib unloaded: hashlib comes in only with numpy.random (through
    secrets) and a nuisance fingerprint, both after the import; under the
    entry point it then takes the builtin SHA-256
    (test_entry_point.py::test_no_command_loads_openssl).
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
        "def loaded(prefixes):\n"
        "    return sorted(m for m in sys.modules if m.startswith(prefixes))\n"
        "def simlab_ran():\n"
        "    module = sys.modules.get('ecborrow.simlab')\n"
        "    return module is not None and 'run_monte_carlo' in object.__getattribute__(\n"
        "        module, '__dict__')\n"
        "heavy = ('scipy', 'multiprocessing', 'concurrent.futures.process')\n"
        "print(loaded(heavy + ('numpy.polynomial', '_hashlib')), simlab_ran())\n"
        f"run(['estimate', '--input', '{golden}', '--seed', '11'])\n"
        f"run(['estimate', '--input', '{golden}', '--estimand', 'tau', '--variance', 'bootstrap',"
        " '--B', '100', '--seed', '3'])\n"
        "print(loaded(heavy + ('numpy.polynomial', 'numpy.ma.')), simlab_ran())\n"
        "run(['simulate', '--scenario', 'i', '--reps', '4', '--n', '200', '--seed', '3'])\n"
        "print(loaded(heavy))\n"
        f"print(run(['diagnose', '--input', '{golden}'])['exchangeability']['p_value'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120,
        cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    after_import, after_estimates, after_simulate, diagnose_p = out.stdout.strip().splitlines()
    assert after_import == "[] False"
    assert after_estimates == "[] False"
    assert after_simulate == "[]"
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


def test_simulation_report_sets_the_empirical_gain_beside_the_analytic_one():
    summary = {"mean_bias": 0.0, "mse": 0.0, "coverage": 0.95}
    payload = {"command": "simulate", "scenarios": {
        "i": {"config": {"n": 1000}, "mean_analytic_gain": 0.25,
              "summaries": {"tau_full": {**summary, "sd": 0.04},
                            "tau_trial": {**summary, "sd": 0.05}}},
        # a scenario of one replicate has no sd, and so no gain line
        "ii": {"config": {"n": 1000}, "mean_analytic_gain": 0.25,
               "summaries": {"tau_full": {**summary, "sd": None},
                             "tau_trial": {**summary, "sd": None}}},
    }}
    lines = render_report(payload)
    assert len(lines) == 2 + 3 + 2
    assert lines[4] == f"{'':<10}(gain: empirical n*gap = 0.900, analytic = 0.250)"


def test_cli_notes_are_one_stderr_line_each(tmp_path, capsys):
    binary = "tests/data/golden_input_binary.csv"
    boxplot = tmp_path / "boxplot.csv"
    notes = []
    for argv in (["estimate", "--input", binary, "--ratio", "constant"],
                 ["estimate", "--input", binary],
                 ["simulate", "--reps", "3", "--n", "100", "--boxplot-csv", str(boxplot)]):
        assert main(argv) == 0
        notes.append(capsys.readouterr().err)
    assert notes == [
        "outcome is binary: variance ratio forced to one (known1)\n",
        "outcome is binary: variance ratio set to one (known1)\n",
        f"wrote 21 boxplot rows to {boxplot}\n",
    ]


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
