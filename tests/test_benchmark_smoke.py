"""The benchmark harness runs on this checkout and its workloads' outputs pass its checks.

The harness's last stdout line is its result; a run that raises before it
prints that line gives no result at all. The harness imports the package
to make its inputs and reads payload keys in its checks, so a change to
either can break it without any test of the package failing.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import jsonschema

from ecborrow.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _cold_estimate_result(tmp_path, trace: int) -> dict:
    """The last line of a 1 s ``cold_estimate`` harness run, read as its result."""
    # a copy, so the run's scratch directory and bytecode stay out of the checkout
    for name in ("perfbench", "src", "schemas", "tests/data"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_estimate", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return result


def _declared(section: str) -> set:
    return {metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


def test_cold_estimate_run_prints_a_correct_result(tmp_path):
    assert set(_cold_estimate_result(tmp_path, 0)["metrics"]) == _declared("end_to_end")


def test_traced_cold_estimate_run_holds_every_per_layer_metric(tmp_path):
    # the traced run fills the layers cold_estimate never enters from its probe runs
    assert set(_cold_estimate_result(tmp_path, 1)["metrics"]) == _declared("per_layer")


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_block_workloads_pass_the_harness_checks(tmp_path, capsys, monkeypatch):
    workloads = _workloads(monkeypatch)
    validator = jsonschema.Draft7Validator(
        json.loads((ROOT / "schemas" / "results.schema.json").read_text()))
    for name in ("bootstrap_estimate", "mc_scenarios"):
        workload = workloads.WORKLOADS[name]
        code = main(workload.argv(1, workload.make_input(1, tmp_path)))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0, payload
        assert workloads.check_output(payload, validator) == []
        assert workload.units_done(payload) > 0
        assert workloads.inner_failures(payload) >= 0


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_applies_the_gain_rule_and_the_bound():
    module = _script("bench_pairs")
    metric = {"name": "op_p50_s", "better": "lower", "bound": 0.25}
    parent = [0.78, 0.79, 0.77, 0.80, 0.78, 0.79, 0.77, 0.78, 0.80, 0.79]
    # better in 9 of 10 rounds, by more than the parent's quartile spread
    faster = [0.67, 0.68, 0.66, 0.69, 0.67, 0.68, 0.66, 0.67, 0.81, 0.68]
    assert module.summarize(metric, parent, faster).endswith("better in 9/10  GAIN")
    # better in 8 of 10 is no gain
    assert module.summarize(metric, parent, faster[:8] + [0.81, 0.81]).endswith("8/10  -")
    # a median 30% slower is past the bound
    slower = [value * 1.3 for value in parent]
    assert module.summarize(metric, parent, slower).endswith("0/10  WORSE THAN BOUND")


def test_bench_pairs_reads_a_metric_spread_past_its_bound_as_unresolved():
    module = _script("bench_pairs")
    metric = {"name": "setup_s", "better": "lower", "bound": 0.25}
    # quartiles 0.2725 and 0.4075 around a median of 0.325: 42% apart
    parent = [0.259, 0.30, 0.427, 0.27, 0.41, 0.26, 0.40, 0.28, 0.42, 0.35]
    assert module.summarize(metric, parent, parent).endswith("0/10  UNRESOLVED")
    slower = [value * 1.3 for value in parent]
    assert module.summarize(metric, parent, slower).endswith("0/10  UNRESOLVED")
    # a gain past the spread still reads as one
    faster = [value * 0.5 for value in parent]
    assert module.summarize(metric, parent, faster).endswith("10/10  GAIN")


def test_bench_pairs_all_runs_each_gated_workload_in_order():
    module = _script("bench_pairs")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert module.workloads("all", benchmark) == [w["name"] for w in benchmark["workloads"]]
    assert module.workloads("registry_estimate", benchmark) == ["registry_estimate"]


def test_bench_pairs_reports_each_checkouts_src_lines(tmp_path):
    files = {"parent": {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/sub/b.py": "z = 3\n",
                        "src/pkg/notes.txt": "not code\n", "tests/t.py": "t = 0\n"},
             "change": {"src/pkg/a.py": "x = 1\n", "src/c.py": ""}}
    for side, tree in files.items():
        for name, text in tree.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
    module = _script("bench_pairs")
    assert module.src_lines(tmp_path / "parent") == 3
    assert module.line_counts(tmp_path / "parent", tmp_path / "change") == (
        "src/ lines: parent 3, change 1 (-2)")


def test_bench_pairs_reports_whether_the_outputs_hash_alike(tmp_path):
    # each fake harness prints a metric line, its details line, then its result line
    module = _script("bench_pairs")
    metrics = [{"name": "work_per_s", "better": "higher", "bound": 0.25}]
    result = {"correct": True, "failed": 0, "attempted": 1,
              "metrics": {"work_per_s": {"value": 1.0, "unit": "units/s"}}}
    sides = {}
    for side, hashes in (("a", ["aa"]), ("b", ["aa", "bb"]), ("c", ["aa"])):
        harness = tmp_path / side / "perfbench" / "run.py"
        harness.parent.mkdir(parents=True)
        lines = ["work_per_s 1 units/s", json.dumps({"stdout_sha256": hashes}), json.dumps(result)]
        harness.write_text("".join(f"print({line!r})\n" for line in lines), encoding="utf-8")
        sides[side] = tmp_path / side
    args = SimpleNamespace(rounds=2, seed=1, seconds=1)
    values, outputs = module.pair_runs({"parent": sides["a"], "change": sides["b"]}, "w", args,
                                       metrics)
    assert values["change"]["work_per_s"] == [1.0, 1.0]
    assert outputs == {"parent": {"aa"}, "change": {"aa", "bb"}}
    assert module.output_bytes(outputs["parent"], outputs["change"]) == "output bytes: DIFFER"
    _, outputs = module.pair_runs({"parent": sides["a"], "change": sides["c"]}, "w", args, metrics)
    assert module.output_bytes(outputs["parent"], outputs["change"]) == "output bytes: same"


def test_same_bytes_reads_a_moved_or_missing_output_as_differing(tmp_path):
    module = _script("same_bytes")
    parent = {"golden a.json": b"a.json: bytes match", "simulate seed 1": b"{}\n"}
    lines, differ = module.compare(parent, dict(parent))
    assert not differ
    assert [line.split(" (")[0] for line in lines] == [
        "golden a.json: same", "simulate seed 1: same"]
    lines, differ = module.compare(parent, {"simulate seed 1": b"{} \n", "cold": b""})
    assert differ
    assert [line.split(" (")[0] for line in lines] == [
        "golden a.json: DIFFER", "simulate seed 1: DIFFER", "cold: DIFFER"]
    assert lines[0].endswith("change missing)")
    assert lines[2].startswith("cold: DIFFER (parent missing")
    # a golden file regenerated or dropped by a change differs by its committed bytes
    files = {}
    for side, goldens in (("parent", {"golden_a.json": "1.0", "golden_b.csv": "x\n"}),
                          ("change", {"golden_a.json": "1.0000000000000002"})):
        data = tmp_path / side / "tests" / "data"
        data.mkdir(parents=True)
        for name, text in {**goldens, "other.txt": side}.items():
            (data / name).write_text(text, encoding="utf-8")
        files[side] = module.golden_files(tmp_path / side)
    assert module.compare(files["parent"], dict(files["parent"]))[1] is False
    lines, differ = module.compare(files["parent"], files["change"])
    assert differ
    assert [line.split(" (")[0] for line in lines] == [
        "golden file golden_a.json: DIFFER", "golden file golden_b.csv: DIFFER"]
    assert lines[1].endswith("change missing)")


def test_yardstick_bounds_each_golden_estimate_point_against_a_reference_refit():
    # the worst error of golden_estimate.json's points was 5.976e-14 (xi
    # baseline) when the yardstick was added; a bound of 10 times that
    errors = _script("yardstick").errors("golden_estimate.json")
    assert list(errors) == [
        ("tau", "full_data"), ("tau", "trial_based"), ("psi", "full_data"),
        ("psi", "baseline"), ("xi", "full_data"), ("xi", "baseline")]
    assert max(errors.values()) <= 6e-13, errors


def test_time_inprocess_reads_an_aa_pair_by_the_gain_rule(capsys):
    module = _script("time_inprocess")
    golden = str(ROOT / "tests" / "data" / "golden_input.csv")
    assert module.main([str(ROOT), str(ROOT), "--rounds", "2", "--ops", "1", "--",
                        "estimate", "--input", golden, "--estimand", "tau"]) == 0
    header, *lines = capsys.readouterr().out.strip().splitlines()
    assert header.endswith("output bytes: same")
    assert [line.split()[0] for line in lines] == ["op_p50_s", "peak_rss_mb"]
    for line in lines:
        assert "better in" in line and "/2  " in line
        medians = [float(line.split(side, 1)[1].split()[0]) for side in (" parent ", " change ")]
        assert min(medians) > 0
