"""The benchmark's tracer wraps package names; each must still exist, and a
traced run must still yield every per-layer metric the benchmark declares."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
GOLDEN_INPUT = "tests/data/golden_input.csv"
# one traced run per layer family: IF estimate, bootstrap estimate, Monte Carlo
TRACED_ARGV = {
    "if": ["estimate", "--input", GOLDEN_INPUT, "--estimand", "tau,psi,xi", "--side", "greater",
           "--seed", "11"],
    "bootstrap": ["estimate", "--input", GOLDEN_INPUT, "--method", "full", "--estimand", "tau",
                  "--variance", "bootstrap", "--B", "100", "--seed", "11"],
    "simulate": ["simulate", "--scenario", "i", "--reps", "3", "--n", "200", "--seed", "11"],
}
# the unit span of each benchmark workload
UNIT_SPANS = ("cli.main", "inference.bootstrap.replicate", "simlab.replicate")
# the harness measures these two itself, outside any trace
HARNESS_METRICS = {"cli.import_scipy_s", "trace.overhead_ratio"}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    tracer = _tracer()
    missing = []
    for home, names in tracer.FUNCTIONS.values():
        module = importlib.import_module(home)
        missing += [f"{home}.{name}" for name in names if not callable(getattr(module, name, None))]
    for home, cls_name, method in tracer.METHODS.values():
        cls = getattr(importlib.import_module(home), cls_name, None)
        if not callable(getattr(cls, method, None)):
            missing.append(f"{home}.{cls_name}.{method}")
    assert missing == []


def test_traced_runs_yield_every_per_layer_metric(tmp_path):
    tracer = _tracer()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    traces = []
    for name, argv in TRACED_ARGV.items():
        spans = tmp_path / f"{name}.json"
        done = subprocess.run([sys.executable, str(TRACER), str(spans), *argv], cwd=ROOT, env=env,
                              capture_output=True, check=False)
        assert done.returncode == 0, (name, done.stdout[-500:], done.stderr[-500:])
        traces.append(tracer.Trace(json.loads(spans.read_text(encoding="utf-8"))))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    wanted = {metric["name"] for metric in declared}
    for unit in UNIT_SPANS:
        metrics, _ = tracer.summarize([], traces, unit)
        assert sorted(wanted - set(metrics) - HARNESS_METRICS) == [], unit
