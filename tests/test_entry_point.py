"""The process entry point ``cli.run``, the package's lazy names and the installed scripts.

``run`` pins the process's malloc thresholds and ends the process with
``os._exit``, so its tests start ``python -m ecborrow.cli`` as a child
process; in-process ``main`` never takes that path.
"""

import ctypes
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ecborrow
from ecborrow import cli
from ecborrow.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_INPUT = "tests/data/golden_input.csv"
GOLDEN_ARGV = ["estimate", "--input", GOLDEN_INPUT, "--estimand", "tau,psi,xi",
               "--side", "greater", "--seed", "11"]

# what the package exported, module by module, when it imported every module
EXPORTS = {
    "dataset": ["ColumnSchema", "CompositeDataset", "load_csv", "summarize", "validate",
                "write_csv"],
    "errors": ["EcborrowError"],
    "estimators": ["Estimate", "Estimator", "IFVector", "control_weight",
                   "efficiency_bound_plugin", "efficiency_gain_analytic", "estimate",
                   "estimate_psi", "estimate_tau_full", "estimate_tau_treated_only",
                   "estimate_tau_trial", "estimate_xi", "influence_values", "variance_gap_psi",
                   "variance_gap_xi"],
    "inference": ["BiasBound", "ExchangeabilityTest", "InferenceResult", "SharedFit",
                  "bias_bound", "bootstrap_variance", "if_variance", "overlap_diagnostics",
                  "test", "test_mean_exchangeability"],
    "nuisance": ["BlockFitter", "FittedGLM", "ModelSpec", "NuisanceSet", "RowTable", "Term",
                 "VarianceRatioModel", "fit_bundle", "fit_glm", "fit_variance_ratio",
                 "linear_specs"],
    "simlab": ["MCResult", "MCSummary", "ScenarioConfig", "TrueEffects",
               "export_boxplot_data", "generate", "run_monte_carlo", "true_effects"],
}


def spawn(argv, extra_env=None, **kwargs):
    """``python -m ecborrow.cli ARGV`` from the repository root, as a new process,
    with ``extra_env`` added to the environment."""
    env = {**os.environ, **(extra_env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.Popen([sys.executable, "-m", "ecborrow.cli", *argv], env=env, cwd=ROOT,
                            **kwargs)


def run_child(argv, extra_env=None):
    child = spawn(argv, extra_env)
    out, err = child.communicate(timeout=120)
    return child.returncode, out, err


def test_stdout_and_out_file_are_the_golden_bytes(tmp_path):
    out_path = tmp_path / "fresh.json"
    code, out, err = run_child([*GOLDEN_ARGV, "--out", str(out_path)])
    golden = (ROOT / "tests" / "data" / "golden_estimate.json").read_bytes()
    assert code == 0, err
    assert out == golden
    assert out_path.read_bytes() == golden


def _dispatched_cpu_targets() -> str:
    """numpy's runtime-dispatched SIMD targets (AVX2 and up on x86_64), by the
    names NPY_DISABLE_CPU_FEATURES takes in this numpy version."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return " ".join(__cpu_dispatch__)


@pytest.mark.parametrize(
    "extra_env",
    [{"OPENBLAS_NUM_THREADS": "2"},
     pytest.param(
         {"NPY_DISABLE_CPU_FEATURES": _dispatched_cpu_targets()},
         marks=[pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                                   reason="the SIMD dispatch checked is x86_64's"),
                # numpy's AVX-512 np.exp, np.log and np.log1p round some inputs
                # differently from its baseline kernels: the treatment
                # propensity's coefficients move by an ulp, and with them the
                # nuisance fingerprint
                pytest.mark.xfail(strict=True, raises=AssertionError,
                                  reason="the goldens hold AVX-512 kernels' last bits")])],
    ids=["blas_threads", "cpu_baseline"],
)
def test_golden_bytes_do_not_depend_on_blas_threads_or_cpu_dispatch(extra_env):
    """The golden run gives the golden bytes with two BLAS threads, and with
    numpy's dispatched SIMD kernels (AVX2, FMA3, AVX-512) turned off. The
    child writes nothing to stderr, so numpy took the setting."""
    code, out, err = run_child(GOLDEN_ARGV, extra_env)
    assert (code, err) == (0, b"")
    assert out == (ROOT / "tests" / "data" / "golden_estimate.json").read_bytes()


@pytest.mark.parametrize(
    "argv, config, exit_code, error",
    [
        (["estimate", "--input", GOLDEN_INPUT, "--B", "200"], None, 2, "CONFIG"),
        (["simulate", "--scenario", "v", "--reps", "2"], None, 2, "CONFIG"),
        (["estimate", "--input", "tests/data/no_such_file.csv"], None, 3, "MISSING_COLUMN"),
        (["estimate", "--input", GOLDEN_INPUT],
         {"models": {"m0": {"family": "identity", "terms": ["raw(0)", "pow(1,3000)"]}}},
         4, "NON_FINITE"),
    ],
    ids=["config", "scenario", "data", "numeric"],
)
def test_errors_keep_their_exit_code_and_json(tmp_path, capsys, monkeypatch, argv, config,
                                              exit_code, error):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, _ = run_child(argv)
    monkeypatch.chdir(ROOT)
    with np.errstate(over="ignore"):
        assert main(argv) == exit_code
    assert code == exit_code
    assert out.decode() == capsys.readouterr().out
    assert json.loads(out)["error"]["code"] == error


@pytest.mark.parametrize(
    "argv",
    [
        # three blocks of replicates, and of resamples, for the two workers
        ["simulate", "--scenario", "i", "--reps", "37", "--n", "1000", "--seed", "3"],
        ["simulate", "--scenario", "all", "--reps", "37", "--n", "1000", "--seed", "3"],
        ["estimate", "--input", GOLDEN_INPUT, "--variance", "bootstrap", "--B", "100",
         "--seed", "3"],
    ],
    ids=["simulate", "study", "bootstrap"],
)
def test_two_jobs_exit_zero_with_the_one_job_bytes(argv):
    runs = [run_child([*argv, "--jobs", jobs]) for jobs in ("1", "2")]
    assert [code for code, _, _ in runs] == [0, 0], runs[1][2]
    assert runs[0][1] == runs[1][1]


def test_closed_stdout_is_status_one_without_a_traceback():
    child = spawn(GOLDEN_ARGV)
    child.stdout.close()  # closed before the report is written
    err = child.stderr.read()
    assert child.wait(timeout=120) == 1
    assert err == b""


def _untune_malloc(monkeypatch):
    for name in list(os.environ):
        if name == "GLIBC_TUNABLES" or name.startswith("MALLOC_"):
            monkeypatch.delenv(name)


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's malloc thresholds")
def test_bootstrap_blocks_do_not_refault_the_heap(tmp_path, monkeypatch):
    # A block's arrays sit just under glibc's default 128 KiB trim and mmap
    # thresholds; unpinned, the B=500 bootstrap faults some 10,000 pages
    # more than the IF run (about 600 with the entry point's thresholds).
    _untune_malloc(monkeypatch)

    def minor_faults(argv):
        with open(tmp_path / "out.json", "wb") as out:
            child = spawn(argv, stdout=out, stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        assert child.returncode == 0
        return usage.ru_minflt

    excess = minor_faults([*GOLDEN_ARGV, "--variance", "bootstrap"]) - minor_faults(GOLDEN_ARGV)
    assert excess < 4000


def _fake_mallopt(monkeypatch) -> list:
    """Makes ``ctypes.CDLL(None).mallopt`` record its calls; returns the record."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    return calls


def test_in_process_main_leaves_the_allocator_alone(capsys, monkeypatch):
    calls = _fake_mallopt(monkeypatch)
    monkeypatch.chdir(ROOT)
    assert main([*GOLDEN_ARGV, "--variance", "bootstrap", "--B", "100"]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "system, env, pinned",
    [
        ("linux", {}, True),
        ("linux", {"MALLOC_TRIM_THRESHOLD_": "131072"}, False),
        ("linux", {"MALLOC_TOP_PAD_": "0"}, False),
        ("linux", {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}, False),
        ("darwin", {}, False),
    ],
    ids=["linux", "trim_variable", "other_variable", "tunables", "not_linux"],
)
def test_entry_point_pins_malloc_unless_the_user_tuned_it(monkeypatch, system, env, pinned):
    calls = _fake_mallopt(monkeypatch)
    _untune_malloc(monkeypatch)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(sys, "platform", system)
    cli._steady_heap()
    assert calls == ([(-1, 4 << 20), (-3, 4 << 20)] if pinned else [])


def test_entry_point_without_mallopt_pins_nothing(monkeypatch):
    _untune_malloc(monkeypatch)
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    cli._steady_heap()  # no error


def test_every_old_export_resolves_from_the_package():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"ecborrow.{module}")
        for name in names:
            assert getattr(ecborrow, name) is getattr(home, name), name
    assert set(dir(ecborrow)) >= {name for names in EXPORTS.values() for name in names}
    with pytest.raises(AttributeError):
        ecborrow.no_such_name  # noqa: B018


def test_star_import_binds_the_old_exports():
    scope: dict = {}
    exec("from ecborrow import *", scope)  # noqa: S102
    del scope["__builtins__"]
    assert sorted(scope) == sorted(name for names in EXPORTS.values() for name in names)


def test_each_script_entry_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target
    assert scripts["ecborrow"] == "ecborrow.cli:run"
