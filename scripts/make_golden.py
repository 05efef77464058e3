#!/usr/bin/env python3
"""Regenerate the golden CLI fixtures under tests/data/, or check them.

Run from the repository root after any intentional change to the output
format, then review the diff:

    python scripts/make_golden.py

With ``--check`` every fixture is regenerated into a temporary directory
instead, and tests/data is left untouched. One line per file says whether
its bytes match the committed file and the largest relative change of any
number in it; the exit code is 1 if any file's bytes differ:

    python scripts/make_golden.py --check
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from ecborrow.cli import main
from ecborrow.dataset import CompositeDataset, load_csv, write_csv
from ecborrow.simlab import ScenarioConfig, generate

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
INPUT = "tests/data/golden_input.csv"
WORKLOAD_INPUT = "tests/data/golden_input_ii_n1000.csv"

# drawn input -> the scenario and seed it is drawn from
DRAWN = {
    INPUT: (ScenarioConfig(scenario="i", n=400), 20_260_101),
    # the bootstrap_estimate benchmark workload's shape at seed 10: ulp moves in
    # the bootstrap's block path that the n = 400 input misses show here
    WORKLOAD_INPUT: (ScenarioConfig(scenario="ii", n=1000), [10, 2]),
}


def _binary(ds: CompositeDataset) -> CompositeDataset:
    """y -> 1 where y exceeds its median, else 0: logit m1 and m0, known_one ratio."""
    y = (ds.y > np.median(ds.y)).astype(float)
    return CompositeDataset(y, ds.x, ds.t, ds.d, covariate_names=ds.covariate_names)


# derived input -> how it is made from the golden input
DERIVED = {
    "tests/data/golden_input_binary.csv": _binary,
    "tests/data/golden_input_treated_only.csv":
        lambda ds: ds.take(np.flatnonzero((ds.d == 0) | (ds.t == 1))),
    "tests/data/golden_input_trial_only.csv": lambda ds: ds.take(np.flatnonzero(ds.d == 1)),
}
BINARY, TREATED_ONLY, TRIAL_ONLY = DERIVED

# golden file -> the CLI run that writes it; tests/test_cli.py reruns each
GOLDENS = {
    "golden_estimate.json": [
        "estimate", "--input", INPUT, "--estimand", "tau,psi,xi", "--side", "greater",
        "--seed", "11",
    ],
    "golden_simulate.json": [
        "simulate", "--scenario", "all", "--reps", "8", "--n", "200", "--seed", "3",
    ],
    "golden_diagnose.json": ["diagnose", "--input", INPUT, "--bias-bound", "0.1"],
    "golden_bootstrap.json": [
        "estimate", "--input", INPUT, "--variance", "bootstrap", "--B", "100", "--seed", "3",
    ],
    "golden_binary_estimate.json": ["estimate", "--input", BINARY],
    "golden_binary_diagnose.json": ["diagnose", "--input", BINARY],
    "golden_treated_only.json": [
        "estimate", "--input", TREATED_ONLY, "--method", "treated-only", "--estimand", "tau",
    ],
    "golden_trial_only.json": [
        "estimate", "--input", TRIAL_ONLY, "--method", "trial", "--estimand", "tau",
    ],
    "golden_ratio_constant.json": ["estimate", "--input", INPUT, "--ratio", "constant"],
    "golden_bootstrap_n1000.json": [
        "estimate", "--input", WORKLOAD_INPUT, "--variance", "bootstrap", "--B", "100",
        "--seed", "10",
    ],
}


def write(out: Path) -> None:
    """The drawn inputs, the inputs derived from the golden input and every
    golden file under ``out``."""
    for path, (cfg, seed) in DRAWN.items():
        write_csv(generate(cfg, seed)[0], out / Path(path).name)
    for path, derive in DERIVED.items():
        write_csv(derive(load_csv(out / Path(INPUT).name)), out / Path(path).name)
    # the input path is recorded in the JSON: keep it repo-relative so the
    # golden bytes are portable across checkouts
    os.chdir(ROOT)
    for name, argv in GOLDENS.items():
        # each run also prints its JSON, and some a note: --check prints one line per file
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", str(out / name)])
        if code != 0:
            raise SystemExit(f"{argv[0]} for {name} failed with exit code {code}")


def _numbers(path: Path) -> list[float]:
    """Every number in a golden file, in file order."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]

    def walk(value):
        if isinstance(value, dict):
            return [n for item in value.values() for n in walk(item)]
        if isinstance(value, list):
            return [n for item in value for n in walk(item)]
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return [float(value)] if is_number else []

    return walk(json.loads(text))


def largest_relative_change(old: Path, new: Path) -> float:
    """max |a - b| / max(|a|, |b|) over the numbers of two files; inf if their counts differ."""
    a, b = _numbers(old), _numbers(new)
    if len(a) != len(b):
        return float("inf")
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y), default=0.0)


def check() -> int:
    """Regenerate into a temporary directory and compare with tests/data; 1 on a byte difference."""
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        # the CLI runs read the committed inputs, whose paths the JSON records
        write(out)
        for name in [*(Path(path).name for path in (*DRAWN, *DERIVED)), *GOLDENS]:
            old, new = DATA / name, out / name
            same = old.read_bytes() == new.read_bytes()
            differ |= not same
            change = largest_relative_change(old, new)
            print(f"{name}: {'bytes match' if same else 'bytes differ'}, "
                  f"largest relative change {change:.3g}")
    return 1 if differ else 0


def run() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    write(DATA)
    print(f"wrote {', '.join([*DRAWN, *DERIVED])} and {', '.join(GOLDENS)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh regeneration with tests/data; write nothing there")
    if parser.parse_args().check:
        sys.exit(check())
    run()
