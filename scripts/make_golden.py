#!/usr/bin/env python3
"""Regenerate the golden CLI fixtures under tests/data/.

Run from the repository root after any intentional change to the output
format, then review the diff:

    python scripts/make_golden.py
"""

import os
from pathlib import Path

from ecborrow.cli import main
from ecborrow.dataset import write_csv
from ecborrow.simlab import ScenarioConfig, generate

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
INPUT = "tests/data/golden_input.csv"

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
}


def run() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    ds, _ = generate(ScenarioConfig(scenario="i", n=400), 20_260_101)
    write_csv(ds, ROOT / INPUT)
    # the input path is recorded in the JSON: keep it repo-relative so the
    # golden bytes are portable across checkouts
    os.chdir(ROOT)
    for name, argv in GOLDENS.items():
        code = main([*argv, "--out", str(DATA / name)])
        if code != 0:
            raise SystemExit(f"{argv[0]} for {name} failed with exit code {code}")
    print(f"wrote {INPUT} and {', '.join(GOLDENS)}")


if __name__ == "__main__":
    run()
