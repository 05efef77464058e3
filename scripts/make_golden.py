#!/usr/bin/env python3
"""Regenerate the golden CLI fixtures under tests/data/.

Run from the repository root after any intentional change to the output
format, then review the diff:

    python scripts/make_golden.py
"""

from pathlib import Path

from ecborrow.cli import main
from ecborrow.dataset import write_csv
from ecborrow.simlab import ScenarioConfig, generate

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    ds, _ = generate(ScenarioConfig(scenario="i", n=400), 20_260_101)
    csv_path = DATA / "golden_input.csv"
    write_csv(ds, csv_path)
    out_path = DATA / "golden_estimate.json"
    # the input path is recorded in the JSON: keep it repo-relative so the
    # golden bytes are portable across checkouts
    import os

    os.chdir(ROOT)
    code = main(
        [
            "estimate",
            "--input",
            "tests/data/golden_input.csv",
            "--estimand",
            "tau,psi,xi",
            "--side",
            "greater",
            "--seed",
            "11",
            "--out",
            str(out_path),
        ]
    )
    if code != 0:
        raise SystemExit(f"estimate failed with exit code {code}")
    sim_path = DATA / "golden_simulate.json"
    code = main(
        [
            "simulate",
            "--scenario",
            "all",
            "--reps",
            "8",
            "--n",
            "200",
            "--seed",
            "3",
            "--out",
            str(sim_path),
        ]
    )
    if code != 0:
        raise SystemExit(f"simulate failed with exit code {code}")
    print(f"wrote {csv_path}, {out_path} and {sim_path}")


if __name__ == "__main__":
    run()
