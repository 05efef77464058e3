#!/usr/bin/env python3
"""Run the four-scenario coverage study and print the summary table.

The full-size study (1000 replicates at n=1000) takes about 6 seconds in
one process on a 2-vCPU x86-64 machine:

    python scripts/run_scenarios.py --reps 1000 --n 1000 --seed 2026

A smoke run finishes in under a second:

    python scripts/run_scenarios.py --reps 50 --n 500
"""

import argparse
import json
import time

from ecborrow.simlab import SCENARIOS, ScenarioConfig, run_monte_carlo


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", help="optional JSON output path")
    args = parser.parse_args()

    header = (
        f"{'scenario':<10}{'estimator':<16}{'bias':>9}{'sd':>9}{'mse':>9}"
        f"{'coverage':>10}{'mean var':>10}"
    )
    print(header)
    print("-" * len(header))
    payload = {}
    for scenario in SCENARIOS:
        cfg = ScenarioConfig(scenario=scenario, n=args.n)
        start = time.time()
        result = run_monte_carlo(cfg, args.reps, master_seed=args.seed, jobs=args.jobs)
        elapsed = time.time() - start
        payload[scenario] = result.to_dict()
        for name in ("tau_full", "tau_full_const", "tau_trial"):
            s = result.summaries[name]
            print(
                f"{scenario:<10}{name:<16}{s.mean_bias:>9.4f}{s.sd:>9.4f}"
                f"{s.mse:>9.4f}{s.coverage:>10.3f}{s.mean_variance_estimate:>10.4f}"
            )
        gap = (result.summaries["tau_trial"].sd ** 2
               - result.summaries["tau_full"].sd ** 2) * args.n
        print(
            f"{'':<10}(gain: empirical n*gap = {gap:.3f}, "
            f"analytic = {result.mean_analytic_gain:.3f}; {elapsed:.0f}s)"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
