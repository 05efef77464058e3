#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: medians, quartiles and wins per metric.

    python scripts/bench_pairs.py PARENT CHANGE --workload bootstrap_estimate --rounds 10
    python scripts/bench_pairs.py PARENT CHANGE --workload all --rounds 10

Each round runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one after the other, and alternates which side runs
first. Only the harness's last two stdout lines are read: its details JSON,
for the hashes of the operations' stdout, and its result JSON. For
each end-to-end metric of BENCHMARK.json the summary gives each side's
median and quartiles, the change's median relative to the parent's, in how
many rounds the change read better (ties count for neither side), and
whether that is a gain by the benchmark's rule: better in at least nine
tenths of the rounds, with the medians further apart than the parent's
quartiles. A metric that is no gain and whose parent quartiles lie further
apart than its bound reads UNRESOLVED: its runs cannot tell a change within
the bound from noise. Given the same checkout twice it is an A/A
calibration: what the rule reads on noise alone. The summary's first line
also gives each checkout's ``src/`` line count, by the harness's
``src_lines`` rule, so a change's line count stands next to its timings,
and whether the two checkouts' outputs over all rounds hashed alike
("output bytes: same" or "DIFFER"), so each paired run also checks for
byte moves.
``--workload all`` runs each workload BENCHMARK.json gates, in its order,
one after the other, and prints one summary block per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The harness's details and result lines for one run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: harness exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def src_lines(checkout: Path) -> int:
    """Lines of the checkout's ``src/**/*.py``, as perfbench's ``src_lines`` counts them."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((checkout / "src").rglob("*.py")))


def line_counts(parent: Path, change: Path) -> str:
    """Each checkout's ``src/`` line count and the change's difference."""
    before, after = src_lines(parent), src_lines(change)
    return f"src/ lines: parent {before}, change {after} ({after - before:+d})"


def output_bytes(parent: set[str], change: set[str]) -> str:
    """Whether the two checkouts' stdout hashes, over all their rounds, agree."""
    return f"output bytes: {'same' if parent == change else 'DIFFER'}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(metric: dict, parent: list[float], change: list[float]) -> str:
    """One line: each side's median [quartiles], the change, its wins and the verdict."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    rel = (c_med - p_med) / abs(p_med) if p_med else 0.0
    gain = wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p3 - p1
    unresolved = p3 - p1 > metric["bound"] * abs(p_med)
    worse = -sign * rel > metric["bound"]
    verdict = ("GAIN" if gain else "UNRESOLVED" if unresolved
               else "WORSE THAN BOUND" if worse else "-")
    return (f"{metric['name']:<12} parent {p_med:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {c_med:.6g} [{c1:.6g}, {c3:.6g}]  {rel:+.1%}  "
            f"better in {wins}/{len(parent)}  {verdict}")


def workloads(name: str, benchmark: dict) -> list[str]:
    """The workloads ``--workload name`` runs: BENCHMARK.json's, in order, for "all"."""
    return [w["name"] for w in benchmark["workloads"]] if name == "all" else [name]


def pair_runs(sides: dict, workload: str, args, metrics: list) -> tuple[dict, dict]:
    """Each side's values per metric, and the set of its stdout hashes, over
    ``args.rounds`` rounds, alternating which runs first."""
    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    outputs: dict[str, set[str]] = {side: set() for side in sides}
    for round_ in range(args.rounds):
        order = list(sides) if round_ % 2 == 0 else list(reversed(sides))
        for side in order:
            details, result = run_once(sides[side], workload, args.seed, args.seconds)
            outputs[side].update(details["stdout_sha256"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} round {round_ + 1} {side}: correct={result['correct']}"
                      f" failed={result['failed']}/{result['attempted']}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
            shown = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                             for m in metrics)
            print(f"{workload} round {round_ + 1} {side}: {shown}", file=sys.stderr)
    return values, outputs


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help='a workload name, or "all"')
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    metrics = benchmark["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if sides["parent"] == sides["change"]:
        print(f"A/A calibration: {sides['parent']} against itself", file=sys.stderr)
    for workload in workloads(args.workload, benchmark):
        values, outputs = pair_runs(sides, workload, args, metrics)
        print(f"{workload}, seed {args.seed}, {args.seconds} s, {args.rounds} rounds"
              f" (median [quartiles]); {line_counts(sides['parent'], sides['change'])};"
              f" {output_bytes(outputs['parent'], outputs['change'])}")
        for metric in metrics:
            print(summarize(metric, values["parent"][metric["name"]],
                            values["change"][metric["name"]]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
