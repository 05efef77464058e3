#!/usr/bin/env python3
"""Check that two checkouts write the same output bytes, one line per output.

    python scripts/same_bytes.py PARENT CHANGE

Each gate runs in both checkouts, with that checkout's ``src`` first on the
path, and each of its outputs is compared byte for byte:

- ``scripts/make_golden.py --check``: one output per golden file, its line of
  the check (whether the regenerated bytes match the checkout's tests/data,
  and the largest relative change of a number);
- each golden file committed under the checkout's tests/data, as its bytes
  (``golden file <name>``): a change that regenerates a golden file on
  purpose matches its own tests/data in the check above, and differs here;
- ``simulate --scenario all --reps 250 --n 1000`` at seeds 1 and 2, each under
  ``--jobs 1`` and ``--jobs 2``; the ``--jobs 1`` runs also write
  ``--boxplot-csv``, whose bytes hold each replicate's points to 17 digits
  where the stdout holds their summaries;
- ``simulate --scenario all --reps 100 --n 40 --seed 1``, where some
  replicates are left out of their block and fit alone, so the Monte Carlo's
  scoring of one replicate (K = 1) is gated too;
- ``estimate --variance bootstrap`` on the bootstrap_estimate benchmark input
  (scenario ii, n = 1000, stream [seed, 2]) at seeds 1, 2, 5 and 10 under
  ``--jobs 1``, and at seed 1 under ``--jobs 2`` too, whose workers take whole
  blocks of resamples;
- ``estimate`` on the cold_estimate benchmark input (scenario i, n = 400,
  stream [1, 1]);
- ``estimate --variance bootstrap --B 100 --seed 4`` on three golden inputs,
  one per path of the bootstrap's block fitter that no golden file checks:
  treated-only (``golden_input_treated_only.csv``), logit outcome models
  (``golden_input_binary.csv``) and the constant ratio (``golden_input.csv
  --ratio constant``).

A CLI output is its stdout, then the bytes of the ``--boxplot-csv`` file it
was given, if any, and its exit code where that is not 0. A byte
move at one seed can hide at another, so the gates take more than one. The
inputs are drawn once, by PARENT's code, into one temporary directory, so
the input path each JSON records is the same on both sides. Each line reads "same" or "DIFFER", with
the first 8 hex digits of the SHA-256 of each side's output; the exit code is
1 if any output differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIMULATE_SEEDS = (1, 2)
BOOTSTRAP_SEEDS = (1, 2, 5, 10)
# the block fitter's paths without a golden file: label and the estimate arguments
BOOTSTRAP_PATHS = {
    "treated_only": ["tests/data/golden_input_treated_only.csv", "--method", "treated-only",
                     "--estimand", "tau"],
    "binary": ["tests/data/golden_input_binary.csv"],
    "constant_ratio": ["tests/data/golden_input.csv", "--ratio", "constant"],
}

# writes the dataset a scenario draws from one stream: scenario n seed stream path
DRAW = """\
import sys
from ecborrow.dataset import write_csv
from ecborrow.simlab import ScenarioConfig, generate
scenario, n, seed, stream, path = sys.argv[1:]
write_csv(generate(ScenarioConfig(scenario=scenario, n=int(n)), [int(seed), int(stream)])[0],
          path)
"""


def _run(checkout: Path, argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run([sys.executable, *argv], cwd=checkout, env=env, capture_output=True,
                          check=False)


def cli_output(checkout: Path, argv: list[str]) -> bytes:
    """The stdout of one CLI run in ``checkout``, followed by the bytes of the
    ``--boxplot-csv`` file it wrote, if any, and its exit code if not 0."""
    done = _run(checkout, ["-m", "ecborrow.cli", *argv])
    output = done.stdout
    if "--boxplot-csv" in argv:
        boxplot = Path(argv[argv.index("--boxplot-csv") + 1])
        output += boxplot.read_bytes() if boxplot.exists() else b"no boxplot csv\n"
        boxplot.unlink(missing_ok=True)
    return output + (b"exit %d\n" % done.returncode if done.returncode else b"")


def golden_outputs(checkout: Path) -> dict[str, bytes]:
    """``make_golden.py --check``'s line for each golden file, by file name."""
    done = _run(checkout, ["scripts/make_golden.py", "--check"])
    lines = done.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: make_golden.py --check printed nothing\n"
                         f"{done.stderr.decode(errors='replace')[-2000:]}")
    return {f"golden {line.split(b':')[0].decode()}": line for line in lines}


def golden_files(checkout: Path) -> dict[str, bytes]:
    """The committed bytes of each golden file under ``checkout``'s tests/data, by name."""
    return {f"golden file {path.name}": path.read_bytes()
            for path in sorted((checkout / "tests" / "data").glob("golden_*"))}


def draw(checkout: Path, scenario: str, n: int, seed: int, stream: int, out: Path) -> Path:
    path = out / f"scenario_{scenario}_n{n}_seed{seed}.csv"
    done = _run(checkout, ["-c", DRAW, scenario, str(n), str(seed), str(stream), str(path)])
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: drawing {path.name} failed\n"
                         f"{done.stderr.decode(errors='replace')[-2000:]}")
    return path


def cli_gates(checkout: Path, work: Path) -> dict[str, list[str]]:
    """Each CLI gate's argv by label, on inputs drawn by ``checkout`` into ``work``."""
    gates = {}
    for seed in SIMULATE_SEEDS:
        for jobs in (1, 2):
            boxplot = ["--boxplot-csv", str(work / f"boxplot_seed{seed}.csv")] if jobs == 1 else []
            gates[f"simulate seed {seed} jobs {jobs}"] = [
                "simulate", "--scenario", "all", "--reps", "250", "--n", "1000",
                "--seed", str(seed), "--jobs", str(jobs), *boxplot]
    gates["simulate n 40 seed 1"] = ["simulate", "--scenario", "all", "--reps", "100", "--n", "40",
                                     "--seed", "1"]
    for seed in BOOTSTRAP_SEEDS:
        path = draw(checkout, "ii", 1000, seed, 2, work)
        argv = ["estimate", "--input", str(path), "--variance", "bootstrap", "--seed", str(seed)]
        gates[f"bootstrap_estimate seed {seed}"] = [*argv, "--jobs", "1"]
        if seed == BOOTSTRAP_SEEDS[0]:
            gates[f"bootstrap_estimate seed {seed} jobs 2"] = [*argv, "--jobs", "2"]
    path = draw(checkout, "i", 400, 1, 1, work)
    gates["cold_estimate seed 1"] = ["estimate", "--input", str(path), "--jobs", "1"]
    for label, args in BOOTSTRAP_PATHS.items():
        gates[f"bootstrap {label} seed 4"] = [
            "estimate", "--input", *args, "--variance", "bootstrap", "--B", "100", "--seed", "4",
            "--jobs", "1"]
    return gates


def compare(parent: dict[str, bytes], change: dict[str, bytes]) -> tuple[list[str], bool]:
    """One line per output label, in the parent's order, and whether any output
    differs; a label on one side only differs."""
    lines, differ = [], False
    for label in [*parent, *(label for label in change if label not in parent)]:
        sides = [outputs.get(label) for outputs in (parent, change)]
        same = sides[0] is not None and sides[0] == sides[1]
        differ |= not same
        digests = [hashlib.sha256(side).hexdigest()[:8] if side is not None else "missing"
                   for side in sides]
        lines.append(f"{label}: {'same' if same else 'DIFFER'} "
                     f"(parent {digests[0]}, change {digests[1]})")
    return lines, differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    sides = (args.parent.resolve(), args.change.resolve())
    outputs: tuple[dict, dict] = ({}, {})
    with tempfile.TemporaryDirectory() as tmp:
        gates = cli_gates(sides[0], Path(tmp))
        for checkout, found in zip(sides, outputs):
            found.update(golden_outputs(checkout))
            found.update(golden_files(checkout))
            found.update((label, cli_output(checkout, gate)) for label, gate in gates.items())
    lines, differ = compare(*outputs)
    print("\n".join(lines))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
