#!/usr/bin/env python3
"""In-process op times of one CLI command in two checkouts: medians, quartiles and wins.

    python scripts/time_inprocess.py PARENT CHANGE -- simulate --scenario all --reps 250 --n 1000
    python scripts/time_inprocess.py PARENT CHANGE --rounds 10 --ops 5 -- estimate --input data.csv

Each round starts one child interpreter per checkout, one after the other,
and alternates which side runs first. A child imports ``ecborrow.cli`` from
its checkout's ``src``, pins the heap as ``cli.run`` does
(``cli._steady_heap()``; an unpinned heap refaults per op), runs the command
once as a warm-up (lazy imports, first heap growth), then times ``--ops``
calls of ``cli.main`` with its stdout captured. A round's value is the
median of its child's op times, so interpreter start, imports and the
warm-up never count. The summary reads each side's rounds by
``bench_pairs.py``'s rule, under ``op_p50_s``'s bound from BENCHMARK.json:
median [quartiles], the change's median relative to the parent's, the
rounds it read faster, and GAIN, UNRESOLVED, WORSE THAN BOUND or "-". A
second line reads each child's peak RSS (``ru_maxrss``, in MB as perfbench
reports it) by the same rule, under ``peak_rss_mb``'s bound. With
the process's start and import gone, it can size a gain smaller than the
spread of perfbench's whole-process runs. The children run in the caller's
directory, so a relative ``--input`` names one file for both sides, and
"output bytes" says whether every timed op of both sides printed the same
stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, line_counts, output_bytes, summarize  # noqa: E402

CHILD = """\
import contextlib, io, json, resource, sys, time
from ecborrow import cli
argv, ops = json.loads(sys.argv[1]), int(sys.argv[2])
cli._steady_heap()
def op():
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return time.perf_counter() - start, code, out.getvalue()
op()
times, codes, outs = zip(*(op() for _ in range(ops)))
import hashlib
print(json.dumps({"module": cli.__file__, "times": times, "codes": sorted(set(codes)),
                  "stdout_sha256": sorted({hashlib.sha256(o.encode()).hexdigest() for o in outs}),
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def run_child(checkout: Path, argv: list[str], ops: int) -> dict:
    """One child's report: its op times, exit codes, stdout hashes and peak RSS."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = checkout / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv), str(ops)], env=env,
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: child exit {done.returncode}\n{done.stderr[-2000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(report["module"]).resolve().is_relative_to(src):
        raise SystemExit(f"{checkout}: the child imported {report['module']}")
    return report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--ops", type=int, default=5, help="timed ops per child")
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if not command:
        parser.error("give the CLI arguments after --")
    if args.rounds < 1 or args.ops < 1:
        parser.error("--rounds and --ops must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {side: [] for side in sides}
    rss = {side: [] for side in sides}
    outputs = {side: set() for side in sides}
    for round_ in range(args.rounds):
        for side in list(sides) if round_ % 2 == 0 else list(reversed(sides)):
            report = run_child(sides[side], command, args.ops)
            values[side].append(statistics.median(report["times"]))
            rss[side].append(report["maxrss_kb"] / 1024.0)
            outputs[side].update(report["stdout_sha256"])
            print(f"round {round_ + 1} {side}: op_p50_s={values[side][-1]:.6g}"
                  f" peak_rss_mb={rss[side][-1]:.6g} exit {report['codes']}", file=sys.stderr)
    print(f"in-process `{' '.join(command)}`, {args.rounds} rounds of {args.ops} ops after a"
          f" warm-up (median [quartiles] of the rounds' medians);"
          f" {line_counts(sides['parent'], sides['change'])};"
          f" {output_bytes(outputs['parent'], outputs['change'])}")
    print(summarize(metrics["op_p50_s"], values["parent"], values["change"]))
    print(summarize(metrics["peak_rss_mb"], rss["parent"], rss["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
