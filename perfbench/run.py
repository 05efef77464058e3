#!/usr/bin/env python3
"""Benchmark of the ecborrow command line, end to end and layer by layer.

    python3 perfbench/run.py --workload cold_estimate --seed 1 --seconds 25 --trace 0

Run from the repository root. The benchmark makes the workload's inputs
from ``--seed`` (untimed), checks the golden CLI output, times
``import ecborrow.cli`` in fresh interpreters, then drives the CLI
(``python -m ecborrow.cli`` with ``PYTHONPATH=src`` and ``--jobs 1``) as a
closed loop with one client for about ``--seconds``: each operation is a
fresh process started after the previous one exits. Every output is checked.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` operations alternate between plain
and traced runs (see tracer.py) and it holds the per-layer metrics. The line
before it holds the details: failures by code, output hashes, the tail
percentile and sample count, and the environment.
"""

from __future__ import annotations

import os

# BLAS pools pinned to one thread, before numpy loads here and in every child.
THREAD_ENV = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Scratch files, removed at exit. Inputs keep the same path from run to run,
# because `estimate` echoes it and stdout hashes are compared across runs.
WORK = HERE / ".work"
REQUIRED = ("src/ecborrow/cli.py", "schemas/results.schema.json",
            "tests/data/golden_input.csv", "tests/data/golden_estimate.json")
GOLDEN_ARGS = ["estimate", "--input", "tests/data/golden_input.csv", "--estimand", "tau,psi,xi",
               "--side", "greater", "--seed", "11"]
# Traced only, for the layers a workload never enters (see tracer.summarize).
PROBE_ARGS = (
    GOLDEN_ARGS,
    ["estimate", "--input", "tests/data/golden_input.csv", "--estimand", "tau", "--method", "full",
     "--variance", "bootstrap", "--seed", "11", "--jobs", "1"],
    ["simulate", "--scenario", "i", "--reps", "5", "--n", "200", "--seed", "11", "--jobs", "1"],
)
SETUP_REPEATS = 3       # fresh interpreters timed per run for setup_s
IMPORTTIME_REPEATS = 3
TAIL_PERCENTILE = 90
RUN_LIMIT_S = 165.0     # any process still running this long after start is killed

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, check_output, inner_failures  # noqa: E402


@dataclass
class Op:
    code: int
    wall: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    ref_rate: float  # reference chunks per second measured while the child ran


class Reference:
    """Measures the machine's speed on the other CPU while a child runs.

    On a shared host the same operation drifts by 20-40% within minutes, and
    much of the drift is common to both CPUs. A fixed kernel of Python
    arithmetic and small numpy fits, like the program's own mix, runs in a
    thread for exactly the child's lifetime. Times multiplied by the run's
    rate / NOMINAL_RATE (Runner.scale) are in reference seconds: seconds on a
    machine where the kernel runs NOMINAL_RATE chunks per second, which is
    about its rate on the otherwise idle 2-vCPU host the benchmark was
    written on.
    """

    NOMINAL_RATE = 400.0
    _X = np.column_stack([np.ones(1000), np.linspace(-1.0, 1.0, 1000), np.cos(np.arange(1000))])
    _Y = (np.arange(1000) % 2).astype(float)

    def __init__(self):
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.rate = 0.0

    @classmethod
    def chunk(cls) -> float:
        x = 0
        for j in range(10_000):
            x += j * j % 7
        for _ in range(10):
            coef = np.linalg.lstsq(cls._X, cls._Y, rcond=None)[0]
            mu = 1.0 / (1.0 + np.exp(-(cls._X @ coef)))
            hessian = cls._X.T @ (cls._X * (mu * (1.0 - mu))[:, None])
            x += float(np.linalg.solve(hessian, cls._X.T @ (cls._Y - mu))[0])
        return x

    def _loop(self) -> None:
        chunks, start = 0, time.perf_counter()
        while not self._stop.is_set():
            self.chunk()
            chunks += 1
        self.rate = chunks / (time.perf_counter() - start)

    def __enter__(self) -> "Reference":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Runner:
    """Spawns one child at a time and waits for it, killing it at the run deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # cache ecborrow's bytecode under src/ as an installed package would
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._pid = 0
        self._busy_s = 0.0
        self._reference_chunks = 0.0

    def _kill(self, signum, frame):
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)

    def spawn(self, argv: list[str]) -> Op:
        out, err = WORK / "op.out", WORK / "op.err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
        previous = signal.signal(signal.SIGALRM, self._kill)
        signal.setitimer(signal.ITIMER_REAL, max(self.deadline - time.monotonic(), 0.001))
        try:
            with Reference() as reference:
                start = time.perf_counter()
                self._pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                                           file_actions=actions)
                _, status, usage = os.wait4(self._pid, 0)
                wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._pid = 0
        self._busy_s += wall
        self._reference_chunks += reference.rate * wall
        return Op(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0,
                  out.read_bytes(), err.read_bytes(), reference.rate)

    @property
    def scale(self) -> float:
        """Reference rate over every child so far, relative to the nominal rate."""
        return self._reference_chunks / self._busy_s / Reference.NOMINAL_RATE

    def cli(self, args: list[str]) -> Op:
        return self.spawn(["-m", "ecborrow.cli", *args])

    def traced(self, args: list[str], spans: Path) -> Op:
        return self.spawn([str(HERE / "tracer.py"), str(spans), *args])


class Tally:
    """Failures by error code and output problems, over the operations checked."""

    def __init__(self, validator):
        self.validator = validator
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.inner_failures = 0
        self.problems: list[str] = []

    def check(self, op: Op, what: str) -> dict | None:
        """Counts one operation; returns its payload when it succeeded and is correct."""
        self.attempted += 1
        try:
            payload = json.loads(op.stdout)
        except ValueError:
            payload = None
        if op.code in (2, 3, 4) and isinstance(payload, dict) and "error" in payload:
            code = str(payload["error"].get("code"))
            self.problems += [f"{what}: error payload {p}" for p in
                              (e.message for e in self.validator.iter_errors(payload))]
        elif op.code == 0 and isinstance(payload, dict):
            problems = check_output(payload, self.validator)
            if not problems:
                self.inner_failures += inner_failures(payload)
                return payload
            self.problems += [f"{what}: {p}" for p in problems]
            code = "BAD_OUTPUT"
        else:
            code = "CRASH"
            tail = op.stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"{what}: exit {op.code} {tail}", file=sys.stderr)
        self.failures[code] = self.failures.get(code, 0) + 1
        return None

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _percentile(values: list[float], pct: int) -> float:
    """Linear interpolation between order statistics (statistics 'inclusive')."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _scipy_import_s(runner: Runner) -> float:
    """Cumulative import time of the outermost scipy modules under -X importtime."""
    totals = []
    for _ in range(IMPORTTIME_REPEATS):
        op = runner.spawn(["-X", "importtime", "-c", "import ecborrow.cli"])
        total, stack = 0, []  # stack of (depth, is_scipy) ancestors, walking bottom-up
        for line in reversed(op.stderr.decode().splitlines()):
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", line)
            if not m:
                continue
            depth, name = len(m.group(2)) // 2, m.group(3)
            while stack and stack[-1][0] >= depth:
                stack.pop()
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(s for _, s in stack):
                total += int(m.group(1))
            stack.append((depth, is_scipy))
        totals.append(total / 1e6)
    return statistics.median(totals)


def _environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "src_lines": src_lines,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> int:
    import jsonschema

    started = time.monotonic()
    workload = WORKLOADS[workload_name]
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    validator = jsonschema.Draft7Validator(
        json.loads((ROOT / "schemas" / "results.schema.json").read_text(encoding="utf-8")))
    runner = Runner(started + RUN_LIMIT_S)
    tally = Tally(validator)
    input_path = workload.make_input(seed, WORK)
    cli_args = workload.argv(seed, input_path.relative_to(ROOT) if input_path else None)

    # Untimed checks; they also warm the bytecode cache before timing.
    golden = runner.cli(GOLDEN_ARGS)
    golden_ok = golden.code == 0 and golden.stdout == (
        ROOT / "tests" / "data" / "golden_estimate.json").read_bytes()
    if not golden_ok:
        tally.problems.append("golden estimate output differs from tests/data/golden_estimate.json")

    details: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                     "trace": int(trace), "argv": cli_args, "work_unit": workload.unit}
    plain: list[Op] = []
    traced: list[Op] = []
    traces = []
    window_start = time.perf_counter()
    while True:
        spent = time.perf_counter() - window_start
        typical = statistics.median(op.wall for op in plain + traced) if plain else 0.0
        if plain and (spent + 0.5 * typical > seconds
                      or time.monotonic() + 2 * typical > started + RUN_LIMIT_S):
            break
        plain.append(runner.cli(cli_args))
        if trace:
            traced.append(runner.traced(cli_args, WORK / "spans.json"))
            if traced[-1].code == 0:
                traces.append(_load_trace(WORK / "spans.json"))
    window_s = time.perf_counter() - window_start

    payloads = [tally.check(op, f"op {i}") for i, op in enumerate(plain)]
    outputs = {hashlib.sha256(op.stdout).hexdigest() for op in plain + traced}
    for i, op in enumerate(traced):
        tally.check(op, f"traced op {i}")
    if len(outputs) > 1:
        tally.problems.append(f"repeated operations gave {len(outputs)} different outputs")
    done = [p for p in payloads if p is not None]
    units = sum(workload.units_done(p) for p in done)
    walls = [op.wall for op in plain]
    details.update({
        "ops": len(plain),
        "op_wall_s": walls,
        "op_reference_rate": [op.ref_rate for op in plain],
        "stdout_sha256": sorted(outputs),
        "fail_ratio": _metric(tally.failed / tally.attempted, "1"),
        "failures_by_code": tally.failures,
        "inner_failures": tally.inner_failures,
        "tail": {"percentile": TAIL_PERCENTILE, "samples": len(walls),
                 "beyond": sum(w > _percentile(walls, TAIL_PERCENTILE) for w in walls)},
        "golden_ok": golden_ok,
        "problems": tally.problems[:20],
    })

    if trace:
        import tracer

        probe_traces = []
        for i, args in enumerate(PROBE_ARGS):
            op = runner.traced(args, WORK / "spans.json")
            if tally.check(op, f"probe {i}") is not None:
                probe_traces.append(_load_trace(WORK / "spans.json"))
        metrics, sources = tracer.summarize(traces, probe_traces, workload.unit_span)
        metrics["cli.import_scipy_s"] = _metric(_scipy_import_s(runner), "s")
        metrics["trace.overhead_ratio"] = _metric(
            statistics.median(op.wall for op in traced) / statistics.median(walls), "1")
        details["layer_sources"] = sources
    else:
        setup = [runner.spawn(["-c", "import ecborrow.cli"]) for _ in range(SETUP_REPEATS)]
        metrics = {
            "op_p50_s": _metric(statistics.median(walls) * runner.scale, "s"),
            "op_tail_s": _metric(_percentile(walls, TAIL_PERCENTILE) * runner.scale, "s"),
            "work_per_s": _metric(units / (window_s * runner.scale), "units/s"),
            "setup_s": _metric(statistics.median(op.wall for op in setup) * runner.scale, "s"),
            "peak_rss_mb": _metric(max(op.rss_mb for op in plain), "MB"),
            "ok_ratio": _metric(1.0 - tally.failed / tally.attempted, "1"),
        }
        # the same figures in plain wall-clock seconds, not scaled to the reference speed
        details["reference_scale"] = runner.scale
        details["wall_clock"] = {
            "op_p50_s": statistics.median(walls),
            "op_tail_s": _percentile(walls, TAIL_PERCENTILE),
            "work_per_s": units / window_s,
            "setup_s": statistics.median(op.wall for op in setup),
        }
    details["environment"] = _environment()
    details["run_s"] = time.monotonic() - started
    for name, m in sorted(metrics.items()):
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    shutil.rmtree(WORK)
    return 0


def _load_trace(path: Path):
    import tracer

    return tracer.Trace(json.loads(path.read_text(encoding="utf-8")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"not an ecborrow checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # wake the main thread promptly when a child exits while Reference runs
    sys.setswitchinterval(1e-4)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
