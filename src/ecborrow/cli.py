"""Command-line front end.

Subcommands: ``estimate`` analyzes a CSV, ``diagnose`` runs the
exchangeability test and overlap diagnostics, ``simulate`` runs scenario
replications, ``report`` renders a results JSON as a text table. Options
can come from a JSON config file; explicit flags override it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from numbers import Integral
from pathlib import Path
from typing import NoReturn

from .dataset import (
    OUTCOME_BINARY,
    ColumnSchema,
    CompositeDataset,
    is_finite_number,
    load_csv,
    summarize,
    validate,
)
from .errors import ConfigError, EcborrowError, NonFiniteResult, OutOfMemory, OverlapNoExternal
from .estimators import (
    ESTIMAND_TAU,
    ESTIMANDS,
    METHOD_BASELINE,
    METHOD_FULL,
    METHOD_TREATED_ONLY,
    METHOD_TRIAL,
    Estimator,
    influence_values,
)
from .inference import (
    BLOCK_BYTES,
    VARIANCE_BOOTSTRAP,
    VARIANCE_IF,
    SharedFit,
    bias_bound,
    bootstrap_variance,
    if_variance,
    overlap_diagnostics,
    test,
    test_mean_exchangeability,
)
from .nuisance import (
    IDENTITY,
    LOGIT,
    RATIO_KNOWN_ONE,
    BlockFitter,
    ModelSpec,
    fit_bundle,
    linear_specs,
)


def _lazy_submodule(name: str):
    """The package's submodule ``name``, its code run on first attribute access.

    It is entered in ``sys.modules`` and on the package at once, so code that
    looks it up or wraps its functions after ``import ecborrow.cli`` finds it.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
        setattr(sys.modules[__package__], name, sys.modules[full])
    return sys.modules[full]


simlab = _lazy_submodule("simlab")  # only simulate runs it

_RATIO_FLAGS = {"known1": "known_one", "constant": "constant", "loglinear": "loglinear"}
_SIDE_FLAGS = {"greater": "greater", "less": "less", "two-sided": "two_sided"}
_RUN = ("estimate", "diagnose", "simulate")  # the commands that compute


def _read_json(path, what: str, text: str | None = None):
    """The JSON value in ``text``, or in the file at ``path`` when no text is
    given; ``what`` ("config file", "schema", ...) names it in a CONFIG error."""
    try:
        if text is None:
            if not Path(path).is_file():
                raise ConfigError(f"{what.removesuffix(' file')} file not found: {path}")
            text = Path(path).read_text(encoding="utf-8")
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _option(default, commands=(), choices=None, help=None):
    """A RunConfig field, offered as ``--name`` (``_`` read as ``-``) by the
    parsers of ``commands``; no commands makes it config-only. A value outside
    ``choices`` is a CONFIG error, from a flag and from a config file alike."""
    return field(default=default,
                 metadata={"commands": commands, "choices": choices, "help": help})


# each declared option type past int and float, and the JSON values it takes
_TYPES = {"str": str, "list": list, "bool": bool, "dict": dict, "None": type(None)}


@dataclass
class RunConfig:
    """One command's resolved options, after CLI/file/default merging. Each
    field past ``command`` is one option; the parser is built from them
    (``build_parser``), in their order."""

    command: str
    seed: int = _option(0, _RUN)
    jobs: int = _option(1, _RUN)
    out: str | None = _option(None, _RUN, help="write the JSON report here as well as stdout")
    input: str | None = _option(None, ("estimate", "diagnose"))
    schema: object = _option(None, ("estimate", "diagnose"),
                             help="JSON column map, inline or @file")
    estimand: str | list = _option("tau,psi,xi", ("estimate",), help="comma list from tau,psi,xi")
    method: str = _option("both", ("estimate",), choices=("full", "trial", "treated-only", "both"))
    ratio: str | None = _option(None, ("estimate", "diagnose"), choices=tuple(_RATIO_FLAGS))
    variance: str = _option("if", ("estimate",), choices=("if", "bootstrap"))
    B: int | None = _option(None, ("estimate",))
    null: float = _option(0.0, ("estimate",))
    side: str = _option("greater", ("estimate",), choices=tuple(_SIDE_FLAGS))
    level: float = _option(0.95, ("estimate",))
    models: dict | None = _option(None)
    bias_bound: float | None = _option(None, ("diagnose",))
    scenario: str = _option("i", ("simulate",), help="i, ii, iii, iv or all")
    reps: int = _option(200, ("simulate",))
    n: int = _option(1000, ("simulate",))
    dgp: dict | None = _option(None)
    boxplot_csv: str | None = _option(None, ("simulate",))
    results: str | None = _option(None, ("report",))

    def __post_init__(self):
        for f in fields(self):
            kinds = f.type.split(" | ")
            value = getattr(self, f.name)
            if value is None and "None" in kinds:
                continue  # B defaults by variance method below; no bias_bound is no bound
            if kinds[0] == "int":
                if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
                    raise ConfigError(f"{f.name} must be a non-negative integer, got {value!r}")
            elif kinds[0] == "float":
                if not is_finite_number(value):
                    raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            elif kinds[0] in _TYPES and not isinstance(value, tuple(_TYPES[k] for k in kinds)):
                raise ConfigError(f"{f.name} must be of type {' or '.join(kinds)}, got {value!r}")
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ConfigError(f"{f.name} must be one of {', '.join(choices)}, got {value!r}")
        if not 0.0 < float(self.level) < 1.0:
            raise ConfigError(f"level must be in (0,1), got {self.level}")
        if self.variance == "if" and self.B is not None:
            raise ConfigError("--B is only meaningful with --variance bootstrap")
        if self.variance == "bootstrap":
            self.B = 500 if self.B is None else int(self.B)
            if self.B < 100:
                raise ConfigError("bootstrap needs B >= 100")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        # checked before any work: the report is printed before it is written
        if self.out is not None and (Path(self.out).is_dir() or not Path(self.out).parent.is_dir()):
            raise ConfigError(f"--out must name a file in an existing directory, got {self.out}")

    @property
    def sidedness(self) -> str:
        return _SIDE_FLAGS[self.side]

    @property
    def estimands(self) -> list[str]:
        raw = self.estimand
        if isinstance(raw, (list, tuple)):
            raw = ",".join(map(str, raw))
        names = [e.strip() for e in str(raw).split(",") if e.strip()]
        for name in names:
            if name not in ESTIMANDS:
                raise ConfigError(f"unknown estimand {name!r}")
        if not names:
            raise ConfigError("no estimand requested")
        return names


# every option's default, as RunConfig declares it
DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}


def _merge_options(args: argparse.Namespace) -> RunConfig:
    """Precedence: explicit CLI flags > config file > defaults."""
    merged = dict(DEFAULTS)
    if args.config is not None:
        config = _read_json(args.config, "config file")
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(config)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    unknown = set(merged) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(command=args.command, **merged)


def _parse_schema(raw) -> ColumnSchema | None:
    if raw is None:
        return None
    if isinstance(raw, dict):
        return ColumnSchema.from_mapping(raw)
    text = str(raw)
    # "@path" or a value ending in ".json" names a file, else it is inline JSON
    path = (Path(text[1:]) if text.startswith("@")
            else Path(text) if text.endswith(".json") else None)
    return ColumnSchema.from_mapping(_read_json(path, "schema", None if path else text))


def _model_specs(ds: CompositeDataset, cfg: RunConfig) -> dict:
    specs = linear_specs(ds.k, LOGIT if ds.outcome_kind == OUTCOME_BINARY else IDENTITY)
    for name, payload in (cfg.models or {}).items():
        if name not in specs:
            raise ConfigError(f"unknown model name {name!r} in config")
        if not isinstance(payload, dict):
            raise ConfigError(f"config key 'models.{name}' must be a model spec, got {payload!r}")
        specs[name] = ModelSpec.from_dict(payload)
        for term in specs[name].terms:
            read = (term.i, term.j) if term.kind == "inter" else (term.i,)
            if not all(0 <= i < ds.k for i in read):
                raise ConfigError(f"model {name!r}: term {term.serialize()!r} reads a covariate"
                                  f" the data does not have (covariates 0..{ds.k - 1})")
    return specs


def _resolve_ratio(ds: CompositeDataset, cfg: RunConfig) -> str:
    mode = "loglinear" if cfg.ratio is None else _RATIO_FLAGS[cfg.ratio]
    if ds.outcome_kind == OUTCOME_BINARY:
        forced = mode != RATIO_KNOWN_ONE and cfg.ratio is not None
        sys.stderr.write(f"outcome is binary: variance ratio {'forced' if forced else 'set'}"
                         " to one (known1)\n")
        return RATIO_KNOWN_ONE
    return mode


def _requested_pairs(ds: CompositeDataset, cfg: RunConfig) -> list[Estimator]:
    pairs: list[Estimator] = []
    for estimand in cfg.estimands:
        if cfg.method == "treated-only":
            if estimand != ESTIMAND_TAU:
                raise ConfigError("treated-only mode only estimates tau")
            pairs.append(Estimator(estimand, METHOD_TREATED_ONLY))
            continue
        comparator = METHOD_TRIAL if estimand == ESTIMAND_TAU else METHOD_BASELINE
        methods = {"full": (METHOD_FULL,), "trial": (comparator,),
                   "both": (METHOD_FULL, comparator)}[cfg.method]
        pairs += [Estimator(estimand, method) for method in methods]
    if ds.n2 == 0:
        for pair in pairs:
            if pair.method != METHOD_TRIAL:
                raise OverlapNoExternal(
                    "dataset has no external rows; only the trial-based tau "
                    "estimator is available"
                )
    return pairs


def cmd_estimate(cfg: RunConfig) -> dict:
    if not cfg.input:
        raise ConfigError("estimate needs --input")
    ds = load_csv(cfg.input, _parse_schema(cfg.schema))
    ratio_mode = _resolve_ratio(ds, cfg)
    specs = _model_specs(ds, cfg)
    pairs = _requested_pairs(ds, cfg)
    level = float(cfg.level)
    null_value = float(cfg.null)

    # one fit, and one row table of its predictions, serves every requested
    # pair: once for the primary analysis and once per bootstrap resample,
    # whose models and points are fit a block of resamples at a time
    bundle = {"specs": specs, "ratio_mode": ratio_mode,
              "treated_only": any(p.method == METHOD_TREATED_ONLY for p in pairs)}
    fit = partial(fit_bundle, **bundle)
    sets, table = fitted = fit(ds)
    estimates = [pair.estimate(ds, fitted) for pair in pairs]
    if cfg.variance == "if":
        method_label = VARIANCE_IF
        variances = [
            if_variance(influence_values(ds, pair.nuisances(sets), pair.estimand, pair.method,
                                         est.point, table=table))
            for pair, est in zip(pairs, estimates)
        ]
        extras = [{} for _ in pairs]
    else:
        method_label = VARIANCE_BOOTSTRAP
        shared = SharedFit(fit, tuple(pair.point for pair in pairs),
                           block=partial(BlockFitter, **bundle))
        boots = bootstrap_variance(
            ds, shared, n_replicates=cfg.B, seed=cfg.seed, level=level, jobs=cfg.jobs
        )
        variances = [boot.variance for boot in boots]
        extras = [{"bootstrap": boot.to_dict()} for boot in boots]

    results = []
    for est, var, extra in zip(estimates, variances, extras):
        inference = test(
            est,
            var,
            null_value=null_value,
            sidedness=cfg.sidedness,
            level=level,
            variance_method=method_label,
        )
        payload = inference.to_dict()
        payload.update(extra)
        results.append(payload)

    return {
        "command": "estimate",
        "input": str(cfg.input),
        "dataset": summarize(ds).to_dict(),
        "ratio_mode": ratio_mode,
        "variance_method": cfg.variance,
        "null_value": null_value,
        "sidedness": cfg.sidedness,
        "level": level,
        "seed": cfg.seed,
        "estimates": results,
    }


def cmd_diagnose(cfg: RunConfig) -> dict:
    if not cfg.input:
        raise ConfigError("diagnose needs --input")
    ds = load_csv(cfg.input, _parse_schema(cfg.schema))
    ratio_mode = _resolve_ratio(ds, cfg)
    specs = _model_specs(ds, cfg)
    report: dict = {
        "command": "diagnose",
        "input": str(cfg.input),
        "dataset": summarize(ds).to_dict(),
        "validation": validate(ds).to_dict(),
        "ratio_mode": ratio_mode,
    }
    exchange = test_mean_exchangeability(ds)
    report["exchangeability"] = exchange.to_dict()
    sets, table = fit_bundle(ds, specs, ratio_mode)
    nuis = sets["pooled"]
    report["overlap"] = overlap_diagnostics(ds, nuis, table=table).to_dict()
    if cfg.bias_bound is not None:
        bound = bias_bound(ds, nuis, bound=float(cfg.bias_bound), table=table)
        report["bias_bound"] = bound.to_dict()
    return report


def cmd_simulate(cfg: RunConfig) -> dict:
    scenarios = simlab.SCENARIOS if cfg.scenario == "all" else (cfg.scenario,)
    keep = cfg.boxplot_csv is not None
    dgp = {key: tuple(val) if isinstance(val, list) else val
           for key, val in (cfg.dgp or {}).items()}
    try:
        scenario_cfgs = [simlab.ScenarioConfig(scenario=sc, n=int(cfg.n), **dgp)
                         for sc in scenarios]
    except TypeError as exc:
        raise ConfigError(f"bad 'dgp' config: {exc}") from None
    results = simlab.run_study(scenario_cfgs, int(cfg.reps), master_seed=cfg.seed, jobs=cfg.jobs,
                               keep_draws=keep)
    runs = {result.config.scenario: result.to_dict() for result in results}
    if keep:
        rows = simlab.export_boxplot_data(results, cfg.boxplot_csv)
        sys.stderr.write(f"wrote {rows} boxplot rows to {cfg.boxplot_csv}\n")
    return {
        "command": "simulate",
        "reps": int(cfg.reps),
        "n": int(cfg.n),
        "seed": cfg.seed,
        "scenarios": runs,
    }


def cmd_report(cfg: RunConfig) -> dict:
    if not cfg.results:
        raise ConfigError("report needs --results pointing at an estimate JSON")
    payload = _read_json(Path(cfg.results), "results file")
    lines = render_report(payload)
    print("\n".join(lines))
    return {"command": "report", "lines": lines}


def render_report(payload: dict) -> list[str]:
    """Text tables for estimate and simulate JSON payloads."""
    command = payload.get("command") if isinstance(payload, dict) else None
    if command == "estimate" and "estimates" in payload:
        return render_estimates(payload)
    if command == "simulate" and "scenarios" in payload:
        return render_simulation(payload)
    raise ConfigError("report expects JSON written by the estimate or simulate command")


def render_estimates(payload: dict) -> list[str]:
    """Point x100, variance x10000, p-value per estimate."""
    header = f"{'estimand':<10}{'method':<14}{'point x100':>12}{'var x10000':>12}{'p-value':>10}"
    lines = [header, "-" * len(header)]
    for item in payload["estimates"]:
        lines.append(
            f"{item['estimand']:<10}{item['method']:<14}"
            f"{item['point'] * 100:>12.2f}{item['variance'] * 10000:>12.2f}"
            f"{item['p_value']:>10.3f}"
        )
    return lines


def render_simulation(payload: dict) -> list[str]:
    """Per-scenario coverage table; a scenario with both tau sds ends on its empirical
    gain of borrowing, n·(sd²(tau_trial) − sd²(tau_full)), beside the analytic one."""
    header = (
        f"{'scenario':<10}{'estimator':<16}{'bias':>10}{'sd':>10}"
        f"{'mse':>10}{'coverage':>10}"
    )
    lines = [header, "-" * len(header)]
    for scenario, run in sorted(payload["scenarios"].items()):
        summaries = run["summaries"]
        for name in sorted(summaries):
            s = summaries[name]
            sd = f"{s['sd']:>10.4f}" if s["sd"] is not None else f"{'-':>10}"
            lines.append(
                f"{scenario:<10}{name:<16}{s['mean_bias']:>10.4f}{sd}"
                f"{s['mse']:>10.4f}{s['coverage']:>10.3f}"
            )
        trial, full = (summaries.get(name, {}).get("sd") for name in ("tau_trial", "tau_full"))
        if trial is not None and full is not None:
            gap = run["config"]["n"] * (trial**2 - full**2)
            lines.append(f"{'':<10}(gain: empirical n*gap = {gap:.3f},"
                         f" analytic = {run['mean_analytic_gain']:.3f})")
    return lines


# ------------------------------ plumbing ------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a CONFIG error, in JSON like every other error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand's flags, one per RunConfig field it is offered on."""
    parser = _ArgumentParser(
        prog="ecborrow",
        description="Treatment-effect estimation with external control borrowing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("estimate", "analyze a CSV dataset"),
                          ("diagnose", "exchangeability test and overlap diagnostics"),
                          ("simulate", "run scenario replications"),
                          ("report", "render an estimate JSON as a text table")):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file; flags override it"
                       if command in _RUN else argparse.SUPPRESS)
        for f in fields(RunConfig):
            if command in f.metadata.get("commands", ()):
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                               type={"int": int, "float": float}.get(f.type.split(" | ")[0]),
                               choices=f.metadata["choices"], help=f.metadata["help"])
    return parser


_COMMANDS = {
    "estimate": cmd_estimate,
    "diagnose": cmd_diagnose,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def _dumps(payload: dict) -> str:
    """Strict JSON: a NaN or infinity becomes a typed error, never bare text."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NonFiniteResult(
            "result holds a NaN or infinite number, which JSON cannot represent"
        ) from None


def _print_error(exc: EcborrowError) -> int:
    error = exc.to_dict()
    try:
        text = _dumps({"error": error})
    except NonFiniteResult:
        # details JSON cannot hold are dropped; the code and message stay
        error.pop("details")
        text = _dumps({"error": error})
    print(text)
    return exc.exit_code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _merge_options(args)
        payload = _COMMANDS[args.command](cfg)
        text = None if args.command == "report" else _dumps(payload)
    except EcborrowError as exc:
        return _print_error(exc)
    except MemoryError as exc:  # numpy's names the allocation that failed
        return _print_error(OutOfMemory(f"out of memory: {exc}" if str(exc) else "out of memory"))
    if text is not None:
        print(text)
        if cfg.out:
            Path(cfg.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _steady_heap() -> None:
    """Pins glibc malloc's trim and mmap thresholds (mallopt -1 and -3) at
    4 MiB: 32 Monte Carlo block arrays or 16 bootstrap ones, room for most of
    the twenty or so arrays a block keeps alive. At the default 128 KiB, about
    one Monte Carlo block array and half a bootstrap one, the heap top is
    returned to the system and faulted back in for each block temporary, and
    a bootstrap block array is mapped afresh each time. A ``MALLOC_*_``
    variable or ``GLIBC_TUNABLES`` the user set wins. No result moves."""
    if sys.platform != "linux" or any(
        name == "GLIBC_TUNABLES" or (name.startswith("MALLOC_") and name.endswith("_"))
        for name in os.environ
    ):
        return
    import ctypes  # noqa: PLC0415 - numpy has imported it already

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param in (-1, -3):
        mallopt(param, 32 * BLOCK_BYTES)


def run() -> NoReturn:
    """The process entry point: ``main()``, then exit without interpreter teardown.

    It pins the process's malloc thresholds first (``_steady_heap``); ``main``
    leaves a host's allocator alone, and forked ``--jobs`` workers inherit
    them. Freeing numpy's and ecborrow's module objects at exit costs more than
    the rest of a small ``estimate``. Nothing is left to do by then: the
    streams are flushed below, ``--out`` is closed and any process pool is
    joined before ``main`` returns. A closed stdout ends the run with
    status 1 and no traceback.
    """
    _steady_heap()
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
