"""Traced CLI run and the per-layer metrics computed from its spans.

As a program it runs one ecborrow command with the package's public
functions timed from outside; nothing under ``src/`` changes:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json estimate --input data.csv

It times ``import ecborrow.cli``, wraps each traced function at every module
that binds it (``cli``, ``inference`` and ``simlab`` import names such as
``fit_glm`` and ``influence_values`` directly, so patching only the defining
module would miss calls), wraps four class methods once, runs ``cli.main``
and, after it returns, writes every span (name, start, end, parent) to
SPANS.json. Spans stay in memory until then.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# span name -> (defining module, functions recorded under that name)
FUNCTIONS = {
    "dataset.load_csv": ("ecborrow.dataset", ("load_csv",)),
    "nuisance.fit_glm": ("ecborrow.nuisance", ("fit_glm",)),
    "nuisance.fit_variance_ratio": ("ecborrow.nuisance", ("fit_variance_ratio",)),
    "estimators.estimate": ("ecborrow.estimators", (
        "estimate", "estimate_tau_full", "estimate_tau_trial", "estimate_tau_treated_only",
        "estimate_psi", "estimate_xi",
    )),
    "estimators.influence_values": ("ecborrow.estimators", ("influence_values",)),
    "inference.bootstrap_variance": ("ecborrow.inference", ("bootstrap_variance",)),
    "inference.bootstrap.replicate": ("ecborrow.inference", ("_bootstrap_one",)),
    "inference.test": ("ecborrow.inference", ("test",)),
    "simlab.run_monte_carlo": ("ecborrow.simlab", ("run_monte_carlo",)),
    "simlab.true_effects": ("ecborrow.simlab", ("true_effects",)),
    "simlab.generate": ("ecborrow.simlab", ("generate",)),
    "simlab.replicate": ("ecborrow.simlab", ("_mc_replicate",)),
}
# span name -> (module, class, method)
METHODS = {
    "nuisance.design": ("ecborrow.nuisance", "ModelSpec", "design"),
    "nuisance.predict": ("ecborrow.nuisance", "FittedGLM", "predict"),
    "nuisance.fingerprint": ("ecborrow.nuisance", "NuisanceSet", "fingerprint"),
    "dataset.take": ("ecborrow.dataset", "CompositeDataset", "take"),
}


def _fit_glm_info(args, kwargs, result):
    family = kwargs.get("family", args[2] if len(args) > 2 else None)
    return [family, None if result is None else result.iterations]


def _result_attr(attr: str):
    return lambda args, kwargs, result: None if result is None else getattr(result, attr)


# span name -> what to keep from (args, kwargs, result); result is None on a raise
INFO = {
    "nuisance.fit_glm": _fit_glm_info,
    "nuisance.design": _result_attr("nbytes"),
    "dataset.load_csv": _result_attr("n"),
    "inference.bootstrap_variance": _result_attr("failures"),
    "simlab.run_monte_carlo": _result_attr("failures"),
}


class Recorder:
    """In-memory spans: [name index, start, end, parent index, info]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        info = INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if info is not None:
                    span[4] = info(args, kwargs, result)

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every traced function wherever an ecborrow module binds it."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ecborrow"]
    for name, (home, functions) in FUNCTIONS.items():
        for fn_name in functions:
            original = getattr(sys.modules[home], fn_name)
            wrapped = recorder.wrap(name, original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapped)
    for name, (home, cls_name, method) in METHODS.items():
        cls = getattr(sys.modules[home], cls_name)
        setattr(cls, method, recorder.wrap(name, getattr(cls, method)))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import ecborrow.cli as cli  # noqa: PLC0415 - the import is what is timed

    import_s = time.perf_counter() - start
    recorder = Recorder()
    install(recorder)
    code = recorder.wrap("cli.main", cli.main)(cli_args)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "names": recorder.names, "spans": recorder.spans}, fh,
                  separators=(",", ":"))
    return code


# ------------------------- per-layer aggregation -------------------------


class Trace:
    """Spans of one traced operation, with self times."""

    def __init__(self, data: dict):
        self.import_s = data["import_s"]
        names = data["names"]
        spans = data["spans"]
        self.name = [names[s[0]] for s in spans]
        self.duration = [s[2] - s[1] for s in spans]
        self.parent = [s[3] for s in spans]
        self.info = [s[4] for s in spans]
        covered = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, covered)]
        self._ids: dict[str, list[int]] = {}
        for i, n in enumerate(self.name):
            self._ids.setdefault(n, []).append(i)

    def ids(self, name: str) -> list[int]:
        return self._ids.get(name, [])

    def count(self, name: str) -> int:
        """Calls, counting a span nested in a span of the same name once."""
        return sum(1 for i in self.ids(name)
                   if self.parent[i] < 0 or self.name[self.parent[i]] != name)

    def self_s(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.ids(name))

    def total_s(self, name: str) -> float:
        return sum(self.duration[i] for i in self.ids(name)
                   if self.parent[i] < 0 or self.name[self.parent[i]] != name)

    def info_sum(self, name: str) -> int:
        return sum(self.info[i] or 0 for i in self.ids(name))

    def fit_self_s(self, family: str) -> float:
        return sum(self.self_time[i] for i in self.ids("nuisance.fit_glm")
                   if self.info[i][0] == family)

    def logit_iterations(self) -> int:
        return sum(self.info[i][1] or 0 for i in self.ids("nuisance.fit_glm")
                   if self.info[i][0] == "logit")

    def per_unit(self, name: str, unit_span: str) -> float:
        """Calls of ``name`` made inside unit spans, per unit span."""
        units = set(self.ids(unit_span))
        if not units:
            return 0.0
        inside = 0
        for i in self.ids(name):
            p = self.parent[i]
            while p >= 0 and p not in units:
                p = self.parent[p]
            inside += p >= 0
        return inside / len(units)

    def mean_total_s(self, name: str) -> float:
        ids = self.ids(name)
        return sum(self.duration[i] for i in ids) / len(ids) if ids else 0.0


def _rows_per_s(tr: Trace) -> float:
    seconds = tr.total_s("dataset.load_csv")
    return tr.info_sum("dataset.load_csv") / seconds if seconds > 0 else 0.0


# metric -> (unit, span the layer must have entered, value from one op's Trace).
# Times are seconds per operation (self time unless the name says otherwise);
# calls and counts are per operation.
def layer_metrics(unit_span: str) -> dict:
    return {
        "cli.import_s": ("s", "cli.main", lambda tr: tr.import_s),
        "cli.main_s": ("s", "cli.main", lambda tr: tr.total_s("cli.main")),
        "dataset.load_csv_s": ("s", "dataset.load_csv", lambda tr: tr.self_s("dataset.load_csv")),
        "dataset.load_csv.rows_per_s": ("rows/s", "dataset.load_csv", _rows_per_s),
        "dataset.take.calls": ("count", "dataset.take", lambda tr: tr.count("dataset.take")),
        "dataset.take_s": ("s", "dataset.take", lambda tr: tr.self_s("dataset.take")),
        "nuisance.fit_glm.calls": ("count", "nuisance.fit_glm",
                                   lambda tr: tr.count("nuisance.fit_glm")),
        "nuisance.fit_glm.identity_s": ("s", "nuisance.fit_glm",
                                        lambda tr: tr.fit_self_s("identity")),
        "nuisance.fit_glm.logit_s": ("s", "nuisance.fit_glm", lambda tr: tr.fit_self_s("logit")),
        "nuisance.fit_glm.logit_iterations": ("count", "nuisance.fit_glm",
                                              lambda tr: tr.logit_iterations()),
        "nuisance.fits_per_unit": ("count", unit_span,
                                   lambda tr: tr.per_unit("nuisance.fit_glm", unit_span)),
        "nuisance.design.calls": ("count", "nuisance.design",
                                  lambda tr: tr.count("nuisance.design")),
        "nuisance.design_per_unit": ("count", unit_span,
                                     lambda tr: tr.per_unit("nuisance.design", unit_span)),
        "nuisance.design_s": ("s", "nuisance.design", lambda tr: tr.self_s("nuisance.design")),
        "nuisance.design.bytes_computed": ("bytes", "nuisance.design",
                                           lambda tr: tr.info_sum("nuisance.design")),
        "nuisance.predict.calls": ("count", "nuisance.predict",
                                   lambda tr: tr.count("nuisance.predict")),
        "nuisance.predict_per_unit": ("count", unit_span,
                                      lambda tr: tr.per_unit("nuisance.predict", unit_span)),
        "nuisance.predict_s": ("s", "nuisance.predict", lambda tr: tr.self_s("nuisance.predict")),
        "nuisance.fit_variance_ratio_s": ("s", "nuisance.fit_variance_ratio",
                                          lambda tr: tr.self_s("nuisance.fit_variance_ratio")),
        "nuisance.fingerprint.calls": ("count", "nuisance.fingerprint",
                                       lambda tr: tr.count("nuisance.fingerprint")),
        "estimators.estimate.calls": ("count", "estimators.estimate",
                                      lambda tr: tr.count("estimators.estimate")),
        "estimators.estimate_s": ("s", "estimators.estimate",
                                  lambda tr: tr.self_s("estimators.estimate")),
        "estimators.influence_values.calls": ("count", "estimators.influence_values",
                                              lambda tr: tr.count("estimators.influence_values")),
        "estimators.influence_values_s": ("s", "estimators.influence_values",
                                          lambda tr: tr.self_s("estimators.influence_values")),
        "inference.bootstrap_variance_s": ("s", "inference.bootstrap_variance",
                                           lambda tr: tr.self_s("inference.bootstrap_variance")),
        "inference.bootstrap.replicate_s": ("s", "inference.bootstrap.replicate",
                                            lambda tr: tr.mean_total_s("inference.bootstrap.replicate")),
        "inference.bootstrap.failures": ("count", "inference.bootstrap_variance",
                                         lambda tr: tr.info_sum("inference.bootstrap_variance")),
        "inference.test_s": ("s", "inference.test", lambda tr: tr.self_s("inference.test")),
        "simlab.true_effects_s": ("s", "simlab.true_effects",
                                  lambda tr: tr.self_s("simlab.true_effects")),
        "simlab.generate_s": ("s", "simlab.generate", lambda tr: tr.self_s("simlab.generate")),
        "simlab.replicate_s": ("s", "simlab.replicate",
                               lambda tr: tr.mean_total_s("simlab.replicate")),
        "simlab.replicate.failures": ("count", "simlab.run_monte_carlo",
                                      lambda tr: tr.info_sum("simlab.run_monte_carlo")),
    }


def summarize(traces: list[Trace], probe_traces: list[Trace], unit_span: str) -> tuple[dict, dict]:
    """Per-layer metrics: the median over the workload's traced operations.

    A layer the workload never enters is measured on the probe operations
    instead, so that every figure is a measurement; ``sources`` names them.
    """
    metrics, sources = {}, {}
    for name, (unit, needs, value) in layer_metrics(unit_span).items():
        pool = [tr for tr in traces if tr.ids(needs)]
        if not pool:
            pool = [tr for tr in probe_traces if tr.ids(needs)]
            sources[name] = "probe"
        if pool:
            # counts repeat exactly across operations: keep them whole numbers
            middle = statistics.median if unit == "s" else statistics.median_low
            metrics[name] = {"value": middle(value(tr) for tr in pool), "unit": unit}
    return metrics, sources


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
