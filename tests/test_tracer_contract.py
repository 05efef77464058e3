"""The benchmark's tracer wraps package names; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    tracer = _tracer()
    missing = []
    for home, names in tracer.FUNCTIONS.values():
        module = importlib.import_module(home)
        missing += [f"{home}.{name}" for name in names if not callable(getattr(module, name, None))]
    for home, cls_name, method in tracer.METHODS.values():
        cls = getattr(importlib.import_module(home), cls_name, None)
        if not callable(getattr(cls, method, None)):
            missing.append(f"{home}.{cls_name}.{method}")
    assert missing == []
