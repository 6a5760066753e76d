"""The benchmark in perfbench/ wraps package functions by module global.

A renamed or moved function would leave its per-layer metrics silently
blank there, so this checks every wrapped name here. It only reads
perfbench/tracer.py, loaded by path (the harness is not a package).
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_package_callable():
    tracer = _load_tracer()
    assert tracer.WRAPS
    for module, attr, span in tracer.WRAPS:
        assert module.split(".")[0] == "nameclust", module
        fn = getattr(importlib.import_module(module), attr, None)
        assert callable(fn), f"{module}.{attr} ({span}) is gone"
        if span in tracer.GENERATORS:
            # timed across its iteration, so it must stay a generator
            assert inspect.isgeneratorfunction(fn), f"{module}.{attr}"
