"""Every lanekit name the benchmark traces exists.

`perfbench/tracing.py` skips a name it cannot find, so a deleted or
renamed function would read 0 in its per-layer metric without failing
any run; this test fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    functions = [(module, name) for targets in tracing._FUNCTIONS.values() for module, name in targets]
    methods = [(module, f"{cls}.{name}") for module, cls, name in tracing._METHODS.values()]
    assert functions and methods
    missing = []
    for module, dotted in functions + methods:
        target = importlib.import_module(module)
        for part in dotted.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{dotted}")
    assert missing == []
