"""The benchmark tracer wraps diqkd entry points by name; each name must still exist.

``bench/tracing.py::traced`` reads ``owner.__dict__[attr]`` for every entry of
``layer_targets()``, so removing or renaming one of those imports breaks
``bench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves_on_its_owner():
    targets = load_tracing().layer_targets()
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in vars(owner)
    ]
    assert missing == []
