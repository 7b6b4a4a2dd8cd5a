"""The benchmark tracer wraps functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{fn}" for mod, fns in tracing.LAYERS.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"backstep.{mod}"), fn, None))]
    assert not missing
