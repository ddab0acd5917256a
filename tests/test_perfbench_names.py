"""The benchmark's tracer wraps `thdim` functions by name; every name it
lists must still exist, or traced benchmark runs fail at start-up."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{fn}" for mod, fns in tracer.TARGETS.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"thdim.{mod}"), fn, None))]
    assert missing == []
