"""The benchmark's tracer wraps `thdim` functions by name; every name it
lists must still exist, or traced benchmark runs fail at start-up. Its
counting hooks read the wrapped functions' parameters by name, so each
hooked function is also called once under the tracer."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_exists():
    tracer = _load_tracer()
    missing = [f"{mod}.{fn}" for mod, fns in tracer.TARGETS.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"thdim.{mod}"), fn, None))]
    assert missing == []


def test_every_hook_runs_on_its_function():
    # called through the module attributes, which are what the tracer swaps
    graphs, threshold, decompose, treedecomp, maxdeg, circuits = (
        importlib.import_module(f"thdim.{mod}")
        for mod in ("graphs", "threshold", "decompose", "treedecomp", "maxdeg", "circuits"))
    original = threshold.verify_ltf
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        g = graphs.Graph(4, [(0, 1), (1, 2), (2, 3)])
        t = threshold.threshold_supergraph(g, [0, 2])
        witness = threshold.extract_ltf(t)
        threshold.verify_ltf(t.graph, witness)
        threshold.and_of_gates_counterexample(t.graph, [witness])
        decompose.build_separating_colorings(g)
        d = decompose.decompose_vertex_cover(g)
        decompose.verify_decomposition(g, d)
        treedecomp.heuristic_tree_decomposition(g)
        maxdeg.decompose_maxdeg(g)
        circuits.compile_circuit(g, d)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert threshold.verify_ltf is original
    hooked = ["threshold.verify_ltf", "threshold.and_of_gates_counterexample",
              "decompose.build_separating_colorings", "decompose.verify_decomposition",
              "treedecomp.heuristic_tree_decomposition", "maxdeg.decompose_maxdeg",
              "circuits.compile_circuit", "threshold.threshold_supergraph", "graphs.Graph"]
    assert [name for name in hooked if metrics[f"{name}.calls"] < 1] == []
    counted = ["graphs.edges_built", "threshold.inputs_checked", "decompose.colorings",
               "decompose.colorings_target", "treedecomp.width", "maxdeg.completions",
               "circuits.gates"]
    assert [name for name in counted if metrics[name] <= 0] == []
