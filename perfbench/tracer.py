"""Spans around the public functions of every `thdim` module, from outside.

`from .x import f` gives each importing module its own binding of `f`, so a
wrapper is installed under every module attribute that holds the original
function, and the originals are put back by `uninstall`. Each call records
a span (name, start, end, parent index, hook seconds) in memory;
`layer_metrics` turns the spans and counters of one traced pass into
per-layer numbers. A counting hook runs inside its span, so the parent's self
time does not include it; its time is taken out of the span's own self time
and reported as `trace.hooks_s`.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "thdim"
# module -> public functions given a span; Graph.__init__ is handled apart
TARGETS = {
    "graphs": ("parse_edge_list", "degeneracy_ordering", "edge_mask", "greedy_coloring",
               "max_independent_set", "chromatic_number"),
    "threshold": ("recognize_threshold", "threshold_supergraph", "extract_ltf", "verify_ltf",
                  "and_of_gates_counterexample", "parse_threshold", "format_threshold"),
    "decompose": ("decompose_degeneracy", "build_separating_colorings", "decompose_treewidth",
                  "decompose_vertex_cover", "verify_decomposition", "format_decomposition"),
    "treedecomp": ("heuristic_tree_decomposition", "validate_tree_decomposition"),
    "maxdeg": ("decompose_maxdeg", "decompose_split", "bounded_partition",
               "build_suitable_family", "bipartite_coloring_family"),
    "exactdim": ("compute_report", "exact_dimension", "exact_decomposition",
                 "lower_bound_clique_chromatic", "upper_bound_ramsey_style"),
    "circuits": ("compile_circuit", "verify_circuit", "parse_circuit", "format_circuit"),
    "randgraphs": ("gen_gnm",),
    "cli": ("main",),
}
GRAPH_INIT = "graphs.Graph"  # spans of Graph.__init__

# decompositions handed back to a caller, for decompose.verify_per_result
RESULT_METHODS = ("decompose.decompose_degeneracy", "decompose.decompose_treewidth",
                  "decompose.decompose_vertex_cover", "maxdeg.decompose_maxdeg",
                  "exactdim.exact_decomposition")
# subcommands that return a decomposition (or a circuit compiled from one)
DECOMPOSING_COMMANDS = ("decompose", "compile")
SAMPLED_TRIALS = 100_000  # random vectors behind thdim's sampled checks


def _inputs_walked(n: int, exhaustive: bool) -> int:
    """Inputs a gate check walks when it finds no counterexample."""
    return 2 ** n if exhaustive else 1 + n + math.comb(n, 2) + SAMPLED_TRIALS


COUNT_UNITS = {
    "graphs.edges_built": "count", "threshold.inputs_checked": "count",
    "decompose.colorings": "count", "decompose.colorings_target": "count",
    "decompose.verify_per_result": "ratio", "treedecomp.width": "count",
    "maxdeg.completions": "count", "maxdeg.kept_ratio": "ratio",
    "circuits.gates": "count",
    "trace.hooks_s": "s",
    "trace.overhead_s": "s",  # filled in by child.py from untraced and traced passes
}


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]
    return names + [GRAPH_INIT]


def _self_time_key(name: str) -> str:
    return "cli.self_s" if name == "cli.main" else f"{name}.s"


def layer_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name in span_names():
        units[_self_time_key(name)] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNT_UNITS)
    return units


class Tracer:
    """Owns the spans and counters of one traced pass; install/uninstall swap
    the module bindings."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, float] | None] = []
        self.counts: Counter = Counter()
        self.command = ""  # subcommand of the op in flight
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = {
            "threshold.threshold_supergraph": self._count_completion,
            "threshold.verify_ltf": self._count_ltf_inputs,
            "threshold.and_of_gates_counterexample": self._count_gate_inputs,
            "decompose.build_separating_colorings": self._count_colorings,
            "decompose.verify_decomposition": self._count_verify,
            "treedecomp.heuristic_tree_decomposition": self._count_width,
            "maxdeg.decompose_maxdeg": self._count_kept,
            "circuits.compile_circuit": self._count_gates,
        }
        for name in RESULT_METHODS:
            self._hooks.setdefault(name, self._count_result)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, fn_names in TARGETS.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        graph_cls = sys.modules[f"{PACKAGE}.graphs"].Graph
        original_init = graph_cls.__init__
        self._saved.append((graph_cls, "__init__", original_init))
        graph_cls.__init__ = self._wrap(GRAPH_INIT, original_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack.clear()
        self._open.clear()

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        if name == GRAPH_INIT:
            hook = self._count_edges
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            self._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                returned = perf_counter()
                stack.pop()
                self._open[name] -= 1
                spans[idx] = (name, start, returned, parent, 0.0)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
                end = perf_counter()
                spans[idx] = (name, start, end, parent, end - returned)
            return result

        return wrapper

    # -- counters --------------------------------------------------------------

    def _count_edges(self, args, _result) -> None:
        self.counts["graphs.edges_built"] += sum(len(s) for s in args["self"].adj)

    def _count_completion(self, _args, _result) -> None:
        if self._open["maxdeg.decompose_maxdeg"]:
            self.counts["maxdeg.completions"] += 1

    def _count_ltf_inputs(self, args, _result) -> None:
        n = args["g"].n
        self.counts["threshold.inputs_checked"] += _inputs_walked(
            n, n <= args["exhaustive_limit"])

    def _count_gate_inputs(self, args, _result) -> None:
        if args["witnesses"]:
            self.counts["threshold.inputs_checked"] += _inputs_walked(
                args["g"].n, args["exhaustive"])

    def _count_colorings(self, args, result) -> None:
        self.counts["decompose.colorings"] += len(result.colorings)
        self.counts["decompose.colorings_target"] += math.ceil(math.log(args["g"].n))

    def _count_verify(self, _args, _result) -> None:
        if self.command in DECOMPOSING_COMMANDS:
            self.counts["decompose.verify_calls_returned"] += 1

    def _count_result(self, _args, _result) -> None:
        if self.command in DECOMPOSING_COMMANDS and self._open["maxdeg.decompose_maxdeg"] == 0:
            self.counts["decompose.results_returned"] += 1

    def _count_width(self, _args, result) -> None:
        self.counts["treedecomp.width_sum"] += result.width
        self.counts["treedecomp.decompositions"] += 1

    def _count_kept(self, args, result) -> None:
        self.counts["maxdeg.kept"] += result.size
        self._count_result(args, result)

    def _count_gates(self, _args, result) -> None:
        self.counts["circuits.gates"] += result.gate_count

    # -- reduction -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter, float]:
        """Per span name: summed self time (duration minus the children's and
        its hook's) and calls; and the hooks' summed time."""
        covered: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        hooks_s = 0.0
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, hook_s = span
            self_s[name] += end - start - covered[idx] - hook_s
            calls[name] += 1
            hooks_s += hook_s
        return dict(self_s), calls, hooks_s

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer numbers of the spans and counters recorded since `reset`."""
        self_s, calls, hooks_s = self.self_times()
        out: dict[str, float] = {}
        for name in span_names():
            out[_self_time_key(name)] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        c = self.counts
        out["graphs.edges_built"] = c["graphs.edges_built"]
        out["threshold.inputs_checked"] = c["threshold.inputs_checked"]
        out["decompose.colorings"] = c["decompose.colorings"]
        out["decompose.colorings_target"] = c["decompose.colorings_target"]
        out["decompose.verify_per_result"] = _ratio(c["decompose.verify_calls_returned"],
                                                    c["decompose.results_returned"])
        out["treedecomp.width"] = _ratio(c["treedecomp.width_sum"],
                                         c["treedecomp.decompositions"])
        out["maxdeg.completions"] = c["maxdeg.completions"]
        out["maxdeg.kept_ratio"] = _ratio(c["maxdeg.kept"], c["maxdeg.completions"])
        out["circuits.gates"] = c["circuits.gates"]
        out["trace.hooks_s"] = hooks_s
        return out

    def span_records(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "hook_s": s[4]}
                for s in self.spans if s is not None]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
