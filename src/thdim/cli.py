"""Command-line surface.

Exit codes: 0 success / positive recognition, 1 negative recognition or a
size-cap refusal or a randomized-search failure, 2 usage or input-format
error, 3 internal verification failure (a bug, never bad input).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .circuits import (GraphicFunction, compile_circuit, format_circuit,
                       parse_circuit, verify_circuit)
from .decompose import (Decomposition, RandomizedSearchError, decompose_degeneracy,
                        decompose_treewidth, decompose_vertex_cover,
                        format_decomposition)
from .exactdim import compute_report, exact_decomposition
from .graphs import ExactLimitError, Graph, ParseError, max_independent_set, parse_edge_list
from .maxdeg import decompose_maxdeg
from .randgraphs import parse_experiment_spec, render_table, run_experiment
from .threshold import ForbiddenSubgraph, format_threshold, recognize_threshold
from .treedecomp import (TreeDecompositionError, heuristic_tree_decomposition,
                         parse_tree_decomposition)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_text())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _greedy_cover(g: Graph) -> list[int]:
    """Maximal-matching 2-approximation, for graphs beyond the exact cap."""
    cover: set[int] = set()
    for u, v in g.edges():
        if u not in cover and v not in cover:
            cover.update((u, v))
    return sorted(cover)


def _choose_cover(g: Graph, exact_cap: int) -> list[int]:
    if g.n <= exact_cap:
        return sorted(set(range(g.n)) - max_independent_set(g, limit=exact_cap))
    return _greedy_cover(g)


def cmd_recognize(args) -> int:
    g = _read_graph(args.path)
    result = recognize_threshold(g)
    if isinstance(result, ForbiddenSubgraph):
        print(f"not-threshold witness={result.kind} vertices={list(result.vertices)}")
        return EXIT_NEGATIVE
    print("threshold")
    print(format_threshold(result))
    return EXIT_OK


def _run_method(g: Graph, args) -> Decomposition:
    if args.method == "vc":
        return decompose_vertex_cover(g, _choose_cover(g, args.exact_cap))
    if args.method == "degeneracy":
        return decompose_degeneracy(g, seed=args.seed)
    if args.method == "treewidth":
        if args.td:
            td = parse_tree_decomposition(Path(args.td).read_text(), g)
        else:
            td = heuristic_tree_decomposition(g)
        return decompose_treewidth(g, td)
    if args.method == "maxdeg":
        diagnostics = [] if args.diag else None
        d = decompose_maxdeg(g, seed=args.seed, diagnostics=diagnostics)
        if diagnostics is not None:
            Path(args.diag).write_text("\n".join(diagnostics) + "\n")
        return d
    if args.method == "exact":
        return exact_decomposition(g)
    raise AssertionError(f"unhandled method {args.method}")


def cmd_decompose(args) -> int:
    g = _read_graph(args.path)
    d = _run_method(g, args)
    _emit(format_decomposition(d), args.out)
    print(f"method={d.method} factors={d.size} bound={d.bound_claimed} verified=true",
          file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    g = _read_graph(args.path)
    report = compute_report(g, seed=args.seed, exact_cap=args.exact_cap)
    sys.stdout.write(report.to_text())
    if args.out:
        Path(args.out).write_text(report.to_rows())
    return EXIT_OK


def cmd_compile(args) -> int:
    g = _read_graph(args.path)
    d = _run_method(g, args)
    circuit = compile_circuit(g, d)
    _emit(format_circuit(circuit), args.out)
    print(f"gates={circuit.gate_count} verified=true", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.path)
    circuit = parse_circuit(Path(args.circuit).read_text())
    if args.verify:
        print("note: --verify is ignored; verification is exact", file=sys.stderr)
    ok, counterexample = verify_circuit(GraphicFunction(g), circuit)
    if ok:
        print("equal verify-mode=exact")
        return EXIT_OK
    support = [v for v, bit in enumerate(counterexample) if bit]
    print(f"not-equal verify-mode=exact counterexample={support}")
    return EXIT_NEGATIVE


def cmd_experiment(args) -> int:
    spec = parse_experiment_spec(Path(args.spec).read_text())
    rows = run_experiment(spec, seed=args.seed)
    _emit(render_table(rows), args.out)
    return EXIT_OK


# every option a subcommand may declare; each declares only those its cmd_* reads
OPTIONS = {
    "--seed": dict(type=int, default=0),
    "--out": dict(default=None),
    "--exact-cap": dict(dest="exact_cap", type=int, default=24),
    "--method": dict(choices=["vc", "degeneracy", "treewidth", "maxdeg", "exact"],
                     default="degeneracy"),
    "--td": dict(default=None, help="tree decomposition file"),
    # accepted and ignored, so older scripts still run; verify is always exact
    "--verify": dict(choices=["exhaustive", "sampled"], default=None,
                     help="ignored: verification is exact"),
    "--diag": dict(default=None, help="write maxdeg intermediate artifacts (partition, "
                                      "families) to this file"),
}
METHOD_OPTIONS = ("--seed", "--out", "--exact-cap", "--method", "--td", "--diag")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thdim",
        description="Threshold-graph decompositions, exact dimension bounds, "
                    "and depth-2 LTF circuit compilation.")
    parser.add_argument("--version", action="version", version=f"thdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, positionals, options):
        p = sub.add_parser(name, help=summary)
        for positional in positionals:
            p.add_argument(positional)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(func=func)

    command("recognize", cmd_recognize, "decide thresholdness, print witness", ["path"], [])
    command("decompose", cmd_decompose, "emit a verified decomposition",
            ["path"], METHOD_OPTIONS)
    command("report", cmd_report, "dimension bounds and factor counts",
            ["path"], ["--seed", "--out", "--exact-cap"])
    command("compile", cmd_compile, "compile a decomposition into a circuit",
            ["path"], METHOD_OPTIONS)
    command("verify", cmd_verify, "compare a circuit against a graph",
            ["path", "circuit"], ["--verify"])
    command("experiment", cmd_experiment, "run the random-graph table",
            ["spec"], ["--seed", "--out"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ExactLimitError, RandomizedSearchError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ParseError, TreeDecompositionError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())
