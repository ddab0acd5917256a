"""Command-line surface.

Exit codes: 0 success / positive recognition, 1 negative recognition or a
size-cap refusal or a randomized-search failure or running out of memory,
2 usage or input-format error or a path that cannot be read or written,
3 internal verification failure (a bug, never bad input).
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
from pathlib import Path
from typing import Iterable

from . import __version__
from .circuits import circuit_lines, compile_circuit, parse_circuit, verify_circuit
from .decompose import (Decomposition, RandomizedSearchError, decompose_degeneracy,
                        decompose_treewidth, decompose_vertex_cover, decomposition_lines)
from .exactdim import compute_report, exact_decomposition
from .graphs import ExactLimitError, Graph, parse_edge_list
from .maxdeg import decompose_maxdeg
from .randgraphs import parse_experiment_spec, render_table, run_experiment
from .threshold import ForbiddenSubgraph, format_threshold, recognize_threshold
from .treedecomp import heuristic_tree_decomposition, read_tree_decomposition

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read(parse, path: str):  # a line at a time, as UTF-8
    with open(path, encoding="utf-8") as lines:
        return parse(lines)


def _read_graph(path: str) -> Graph:
    return _read(parse_edge_list, path)


def _check_writable(path: str) -> None:
    """Refuse (OSError) a path that could not be written: a directory, a
    file in a missing directory, or one that may not be written. Creates
    and truncates nothing."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _emit(lines: Iterable[str], out: str | None) -> None:
    """Write the lines, in order, to the file `out` or to stdout."""
    if out:
        with open(out, "w") as f:
            f.writelines(lines)
    else:
        sys.stdout.writelines(lines)


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
        return decompose_vertex_cover(g)
    if args.method == "degeneracy":
        return decompose_degeneracy(g, seed=args.seed)
    if args.method == "treewidth":
        if args.td:
            td = _read(read_tree_decomposition, args.td)
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
    _emit(decomposition_lines(d), args.out)
    print(f"method={d.method} factors={d.size} bound={d.bound_claimed} verified=true",
          file=sys.stderr)
    return EXIT_OK


def cmd_report(args) -> int:
    g = _read_graph(args.path)
    report = compute_report(g, seed=args.seed)
    sys.stdout.write(report.to_text())
    if args.out:
        Path(args.out).write_text(report.to_rows())
    return EXIT_OK


def cmd_compile(args) -> int:
    g = _read_graph(args.path)
    d = _run_method(g, args)
    circuit = compile_circuit(g, d)
    _emit(circuit_lines(circuit), args.out)
    print(f"gates={circuit.gate_count} verified=true", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.path)
    circuit = _read(parse_circuit, args.circuit)
    if args.verify:
        print("note: --verify is ignored; verification is exact", file=sys.stderr)
    counterexample = verify_circuit(g, circuit)
    if counterexample is None:
        print("equal verify-mode=exact")
        return EXIT_OK
    print(f"not-equal verify-mode=exact counterexample={list(counterexample)}")
    return EXIT_NEGATIVE


def cmd_experiment(args) -> int:
    spec = _read(parse_experiment_spec, args.spec)
    rows = run_experiment(spec, seed=args.seed)
    _emit([render_table(rows)], args.out)
    return EXIT_OK


# every option a subcommand may declare; each declares only those its cmd_* reads
OPTIONS = {
    "--seed": dict(type=int, default=0),
    "--out": dict(default=None),
    "--method": dict(choices=["vc", "degeneracy", "treewidth", "maxdeg", "exact"],
                     default="degeneracy"),
    "--td": dict(default=None, help="tree decomposition file"),
    # accepted and ignored, so older scripts still run; verify is always exact
    "--verify": dict(choices=["exhaustive", "sampled"], default=None,
                     help="ignored: verification is exact"),
    "--diag": dict(default=None, help="write maxdeg intermediate artifacts (partition, "
                                      "families) to this file"),
}
METHOD_OPTIONS = ("--seed", "--out", "--method", "--td", "--diag")
METHOD_ONLY = {"td": "treewidth", "diag": "maxdeg"}  # the one method that reads each option


@functools.cache
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
            ["path"], ["--seed", "--out"])
    command("compile", cmd_compile, "compile a decomposition into a circuit",
            ["path"], METHOD_OPTIONS)
    command("verify", cmd_verify, "compare a circuit against a graph",
            ["path", "circuit"], ["--verify"])
    command("experiment", cmd_experiment, "run the random-graph table",
            ["spec"], ["--seed", "--out"])
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    The parser is built on the first call and reused by every later call in
    the process; parsing never changes it and gives a fresh namespace, so no
    value carries over from one call to the next.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for option, method in METHOD_ONLY.items():
        if getattr(args, option, None) is not None and args.method != method:
            print(f"error: --{option} applies only to --method {method}, not {args.method}",
                  file=sys.stderr)
            return EXIT_USAGE
    try:
        for path in (getattr(args, "out", None), getattr(args, "diag", None)):
            if path:
                _check_writable(path)  # before the work, not after it
        return args.func(args)
    except (ExactLimitError, RandomizedSearchError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except MemoryError:
        print("refused: out of memory", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ValueError, OSError) as exc:  # parse and tree decomposition errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
