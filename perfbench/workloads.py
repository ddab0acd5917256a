"""Seeded inputs of the four workloads, as one round of `thdim` subcommand calls.

A round is a list of ops run one after the other (closed loop, one client).
Every round of a run repeats the same ops on the same inputs, so each op's
time can be taken as its best over the rounds. Every op names the graph it
ran on, so the checker can judge the file it wrote.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sparse-gnm", "bounded-degree", "small-circuits", "small-reports")
MIN_ROUNDS = 2    # every run measures at least these, whatever --seconds says

SPARSE_SIZES = (60, 120)          # G(n, 3n), degeneracy and treewidth
# m = 1.25n, 2 <= max degree <= 6. One graph's maxdeg time varies from 0.5x
# to 1.5x of the mean with its shape, so sixteen graphs keep a round's time
# steady across seeds.
BOUNDED_N, BOUNDED_GRAPHS = 40, 16
BOUNDED_MAX_DEGREE = 6
# (n, m, method, forest). Arity 16 is checked exhaustively, arity 24 by
# sampling at about 0.6 s per gate. Three arity-16 graphs average out the
# spread of their gate counts. The arity-24 graph is drawn until it is a
# forest: min-fill then gives width 1, so the treewidth method always emits
# four gates instead of four to eight. Each arity-16 circuit is verified
# twice, exhaustively (the default there) and with `--verify sampled`, so
# that verification is about a fifth of the round's time.
CIRCUITS = ((16, 24, "degeneracy", False), (16, 24, "degeneracy", False),
            (16, 24, "degeneracy", False), (24, 18, "treewidth", True))
# 8-vertex graphs, the largest `report` gives an exact dimension for, with
# 8 to 13 edges: the sparse ones cost the exact search most. One graph's cost
# varies twofold with its shape, so many graphs keep a round's cost steady
# across seeds.
REPORT_GRAPHS, REPORT_N, REPORT_EDGES = 96, 8, range(8, 14)


def derive(seed: int, *path) -> int:
    """A child seed below 2^31 for a labelled sub-stream of the run seed."""
    digest = hashlib.sha256(repr((seed,) + path).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class GraphInput:
    n: int
    edges: list[tuple[int, int]]
    path: Path

    def write(self) -> None:
        lines = [f"p {self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        self.path.write_text("\n".join(lines) + "\n")


@dataclass
class Op:
    command: str               # decompose | compile | verify | report
    argv: list[str]
    graph: GraphInput
    output: Path | None = None  # file the op writes, judged by the checker


def first_draw(gen_gnm, n: int, m: int, seed: int, accept, what: str):
    """Rejection sampler: the first of up to 500 G(n, m) draws that `accept` takes."""
    for attempt in range(500):
        g = gen_gnm(n, m, seed=derive(seed, what, attempt))
        if accept(g):
            return g
    raise RuntimeError(f"no {what} G({n},{m}) in 500 draws")


def is_forest(g) -> bool:
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


def build_ops(workload: str, seed: int, work: Path, gen_gnm) -> list[Op]:
    """Generate and write the workload's inputs; return the ops of one round."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    ops: list[Op] = []
    rs = derive(seed, workload)

    def graph_input(g, tag: str) -> GraphInput:
        gi = GraphInput(g.n, list(g.edges()), work / f"{tag}.txt")
        gi.write()
        return gi

    if workload == "sparse-gnm":
        for n in SPARSE_SIZES:
            gi = graph_input(gen_gnm(n, 3 * n, seed=derive(rs, "gnm", n)), f"g{n}")
            for method in ("degeneracy", "treewidth"):
                out = work / f"g{n}-{method}.dec"
                ops.append(Op("decompose", ["decompose", str(gi.path), "--method", method,
                                            "--seed", str(derive(rs, method, n)),
                                            "--out", str(out)], gi, out))
    elif workload == "bounded-degree":
        for k in range(BOUNDED_GRAPHS):
            g = first_draw(gen_gnm, BOUNDED_N, round(1.25 * BOUNDED_N), derive(rs, "graph", k),
                           lambda g: 2 <= g.max_degree() <= BOUNDED_MAX_DEGREE, "bounded")
            gi = graph_input(g, f"b{k}")
            out = work / f"b{k}-maxdeg.dec"
            ops.append(Op("decompose", ["decompose", str(gi.path), "--method", "maxdeg",
                                        "--seed", str(derive(rs, "maxdeg", k)),
                                        "--out", str(out)], gi, out))
    elif workload == "small-circuits":
        for k, (n, m, method, forest) in enumerate(CIRCUITS):
            if forest:
                g = first_draw(gen_gnm, n, m, derive(rs, "circuit", k), is_forest, "forest")
            else:
                g = gen_gnm(n, m, seed=derive(rs, "circuit", k))
            gi = graph_input(g, f"c{k}")
            circ = work / f"c{k}.circ"
            ops.append(Op("compile", ["compile", str(gi.path), "--method", method,
                                      "--seed", str(derive(rs, "compile", k)),
                                      "--out", str(circ)], gi, circ))
            ops.append(Op("verify", ["verify", str(gi.path), str(circ)], gi))
            if n <= 16:
                ops.append(Op("verify", ["verify", str(gi.path), str(circ),
                                         "--verify", "sampled"], gi))
    else:
        for j in range(REPORT_GRAPHS):
            m = REPORT_EDGES[j % len(REPORT_EDGES)]
            gi = graph_input(gen_gnm(REPORT_N, m, seed=derive(rs, "report", j)), f"e{j}")
            out = work / f"e{j}.csv"
            ops.append(Op("report", ["report", str(gi.path),
                                     "--seed", str(derive(rs, "report-seed", j)),
                                     "--out", str(out)], gi, out))
    return ops
