"""The Boolean side: clique-indicator functions of graphs, their 2-CNF normal
form, compilation of a verified decomposition into a depth-2 circuit (integer
LTF gates under one AND), its exact verification, and the reverse reading of
gate lists as graphs.

Every LTF here is realizable by a single majority gate through wire
duplication and hardcoded inputs; the integer-inequality form is the
canonical artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .decompose import Decomposition
from .graphs import Graph
from .threshold import LtfWitness, _circuit_counterexample, _mask_to_vector, extract_ltf

Literal = tuple[int, bool]  # (variable, negated)
Clause = tuple[Literal, Literal]


@dataclass(frozen=True)
class GraphicFunction:
    """Boolean function valued 1 exactly on clique indicator vectors."""

    graph: Graph

    @property
    def arity(self) -> int:
        return self.graph.n

    def evaluate(self, x: Sequence[int]) -> int:
        if len(x) != self.arity:
            raise ValueError(f"expected {self.arity} bits, got {len(x)}")
        support = [i for i, xi in enumerate(x) if xi]
        for u, v in combinations(support, 2):
            if not self.graph.has_edge(u, v):
                return 0
        return 1


# ---------------------------------------------------------------------------
# 2-CNF normal form: one all-negative clause per non-edge

def to_2cnf(g: Graph) -> list[Clause]:
    """Clauses (not x_i or not x_j) over the non-edges, i < j ascending."""
    return [((i, True), (j, True)) for i, j in combinations(range(g.n), 2)
            if not g.has_edge(i, j)]


def from_2cnf(clauses: Sequence[Clause], n: int) -> Graph:
    """The graph whose clique indicator the clause list computes.

    Only two-literal, both-negated clauses on distinct in-range variables are
    graphic; anything else is rejected.
    """
    missing = set()
    for clause in clauses:
        if len(clause) != 2:
            raise ValueError(f"clause {clause!r} does not have exactly two literals")
        (i, neg_i), (j, neg_j) = clause
        if not (neg_i and neg_j):
            raise ValueError(f"clause {clause!r} has a positive literal")
        if i == j:
            raise ValueError(f"clause {clause!r} repeats a variable")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"clause {clause!r} out of range for n={n}")
        missing.add((min(i, j), max(i, j)))
    edges = [(u, v) for u, v in combinations(range(n), 2) if (u, v) not in missing]
    return Graph(n, edges)


def eval_2cnf(clauses: Sequence[Clause], x: Sequence[int]) -> int:
    for (i, _), (j, _) in clauses:
        if x[i] and x[j]:
            return 0
    return 1


# ---------------------------------------------------------------------------
# depth-2 circuits

@dataclass(frozen=True)
class MajorityCircuit:
    """First layer: integer LTF gates; second layer: one AND over them all."""

    arity: int
    gates: tuple[LtfWitness, ...]

    def __post_init__(self):
        if any(gate.arity != self.arity for gate in self.gates):
            raise ValueError("gate arity mismatch")

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def evaluate(self, x: Sequence[int]) -> int:
        if len(x) != self.arity:
            raise ValueError(f"expected {self.arity} bits, got {len(x)}")
        return int(all(gate.accepts(x) for gate in self.gates))


def compile_circuit(g: Graph, d: Decomposition) -> MajorityCircuit:
    """One exact gate per factor, so the AND accepts the common cliques of the
    factors: the cliques of g, for a decomposition verified against g itself.
    Any other decomposition is refused."""
    if d.verified_for != g:
        raise ValueError("refusing to compile a decomposition not verified for this graph")
    gates = tuple(extract_ltf(f) for f in d.factors)
    return MajorityCircuit(arity=g.n, gates=gates)


def verify_circuit(f: GraphicFunction, c: MajorityCircuit) -> tuple[bool, tuple[int, ...] | None]:
    """Compare the circuit against the graphic function, exactly and at any
    arity (see `_circuit_counterexample`): no input walk for non-negative
    gates. A circuit with a negative weight is walked over all 2^n inputs
    when n <= 20; above that, and when a gate's clique search runs over its
    node budget, it is refused with ExactLimitError. Returns (equal, a
    counterexample vector or None).
    """
    if c.arity != f.arity:
        raise ValueError("circuit and function arity differ")
    bad = _circuit_counterexample(f.graph, c.gates)
    if bad is None:
        return True, None
    return False, _mask_to_vector(c.arity, bad)


def ltfs_to_graph(gates: Sequence[LtfWitness]) -> Graph:
    """The graph with an edge ij exactly when every gate accepts the vector
    with ones at i and j only."""
    if not gates:
        raise ValueError("need at least one gate")
    arity = gates[0].arity
    if any(g.arity != arity for g in gates):
        raise ValueError("gate arity mismatch")
    edges = []
    for i, j in combinations(range(arity), 2):
        mask = (1 << i) | (1 << j)
        if all(g.accepts_mask(mask) for g in gates):
            edges.append((i, j))
    return Graph(arity, edges)


# ---------------------------------------------------------------------------
# circuit file format

def format_circuit(c: MajorityCircuit) -> str:
    lines = [f"ltf-and {c.arity} {c.gate_count}"]
    for gate in c.gates:
        lines.append("gate " + " ".join(str(x) for x in (gate.bound, *gate.weights)))
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> MajorityCircuit:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty circuit file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "ltf-and":
        raise ValueError(f"expected 'ltf-and <arity> <gates>', got {lines[0]!r}")
    arity, count = int(head[1]), int(head[2])
    if arity < 0 or count < 0:
        raise ValueError(f"negative arity or gate count in {lines[0]!r}")
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"header promised {count} gates, found {len(body)}")
    gates = []
    for ln in body:
        tokens = ln.split()
        if tokens[0] != "gate" or len(tokens) != arity + 2:
            raise ValueError(f"bad gate line {ln!r}")
        numbers = [int(x) for x in tokens[1:]]
        gates.append(LtfWitness(weights=tuple(numbers[1:]), bound=numbers[0]))
    return MajorityCircuit(arity=arity, gates=tuple(gates))
