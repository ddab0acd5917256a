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
from typing import Iterable, Iterator, Sequence

from .decompose import Decomposition
from .graphs import Graph, ParseError, _bits, parse_ints, read_lines
from .threshold import LtfWitness, _circuit_counterexample, extract_ltf

_DECIMAL_BITS = 14_000  # about 4214 digits, below Python's 4300-digit limit
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
    """One exact gate per listed factor, so the AND accepts the common
    cliques of the factors: the cliques of g, for a decomposition verified
    against g itself. Any other decomposition is refused."""
    if d.verified_for != g:
        raise ValueError("refusing to compile a decomposition not verified for this graph")
    return MajorityCircuit(arity=g.n, gates=tuple(map(extract_ltf, d.factors)))


def verify_circuit(g: Graph, c: MajorityCircuit) -> tuple[int, ...] | None:
    """Compare the circuit against the graphic function of g, exactly and at
    any arity (see `_circuit_counterexample`): no input walk for non-negative
    gates. A circuit with a negative weight is walked over all 2^n inputs
    when n <= 20; above that, and when a gate's clique search runs over its
    node budget, it is refused with ExactLimitError. Returns the vertices of
    a counterexample, ascending, or None.
    """
    if c.arity != g.n:
        raise ValueError("circuit and function arity differ")
    bad = _circuit_counterexample(g, c.gates)
    return None if bad is None else tuple(_bits(bad))


def ltfs_to_graph(gates: Sequence[LtfWitness]) -> Graph:
    """The graph with an edge ij exactly when every gate accepts the vector
    with ones at i and j only, that is when w_i + w_j <= b."""
    if not gates:
        raise ValueError("need at least one gate")
    arity = gates[0].arity
    if any(g.arity != arity for g in gates):
        raise ValueError("gate arity mismatch")
    return Graph(arity, [(i, j) for i, j in combinations(range(arity), 2)
                         if all(g.weights[i] + g.weights[j] <= g.bound for g in gates)])


# ---------------------------------------------------------------------------
# circuit file format, written and read a line at a time

def _number(x: int) -> str:
    """x in decimal, or as 0x... hex above _DECIMAL_BITS bits, where decimal
    conversion is quadratic and Python refuses it past 4300 digits."""
    return str(x) if abs(x).bit_length() <= _DECIMAL_BITS else hex(x)


def _parse_number(token: str) -> int:
    return int(token, 16) if token.startswith(("0x", "-0x")) else int(token)


def circuit_lines(c: MajorityCircuit) -> Iterator[str]:
    """The lines of the circuit file, each with its newline: the header, then
    one line per listed gate. Each distinct number of a line is converted
    to text once: a gate's weights take one value per level."""
    yield f"ltf-and {c.arity} {c.gate_count}\n"
    for gate in c.gates:
        numbers = (gate.bound, *gate.weights)
        text = {x: _number(x) for x in set(numbers)}
        yield "gate " + " ".join(map(text.__getitem__, numbers)) + "\n"


def format_circuit(c: MajorityCircuit) -> str:
    return "".join(circuit_lines(c))


def parse_circuit(lines: str | Iterable[str]) -> MajorityCircuit:
    """Read a circuit one line at a time. Each distinct token of a gate line
    is parsed once."""
    content = read_lines(lines)
    header_no, head = next(content, (1, [""]))
    if len(head) != 3 or head[0] != "ltf-and":
        raise ParseError(header_no, f"expected 'ltf-and <arity> <gates>', got {' '.join(head)!r}")
    arity, count = parse_ints(header_no, head[1:])
    if arity < 0 or count < 0:
        raise ParseError(header_no, "negative arity or gate count")
    gates = []
    for line_no, tokens in content:
        if len(gates) == count:
            raise ParseError(line_no, f"unexpected extra line after {count} gates")
        if tokens[0] != "gate" or len(tokens) != arity + 2:
            raise ParseError(line_no, f"expected 'gate <bound> <{arity} weights>'")
        distinct = list(set(tokens[1:]))
        value = dict(zip(distinct, parse_ints(line_no, distinct, _parse_number)))
        numbers = list(map(value.__getitem__, tokens[1:]))
        gates.append(LtfWitness(weights=tuple(numbers[1:]), bound=numbers[0]))
    if len(gates) != count:
        raise ParseError(header_no, f"header promised {count} gates, found {len(gates)}")
    return MajorityCircuit(arity=arity, gates=tuple(gates))
