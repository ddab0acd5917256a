"""Threshold graphs: recognition with forbidden-subgraph witnesses, the
guided threshold-supergraph completion, and integer LTF witnesses.

A threshold graph is built by repeatedly adding an isolated or a dominating
vertex; equivalently it has no induced 2K_2, P_4 or C_4, and equivalently
its cliques are exactly the 0-1 solutions of one linear inequality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .graphs import ExactLimitError, Graph, _bits, degeneracy_ordering

ISOLATED = "i"
DOMINATING = "d"
WALK_LIMIT = 20  # most inputs walked for a circuit with a negative weight
CLIQUE_SEARCH_NODES = 10 ** 6  # branch-and-bound nodes before a refusal


class InternalVerificationError(AssertionError):
    """A construction failed its own verification; indicates a bug, never input error."""


@dataclass(frozen=True)
class ThresholdGraph:
    """A threshold graph held as its creation sequence.

    `creation` is the build order: each vertex enters either isolated or
    dominating (adjacent to everything already present), so u and v are
    adjacent iff the later of the two is dominating. `split_a` is the
    independent side in creation order, which nests neighborhoods
    decreasingly (N(a_1) >= N(a_2) >= ...); `split_b` is the clique side.
    `rank[v]` is v's position in `creation` and `tag[v]` its tag. The
    adjacency `graph` is only built when asked for.
    """

    creation: tuple[tuple[int, str], ...]
    rank: tuple[int, ...] = field(init=False, repr=False, compare=False)
    tag: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        creation = tuple(self.creation)
        n = len(creation)
        rank = [-1] * n
        tag = [ISOLATED] * n
        for i, (v, t) in enumerate(creation):
            if not (0 <= v < n) or rank[v] >= 0:
                raise ValueError("creation sequence must mention each vertex exactly once")
            if t != ISOLATED and t != DOMINATING:
                raise ValueError(f"unknown creation tag {t!r}")
            rank[v] = i
            tag[v] = t
        object.__setattr__(self, "creation", creation)
        object.__setattr__(self, "rank", tuple(rank))
        object.__setattr__(self, "tag", tuple(tag))

    @property
    def n(self) -> int:
        return len(self.creation)

    @cached_property
    def split_a(self) -> tuple[int, ...]:
        return tuple(v for v, t in self.creation if t == ISOLATED)

    @cached_property
    def split_b(self) -> frozenset[int]:
        return frozenset(v for v, t in self.creation if t == DOMINATING)

    @cached_property
    def graph(self) -> Graph:
        edges = []
        placed: list[int] = []
        for v, t in self.creation:
            if t == DOMINATING:
                edges.extend((v, u) for u in placed)
            placed.append(v)
        return Graph(self.n, edges)

    @classmethod
    def from_creation(cls, creation: Sequence[tuple[int, str]]) -> "ThresholdGraph":
        """Wrap a creation sequence covering vertices 0..n-1 exactly once."""
        return cls(creation)

    def degrees(self) -> tuple[int, ...]:
        """deg(v) for every vertex: the vertices placed before v if v is
        dominating, plus the dominating vertices placed after v. A labeled
        threshold graph is determined by its degree vector."""
        deg = [0] * self.n
        later_dominating = 0
        for i in range(self.n - 1, -1, -1):
            v, t = self.creation[i]
            deg[v] = later_dominating + (i if t == DOMINATING else 0)
            if t == DOMINATING:
                later_dominating += 1
        return tuple(deg)

    def nonadjacency_masks(self) -> list[int]:
        """Bitmask of the non-neighbours of every vertex (v itself excluded):
        the vertices placed before v if v is isolated, OR the isolated
        vertices placed after v. One suffix and one prefix sweep."""
        masks = [0] * self.n
        isolated_after = 0
        for v, t in reversed(self.creation):
            masks[v] = isolated_after
            if t == ISOLATED:
                isolated_after |= 1 << v
        placed = 0
        for v, t in self.creation:
            if t == ISOLATED:
                masks[v] |= placed
            placed |= 1 << v
        return masks


@dataclass(frozen=True)
class ForbiddenSubgraph:
    """An induced 2K_2, P_4 or C_4 witnessing that a graph is not threshold."""

    vertices: tuple[int, int, int, int]
    kind: str  # "2K2" | "P4" | "C4"


def classify_forbidden(g: Graph, quad: Sequence[int]) -> str | None:
    """Classify the induced subgraph on 4 vertices, or None if not forbidden."""
    quad = sorted(quad)
    edges = [(u, v) for u, v in combinations(quad, 2) if g.has_edge(u, v)]
    degs = sorted(sum(1 for e in edges if w in e) for w in quad)
    if len(edges) == 2 and degs == [1, 1, 1, 1]:
        return "2K2"
    if len(edges) == 3 and degs == [1, 1, 2, 2]:
        return "P4"
    if len(edges) == 4 and degs == [2, 2, 2, 2]:
        return "C4"
    return None


def recognize_threshold(g: Graph) -> ThresholdGraph | ForbiddenSubgraph:
    """Decide thresholdness by iterated isolated-or-universal removal.

    Acceptance returns the ThresholdGraph with its creation sequence (ties
    broken toward the smallest index, universal preferred over isolated);
    refusal returns an induced forbidden 4-vertex subgraph.
    """
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in remaining}
    removals: list[tuple[int, str]] = []
    while remaining:
        target = len(remaining) - 1
        pick = None
        tag = None
        for v in sorted(remaining):
            if deg[v] == target:
                pick, tag = v, DOMINATING
                break
        if pick is None:
            for v in sorted(remaining):
                if deg[v] == 0:
                    pick, tag = v, ISOLATED
                    break
        if pick is None:
            return _forbidden_witness(g, remaining)
        remaining.discard(pick)
        for u in g.adj[pick]:
            if u in remaining:
                deg[u] -= 1
        removals.append((pick, tag))
    return ThresholdGraph(tuple(reversed(removals)))


def _forbidden_witness(g: Graph, remaining: set[int]) -> ForbiddenSubgraph:
    if g.n <= 12:
        for quad in combinations(range(g.n), 4):
            kind = classify_forbidden(g, quad)
            if kind is not None:
                return ForbiddenSubgraph(vertices=tuple(quad), kind=kind)
        raise InternalVerificationError("peeling stalled but no forbidden 4-subset found")
    # vicinal incomparability inside the stuck remainder: u~x, v~y with
    # x not adjacent to v and y not adjacent to u always spans a witness
    live = sorted(remaining)
    live_set = remaining
    for u in live:
        nu = g.adj[u] & live_set
        for v in live:
            if v == u:
                continue
            nv = g.adj[v] & live_set
            only_u = nu - nv - {v}
            only_v = nv - nu - {u}
            if only_u and only_v:
                x, y = min(only_u), min(only_v)
                quad = tuple(sorted((u, v, x, y)))
                kind = classify_forbidden(g, quad)
                if kind is None:
                    raise InternalVerificationError("incomparable pair produced a non-witness")
                return ForbiddenSubgraph(vertices=quad, kind=kind)
    raise InternalVerificationError("peeling stalled on a comparable remainder")


# ---------------------------------------------------------------------------
# guided threshold supergraph

def threshold_supergraph(g: Graph, a_order: Sequence[int],
                         saturated: Iterable[int] = ()) -> ThresholdGraph:
    """Complete g into a threshold supergraph guided by an ordered independent set.

    With A = a_order = (u_1, ..., u_k) independent in g and B the rest, the
    result makes B a clique and attaches each v in B to exactly the prefix
    u_1..u_{s(v)}, where s(v) is the position of v's last neighbor inside A
    (0 when v has no neighbor in A). Vertices of B listed in `saturated`
    see all of A, as if g joined them to it. The output always contains g.
    """
    a_order = tuple(a_order)
    position = {u: i for i, u in enumerate(a_order, start=1)}
    if len(position) != len(a_order):
        raise ValueError("a_order contains duplicates")
    if any(not (0 <= u < g.n) for u in a_order):
        raise ValueError("a_order vertex out of range")
    # s(v) by a sweep over A's neighborhoods: positions ascend, so the last
    # write is the largest; an edge inside A shows up at its earlier end
    prefix = [0] * g.n
    for i, u in enumerate(a_order, start=1):
        inside = [position[v] for v in g.adj[u] if v in position]
        if inside:
            v = a_order[min(inside) - 1]
            raise ValueError(f"a_order is not independent: edge ({u},{v})")
        for v in g.adj[u]:
            prefix[v] = i
    k = len(a_order)
    for v in saturated:
        if v in position:
            raise ValueError(f"saturated vertex {v} lies in a_order")
        prefix[v] = k
    # creation: B grouped by prefix length ascending, each u_j entering
    # isolated right after the B-vertices it must not see
    by_level: list[list[int]] = [[] for _ in range(k + 1)]
    for v in range(g.n):
        if v not in position:
            by_level[prefix[v]].append(v)
    creation: list[tuple[int, str]] = [(v, DOMINATING) for v in by_level[0]]
    for j, u in enumerate(a_order, start=1):
        creation.append((u, ISOLATED))
        creation.extend((v, DOMINATING) for v in by_level[j])
    return ThresholdGraph(tuple(creation))


def is_supergraph(big: Graph, small: Graph) -> bool:
    if big.n != small.n:
        return False
    return all(small.adj[v] <= big.adj[v] for v in range(small.n))


# ---------------------------------------------------------------------------
# integer LTF witnesses

@dataclass(frozen=True)
class LtfWitness:
    """Non-negative integer weights and bound whose 0-1 solutions of
    sum(a_i x_i) <= b are exactly the clique indicator vectors."""

    weights: tuple[int, ...]
    bound: int

    @property
    def arity(self) -> int:
        return len(self.weights)

    def accepts(self, x: Sequence[int]) -> bool:
        if len(x) != self.arity:
            raise ValueError("vector length does not match arity")
        return sum(w for w, xi in zip(self.weights, x) if xi) <= self.bound

    def accepts_mask(self, mask: int) -> bool:
        total = 0
        m = mask
        while m:
            low = m & -m
            total += self.weights[low.bit_length() - 1]
            m ^= low
        return total <= self.bound


def extract_ltf(t: ThresholdGraph) -> LtfWitness:
    """Integer LTF weights for a threshold graph via base-(n+1) positional levels.

    Clique-side vertices weigh (n+1)^(k - s(v)), s(v) being the independent
    vertices placed before v; the j-th independent vertex weighs
    M - ((n+1)^(k-j+1) - 1) with bound M = 2(n+1)^(k+1) - 1, so that one
    independent vertex fits together with exactly its clique neighbors.
    Weights grow like (n+1)^O(k): arbitrary precision is required.
    The witness is certified exactly before being returned.
    """
    k = len(t.split_a)
    base = t.n + 1
    bound = 2 * base ** (k + 1) - 1
    weights = [0] * t.n
    level = base ** k  # (n+1)^(k - s) once s independent vertices are placed
    for v, tag in t.creation:
        if tag == ISOLATED:
            weights[v] = bound - (level - 1)
            level //= base
        else:
            weights[v] = level
    witness = LtfWitness(weights=tuple(weights), bound=bound)
    bad = _ltf_counterexample(t, witness)
    if bad is not None:
        raise InternalVerificationError(
            f"LTF extraction produced a bad witness; counterexample {sorted(bad)}")
    return witness


def _ltf_counterexample(t: ThresholdGraph, witness: LtfWitness) -> frozenset[int] | None:
    """A vertex set on which the gate and the clique indicator of t differ, or None.

    Non-negative weights make the accepted sets closed under subsets, so the
    gate is exact iff it accepts the maximal cliques (among: the clique side,
    and each independent vertex with the dominating vertices placed after
    it) and rejects each independent vertex paired with the lightest vertex
    placed before it. O(n) big-integer operations.
    """
    w, b = witness.weights, witness.bound
    if witness.arity != t.n or any(a < 0 for a in w):
        raise ValueError("certificate needs one non-negative weight per vertex")
    later_dominating = 0
    for i in range(t.n - 1, -1, -1):
        v, tag = t.creation[i]
        if tag == DOMINATING:
            later_dominating += w[v]
        elif w[v] + later_dominating > b:
            return frozenset([v] + [u for u, s in t.creation[i + 1:] if s == DOMINATING])
    if later_dominating > b:
        return t.split_b
    lightest = None
    for v, tag in t.creation:
        if tag == ISOLATED and lightest is not None and w[v] + w[lightest] <= b:
            return frozenset((v, lightest))
        if lightest is None or w[v] < w[lightest]:
            lightest = v
    return None


def verify_ltf(g: Graph, witness: LtfWitness,
               exhaustive_limit: int = WALK_LIMIT) -> tuple[bool, tuple[int, ...] | None]:
    """Check that the witness accepts exactly the clique vectors of g, by the
    exact check of `_circuit_counterexample` on a one-gate circuit. A gate
    with a negative weight is walked over all 2^n inputs when
    n <= exhaustive_limit and refused above. Returns (ok, counterexample
    vector or None)."""
    if witness.arity != g.n:
        raise ValueError("witness arity does not match graph")
    bad = _circuit_counterexample(g, [witness], walk_limit=exhaustive_limit)
    if bad is None:
        return True, None
    return False, _mask_to_vector(g.n, bad)


def _mask_to_vector(n: int, mask: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


# ---------------------------------------------------------------------------
# exact circuit checking
#
# With non-negative weights, the sets a gate accepts are closed under taking
# subsets, and the pairs it accepts (uv with w_u + w_v <= b) form a threshold
# graph H (Chvatal-Hammer 1977). So the gate accepts only cliques of H, and
# an AND of gates accepts only cliques of the intersection of their H.

def _pair_graph(witness: LtfWitness) -> ThresholdGraph:
    """The threshold graph H of the pairs a non-negative gate accepts.

    A two-pointer peel over the vertices sorted by weight: the heaviest one
    left is isolated among the rest if it fits with nobody, not even the
    lightest; otherwise the lightest fits with the heaviest, so with every
    vertex left, and is dominating. O(n log n).
    """
    w, b = witness.weights, witness.bound
    by_weight = sorted(range(witness.arity), key=w.__getitem__)
    lo, hi = 0, witness.arity - 1
    removals = []
    while lo <= hi:
        light, heavy = by_weight[lo], by_weight[hi]
        if w[light] + w[heavy] > b:
            removals.append((heavy, ISOLATED))
            hi -= 1
        else:
            removals.append((light, DOMINATING))
            lo += 1
    return ThresholdGraph(tuple(reversed(removals)))


def _circuit_counterexample(g: Graph, witnesses: Sequence[LtfWitness],
                            walk_limit: int = WALK_LIMIT) -> int | None:
    """A vertex set, as a mask, on which the AND of the gates and the clique
    indicator of g differ, or None. Exact at any arity for non-negative
    weights, with no input walk:

    (a) each gate is certified against its pair graph H_i by
        `_ltf_counterexample`;
    (b) the AND accepts a pair iff every H_i has it, so a pair on which the
        intersection of the H_i and g differ is a counterexample. This is
        the per-vertex mask check of `verify_decomposition`, O(k*n)
        big-integer operations;
    (c) otherwise the AND accepts only cliques of g, and a gate exact on its
        H_i accepts them all. A gate that rejects a clique S of its H_i is
        wrong iff it rejects a clique of g: S itself if S is one, else the
        heavier-than-the-bound clique that `_heavy_clique` looks for.

    A gate with a negative weight sends the circuit to the Gray-code walk of
    all 2^n inputs, refused with ExactLimitError above `walk_limit` inputs.
    """
    n = g.n
    if any(a < 0 for witness in witnesses for a in witness.weights):
        if n > walk_limit:
            raise ExactLimitError(f"a gate has a negative weight: its circuit is only "
                                  f"checked up to {walk_limit} inputs, not {n}")
        return _gray_counterexample(g, witnesses)
    adjacent = g.adjacency_masks()
    excluded = [0] * n  # non-adjacencies of some H_i
    rejecting = []  # (gate, a clique of its H_i that it rejects)
    for witness in witnesses:
        h = _pair_graph(witness)
        bad = _ltf_counterexample(h, witness)
        if bad is not None:
            rejecting.append((witness, sum(1 << v for v in bad)))
        for v, mask in enumerate(h.nonadjacency_masks()):
            excluded[v] |= mask
    full = (1 << n) - 1
    for u in range(n):
        differ = (adjacent[u] & excluded[u]) | (full & ~adjacent[u] & ~excluded[u] & ~(1 << u))
        if differ:
            return (1 << u) | (differ & -differ)
    order = None
    for witness, clique in rejecting:
        if all(clique & ~adjacent[v] == 1 << v for v in _bits(clique)):
            return clique
        order = order or degeneracy_ordering(g)[1].order
        heavy = _heavy_clique(order, adjacent, witness)
        if heavy is not None:
            return heavy
    return None


def _heavy_clique(order: Sequence[int], adjacent: Sequence[int],
                  witness: LtfWitness) -> int | None:
    """A clique of the graph with these adjacency masks that weighs more than
    the gate's bound, as a mask, or None.

    Branch and bound along a degeneracy order: a clique lies in {v} plus the
    neighbours after v of its first vertex v, so each root branches over at
    most degeneracy-many candidates. A branch is cut when its weight plus
    all its candidates' weight fits under the bound. Refuses with
    ExactLimitError after CLIQUE_SEARCH_NODES nodes.
    """
    w, b = witness.weights, witness.bound
    later = (1 << len(order)) - 1
    nodes = 0
    for root in order:
        later ^= 1 << root
        stack = [(1 << root, w[root], adjacent[root] & later)]
        while stack:
            clique, weight, candidates = stack.pop()
            nodes += 1
            if nodes > CLIQUE_SEARCH_NODES:
                raise ExactLimitError(f"clique search gave up after {CLIQUE_SEARCH_NODES} "
                                      "nodes on a gate that is not exact on its pair graph")
            if weight > b:
                return clique
            if weight + sum(w[v] for v in _bits(candidates)) <= b:
                continue
            for v in _bits(candidates):
                candidates ^= 1 << v
                stack.append((clique | 1 << v, weight + w[v], candidates & adjacent[v]))
    return None


# ---------------------------------------------------------------------------
# Gray-code walk over all inputs, for gates with negative weights
#
# All gate sums are tracked simultaneously by packing one field per gate
# into a single big integer; field g holds bound_g + 2^(W-1) - sum_g, whose
# high bit is set exactly when gate g accepts. Field width W leaves two
# guard bits so no borrow crosses fields.

class _PackedGates:
    def __init__(self, witnesses: Sequence[LtfWitness], arity: int):
        if any(w.arity != arity for w in witnesses):
            raise ValueError("arity mismatch")
        span = 1
        for w in witnesses:
            span = max(span, abs(w.bound), sum(abs(a) for a in w.weights))
        self.width = span.bit_length() + 2
        half = 1 << (self.width - 1)
        self.highmask = 0
        self.base = 0
        self.cols = [0] * arity
        for gi, w in enumerate(witnesses):
            shift = gi * self.width
            self.highmask |= half << shift
            self.base += (w.bound + half) << shift
            for i, a in enumerate(w.weights):
                self.cols[i] += a << shift

    def all_accept(self, packed_sum: int) -> bool:
        return (self.base - packed_sum) & self.highmask == self.highmask


class _CliqueTracker:
    """Incrementally maintained count of non-adjacent pairs inside the support."""

    def __init__(self, g: Graph):
        full = (1 << g.n) - 1
        self.nonadj = [full & ~mask & ~(1 << v) for v, mask in enumerate(g.adjacency_masks())]
        self.support = 0
        self.violations = 0

    def flip(self, v: int) -> None:
        bit = 1 << v
        if self.support & bit:
            self.support ^= bit
            self.violations -= (self.support & self.nonadj[v]).bit_count()
        else:
            self.violations += (self.support & self.nonadj[v]).bit_count()
            self.support ^= bit


def _gray_counterexample(g: Graph, witnesses: Sequence[LtfWitness]) -> int | None:
    """Walk all 2^n inputs in Gray-code order; return a mask where the AND of
    the gates disagrees with the clique indicator, or None."""
    packed = _PackedGates(witnesses, g.n)
    tracker = _CliqueTracker(g)
    total = 0
    if packed.all_accept(total) != (tracker.violations == 0):
        return 0
    gray = 0
    for t in range(1, 1 << g.n):
        bit = (t & -t).bit_length() - 1
        gray ^= 1 << bit
        tracker.flip(bit)
        if gray >> bit & 1:
            total += packed.cols[bit]
        else:
            total -= packed.cols[bit]
        if packed.all_accept(total) != (tracker.violations == 0):
            return gray
    return None


def and_of_gates_counterexample(g: Graph, witnesses: Sequence[LtfWitness],
                                exhaustive: bool = True) -> int | None:
    """The first input mask, in Gray-code order, on which the AND of the gates
    differs from the clique indicator of g, or None: a walk over all 2^n
    inputs. `verify_circuit` does not walk: see `_circuit_counterexample`.
    Only the walk exists: `exhaustive` stays because the benchmark's tracer
    (perfbench/tracer.py) binds it by name, and False is refused."""
    if not exhaustive:
        raise ValueError("sampled checking was removed; verify_circuit is exact")
    return _gray_counterexample(g, witnesses)


# ---------------------------------------------------------------------------
# creation-sequence line format: "ts <n> <v:tag> ... <v:tag>"

def format_threshold(t: ThresholdGraph) -> str:
    tokens = " ".join(f"{v}:{tag}" for v, tag in t.creation)
    return f"ts {t.n} {tokens}".rstrip()


def parse_threshold(line: str) -> ThresholdGraph:
    tokens = line.split()
    if len(tokens) < 2 or tokens[0] != "ts":
        raise ValueError(f"expected 'ts <n> ...', got {line!r}")
    try:
        n = int(tokens[1])
    except ValueError:
        raise ValueError(f"bad vertex count in {line!r}") from None
    body = tokens[2:]
    if len(body) != n:
        raise ValueError(f"expected {n} creation tokens, got {len(body)}")
    creation = []
    for tok in body:
        v_str, _, tag = tok.partition(":")
        if tag not in (ISOLATED, DOMINATING):
            raise ValueError(f"bad creation token {tok!r}")
        creation.append((int(v_str), tag))
    return ThresholdGraph.from_creation(creation)
