"""Threshold graphs: recognition with forbidden-subgraph witnesses, the
guided threshold-supergraph completion, and integer LTF witnesses.

A threshold graph is built by repeatedly adding an isolated or a dominating
vertex; equivalently it has no induced 2K_2, P_4 or C_4, and equivalently
its cliques are exactly the 0-1 solutions of one linear inequality.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import lt
from typing import Iterable, Iterator, Sequence

from .graphs import (ExactLimitError, Graph, ParseError, _bits, degeneracy_ordering,
                     parse_ints, read_lines)

ISOLATED = "i"
DOMINATING = "d"
WALK_LIMIT = 20  # most inputs walked for a circuit with a negative weight
CLIQUE_SEARCH_NODES = 10 ** 6  # branch-and-bound nodes before a refusal


class InternalVerificationError(AssertionError):
    """A construction failed its own verification; indicates a bug, never input error."""


class ThresholdGraph:
    """A threshold graph held as its creation sequence, packed into two arrays.

    Each vertex enters either isolated or dominating (adjacent to everything
    already present), so u and v are adjacent iff the later of the two is
    dominating. `order` is the creation order and `cuts` the ascending
    positions in it of the vertices that enter isolated, both `array('I')`:
    between two cuts lies a run of dominating vertices, and the passes over
    a factor take a run at a time. `split_a` is the independent side in
    creation order, which nests neighborhoods decreasingly
    (N(a_1) >= N(a_2) >= ...); `split_b` is the clique side. The adjacency
    `graph` is only built when asked for. The constructor refuses an `order`
    that is not a permutation of range(n) and `cuts` that do not strictly
    ascend inside [0, n).
    """

    __slots__ = ("order", "cuts", "_graph")

    def __init__(self, order: Sequence[int], cuts: Sequence[int]):
        # checked before any array is built: array('I') would raise
        # OverflowError on a negative or huge value
        n = len(order)
        if set(order) != _vertex_set(n):
            raise ValueError("creation sequence must mention each vertex exactly once")
        if not all(map(lt, cuts, cuts[1:])):
            raise ValueError("cuts must strictly ascend")
        if cuts and (cuts[0] < 0 or cuts[-1] >= n):
            raise ValueError("cuts must lie in [0, n)")
        self.order = array("I", order)
        self.cuts = array("I", cuts)
        self._graph: Graph | None = None

    @classmethod
    def _unchecked(cls, order: Sequence[int], cuts: Sequence[int]) -> ThresholdGraph:
        """The threshold graph of an `order` and `cuts` that are a
        permutation of range(n) and strictly ascending positions in it by
        construction, as the completion and the peels build them: no n-set
        is built to check it."""
        t = cls.__new__(cls)
        t.order = array("I", order)
        t.cuts = array("I", cuts)
        t._graph = None
        return t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThresholdGraph):
            return NotImplemented
        return self.order == other.order and self.cuts == other.cuts

    def __hash__(self) -> int:
        return hash((self.order.tobytes(), self.cuts.tobytes()))

    def __repr__(self) -> str:
        return f"<ThresholdGraph {format_threshold(self)}>"

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def split_a(self) -> tuple[int, ...]:
        return tuple(map(self.order.__getitem__, self.cuts))

    @property
    def split_b(self) -> frozenset[int]:
        return frozenset(self.order).difference(self.split_a)

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            order, isolated = self.order, set(self.cuts)
            self._graph = Graph(self.n, [(v, u) for p, v in enumerate(order)
                                         if p not in isolated for u in order[:p]])
        return self._graph


@lru_cache(maxsize=1)
def _vertex_set(n: int) -> frozenset[int]:
    """{0, ..., n-1}, kept for the last n only: the factors of one
    decomposition share it."""
    return frozenset(range(n))


def _isolated_prefixes(t: ThresholdGraph) -> Iterator[tuple[int, int]]:
    """(w, mask of the vertices placed before w) for each isolated w, in
    creation order. The later of two vertices decides their adjacency, so
    t's non-edges are exactly the pairs {w} x prefix(w). Each prefix is the
    one before it plus the previous isolated vertex and the run after it,
    ORed in a bit at a time. While no mask is built yet, a cut past n/2
    takes its prefix as the complement of the shorter side, the vertices
    from the cut on: degeneracy and treewidth factors place most vertices
    before their first cut."""
    order, n = t.order, t.n

    def mask(run: Sequence[int]) -> int:
        m = 0
        for v in run:
            m |= 1 << v
        return m

    placed = start = 0
    for c in t.cuts:
        if not start and 2 * c > n:
            placed = ((1 << n) - 1) ^ mask(order[c:])
        else:
            placed |= mask(order[start:c])
        yield order[c], placed
        start = c


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

    Removing a universal vertex lowers every live degree by one, and
    removing an isolated one lowers none, so a live vertex's degree is its
    degree in g minus the number of universal vertices removed so far. The
    peel therefore buckets the vertices once by their degree in g: the
    universal ones are a bucket, the isolated ones another, and each bucket
    gives up its vertices smallest first. O(n) beyond the witness.
    """
    n = g.n
    by_degree: list[list[int]] = [[] for _ in range(n)]
    for v in reversed(range(n)):
        by_degree[len(g.adj[v])].append(v)  # descending, so pop() is the smallest
    universal_removed = 0
    removed: list[int] = []
    isolated_at: list[int] = []  # indices into `removed`
    for live in range(n, 0, -1):
        universal = by_degree[live - 1 + universal_removed]
        isolated = by_degree[universal_removed]
        if universal:
            removed.append(universal.pop())
            universal_removed += 1
        elif isolated:
            isolated_at.append(len(removed))
            removed.append(isolated.pop())
        else:
            return _forbidden_witness(g, set().union(*by_degree))
    return _reversed_removals(removed, isolated_at)


def _reversed_removals(removed: list[int], isolated_at: list[int]) -> ThresholdGraph:
    """The threshold graph built by adding back, last removed first, the
    vertices a peel removed, those at the indices `isolated_at` isolated."""
    last = len(removed) - 1
    return ThresholdGraph._unchecked(removed[::-1], [last - i for i in reversed(isolated_at)])


def _forbidden_witness(g: Graph, remaining: set[int]) -> ForbiddenSubgraph:
    """A forbidden 4-set inside the remainder on which peeling got stuck,
    where every one of g's lies (a 2K_2, P_4 or C_4 has no vertex isolated
    or dominating in it). The remainder is not threshold, so it has u~x,
    v~y with x not adjacent to v and y not adjacent to u: a witness."""
    live = sorted(remaining)
    for u in live:
        nu = g.adj[u] & remaining
        for v in live:
            if v == u:
                continue
            nv = g.adj[v] & remaining
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

def _check_a_order(g: Graph, a_order: Sequence[int]) -> None:
    """Refuse (ValueError) an a_order that repeats a vertex, leaves
    range(g.n) or is not independent in g. An edge inside it is named at its
    endpoint that comes first in a_order, with the earliest other endpoint."""
    members = set(a_order)
    if len(members) != len(a_order):
        raise ValueError("a_order contains duplicates")
    if a_order and (min(a_order) < 0 or max(a_order) >= g.n):
        raise ValueError("a_order vertex out of range")
    for u in a_order:
        hood = g.adj[u]
        if not members.isdisjoint(hood):  # walks the smaller of the two
            position = dict(zip(a_order, range(len(a_order))))
            v = min(members & hood, key=position.__getitem__)
            raise ValueError(f"a_order is not independent: edge ({u},{v})")


def threshold_supergraph(g: Graph, a_order: Sequence[int]) -> ThresholdGraph:
    """Complete g into a threshold supergraph guided by an ordered independent set.

    With A = a_order = (u_1, ..., u_k) independent in g and B the rest, the
    result makes B a clique and attaches each v in B to exactly the prefix
    u_1..u_{s(v)}, where s(v) is the position of v's last neighbor inside A
    (0 when v has no neighbor in A). The output always contains g. An
    a_order that `_check_a_order` refuses raises ValueError.
    """
    a_order = tuple(a_order)
    _check_a_order(g, a_order)
    # order: B grouped by s(v) ascending, vertices ascending inside a
    # group, each u_j entering isolated right after the B-vertices it must
    # not see. Walking A backwards, u_j's group is its neighbours that no
    # later u sees; group 0, the B-vertices that see none of A, is what A
    # and the groups leave of V.
    seen: set[int] = set()
    runs = []
    for u in reversed(a_order):
        run = g.adj[u].difference(seen)
        seen |= run
        runs.append(sorted(run))
    order = sorted(_vertex_set(g.n).difference(a_order, seen))
    cuts = []
    for u, run in zip(a_order, reversed(runs)):
        cuts.append(len(order))
        order.append(u)
        order += run
    return ThresholdGraph._unchecked(order, cuts)


# ---------------------------------------------------------------------------
# intersections of threshold graphs

class _Intersection:
    """The one check that factors intersect to g, kept open: factors are
    added a list at a time, the first maybe on construction, and `mismatch`
    names the first pair (u, w), u < w, on which the intersection of every
    factor added so far differs from g, with the index of the factor at
    fault, or None. That is the smallest edge of g that the earliest
    factor dropping one drops, with that factor's index; else the smallest
    non-edge of g that every factor keeps, with index None.

    Walks only each factor's isolated vertices, once (`_isolated_prefixes`):
    a factor drops an edge iff an isolated w has a g-neighbour in
    prefix(w), and it excludes the pairs {w} x prefix(w), recorded in
    `excluded[w]`: one AND and one OR per isolated vertex. Once an edge is
    dropped, the earliest factor that drops one is the answer for good, and
    no later factor is walked. `prune` adds instead a greedy subcover of
    the completions along a list of orders, completing only its picks.

    A non-edge (u, w), u < w, not excluded in u's row costs a test of bit u
    in w's row. Rows only grow, so the scan starts at the first row that
    still held a surviving non-edge the last time (`clear`). Once its tests
    would outnumber the vertices of the factors not yet swept, as for an
    all-isolated factor in ascending order, a backward sweep of each of
    them records each pair at its earlier-placed end too, and the scan goes
    on from the row it reached.
    """

    __slots__ = ("g", "factors", "adjacent", "excluded", "unswept", "dropped", "clear")

    def __init__(self, g: Graph, factors: Sequence[ThresholdGraph] = ()):
        self.g = g
        self.factors: list[ThresholdGraph] = []  # every factor added
        self.adjacent = g.adjacency_masks()
        self.excluded = [0] * g.n  # each pair some factor excludes is held at one end at least
        self.unswept: list[ThresholdGraph] = []  # walked, not yet swept backward
        self.dropped: tuple[tuple[int, int], int] | None = None
        self.clear = 0  # the rows before it hold no surviving non-edge
        self.add(factors)

    def add(self, factors: Sequence[ThresholdGraph]) -> None:
        start = len(self.factors)
        for idx, f in enumerate(factors, start):
            if f.n != self.g.n:
                raise ValueError(f"factor {idx} lives on {f.n} vertices, graph on {self.g.n}")
        self.factors += factors
        for idx, f in enumerate(factors, start):
            if self.dropped is not None:
                break
            self.unswept.append(f)
            self._walk(f, idx)

    def prune(self, orders: Sequence[Sequence[int]]) -> list[ThresholdGraph]:
        """Add a greedy subcover of the completions of g along `orders`
        (`threshold_supergraph`), each an ordered independent set of g, to
        this check, which holds no factor yet, and return it: the
        completions picked, in input order. Completions contain g, so they
        intersect to g iff together they exclude every non-edge of g.

        An order is scored without completing it: its completion excludes
        {a_j} x prefix(a_j) for each a_j, and prefix(a_j) is V minus
        N[a_j] | ... | N[a_k], the vertices placed from a_j on. So its gain,
        the non-edges it excludes that no pick does, is `_gain` against
        `excluded`, where each pick is recorded at both ends. The pick is
        the lazy greedy of set cover (Chvatal 1979, Minoux 1978): gains only
        fall, so a stale one is recomputed when it reaches the top of the
        heap; ties go to the order listed first, so of two equal orders only
        the first can be picked. Only a pick is completed: one walk tests it
        for a dropped edge and records its pairs, and a backward sweep
        records them at their other end. `excluded` then holds the picks
        alone, and `mismatch` checks them by its own exact scan.

        The greedy stops once every non-edge is excluded, once no order
        gains (the picks then exclude every pair the whole list does, and
        `mismatch` names a non-edge they keep), or at a pick that drops an
        edge (`mismatch` names it). With no pick, the first order's
        completion is kept.
        """
        g, excluded = self.g, self.excluded
        closed = [mask | 1 << v for v, mask in enumerate(self.adjacent)]
        picks: dict[int, ThresholdGraph] = {}

        def pick(i: int) -> None:
            f = picks[i] = threshold_supergraph(g, orders[i])
            self._walk(f, i)
            self._sweep([f])

        remaining = g.n * (g.n - 1) // 2 - g.m  # the non-edges no pick excludes
        heap = [(-_gain(order, closed, excluded), i) for i, order in enumerate(orders)]
        heapify(heap)
        while remaining and heap and self.dropped is None:
            _, i = heappop(heap)
            current = _gain(orders[i], closed, excluded)
            if heap and (-current, i) > heap[0]:
                heappush(heap, (-current, i))
                continue
            if not current:
                break
            pick(i)
            remaining -= current
        if not picks and orders:
            pick(0)
        kept = sorted(picks)
        if self.dropped is not None:  # indexed by order; the factors are the picks
            pair, i = self.dropped
            self.dropped = pair, kept.index(i)
        self.factors = [picks[i] for i in kept]
        return self.factors

    def _walk(self, f: ThresholdGraph, idx: int) -> None:
        """Record f's pairs at their later end: OR each prefix(w), by
        `_isolated_prefixes`, into excluded[w]. The smallest edge of g that
        f drops, if any, is then recorded as dropped by the factor at index
        idx."""
        adjacent, excluded = self.adjacent, self.excluded
        first = None
        for w, prefix in _isolated_prefixes(f):
            dropped = prefix & adjacent[w]
            if dropped:
                x = (dropped & -dropped).bit_length() - 1
                pair = (x, w) if x < w else (w, x)
                first = pair if first is None else min(first, pair)
            excluded[w] |= prefix
        if first is not None:
            self.dropped = first, idx

    def mismatch(self) -> tuple[tuple[int, int], int | None] | None:
        if self.dropped is not None:
            return self.dropped
        n, adjacent, excluded = self.g.n, self.adjacent, self.excluded
        full = (1 << n) - 1

        def candidates(u: int) -> int:  # the non-neighbours w > u not excluded at u, as bits w-u-1
            return (full & ~(adjacent[u] | excluded[u])) >> u + 1

        tests = 0
        for u in range(self.clear, n):
            rest = candidates(u)
            tests += rest.bit_count()
            if self.unswept and tests > n * len(self.unswept):
                self._sweep(self.unswept)
                self.unswept = []
                rest = candidates(u)
            while rest:
                low = rest & -rest
                w = u + low.bit_length()
                if not excluded[w] >> u & 1:
                    self.clear = u
                    return (u, w), None
                rest ^= low
        self.clear = n
        return None

    def _sweep(self, factors: Iterable[ThresholdGraph]) -> None:
        """Record each pair that one of `factors` excludes at its
        earlier-placed end too: every vertex gets the isolated vertices
        placed after it, by one backward sweep that stops at the last cut,
        as no isolated vertex comes after it."""
        excluded = self.excluded
        for f in factors:
            order, later, end = f.order, 0, f.n
            for c in reversed(f.cuts):
                if later:
                    for v in order[c:end]:  # the isolated vertex at c and the run after it
                        excluded[v] |= later
                later |= 1 << order[c]
                end = c
            for v in order[:end]:
                excluded[v] |= later


def _gain(order: Sequence[int], closed: Sequence[int], excluded: Sequence[int]) -> int:
    """The pairs that the completion along `order` excludes and `excluded`
    does not hold at their isolated end: the sum over j of
    n - popcount(E_j | excluded[a_j]), with E_j = closed[a_j] | ... |
    closed[a_k], closed[v] the mask of N[v] and n = len(closed)."""
    n = len(closed)
    total = reach = 0
    for a in reversed(order):
        reach |= closed[a]
        total += n - (reach | excluded[a]).bit_count()
    return total


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


def extract_ltf(t: ThresholdGraph) -> LtfWitness:
    """Integer LTF weights for a threshold graph by levels.

    Level s holds the dominating vertices with s of the k isolated vertices
    placed before them, and c_s is the total weight at levels >= s. A
    vertex at level s < k weighs c_{s+1} + 1, more than all the dominating
    vertices after it, and one at the top level weighs 0; the j-th isolated
    vertex weighs T - c_j, so it fits with exactly the dominating vertices
    placed after it, and the bound T = max(c_0, c_1 + c_2 + 1) keeps any
    two isolated vertices apart. A level's vertices share one int object.
    Weights can still double per level, so they need arbitrary precision.
    The witness is certified exactly before being returned.
    """
    order, cuts = t.order, t.cuts
    n, k = len(order), len(cuts)
    weights = [0] * n  # the top level, after the last cut, weighs 0
    above = [0] * (k + 3)  # above[s] = c_s; 0 from the top level k on
    for s in range(k - 1, -1, -1):  # level s is order[start:cuts[s]]
        start = cuts[s - 1] + 1 if s else 0
        level = above[s + 1] + 1
        for v in order[start:cuts[s]]:
            weights[v] = level
        above[s] = above[s + 1] + (cuts[s] - start) * level
    bound = max(above[0], above[1] + above[2] + 1)
    for s, c in enumerate(cuts):
        weights[order[c]] = bound - above[s + 1]
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
    order, cuts = t.order, t.cuts
    if witness.arity != len(order) or min(w, default=0) < 0:
        raise ValueError("certificate needs one non-negative weight per vertex")
    placed = list(map(w.__getitem__, order))  # the weights in creation order
    later_dominating = 0
    end = len(order)
    for j in range(len(cuts) - 1, -1, -1):
        c = cuts[j]
        later_dominating += sum(placed[c + 1:end])
        if placed[c] + later_dominating > b:
            return frozenset(order[c:]).difference(map(order.__getitem__, cuts[j + 1:]))
        end = c
    if later_dominating + sum(placed[:end]) > b:
        return t.split_b
    lightest = None  # the position of the first of the lightest vertices so far
    start = 0
    for c in cuts:
        if c > start:  # the isolated vertex before c, if any, and the run up to c
            low = min(placed[start:c])
            if lightest is None or low < placed[lightest]:
                lightest = placed.index(low, start, c)
        if lightest is not None and placed[c] + placed[lightest] <= b:
            return frozenset((order[c], order[lightest]))
        start = c
    return None


def verify_ltf(g: Graph, witness: LtfWitness,
               exhaustive_limit: int = WALK_LIMIT) -> tuple[int, ...] | None:
    """Check that the witness accepts exactly the clique vectors of g, by the
    exact check of `_circuit_counterexample` on a one-gate circuit. A gate
    with a negative weight is walked over all 2^n inputs when
    n <= exhaustive_limit and refused above. Returns the vertices of a
    counterexample, ascending, or None."""
    if witness.arity != g.n:
        raise ValueError("witness arity does not match graph")
    bad = _circuit_counterexample(g, [witness], walk_limit=exhaustive_limit)
    return None if bad is None else tuple(_bits(bad))


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
    removed: list[int] = []
    isolated_at: list[int] = []
    while lo <= hi:
        light, heavy = by_weight[lo], by_weight[hi]
        if w[light] + w[heavy] > b:
            isolated_at.append(len(removed))
            removed.append(heavy)
            hi -= 1
        else:
            removed.append(light)
            lo += 1
    return _reversed_removals(removed, isolated_at)


def _circuit_counterexample(g: Graph, witnesses: Sequence[LtfWitness],
                            walk_limit: int = WALK_LIMIT) -> int | None:
    """A vertex set, as a mask, on which the AND of the gates and the clique
    indicator of g differ, or None. Exact at any arity for non-negative
    weights, with no input walk:

    (a) each gate is certified against its pair graph H_i by
        `_ltf_counterexample`;
    (b) the AND accepts a pair iff every H_i has it, so the pair that
        `_Intersection.mismatch` names, as `verify_decomposition` does for a
        decomposition's factors, is a counterexample;
    (c) otherwise the AND accepts only cliques of g, and a gate exact on its
        H_i accepts them all. A gate that rejects a clique S of its H_i is
        wrong iff it rejects a clique of g: S itself if S is one, else the
        heavier-than-the-bound clique that `_heavy_clique` looks for.

    A gate with a negative weight sends the circuit to the Gray-code walk of
    all 2^n inputs, refused with ExactLimitError above `walk_limit` inputs.
    A repeated gate is checked at each place: an AND is idempotent, so it
    changes neither the first failing pair nor the first failing gate.
    """
    n = g.n
    if any(min(witness.weights, default=0) < 0 for witness in witnesses):
        if n > walk_limit:
            raise ExactLimitError(f"a gate has a negative weight: its circuit is only "
                                  f"checked up to {walk_limit} inputs, not {n}")
        return _gray_counterexample(g, witnesses)
    pair_graphs = [_pair_graph(witness) for witness in witnesses]
    check = _Intersection(g, pair_graphs)
    mismatch = check.mismatch()
    if mismatch is not None:
        (u, w), _ = mismatch
        return 1 << u | 1 << w
    adjacent, order = check.adjacent, None
    for witness, h in zip(witnesses, pair_graphs):
        bad = _ltf_counterexample(h, witness)
        if bad is None:
            continue
        clique = sum(1 << v for v in bad)
        if all(clique & ~adjacent[v] == 1 << v for v in _bits(clique)):
            return clique
        order = order or degeneracy_ordering(g)[1]
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

def _gray_counterexample(g: Graph, witnesses: Sequence[LtfWitness]) -> int | None:
    """Walk all 2^n inputs in Gray-code order; return a mask where the AND of
    the gates disagrees with the clique indicator, or None.

    All gate sums are tracked at once in one big integer, one field per
    gate: field i holds bound_i + 2^(W-1) - sum_i, whose high bit is set
    exactly when gate i accepts. W is two bits more than the largest |bound|
    or total |weight| needs, as bound_i - sum_i can reach twice that, so no
    carry or borrow crosses fields. Beside it the walk counts the
    non-adjacent pairs inside the input, which is a clique iff the count is 0.
    """
    n = g.n
    if any(w.arity != n for w in witnesses):
        raise ValueError("arity mismatch")
    span = max([1] + [max(abs(w.bound), sum(map(abs, w.weights))) for w in witnesses])
    width = span.bit_length() + 2
    half = 1 << width - 1
    high = packed = 0
    cols = [0] * n  # input v's weight in every field
    for i, w in enumerate(witnesses):
        shift = i * width
        high |= half << shift
        packed += (w.bound + half) << shift
        for v, a in enumerate(w.weights):
            cols[v] += a << shift
    full = (1 << n) - 1
    nonadjacent = [full & ~(mask | 1 << v) for v, mask in enumerate(g.adjacency_masks())]
    if packed & high != high:  # the empty input is a clique
        return 0
    gray = violations = 0  # the input, and the non-adjacent pairs inside it
    for t in range(1, 1 << n):
        v = (t & -t).bit_length() - 1
        gray ^= 1 << v
        if gray >> v & 1:
            packed -= cols[v]
            violations += (gray & nonadjacent[v]).bit_count()
        else:
            packed += cols[v]
            violations -= (gray & nonadjacent[v]).bit_count()
        if (packed & high == high) != (not violations):
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

@lru_cache(maxsize=1)
def _dominating_tokens(n: int) -> tuple[str, ...]:
    """The token "v:d" of every vertex v < n, kept for the last n only:
    the factors of one decomposition share it."""
    return tuple(f"{v}:{DOMINATING}" for v in range(n))


def format_threshold(t: ThresholdGraph) -> str:
    tokens = list(map(_dominating_tokens(t.n).__getitem__, t.order))
    for c in t.cuts:
        tokens[c] = f"{t.order[c]}:{ISOLATED}"
    return " ".join(["ts", str(t.n), *tokens])


def parse_threshold(line: str) -> ThresholdGraph:
    """Read a creation sequence from its `ts` line, comment aside."""
    return _threshold_from_tokens(1, [tok for _, tokens in read_lines(line) for tok in tokens])


def _threshold_from_tokens(line_no: int, tokens: list[str]) -> ThresholdGraph:
    """The creation sequence of the `ts` line `line_no`, split into tokens."""
    if len(tokens) < 2 or tokens[0] != "ts":
        raise ParseError(line_no, f"expected 'ts <n> ...', got {' '.join(tokens[:2])!r}")
    n, = parse_ints(line_no, tokens[1:2])
    body = tokens[2:]
    if len(body) != n:
        raise ParseError(line_no, f"expected {n} creation tokens, got {len(body)}")
    order, cuts = [], []
    for i, tok in enumerate(body):
        v_str, _, tag = tok.partition(":")
        if tag == ISOLATED:
            cuts.append(i)
        elif tag != DOMINATING:
            raise ValueError(f"bad creation token {tok!r}")
        order.append(v_str)
    return ThresholdGraph(parse_ints(line_no, order), cuts)
