"""Constructive decompositions of a graph into intersections of threshold
graphs: by vertex cover, by degeneracy (randomized colorings, redrawn until
their class completions intersect to the graph), and by tree decomposition.

Degeneracy and treewidth list guiding orders, ordered independent sets whose
completions (`threshold_supergraph`) intersect to the input, and `_finish`
keeps a greedy subcover of those completions (`_Intersection.prune`).
Every method returns a Decomposition whose factors provably intersect to the
input graph; verification runs before the result is handed back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .graphs import (INDEPENDENT_SET_LIMIT, Graph, ParseError, color_classes, degeneracy_ordering,
                     max_independent_set, parse_ints, read_lines)
from .seeding import split_seed
from .threshold import (ThresholdGraph, _Intersection, _threshold_from_tokens, format_threshold,
                        threshold_supergraph)
from .treedecomp import TreeDecomposition, validate_tree_decomposition

METHODS = ("vertex-cover", "degeneracy", "treewidth", "maxdeg", "exact", "manual")
RESAMPLES = 64  # seeded draws of the degeneracy family search before it gives up


class RandomizedSearchError(RuntimeError):
    """A verified randomized construction exhausted its retry budget."""

    def __init__(self, message: str, stats: dict):
        super().__init__(f"{message} ({stats})")
        self.stats = stats


@dataclass(frozen=True)
class Decomposition:
    """An ordered list of threshold supergraphs whose intersection is the input."""

    factors: tuple[ThresholdGraph, ...]
    method: str
    bound_claimed: int
    # the graph the factors were checked against; set by `_finish` alone
    verified_for: Graph | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not self.factors:
            raise ValueError("a decomposition needs at least one factor")

    @property
    def verified(self) -> bool:
        return self.verified_for is not None

    @property
    def size(self) -> int:
        return len(self.factors)


def verify_decomposition(g: Graph, d: Decomposition) -> tuple[tuple[int, int], int | None] | None:
    """Check that every factor contains g and their edge intersection equals g,
    by `_Intersection`, the same check `thdim verify` runs on the pair
    graphs of a circuit's gates.

    Returns None, or the pair the check names with a factor index: an edge
    of g dropped by the earliest factor that drops one (with that factor's
    index), else a non-edge of g present in every factor (index None).
    """
    return _Intersection(g, d.factors).mismatch()


def _finish(g: Graph, method: str, bound: int, check: _Intersection,
            orders: Sequence[Sequence[int]] | None = None) -> Decomposition:
    """The decomposition of g by the factors of `check`, an intersection
    check for g, marked verified for g: the one place that sets
    `verified_for`. Given guiding `orders`, the factors are the greedy
    subcover of their completions that `check.prune` picks, in place of
    whatever the check held. Any mismatch is a construction bug:
    AssertionError."""
    if orders is not None:
        check.prune(orders)
    mismatch = check.mismatch()
    if mismatch is not None:
        pair, idx = mismatch
        what = ("a non-edge survives every factor" if idx is None
                else f"factor {idx} drops an edge of the graph")
        raise AssertionError(f"{method} construction failed verification: {what}: {pair}")
    d = Decomposition(factors=tuple(check.factors), method=method, bound_claimed=bound)
    object.__setattr__(d, "verified_for", g)
    return d


# ---------------------------------------------------------------------------
# vertex cover method

def decompose_vertex_cover(g: Graph) -> Decomposition:
    """At most |cover| factors: one per vertex of a cover, a minimum one (the
    complement of a maximum independent set) up to INDEPENDENT_SET_LIMIT
    vertices, and the endpoints of a greedy maximal matching, at most twice
    the minimum, beyond.
    The first b-1 cover vertices each guide a completion with themselves as
    the singleton independent side; the last one uses the whole independent
    remainder, ordered with its neighbors first so exactly they survive.
    An edgeless graph yields the single factor guided by all of V.
    """
    if g.n <= INDEPENDENT_SET_LIMIT:
        cover_set = set(range(g.n)) - max_independent_set(g)
    else:
        cover_set = set()
        for u, v in g.edges():
            if u not in cover_set and v not in cover_set:
                cover_set.update((u, v))
    cover = sorted(cover_set)
    if g.m == 0:
        factor = threshold_supergraph(g, list(range(g.n)))
        return _finish(g, "vertex-cover", 1, _Intersection(g, [factor]))
    rest = [v for v in range(g.n) if v not in cover_set]
    factors = [threshold_supergraph(g, [v]) for v in cover[:-1]]
    last = cover[-1]
    ordered = ([v for v in rest if g.has_edge(last, v)]
               + [v for v in rest if not g.has_edge(last, v)])
    factors.append(threshold_supergraph(g, ordered))
    return _finish(g, "vertex-cover", len(cover), _Intersection(g, factors))


# ---------------------------------------------------------------------------
# degeneracy method

@dataclass(frozen=True)
class SeparatingColoringFamily:
    """Proper colorings, each a tuple of the vertices' colors, whose
    per-color-class threshold completions intersect to the graph, the
    shortest such prefix of a seeded draw; `decomposition` holds a greedy
    subcover of those completions, verified."""

    colorings: tuple[tuple[int, ...], ...]
    decomposition: Decomposition = field(compare=False, repr=False)


def _sample_coloring(forward: Sequence[Sequence[int]], k: int, order: Sequence[int],
                     rng: random.Random) -> tuple[int, ...]:
    """Color backwards along the order, avoiding the colors of each vertex's
    forward neighbors (`forward[v]`, its neighbors after it in the order);
    with palette 10k at least 9k choices always remain. The free color is
    drawn by its index, as `choice` would draw it from their list."""
    palette = 10 * k
    colors = [-1] * len(forward)
    for v in reversed(order):
        banned = sorted({colors[u] for u in forward[v]})
        c = rng.randrange(palette - len(banned))
        for b in banned:
            if b > c:
                break
            c += 1
        colors[v] = c
    return tuple(colors)


def build_separating_colorings(g: Graph, seed: int = 0) -> SeparatingColoringFamily:
    """Las Vegas construction of at most ceil(ln n) colorings, palette 10k
    along a degeneracy ordering of the k-degenerate g, whose class
    completions intersect to g, as a separating family's always do.

    An attempt draws up to ceil(ln n) colorings from its seeded stream one
    at a time. Each non-empty color class, ordered by the degeneracy
    ordering, is a guiding order, and one resumable intersection check
    records the pairs its completion excludes without building it
    (`_Intersection.record`). The attempt stops at the first coloring
    after which no non-edge of g survives. Every prefix of a failed attempt
    fails too, so the attempt accepted is the one a whole-family check
    accepts, cut to its shortest accepted prefix. The same check is then
    cleared, and `_finish` keeps a greedy subcover of the completions along
    every class order of the family: only those are built, and a
    completion that drops an edge of g, a bug, raises AssertionError there.
    Resamples with an incremented seed up to RESAMPLES times, then raises
    RandomizedSearchError, so no family is longer than ceil(ln n).
    """
    if g.n < 2:
        raise ValueError("degeneracy decomposition needs at least 2 vertices")
    k, order = degeneracy_ordering(g)
    k = max(k, 1)  # palette 10k must be non-empty even for edgeless inputs
    r = math.ceil(math.log(g.n))
    pos = sorted(range(g.n), key=order.__getitem__)
    forward = [[u for u in g.adj[v] if pos[u] > pos[v]] for v in range(g.n)]
    family: list[tuple[int, ...]] = []
    for attempt in range(RESAMPLES):
        rng = random.Random(split_seed(seed + attempt, "separating"))
        family, orders, check = [], [], _Intersection(g)
        while len(family) < r:
            family.append(_sample_coloring(forward, k, order, rng))
            for cls in color_classes(family[-1]):
                if cls:
                    cls.sort(key=pos.__getitem__)
                    check.record(cls)
                    orders.append(cls)
            if check.mismatch() is None:
                return SeparatingColoringFamily(
                    tuple(family), _finish(g, "degeneracy", 10 * k * r, check, orders))
    raise RandomizedSearchError(
        "separating coloring family not found",
        {"resamples": RESAMPLES, "final_size": len(family)})


def decompose_degeneracy(g: Graph, seed: int = 0) -> Decomposition:
    """A greedy subcover of the completions along the (coloring, non-empty
    color class) orders of the family `build_separating_colorings(g, seed)`
    accepts: each class is the independent side of its completion, ordered
    by the degeneracy ordering. A class that recurs in the family excludes
    no new pair, so it is kept at most once. At most 10k*ceil(ln n)
    factors for a k-degenerate graph, verified once, on the check that
    picked them."""
    return build_separating_colorings(g, seed).decomposition


# ---------------------------------------------------------------------------
# treewidth method

def treewidth_ordering(td: TreeDecomposition) -> tuple[tuple[int, ...], list[int]]:
    """The vertex ordering, a tuple, and the bag-distinct coloring, each
    vertex's color (at most width+1 colors), from one depth-first walk of
    the bags, children in ascending order.

    A vertex's bags form a subtree, so the first bag of the preorder that
    holds it is its anchor, the one nearest the root. There the vertex joins
    the ordering (a bag's newcomers in ascending order) and takes the least
    color unused in the bag; its colored co-inhabitants live in every bag
    between their anchors and here, so every bag's colors stay distinct.
    """
    colors = [-1] * td.n
    order, stack, seen = [], [td.root], {td.root}
    while stack:
        i = stack.pop()
        bag = sorted(td.bags[i])
        colored = [colors[v] for v in bag if colors[v] >= 0]
        used = set(colored)
        if len(used) != len(colored):
            raise AssertionError("bag coloring failed to separate a bag")
        for v in bag:
            if colors[v] < 0:
                c = 0
                while c in used:
                    c += 1
                colors[v] = c
                used.add(c)
                order.append(v)
        for j in sorted(td.tree[i], reverse=True):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return tuple(order), colors


def decompose_treewidth(g: Graph, td: TreeDecomposition) -> Decomposition:
    """A greedy subcover of two completions per color class of the
    bag-distinct coloring, one along the preorder-derived ordering and one
    along its reverse; a one-vertex class reads the same both ways and
    gives one. At most 2*(width+1) factors in total."""
    if g.n == 0:
        raise ValueError("treewidth decomposition needs at least 1 vertex")
    validate_tree_decomposition(td, g)
    order, colors = treewidth_ordering(td)
    pos = sorted(range(g.n), key=order.__getitem__)
    orders = []
    for cls in color_classes(colors):  # a vertex's color is the least unused: none is empty
        cls.sort(key=pos.__getitem__)
        orders.append(cls)
        if len(cls) > 1:
            orders.append(cls[::-1])
    return _finish(g, "treewidth", 2 * (td.width + 1), _Intersection(g), orders)


# ---------------------------------------------------------------------------
# serialization: "td-decomp <method> <k>" + one creation-sequence line per factor

def decomposition_lines(d: Decomposition) -> Iterator[str]:
    """The lines of the decomposition file, each with its newline: the
    header, then one creation-sequence line per listed factor."""
    yield f"td-decomp {d.method} {d.size}\n"
    for f in d.factors:
        yield format_threshold(f) + "\n"


def format_decomposition(d: Decomposition) -> str:
    return "".join(decomposition_lines(d))


def parse_decomposition(text: str | Iterable[str]) -> Decomposition:
    """Read a decomposition one line at a time."""
    lines = read_lines(text)
    header_no, head = next(lines, (1, [""]))
    if len(head) != 3 or head[0] != "td-decomp":
        raise ParseError(header_no, f"expected 'td-decomp <method> <k>', got {' '.join(head)!r}")
    if head[1] not in METHODS:
        raise ParseError(header_no, f"unknown method {head[1]!r}")
    count, = parse_ints(header_no, head[2:])
    factors = tuple(_threshold_from_tokens(*line) for line in lines)
    if len(factors) != count:
        raise ParseError(header_no, f"header promised {count} factors, found {len(factors)}")
    return Decomposition(factors=factors, method=head[1], bound_claimed=count)
