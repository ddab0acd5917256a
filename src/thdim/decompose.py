"""Constructive decompositions of a graph into intersections of threshold
graphs: by vertex cover, by degeneracy (randomized separating colorings with
explicit verification), and by tree decomposition.

Every method returns a Decomposition whose factors provably intersect to the
input graph; verification runs before the result is handed back.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .graphs import Graph, ProperColoring, VertexOrdering, degeneracy_ordering
from .seeding import split_seed
from .threshold import ThresholdGraph, format_threshold, parse_threshold, threshold_supergraph
from .treedecomp import TreeDecomposition, validate_tree_decomposition

METHODS = ("vertex-cover", "degeneracy", "treewidth", "maxdeg", "exact", "manual")


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


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: str = ""
    pair: tuple[int, int] | None = None
    factor_index: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(g: Graph, d: Decomposition) -> VerificationResult:
    """Check that every factor contains g and their edge intersection equals g.

    Works on per-vertex bitmasks: a factor contains g iff no vertex has a
    g-neighbour among its non-neighbours in the factor, and the intersection
    equals g iff every non-edge of g is a non-adjacency of some factor.
    On failure reports the first offending pair in lexicographic order:
    either an edge of g missing from some factor (with its index), or a
    non-edge of g present in every factor (factor_index None).
    """
    for idx, f in enumerate(d.factors):
        if f.n != g.n:
            raise ValueError(f"factor {idx} lives on {f.n} vertices, graph on {g.n}")
    adjacent = g.adjacency_masks()
    excluded = [0] * g.n  # non-adjacencies of some factor
    for idx, f in enumerate(d.factors):
        nonadj = f.nonadjacency_masks()
        missing = [nonadj[v] & adjacent[v] for v in range(g.n)]
        pair = _first_pair(missing)
        if pair is not None:
            return VerificationResult(False, "factor drops an edge of the graph",
                                      pair=pair, factor_index=idx)
        for v in range(g.n):
            excluded[v] |= nonadj[v]
    full = (1 << g.n) - 1
    surviving = [full & ~adjacent[v] & ~excluded[v] & ~(1 << v) for v in range(g.n)]
    pair = _first_pair(surviving)
    if pair is not None:
        return VerificationResult(False, "a non-edge survives every factor", pair=pair)
    return VerificationResult(True)


def _first_pair(masks: Sequence[int]) -> tuple[int, int] | None:
    """The lexicographically first pair (u, w), u < w, with w in masks[u], for
    symmetric masks: the smallest u whose mask is non-empty, and its lowest bit."""
    for u, mask in enumerate(masks):
        if mask:
            return (u, (mask & -mask).bit_length() - 1)
    return None


def _finish(g: Graph, factors: Sequence[ThresholdGraph], method: str,
            bound: int) -> Decomposition:
    d = Decomposition(factors=tuple(factors), method=method, bound_claimed=bound)
    result = verify_decomposition(g, d)
    if not result:
        raise AssertionError(f"{method} construction failed verification: {result}")
    object.__setattr__(d, "verified_for", g)
    return d


# ---------------------------------------------------------------------------
# vertex cover method

def decompose_vertex_cover(g: Graph, cover: Iterable[int]) -> Decomposition:
    """At most |cover| factors: one per cover vertex.

    The first b-1 cover vertices each guide a completion with themselves as
    the singleton independent side; the last one uses the whole independent
    remainder, ordered with its neighbors first so exactly they survive.
    An edgeless graph yields the single factor guided by all of V.
    """
    cover = sorted(set(cover))
    for u, v in g.edges():
        if u not in cover and v not in cover:
            raise ValueError(f"not a vertex cover: edge ({u},{v}) uncovered")
    if g.m == 0:
        factor = threshold_supergraph(g, list(range(g.n)))
        return _finish(g, [factor], "vertex-cover", bound=1)
    if not cover:
        raise ValueError("a graph with edges needs a non-empty cover")
    cover_set = set(cover)
    rest = [v for v in range(g.n) if v not in cover_set]
    factors = [threshold_supergraph(g, [v]) for v in cover[:-1]]
    last = cover[-1]
    ordered = ([v for v in rest if g.has_edge(last, v)]
               + [v for v in rest if not g.has_edge(last, v)])
    factors.append(threshold_supergraph(g, ordered))
    return _finish(g, factors, "vertex-cover", bound=len(cover))


# ---------------------------------------------------------------------------
# degeneracy method

@dataclass(frozen=True)
class SeparatingColoringFamily:
    """Proper colorings such that every non-adjacent ordered pair (v_i, v_j)
    has a coloring giving v_j a color unused by v_i's forward neighbors
    past v_j. Guides the per-color-class threshold completions."""

    colorings: tuple[ProperColoring, ...]
    order: VertexOrdering


def _uncovered_pairs(g: Graph, family: Sequence[ProperColoring],
                     order: VertexOrdering) -> list[tuple[int, int]]:
    pos = order.position()
    seq = order.order
    n = g.n
    forward = [sorted((pos[u] for u in g.adj[v] if pos[u] > pos[v]))
               for v in seq]  # forward[i] = positions of later neighbors of seq[i]
    bad = []
    for i in range(n):
        vi = seq[i]
        fwd = forward[i]
        nbrs = g.adj[vi]
        for j in range(i + 1, n):
            vj = seq[j]
            if vj in nbrs:
                continue
            for coloring in family:
                cj = coloring.colors[vj]
                if all(coloring.colors[seq[t]] != cj for t in fwd if t > j):
                    break
            else:
                bad.append((vi, vj))
    return bad


def _sample_coloring(g: Graph, k: int, order: VertexOrdering,
                     rng: random.Random) -> ProperColoring:
    """Color backwards along the order, avoiding forward-neighbor colors;
    with palette 10k at least 9k choices always remain."""
    palette = 10 * k
    pos = order.position()
    colors = [-1] * g.n
    for v in reversed(order.order):
        banned = {colors[u] for u in g.adj[v] if pos[u] > pos[v]}
        choices = [c for c in range(palette) if c not in banned]
        colors[v] = rng.choice(choices)
    return ProperColoring(tuple(colors), palette_size=palette)


def build_separating_colorings(g: Graph, k: int, order: VertexOrdering,
                               seed: int = 0, retry_cap: int = 64) -> SeparatingColoringFamily:
    """Las Vegas construction of ceil(ln n) verified separating colorings.

    Resamples the whole family with an incremented seed up to `retry_cap`
    times, then grows the family one coloring at a time up to 3x its target
    size before giving up with statistics.
    """
    if g.n < 2:
        raise ValueError("separating colorings need at least 2 vertices")
    if k < 1:
        raise ValueError("degeneracy parameter must be at least 1")
    if len(order.order) != g.n:
        raise ValueError("ordering does not match graph")
    r = math.ceil(math.log(g.n))
    attempts = 0
    family: list[ProperColoring] = []
    for attempt in range(retry_cap):
        rng = random.Random(split_seed(seed + attempt, "separating"))
        family = [_sample_coloring(g, k, order, rng) for _ in range(r)]
        attempts = attempt + 1
        if not _uncovered_pairs(g, family, order):
            return SeparatingColoringFamily(tuple(family), order)
    grow_rng = random.Random(split_seed(seed, "separating-grow"))
    while len(family) < 3 * r:
        family.append(_sample_coloring(g, k, order, grow_rng))
        if not _uncovered_pairs(g, family, order):
            return SeparatingColoringFamily(tuple(family), order)
    bad = _uncovered_pairs(g, family, order)
    raise RandomizedSearchError(
        "separating coloring family not found",
        {"resamples": attempts, "final_size": len(family), "uncovered_pairs": len(bad)})


def decompose_degeneracy(g: Graph, seed: int = 0) -> Decomposition:
    """One factor per (coloring, non-empty color class): the class is the
    independent side, ordered by the degeneracy ordering. At most
    10k*ceil(ln n) factors for a k-degenerate graph."""
    if g.n < 2:
        raise ValueError("degeneracy decomposition needs at least 2 vertices")
    k, order = degeneracy_ordering(g)
    k = max(k, 1)  # palette 10k must be non-empty even for edgeless inputs
    family = build_separating_colorings(g, k, order, seed=seed)
    pos = order.position()
    factors = []
    for coloring in family.colorings:
        for cls in coloring.color_classes():
            if not cls:
                continue
            cls_ordered = sorted(cls, key=lambda v: pos[v])
            factors.append(threshold_supergraph(g, cls_ordered))
    bound = 10 * k * math.ceil(math.log(g.n))
    return _finish(g, factors, "degeneracy", bound=bound)


# ---------------------------------------------------------------------------
# treewidth method

def _rooted(td: TreeDecomposition) -> tuple[dict[int, int], dict[int, int], list[int]]:
    """BFS from the root: (depth, parent, preorder list with sorted children)."""
    depth = {td.root: 0}
    parent = {td.root: -1}
    preorder = []
    stack = [td.root]
    while stack:
        i = stack.pop()
        preorder.append(i)
        for j in sorted(td.tree[i], reverse=True):
            if j not in depth:
                depth[j] = depth[i] + 1
                parent[j] = i
                stack.append(j)
    return depth, parent, preorder


def _anchor_bags(td: TreeDecomposition, depth: dict[int, int]) -> list[int]:
    """anchor[v] = the unique bag containing v that is closest to the root."""
    anchor = [-1] * td.n
    best = [math.inf] * td.n
    for i, bag in td.bags.items():
        for v in bag:
            if depth[i] < best[v]:
                best[v] = depth[i]
                anchor[v] = i
    return anchor


def _bag_distinct_coloring(td: TreeDecomposition, preorder: list[int],
                           anchor: list[int]) -> list[int]:
    """Colors distinct inside every bag, at most width+1 of them.

    Walking bags root-first, a vertex is colored at its anchor bag; every
    already-colored co-inhabitant of that bag also lives in all bags between
    its own anchor and here, so greedy avoidance stays consistent globally.
    """
    colors = [-1] * td.n
    for i in preorder:
        bag = sorted(td.bags[i])
        used = {colors[v] for v in bag if colors[v] >= 0}
        for v in bag:
            if colors[v] < 0 and anchor[v] == i:
                c = 0
                while c in used:
                    c += 1
                colors[v] = c
                used.add(c)
    return colors


def treewidth_ordering(g: Graph, td: TreeDecomposition) -> tuple[VertexOrdering, list[int]]:
    """The vertex ordering by anchor-bag preorder (ties by index) and the
    bag-distinct coloring, as used by the treewidth decomposition."""
    depth, _, preorder = _rooted(td)
    anchor = _anchor_bags(td, depth)
    colors = _bag_distinct_coloring(td, preorder, anchor)
    for i, bag in td.bags.items():
        inside = [colors[v] for v in bag]
        if len(set(inside)) != len(inside):
            raise AssertionError("bag coloring failed to separate a bag")
    pre_pos = {i: p for p, i in enumerate(preorder)}
    order = sorted(range(g.n), key=lambda v: (pre_pos[anchor[v]], v))
    return VertexOrdering(tuple(order), "preorder-derived"), colors


def decompose_treewidth(g: Graph, td: TreeDecomposition) -> Decomposition:
    """Two factors per color class of the bag-distinct coloring, one along
    the preorder-derived ordering and one along its reverse; at most
    2*(width+1) factors in total."""
    validate_tree_decomposition(td, g)
    order, colors = treewidth_ordering(g, td)
    classes: dict[int, list[int]] = {}
    for v in order.order:
        classes.setdefault(colors[v], []).append(v)
    factors = []
    for c in sorted(classes):
        cls = classes[c]  # already in sigma order
        factors.append(threshold_supergraph(g, cls))
        factors.append(threshold_supergraph(g, list(reversed(cls))))
    return _finish(g, factors, "treewidth", bound=2 * (td.width + 1))


# ---------------------------------------------------------------------------
# serialization: "td-decomp <method> <k>" + one creation-sequence line per factor

def format_decomposition(d: Decomposition) -> str:
    lines = [f"td-decomp {d.method} {d.size}"]
    lines.extend(format_threshold(f) for f in d.factors)
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> Decomposition:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty decomposition file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "td-decomp":
        raise ValueError(f"expected 'td-decomp <method> <k>', got {lines[0]!r}")
    method, count = head[1], int(head[2])
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"header promised {count} factors, found {len(body)}")
    factors = tuple(parse_threshold(ln) for ln in body)
    return Decomposition(factors=factors, method=method, bound_claimed=count)
