"""Shared corpus builders and independent brute-force oracles for the tests.

The oracles here deliberately avoid the package's own algorithms: forbidden
subgraphs are found by scanning 4-subsets, girth by enumerating simple
cycles, circuits by walking all their inputs, and graphs are enumerated by
edge masks.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations
from typing import Sequence

from hypothesis import strategies as st

from thdim import (EXACT_DIMENSION_LIMIT, ExactLimitError, Graph, LtfWitness, ThresholdGraph,
                   TreeDecomposition, TreeDecompositionError,
                   build_suitable_family, complete_graph, cycle_graph, disjoint_cliques,
                   empty_graph, format_circuit, format_threshold,
                   gen_gnm, path_graph, petersen_graph, star_graph, threshold_supergraph,
                   validate_tree_decomposition)
from thdim import treedecomp
from thdim.circuits import Clause, MajorityCircuit
from thdim.decompose import _sample_coloring
from thdim.exactdim import _maximal, _min_cover
from thdim.graphs import (color_classes, complete_mask, degeneracy_ordering, edge_mask,
                          graph_from_mask, greedy_coloring, max_independent_set, pair_index)
from thdim.seeding import split_seed
from thdim.threshold import DOMINATING, ISOLATED, _forbidden_witness


# ---------------------------------------------------------------------------
# corpus

def clique_with_pendants(n: int) -> Graph:
    """Clique a_0..a_{n-1} (vertices 0..n-1) with pendant b_i = n+i on each a_i."""
    edges = list(combinations(range(n), 2))
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def complement(g: Graph) -> Graph:
    """The graph on g's vertices whose edges are g's non-edges."""
    return Graph(g.n, [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)])


def pendant_clique_complement(n: int) -> Graph:
    return complement(clique_with_pendants(n))


def pendant_complement_bags(n: int) -> dict[int, frozenset[int]]:
    """Star-shaped width-(n-1) bags for pendant_clique_complement: the center
    bag holds all pendants, leaf bag i holds vertex i plus the other pendants."""
    b_side = frozenset(range(n, 2 * n))
    bags = {1: b_side}
    for i in range(n):
        bags[i + 2] = frozenset({i}) | (b_side - {n + i})
    return bags


def named_corpus() -> dict[str, Graph]:
    return {
        "K1": complete_graph(1),
        "K4": complete_graph(4),
        "K5": complete_graph(5),
        "P4": path_graph(4),
        "P8": path_graph(8),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C10": cycle_graph(10),
        "C12": cycle_graph(12),
        "star5": star_graph(5),
        "2K2": disjoint_cliques(2),
        "2K3": disjoint_cliques(3),
        "petersen": petersen_graph(),
        "empty4": empty_graph(4),
        "H3": pendant_clique_complement(3),
    }


def clebsch_graph() -> Graph:
    """The folded 5-cube: 16 vertices, 5-regular, triangle-free, chromatic
    number 4. Vertices are 4-bit words, adjacent when they differ in one bit
    or in all four."""
    return Graph(16, [(u, v) for u, v in combinations(range(16), 2)
                      if (u ^ v).bit_count() in (1, 4)])


def crown_graph(k: int) -> Graph:
    """K_{k,k} minus a perfect matching, sides interleaved: vertex 2i sees
    every 2j + 1 with j != i. Bipartite, yet first-fit in index order (the
    decreasing-degree order, since the graph is regular) uses k colours."""
    return Graph(2 * k, [(2 * i, 2 * j + 1) for i in range(k) for j in range(k) if i != j])


@st.composite
def small_graphs(draw, max_n: int):
    """A hypothesis strategy: graphs with at most max_n vertices, every pair
    an edge or not at the draw's choice."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    return Graph(n, [p for p in pairs if draw(st.booleans())])


@st.composite
def dense_graphs(draw, max_n: int):
    """A hypothesis strategy: graphs with at most max_n vertices, each pair
    an edge unless the draw picks one of three values for it."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    return Graph(n, [p for p in pairs if draw(st.integers(0, 2))])


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_mask(n, mask)


def canonical_mask(n: int, mask: int) -> int:
    best = None
    for perm in permutations(range(n)):
        remapped = 0
        for u, v in combinations(range(n), 2):
            if mask >> pair_index(n, u, v) & 1:
                remapped |= 1 << pair_index(n, perm[u], perm[v])
        if best is None or remapped < best:
            best = remapped
    return best


def representatives(n: int) -> list[Graph]:
    """One labeled representative per isomorphism class of n-vertex graphs."""
    seen = set()
    reps = []
    for mask in range(1 << (n * (n - 1) // 2)):
        canon = canonical_mask(n, mask)
        if canon not in seen:
            seen.add(canon)
            reps.append(graph_from_mask(n, canon))
    return reps


def random_corpus(count: int, sizes: list[tuple[int, int]], seed: int) -> list[Graph]:
    """Deterministic list of gen_gnm graphs cycling through (n, m) sizes."""
    out = []
    for i in range(count):
        n, m = sizes[i % len(sizes)]
        out.append(gen_gnm(n, m, seed=split_seed(seed, "corpus", i)))
    return out


def complete_bipartite(p: int, q: int) -> Graph:
    """K_{p,q}: vertices 0..p-1 on one side, p..p+q-1 on the other."""
    return Graph(p + q, [(a, p + b) for a in range(p) for b in range(q)])


def bounded_degree_graph(n: int, m: int, dmax: int, seed: int) -> Graph:
    for attempt in range(500):
        g = gen_gnm(n, m, seed=split_seed(seed, "bounded", attempt))
        if 2 <= g.max_degree() <= dmax:
            return g
    raise RuntimeError(f"no graph with 2 <= max degree <= {dmax} found")


# ---------------------------------------------------------------------------
# independent oracles

def brute_find_forbidden(g: Graph):
    """Scan all 4-subsets for an induced 2K_2 / P_4 / C_4 (edge-count shapes)."""
    for quad in combinations(range(g.n), 4):
        edges = [(u, v) for u, v in combinations(quad, 2) if g.has_edge(u, v)]
        degs = sorted(sum(1 for e in edges if w in e) for w in quad)
        if len(edges) == 2 and degs == [1, 1, 1, 1]:
            return quad, "2K2"
        if len(edges) == 3 and degs == [1, 1, 2, 2]:
            return quad, "P4"
        if len(edges) == 4 and degs == [2, 2, 2, 2]:
            return quad, "C4"
    return None


def brute_is_threshold(g: Graph) -> bool:
    return brute_find_forbidden(g) is None


def exhaustive_girth(g: Graph) -> int | float:
    """Shortest cycle by DFS path enumeration (small graphs only)."""
    best = math.inf
    for start in range(g.n):
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            for u in g.adj[v]:
                if u == start and len(path) >= 3:
                    best = min(best, len(path))
                elif u not in path and u > start and len(path) < best:
                    stack.append((u, path + [u]))
    return best


def is_proper_coloring(colors: Sequence[int], g: Graph, palette: int) -> bool:
    """Every vertex of g gets a colour in range(palette), and no edge joins
    two vertices of one colour."""
    if len(colors) != g.n:
        return False
    if any(not 0 <= c < palette for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in g.edges())


def position(order: Sequence[int]) -> list[int]:
    """The index of each vertex in the order."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def completion_levels(g: Graph, a_order) -> dict[int, int]:
    """s(v) for every B-vertex v of the guided completion: the position of
    v's last neighbour in a_order (0 for none)."""
    a_order = list(a_order)
    return {v: max((i for i, u in enumerate(a_order, start=1) if g.has_edge(u, v)), default=0)
            for v in range(g.n) if v not in a_order}


@st.composite
def guided_completion_args(draw, g: Graph):
    """A strategy: an ordered independent set of g, the a_order of a guided
    completion."""
    a_order = []
    for v in draw(st.permutations(range(g.n))):
        if draw(st.booleans()) and not g.adj[v].intersection(a_order):
            a_order.append(v)
    return a_order


def naive_completion_edges(g: Graph, a_order) -> set[tuple[int, int]]:
    """Direct edge formula for the guided threshold supergraph."""
    a_order = list(a_order)
    levels = completion_levels(g, a_order)
    edges = {(min(u, v), max(u, v)) for u, v in combinations(levels, 2)}
    for v, s in levels.items():
        for u in a_order[:s]:
            edges.add((min(u, v), max(u, v)))
    return edges


def sorting_completion_creation(g: Graph, a_order) -> tuple[tuple[int, str], ...]:
    """The creation sequence the guided completion promises: the B-vertices
    of level 0 ascending, then each u_j, isolated, followed by the
    B-vertices of level j ascending."""
    a_order = list(a_order)
    levels = completion_levels(g, a_order)
    pairs = [(v, DOMINATING) for v in sorted(levels) if levels[v] == 0]
    for j, u in enumerate(a_order, start=1):
        pairs.append((u, ISOLATED))
        pairs += [(v, DOMINATING) for v in sorted(levels) if levels[v] == j]
    return tuple(pairs)


def threshold_struct_ok(t) -> bool:
    """Check all ThresholdGraph invariants from scratch."""
    replay = from_creation(creation(t))
    if replay.graph != t.graph:
        return False
    for u, v in combinations(sorted(t.split_a), 2):
        if t.graph.has_edge(u, v):
            return False
    for u, v in combinations(sorted(t.split_b), 2):
        if not t.graph.has_edge(u, v):
            return False
    if set(t.split_a) | set(t.split_b) != set(range(t.n)):
        return False
    hoods = [set(t.graph.adj[u]) for u in t.split_a]
    return all(hoods[i + 1] <= hoods[i] for i in range(len(hoods) - 1))


def edge_mask_verify(g: Graph, factors) -> tuple[tuple[int, int], int | None] | None:
    """Decomposition check on materialized n^2-bit edge masks, the way the
    library did it before factors became creation sequences: every factor's
    edge mask must contain g's, and their AND must equal it. Returns None,
    or the first offending pair with the index of the factor that drops it
    (None for a non-edge every factor keeps), as `verify_decomposition`
    does. No factor keeps every pair."""
    gmask = edge_mask(g)
    inter = (1 << g.n * (g.n - 1) // 2) - 1
    for idx, f in enumerate(factors):
        fmask = edge_mask(f.graph)
        if fmask & gmask != gmask:
            return _first_mask_pair(g.n, gmask & ~fmask), idx
        inter &= fmask
    if inter != gmask:
        return _first_mask_pair(g.n, inter & ~gmask), None
    return None


def _first_mask_pair(n: int, mask: int) -> tuple[int, int]:
    idx = (mask & -mask).bit_length() - 1
    for u, v in combinations(range(n), 2):
        if pair_index(n, u, v) == idx:
            return (u, v)
    raise AssertionError("mask bit beyond the last pair")


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """Every maximal clique of g, by Bron–Kerbosch with pivoting."""
    found: list[frozenset[int]] = []

    def extend(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            found.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda u: len(p & g.adj[u]))
        for v in sorted(p - g.adj[pivot]):
            extend(r | {v}, p & g.adj[v], x & g.adj[v])
            p = p - {v}
            x = x | {v}

    extend(set(), set(range(g.n)), set())
    return found


# ---------------------------------------------------------------------------
# creation sequences as (vertex, tag) pairs: the only conversions between
# them and the order/cuts arrays of ThresholdGraph

def from_creation(pairs) -> ThresholdGraph:
    """The ThresholdGraph of the creation sequence given as (vertex, tag) pairs."""
    pairs = tuple(pairs)
    assert all(tag in (ISOLATED, DOMINATING) for _, tag in pairs), pairs
    return ThresholdGraph([v for v, _ in pairs],
                          [i for i, (_, tag) in enumerate(pairs) if tag == ISOLATED])


def creation(t: ThresholdGraph) -> tuple[tuple[int, str], ...]:
    """t's creation sequence as (vertex, tag) pairs."""
    tags = [DOMINATING] * t.n
    for c in t.cuts:
        tags[c] = ISOLATED
    return tuple(zip(t.order, tags))


def pair_parse_threshold(line: str) -> ThresholdGraph:
    """`parse_threshold` as it read a `ts` line before factors were built
    from order/cuts arrays: (vertex, tag) pairs first, then the factor."""
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
    pairs = []
    for tok in body:
        v_str, _, tag = tok.partition(":")
        if tag not in (ISOLATED, DOMINATING):
            raise ValueError(f"bad creation token {tok!r}")
        pairs.append((int(v_str), tag))
    return from_creation(pairs)


def pair_walk_induced(g: Graph, keep) -> Graph:
    """`Graph.induced` as a test of every pair of kept vertices."""
    keep = sorted(set(keep))
    index = {v: i for i, v in enumerate(keep)}
    return Graph(len(keep), [(index[u], index[v]) for u, v in combinations(keep, 2)
                             if g.has_edge(u, v)])


# ---------------------------------------------------------------------------
# reference code: the passes over a factor as one step per (vertex, tag)
# pair of its creation sequence, as the library made them before factors
# were packed into order/cuts arrays

def pair_walk_graph(creation) -> Graph:
    edges = []
    placed: list[int] = []
    for v, t in creation:
        if t == DOMINATING:
            edges.extend((v, u) for u in placed)
        placed.append(v)
    return Graph(len(creation), edges)


def pair_walk_isolated_prefixes(creation) -> list[tuple[int, int]]:
    placed = 0
    prefixes = []
    for v, tag in creation:
        if tag == ISOLATED:
            prefixes.append((v, placed))
        placed |= 1 << v
    return prefixes


def pair_walk_format(creation) -> str:
    tokens = " ".join(f"{v}:{tag}" for v, tag in creation)
    return f"ts {len(creation)} {tokens}".rstrip()


def pair_walk_ltf(creation) -> tuple[tuple[int, ...], int]:
    """The level weights and bound of `extract_ltf`, walking back from the
    last vertex. A dominating vertex with no isolated vertex after it
    weighs 0, any other one more than the dominating vertices after the
    next isolated vertex together. The bound T is the larger of the total
    dominating weight and one more than what the first two isolated
    vertices each have after them, summed; an isolated vertex weighs T
    minus the dominating weight after it."""
    weights = [0] * len(creation)
    after = {}  # isolated vertex -> weight of the dominating vertices after it
    total = next_after = 0  # the same for here and for the next isolated vertex
    for v, tag in reversed(creation):
        if tag == ISOLATED:
            after[v] = next_after = total
        elif after:
            weights[v] = next_after + 1
            total += next_after + 1
    first_two = [after[v] for v, tag in creation if tag == ISOLATED][:2] + [0, 0]
    bound = max(total, first_two[0] + first_two[1] + 1)
    for v, rest in after.items():
        weights[v] = bound - rest
    return tuple(weights), bound


def pair_walk_base_ltf(creation) -> tuple[tuple[int, ...], int]:
    """The base-(n+1) weights and bound `extract_ltf` gave before level
    weights: a dominating vertex after s isolated ones weighs (n+1)^(k-s)."""
    n = len(creation)
    k = sum(1 for _, tag in creation if tag == ISOLATED)
    base = n + 1
    bound = 2 * base ** (k + 1) - 1
    weights = [0] * n
    level = base ** k
    for v, tag in creation:
        if tag == ISOLATED:
            weights[v] = bound - (level - 1)
            level //= base
        else:
            weights[v] = level
    return tuple(weights), bound


def empty_graph_base_circuit(n: int) -> str:
    """The circuit file, made by `format_circuit`, of the base-(n+1) gate of
    the all-isolated factor on n vertices: the vertex-cover gate of the
    empty graph before level weights. From n = 1400 on its numbers pass
    14 000 bits, so the file holds them in hex."""
    weights, bound = pair_walk_base_ltf([(v, ISOLATED) for v in range(n)])
    return format_circuit(MajorityCircuit(n, (LtfWitness(weights, bound),)))


def pair_walk_ltf_counterexample(creation, witness) -> frozenset[int] | None:
    """`_ltf_counterexample`: each isolated vertex with the dominating
    vertices after it, the clique side, then each isolated vertex with the
    lightest vertex before it."""
    w, b = witness.weights, witness.bound
    later_dominating = 0
    for i in range(len(creation) - 1, -1, -1):
        v, tag = creation[i]
        if tag == DOMINATING:
            later_dominating += w[v]
        elif w[v] + later_dominating > b:
            return frozenset([v] + [u for u, s in creation[i + 1:] if s == DOMINATING])
    if later_dominating > b:
        return frozenset(v for v, tag in creation if tag == DOMINATING)
    lightest = None
    for v, tag in creation:
        if tag == ISOLATED and lightest is not None and w[v] + w[lightest] <= b:
            return frozenset((v, lightest))
        if lightest is None or w[v] < w[lightest]:
            lightest = v
    return None


# ---------------------------------------------------------------------------
# reference code: every labeled threshold supergraph (the exact dimension
# searches only the maximal covers), supergraph and 2-CNF evaluation, and
# the treewidth ordering in three passes over the bags

def _supergraph_creations(g: Graph) -> dict[int, tuple[tuple[int, str], ...]]:
    """All distinct labeled threshold supergraphs of g, keyed by edge mask.

    DFS over creation sequences in a canonical form (vertices ascend inside
    each run of equal tags, and the first vertex precedes the second), so
    each threshold graph is built essentially once; a vertex may enter
    isolated only while none of its g-neighbors are present, since nothing
    later could supply the missing edge. Values are witnessing sequences.
    """
    n = g.n
    found: dict[int, tuple[tuple[int, str], ...]] = {}
    if n == 0:
        found[0] = ()
        return found
    nbr = g.adjacency_masks()
    pairbit = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u != v:
                pairbit[u][v] = 1 << pair_index(n, u, v)
    full = (1 << n) - 1
    seq: list[tuple[int, str]] = []

    def extend(placed: int, emask: int, last_v: int, last_tag: str) -> None:
        if placed == full:
            if emask not in found:
                found[emask] = tuple(seq)
            return
        avail = full & ~placed
        m = avail
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            if last_tag != DOMINATING or v > last_v:
                add = 0
                p = placed
                while p:
                    lowp = p & -p
                    add |= pairbit[v][lowp.bit_length() - 1]
                    p ^= lowp
                seq.append((v, DOMINATING))
                extend(placed | low, emask | add, v, DOMINATING)
                seq.pop()
            if nbr[v] & placed == 0 and (last_tag != ISOLATED or v > last_v):
                seq.append((v, ISOLATED))
                extend(placed | low, emask, v, ISOLATED)
                seq.pop()

    for first in range(n):
        seq.append((first, ISOLATED))
        # the first vertex commutes with the second whatever the tags, so
        # force it to be the smaller: both branches below require v > first
        extend(1 << first, 0, first, "*")
        seq.pop()
    return found


def enumerate_threshold_supergraphs(g: Graph) -> list[ThresholdGraph]:
    """All distinct labeled threshold supergraphs of g (n <= 8 only)."""
    if g.n > EXACT_DIMENSION_LIMIT:
        raise ExactLimitError(
            f"supergraph enumeration refused for n={g.n} > {EXACT_DIMENSION_LIMIT}")
    creations = _supergraph_creations(g)
    return [from_creation(c) for _, c in sorted(creations.items())]


def is_supergraph(big: Graph, small: Graph) -> bool:
    if big.n != small.n:
        return False
    return all(small.adj[v] <= big.adj[v] for v in range(small.n))


def eval_2cnf(clauses: Sequence[Clause], x: Sequence[int]) -> int:
    for (i, _), (j, _) in clauses:
        if x[i] and x[j]:
            return 0
    return 1


def _rooted(td: TreeDecomposition) -> tuple[dict[int, int], list[int]]:
    """Depth-first from the root: (depth, preorder list with sorted children)."""
    depth = {td.root: 0}
    preorder = []
    stack = [td.root]
    while stack:
        i = stack.pop()
        preorder.append(i)
        for j in sorted(td.tree[i], reverse=True):
            if j not in depth:
                depth[j] = depth[i] + 1
                stack.append(j)
    return depth, preorder


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


def anchor_bag_ordering(g: Graph, td: TreeDecomposition) -> tuple[tuple[int, ...], list[int]]:
    """The treewidth ordering and coloring in three passes: bag depths and
    the preorder, each vertex's anchor (its bag of least depth), then the
    vertices sorted by (preorder position of anchor, index), each colored
    at its anchor with the least color unused in that bag."""
    depth, preorder = _rooted(td)
    anchor = _anchor_bags(td, depth)
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
    pre_pos = {i: p for p, i in enumerate(preorder)}
    return tuple(sorted(range(g.n), key=lambda v: (pre_pos[anchor[v]], v))), colors


def read_valid(text: str, g: Graph | None = None) -> TreeDecomposition:
    """Read a tree decomposition, then validate it against g, or against the
    edgeless graph on its vertices when g is not given, through the module
    attributes so that a test can patch either step."""
    td = treedecomp.read_tree_decomposition(text)
    treedecomp.validate_tree_decomposition(td, Graph(td.n) if g is None else g)
    return td


def dfs_validate_tree_decomposition(td: TreeDecomposition, g: Graph) -> None:
    """`validate_tree_decomposition` with condition 3 checked by one
    depth-first walk per vertex over the bags holding it, from any of them."""
    if td.n != g.n:
        raise TreeDecompositionError(0, f"decomposition is for n={td.n}, graph has n={g.n}")
    treedecomp._check_tree_shape(td)
    covered = set().union(*td.bags.values())
    stray = {v for v in covered if not 0 <= v < td.n}
    if stray:
        raise TreeDecompositionError(0, f"bag vertex {min(stray)} out of range for n={td.n}")
    if covered != set(range(td.n)):
        missing = sorted(set(range(td.n)) - covered)
        raise TreeDecompositionError(1, f"vertices {missing} appear in no bag")
    holders: dict[int, set[int]] = {}
    for i, bag in td.bags.items():
        for v in bag:
            holders.setdefault(v, set()).add(i)
    for u, v in g.edges():
        if holders[u].isdisjoint(holders[v]):
            raise TreeDecompositionError(2, f"edge ({u},{v}) is inside no bag")
    for v, nodes in holders.items():
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in td.tree.get(i, ()):
                if j in nodes and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if seen != nodes:
            raise TreeDecompositionError(
                3, f"bags containing vertex {v} do not form a connected subtree")


def dfs_exact_cover(g: Graph):
    """Exact cover search over every labeled threshold supergraph of g
    (n <= 8), the oracle for exactdim's search over maximal covers only.
    Returns the set of covers (the non-edges each supergraph excludes; 0
    included) and, in `_min_cover`'s order, the supergraphs whose covers it
    picks from the maximal ones ([g] when g is complete)."""
    universe = complete_mask(g.n) & ~edge_mask(g)
    by_cover = {}
    for t in enumerate_threshold_supergraphs(g):
        by_cover.setdefault(universe & ~edge_mask(t.graph), t)
    chosen = _min_cover(universe, _maximal(by_cover)) or [0]
    return set(by_cover), [by_cover[c] for c in chosen]


def walk_counterexample(g: Graph, gates) -> int | None:
    """The first input mask, in Gray-code order, on which the AND of the
    integer gates (`weights`, `bound`) and the clique indicator of g differ,
    or None. Walks all 2^n inputs, one flipped bit at a time, keeping each
    gate's sum and the number of non-adjacent pairs in the support."""
    sums = [0] * len(gates)
    violations = 0
    mask = 0
    for t in range(1 << g.n):
        if t:
            v = (t & -t).bit_length() - 1
            sign = -1 if mask >> v & 1 else 1
            mask ^= 1 << v
            sums = [s + sign * gate.weights[v] for s, gate in zip(sums, gates)]
            violations += sign * sum(1 for u in range(g.n)
                                     if u != v and mask >> u & 1 and not g.has_edge(u, v))
        if all(s <= gate.bound for s, gate in zip(sums, gates)) != (violations == 0):
            return mask
    return None


def rescan_degeneracy_ordering(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The O(n^2) min-degree peel: rescan every live vertex for the least
    (degree, index) at each step."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    order: list[int] = []
    k = 0
    for _ in range(g.n):
        v = min((u for u in range(g.n) if alive[u]), key=lambda u: (deg[u], u))
        k = max(k, deg[v])
        alive[v] = False
        order.append(v)
        for w in g.adj[v]:
            if alive[w]:
                deg[w] -= 1
    return k, tuple(order)


def sorting_recognize_threshold(g: Graph):
    """The peel that sorts the live vertices twice per step: the smallest
    dominating one, else the smallest isolated one; the forbidden witness
    comes from the same remainder when neither exists."""
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
    return from_creation(reversed(removals))


def listed_gen_gnm(n: int, m: int, seed: int = 0) -> Graph:
    """G(n, m) by a partial Fisher-Yates over the materialised list of all
    C(n, 2) pairs, drawing from the same seeded stream as gen_gnm."""
    pairs = list(combinations(range(n), 2))
    if not (0 <= m <= len(pairs)):
        raise ValueError(f"m={m} out of range for n={n}")
    rng = random.Random(split_seed(seed, "gnm", n))
    for i in range(m):
        j = i + rng.randrange(len(pairs) - i)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return Graph(n, pairs[:m])


def full_scan_uncovered_pairs(ground: int, k: int, perms) -> list[tuple[tuple[int, ...], int]]:
    """(subset, element) pairs no permutation covers, taking the last element
    of every subset under every permutation."""
    bad = []
    for subset in combinations(range(ground), k):
        covered = {max(subset, key=list(p).index) for p in perms}
        bad.extend((subset, x) for x in subset if x not in covered)
    return bad


def all_suitable_pairs(ground: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    """Every (k-subset, element) pair of range(ground): the requirements that
    make a permutation family k-suitable."""
    return [(subset, x) for subset in combinations(range(ground), k) for x in subset]


def whole_family(ground: int, k: int, requirements, seed: int) -> tuple[tuple[int, ...], ...]:
    """Every member of the suitable family `build_suitable_family` draws."""
    return tuple(perm for perm, _ in build_suitable_family(ground, k, requirements, seed=seed))


def whole_family_orderings(cells, family) -> tuple[list[tuple[int, ...]], int, int]:
    """`maxdeg._cell_orderings` as it was when every split drew its whole
    family: every permutation is projected onto every cell with two or more
    non-empty blocks, then each cell's distinct projections are listed,
    blocks ascending and then descending. Returns the orderings, the
    family's size and the permutations drawn (all of them)."""
    perms = [perm for perm, _ in family]
    # position of each block id in each permutation
    inverses = [{ci: i for i, ci in enumerate(perm)} for perm in perms]
    orderings = []
    for blocks in cells:
        used = [ci for ci, block in enumerate(blocks) if block]
        projections = [tuple(used)] if len(used) == 1 else dict.fromkeys(
            tuple(sorted(used, key=inverse.__getitem__)) for inverse in inverses)
        orderings.extend(dict.fromkeys(
            tuple(v for ci in proj for v in blocks[ci][::step])
            for proj in projections for step in (1, -1)))
    return orderings, len(perms), len(perms)


def unmet_requirements(perms, requirements) -> list[tuple[tuple[int, ...], int]]:
    """The (subset, last) requirements under which no permutation places
    every other element of the subset before `last`."""
    return [(subset, x) for subset, x in requirements
            if not any(all(list(p).index(y) < list(p).index(x) for y in subset if y != x)
                       for p in perms)]


def plain_greedy_subcover(g: Graph, factors) -> list:
    """The greedy subcover of factors that each contain g, by pair sets:
    among the distinct factors (equal ones are one), take the one that
    excludes the most non-edges of g still uncovered, the first placed on
    a tie, until none is left; the picks in input order, the first factor
    when g has no non-edge, and all of `factors` when they keep a non-edge."""
    distinct = list(dict.fromkeys(factors))
    excluded = [{p for p in combinations(range(g.n), 2) if not t.graph.has_edge(*p)}
                for t in distinct]
    uncovered = {p for p in combinations(range(g.n), 2) if not g.has_edge(*p)}
    picks = []
    while uncovered:
        best = max(range(len(distinct)), key=lambda i: (len(excluded[i] & uncovered), -i),
                   default=None)
        if best is None or not excluded[best] & uncovered:
            return list(factors)
        picks.append(best)
        uncovered -= excluded[best]
    return [distinct[i] for i in sorted(picks)] or distinct[:1]


def walk_conflict_blocks(base: Graph, a_part: Sequence[int], b_part: Sequence[int],
                         palette: int) -> list[list[int]]:
    """A cell's conflict blocks from a walk of its whole B slice, as
    `_conflict_blocks` found them before each slice was bucketed by color
    once per coloring."""
    a_sorted = sorted(a_part)
    index = {a: i for i, a in enumerate(a_sorted)}
    conflict_edges = set()
    for v in b_part:
        nbrs = sorted(u for u in base.adj[v] if u in index)
        conflict_edges.update((index[x], index[y]) for x, y in combinations(nbrs, 2))
    conflict = Graph(len(a_sorted), conflict_edges)
    _, order = degeneracy_ordering(conflict)
    coloring = greedy_coloring(conflict, tuple(reversed(order)))
    blocks: list[list[int]] = [[] for _ in range(palette)]
    for i, color in enumerate(coloring):
        blocks[color].append(a_sorted[i])
    return blocks


def walk_cell_requirements(base: Graph, blocks: Sequence[Sequence[int]],
                           b_part: Sequence[int]) -> set[tuple[tuple[int, ...], int]]:
    """A cell's (subset, last) block orders from a walk of its whole B
    slice, as `_cell_requirements` found them before the bucketing."""
    block_of = {v: ci for ci, block in enumerate(blocks) for v in block}
    needed = set()
    for b in b_part:
        nbr_blocks = {block_of[u] for u in base.adj[b] if u in block_of}
        if not nbr_blocks:
            continue
        for ci, block in enumerate(blocks):
            if len(block) > (ci in nbr_blocks):
                needed.add((tuple(sorted(nbr_blocks | {ci})), ci))
    return needed


def forward_neighbours(g: Graph, order: Sequence[int]) -> list[list[int]]:
    """Each vertex's neighbours after it in the order, as `_sample_coloring`
    takes them."""
    pos = position(order)
    return [[u for u in g.adj[v] if pos[u] > pos[v]] for v in range(g.n)]


def fresh_degeneracy_text(g: Graph, seed: int) -> str:
    """The `format_decomposition` text `decompose_degeneracy(g, seed)` must
    write, from the same seeded draws (64 of them), with every class
    completion built afresh for each coloring and a family accepted on
    materialized edge masks (`edge_mask_verify`): each draw is tried on its
    prefixes, shortest first."""
    k, order = degeneracy_ordering(g)
    k = max(k, 1)
    pos = position(order)
    forward = forward_neighbours(g, order)
    r = math.ceil(math.log(g.n))

    def families():
        for attempt in range(64):
            rng = random.Random(split_seed(seed + attempt, "separating"))
            family = [_sample_coloring(forward, k, order, rng) for _ in range(r)]
            for j in range(1, r + 1):
                yield family[:j]

    for family in families():
        factors = [threshold_supergraph(g, sorted(cls, key=pos.__getitem__))
                   for coloring in family for cls in color_classes(coloring) if cls]
        if edge_mask_verify(g, factors) is None:
            lines = [f"td-decomp degeneracy {len(factors)}", *map(format_threshold, factors)]
            return "\n".join(lines) + "\n"
    raise AssertionError("no family of the seeded draws intersects to g")


def rescan_min_fill_tree_decomposition(g: Graph) -> TreeDecomposition:
    """The min-fill tree decomposition that recomputes the fill cost of every
    live vertex at every step, on Python sets.

    Bag i holds the i-th eliminated vertex plus its not-yet-eliminated
    neighbors in the fill graph; each bag hangs under the bag of its
    earliest-eliminated later neighbor, so vertex traces stay connected.
    The root is the last eliminated vertex's bag. Width is a heuristic
    upper bound on the true treewidth (exact on chordal inputs).
    """
    n = g.n
    if n == 0:
        return TreeDecomposition(bags={1: frozenset()}, tree={1: ()}, root=1, n=0)
    adj = [set(g.adj[v]) for v in range(n)]
    alive = set(range(n))
    elim_order: list[int] = []
    later_nbrs: list[set[int]] = [set() for _ in range(n)]

    def fill_cost(v: int) -> int:
        nb = adj[v]
        return sum(1 for a, b in combinations(sorted(nb), 2) if b not in adj[a])

    for _ in range(n):
        v = min(alive, key=lambda u: (fill_cost(u), u))
        nb = set(adj[v])
        later_nbrs[v] = nb
        for a, b in combinations(sorted(nb), 2):
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
        for u in nb:
            adj[u].discard(v)
        alive.discard(v)
        elim_order.append(v)

    elim_pos = {v: i for i, v in enumerate(elim_order)}
    bags = {i + 1: frozenset({v} | later_nbrs[v]) for i, v in enumerate(elim_order)}
    root = n  # bag of the last eliminated vertex
    tree: dict[int, set[int]] = {i: set() for i in bags}
    for i, v in enumerate(elim_order[:-1], start=1):
        if later_nbrs[v]:
            parent = min(elim_pos[u] for u in later_nbrs[v]) + 1
        else:
            parent = root
        tree[i].add(parent)
        tree[parent].add(i)
    td = TreeDecomposition(
        bags=bags,
        tree={i: tuple(sorted(s)) for i, s in tree.items()},
        root=root,
        n=n,
    )
    validate_tree_decomposition(td, g)
    return td


def backtrack_chromatic_number(g: Graph) -> int:
    """Exact chromatic number on a Graph: the complement's independence
    number gives omega, then iterative deepening over k with backtracking
    along decreasing degree, up to a first-fit colouring's palette."""
    n = g.n
    if n == 0:
        return 0
    if g.m == 0:
        return 1
    omega = len(max_independent_set(complement(g)))
    order = sorted(range(n), key=lambda v: -g.degree(v))
    upper = max(greedy_coloring(g, order)) + 1
    nbr_pos = [[order.index(u) for u in g.adj[v] if u in set(order[:i])]
               for i, v in enumerate(order)]
    # nbr_pos[i] = positions (earlier in `order`) adjacent to order[i]

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def place(i: int, used: int) -> bool:
            if i == n:
                return True
            banned = {colors[j] for j in nbr_pos[i]}
            cap = min(k, used + 1)  # new color only one step beyond the max used
            for c in range(cap):
                if c not in banned:
                    colors[i] = c
                    if place(i + 1, max(used, c + 1)):
                        return True
            colors[i] = -1
            return False

        return place(0, 0)

    for k in range(omega, upper):
        if colorable(k):
            return k
    return upper


def induced_clique_chromatic(g: Graph) -> int:
    """min over maximal cliques C of the chromatic number of the induced
    subgraph g - C, each built as its own Graph."""
    return min(backtrack_chromatic_number(g.induced(set(range(g.n)) - clique))
               for clique in maximal_cliques(g))
