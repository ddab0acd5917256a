"""Shared corpus builders and independent brute-force oracles for the tests.

The oracles here deliberately avoid the package's own algorithms: forbidden
subgraphs are found by scanning 4-subsets, girth by enumerating simple
cycles, circuits by walking all their inputs, and graphs are enumerated by
edge masks.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from thdim import (Graph, complete_graph, cycle_graph, disjoint_cliques,
                   empty_graph, enumerate_threshold_supergraphs, gen_gnm,
                   path_graph, petersen_graph, star_graph)
from thdim.exactdim import _min_cover
from thdim.graphs import complete_mask, edge_mask, graph_from_mask, pair_index
from thdim.seeding import split_seed


# ---------------------------------------------------------------------------
# corpus

def clique_with_pendants(n: int) -> Graph:
    """Clique a_0..a_{n-1} (vertices 0..n-1) with pendant b_i = n+i on each a_i."""
    edges = list(combinations(range(n), 2))
    edges += [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def pendant_clique_complement(n: int) -> Graph:
    return clique_with_pendants(n).complement()


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


def naive_completion_edges(g: Graph, a_order) -> set[tuple[int, int]]:
    """Direct edge formula for the guided threshold supergraph."""
    a_order = list(a_order)
    b_side = [v for v in range(g.n) if v not in set(a_order)]
    edges = {(min(u, v), max(u, v)) for u, v in combinations(b_side, 2)}
    for v in b_side:
        s = 0
        for i, u in enumerate(a_order, start=1):
            if g.has_edge(u, v):
                s = i
        for u in a_order[:s]:
            edges.add((min(u, v), max(u, v)))
    return edges


def threshold_struct_ok(t) -> bool:
    """Check all ThresholdGraph invariants from scratch."""
    from thdim import ThresholdGraph
    replay = ThresholdGraph.from_creation(t.creation)
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


def edge_mask_verify(g: Graph, factors) -> tuple[bool, str, tuple[int, int] | None, int | None]:
    """Decomposition check on materialized n^2-bit edge masks, the way the
    library did it before factors became creation sequences: every factor's
    edge mask must contain g's, and their AND must equal it. Returns
    (ok, reason, first offending pair, factor index)."""
    gmask = edge_mask(g)
    inter = None
    for idx, f in enumerate(factors):
        fmask = edge_mask(f.graph)
        if fmask & gmask != gmask:
            return (False, "factor drops an edge of the graph",
                    _first_mask_pair(g.n, gmask & ~fmask), idx)
        inter = fmask if inter is None else inter & fmask
    if inter != gmask:
        return (False, "a non-edge survives every factor",
                _first_mask_pair(g.n, inter & ~gmask), None)
    return (True, "", None, None)


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


def dfs_exact_cover(g: Graph):
    """Exact cover search over every labeled threshold supergraph of g
    (n <= 8), the oracle for exactdim's search over maximal covers only.
    Returns the set of covers (the non-edges each supergraph excludes; 0
    included) and, in `_min_cover`'s order, the supergraphs whose covers it
    picks ([g] when g is complete)."""
    universe = complete_mask(g.n) & ~edge_mask(g)
    by_cover = {}
    for t in enumerate_threshold_supergraphs(g):
        by_cover.setdefault(universe & ~edge_mask(t.graph), t)
    chosen = _min_cover(universe, list(by_cover)) or [0]
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
