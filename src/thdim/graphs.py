"""Simple undirected graphs and the classical subroutines the decomposition
methods lean on: edge-list parsing, complement, degeneracy peeling, girth,
exact small-graph invariants (alpha/omega/beta/chi) and greedy coloring.

Vertices are always the integers 0..n-1. Graph values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator


class ParseError(ValueError):
    """Malformed input file; message names the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ExactLimitError(ValueError):
    """Refusal to work above a configured size cap: an exact solver's, or
    the vertex count a file may declare."""


# The most vertices an input file may declare. Its header is checked before
# anything is allocated, so a one-line file cannot exhaust memory: Graph(n)
# alone costs about 0.5 KB per vertex.
MAX_VERTICES = 100_000


def check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ExactLimitError(f"{n} vertices exceed the cap MAX_VERTICES = {MAX_VERTICES}")


class Graph:
    """Immutable simple undirected graph with set-based adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def adjacency_masks(self) -> list[int]:
        """Bitmask of the neighbours of every vertex."""
        return [sum(1 << u for u in s) for s in self.adj]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(s) for s in self.adj), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in sorted(self.adj[u]):
                if u < v:
                    yield (u, v)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def complement(self) -> "Graph":
        return Graph(self.n, ((u, v) for u, v in combinations(range(self.n), 2)
                              if v not in self.adj[u]))

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on `keep`, relabeled to 0..len(keep)-1 in sorted order."""
        keep = sorted(set(keep))
        index = {v: i for i, v in enumerate(keep)}
        edges = [(index[u], index[v]) for u, v in combinations(keep, 2)
                 if v in self.adj[u]]
        return Graph(len(keep), edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexOrdering:
    """A permutation of the vertices with a tag saying where it came from."""

    order: tuple[int, ...]
    kind: str = "arbitrary"  # degeneracy | preorder-derived | arbitrary

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("ordering is not a permutation of 0..n-1")

    def position(self) -> list[int]:
        """Inverse permutation: position()[v] is the index of v in the order."""
        pos = [0] * len(self.order)
        for i, v in enumerate(self.order):
            pos[v] = i
        return pos


@dataclass(frozen=True)
class ProperColoring:
    colors: tuple[int, ...]
    palette_size: int

    def is_proper_for(self, g: Graph) -> bool:
        if len(self.colors) != g.n:
            return False
        if any(c < 0 or c >= self.palette_size for c in self.colors):
            return False
        return all(self.colors[u] != self.colors[v] for u, v in g.edges())

    def color_classes(self) -> list[list[int]]:
        classes: list[list[int]] = [[] for _ in range(self.palette_size)]
        for v, c in enumerate(self.colors):
            classes[c].append(v)
        return classes


# ---------------------------------------------------------------------------
# edge-list file format: "p <n> <m>" then m lines "<u> <v>", '#' comments

def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format into a Graph.

    First non-comment line must be "p <n> <m>"; the next m non-comment lines
    are "<u> <v>" with 0-based endpoints. Duplicate edges collapse silently,
    self-loops and out-of-range indices are hard errors. A header with more
    than MAX_VERTICES vertices is refused with ExactLimitError.
    """
    n = m = None
    edges: list[tuple[int, int]] = []
    seen = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 3 or tokens[0] != "p":
                raise ParseError(line_no, f"expected header 'p <n> <m>', got {line!r}")
            try:
                n, m = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(line_no, f"non-integer header fields in {line!r}") from None
            if n < 0 or m < 0:
                raise ParseError(line_no, "negative vertex or edge count")
            check_vertex_count(n)
            continue
        if seen >= m:
            raise ParseError(line_no, f"unexpected extra line {line!r} after {m} edges")
        if len(tokens) != 2:
            raise ParseError(line_no, f"expected '<u> <v>', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(line_no, f"non-integer endpoint in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(line_no, f"vertex index out of range in {line!r}")
        if u == v:
            raise ParseError(line_no, f"self-loop in {line!r}")
        edges.append((u, v))
        seen += 1
    if n is None:
        raise ParseError(1, "empty input: missing 'p <n> <m>' header")
    if seen != m:
        raise ParseError(1, f"header promised {m} edges but only {seen} were given")
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def complement(g: Graph) -> Graph:
    return g.complement()


# ---------------------------------------------------------------------------
# pair-index bitmask helpers (shared by the verifiers and the exact oracle)

def pair_index(n: int, u: int, v: int) -> int:
    """Index of unordered pair (u, v) in the lexicographic list of all pairs."""
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def edge_mask(g: Graph) -> int:
    mask = 0
    for u, v in g.edges():
        mask |= 1 << pair_index(g.n, u, v)
    return mask


def graph_from_mask(n: int, mask: int) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2)
             if mask >> pair_index(n, u, v) & 1]
    return Graph(n, edges)


def complete_mask(n: int) -> int:
    return (1 << (n * (n - 1) // 2)) - 1


# ---------------------------------------------------------------------------
# degeneracy

def degeneracy_ordering(g: Graph) -> tuple[int, VertexOrdering]:
    """Greedy min-degree peeling.

    Returns (k, ordering) where every vertex has at most k neighbors after
    it in the ordering, and k is the smallest number with this property.
    Ties in the peel go to the smallest vertex index.
    """
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
    return k, VertexOrdering(tuple(order), "degeneracy")


# ---------------------------------------------------------------------------
# girth

def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or math.inf for forests.

    BFS from every vertex; any non-tree edge (u, w) seen from root r closes
    a walk of length dist[u] + dist[w] + 1 that contains a cycle no longer
    than itself, and a root on a shortest cycle attains the girth exactly.
    """
    best: int | float = math.inf
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent[w] != u:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return best


# ---------------------------------------------------------------------------
# exact invariants at desk scale

def max_independent_set(g: Graph, limit: int = 24) -> frozenset[int]:
    """Exact maximum independent set by branch and bound over bitmasks."""
    if g.n > limit:
        raise ExactLimitError(f"exact independent set refused for n={g.n} > {limit}")
    n = g.n
    nbr = g.adjacency_masks()
    best = 0
    best_set = 0

    def grow(avail: int, cur: int, size: int) -> None:
        nonlocal best, best_set
        if size + avail.bit_count() <= best:
            return
        if avail == 0:
            if size > best:
                best, best_set = size, cur
            return
        # take low-degree vertices greedily, branch on the busiest one
        pick = -1
        pick_deg = -1
        m = avail
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (nbr[v] & avail).bit_count()
            if d <= 1:
                grow(avail & ~nbr[v] & ~(1 << v), cur | 1 << v, size + 1)
                return
            if d > pick_deg:
                pick_deg, pick = d, v
        grow(avail & ~nbr[pick] & ~(1 << pick), cur | 1 << pick, size + 1)
        grow(avail & ~(1 << pick), cur, size)

    grow((1 << n) - 1, 0, 0)
    return frozenset(v for v in range(n) if best_set >> v & 1)


def maximal_cliques(g: Graph) -> Iterator[frozenset[int]]:
    """Bron-Kerbosch with pivoting."""
    n = g.n
    if n == 0:
        yield frozenset()
        return
    nbr = g.adjacency_masks()

    def expand(r: int, p: int, x: int) -> Iterator[int]:
        if p == 0 and x == 0:
            yield r
            return
        pivot = max(_bits(p | x), key=lambda v: (nbr[v] & p).bit_count())
        for v in _bits(p & ~nbr[pivot]):
            yield from expand(r | 1 << v, p & nbr[v], x & nbr[v])
            p &= ~(1 << v)
            x |= 1 << v

    for mask in expand(0, (1 << n) - 1, 0):
        yield frozenset(v for v in range(n) if mask >> v & 1)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def chromatic_number(g: Graph, limit: int = 16) -> int:
    """Exact chromatic number: iterative deepening over k with backtracking."""
    if g.n > limit:
        raise ExactLimitError(f"exact chromatic number refused for n={g.n} > {limit}")
    n = g.n
    if n == 0:
        return 0
    if g.m == 0:
        return 1
    omega = len(max_independent_set(g.complement(), limit=max(limit, 24)))
    order = sorted(range(n), key=lambda v: -g.degree(v))
    greedy = greedy_coloring(g, VertexOrdering(tuple(order)))
    upper = greedy.palette_size
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


@dataclass(frozen=True)
class SmallGraphInvariants:
    alpha: int  # max independent set
    omega: int  # max clique
    beta: int   # min vertex cover (= n - alpha)
    chi: int    # chromatic number


def exact_small_invariants(g: Graph, ab_limit: int = 24, chi_limit: int = 16) -> SmallGraphInvariants:
    """Exact alpha/omega/beta/chi; refuses above the configured caps."""
    alpha = len(max_independent_set(g, limit=ab_limit))
    omega = len(max_independent_set(g.complement(), limit=ab_limit))
    chi = chromatic_number(g, limit=chi_limit)
    return SmallGraphInvariants(alpha=alpha, omega=omega, beta=g.n - alpha, chi=chi)


# ---------------------------------------------------------------------------
# greedy coloring

def greedy_coloring(g: Graph, order: VertexOrdering) -> ProperColoring:
    """First-fit along the given order; never needs more than max_degree+1 colors."""
    if len(order.order) != g.n:
        raise ValueError("ordering length does not match graph")
    colors = [-1] * g.n
    highest = -1
    for v in order.order:
        used = {colors[u] for u in g.adj[v] if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
        highest = max(highest, c)
    return ProperColoring(tuple(colors), palette_size=highest + 1 if g.n else 0)


# ---------------------------------------------------------------------------
# named small graphs (used by the demos and handy for callers)

def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return Graph(n)


def star_graph(n: int) -> Graph:
    """Star on n vertices with center 0."""
    return Graph(n, ((0, i) for i in range(1, n)))


def disjoint_cliques(size: int, count: int = 2) -> Graph:
    """`count` disjoint copies of K_size (e.g. 2K_2, 2K_3)."""
    edges = []
    for c in range(count):
        base = c * size
        edges.extend((base + i, base + j) for i, j in combinations(range(size), 2))
    return Graph(size * count, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)
