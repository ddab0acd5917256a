"""Simple undirected graphs and the classical subroutines the decomposition
methods lean on: edge-list parsing, degeneracy peeling, girth, exact
independent sets and chromatic numbers, and greedy coloring.

Vertices are always the integers 0..n-1. Graph values are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import heapq
import math
import re
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Malformed input file; message names the offending 1-based line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_lines(lines: str | Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """The 1-based number and tokens of each line, of a text or any iterable of
    lines, that holds more than a comment ('#' to the end of the line). A text
    breaks into lines at '\\n', '\\r' and '\\r\\n' only, as a text-mode file does."""
    if isinstance(lines, str):
        lines = re.split(r"\r\n?|\n", lines)
    for line_no, line in enumerate(lines, start=1):
        tokens = line.partition("#")[0].split()
        if tokens:
            yield line_no, tokens


def parse_ints(line_no: int, tokens: Iterable[str],
               number: Callable[[str], int] = int) -> list[int]:
    """The tokens of line `line_no` as integers, each read by `number`; a
    token that is not one raises ParseError naming the line."""
    try:
        return list(map(number, tokens))
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


class ExactLimitError(ValueError):
    """Refusal to work above a configured size cap: an exact solver's, or
    the vertex count a file may declare."""


# The most vertices an input file may declare. Its header is checked before
# anything is allocated, so a one-line file cannot exhaust memory: Graph(n)
# alone costs about 0.5 KB per vertex.
MAX_VERTICES = 100_000
MAX_EDGES = 10**6  # the most edges a spec row may draw: gen_gnm holds ~440 bytes an edge


# The most vertices the exact chromatic number and independent set take.
CHROMATIC_LIMIT = 16
INDEPENDENT_SET_LIMIT = 24


def check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ExactLimitError(f"{n} vertices exceed the cap MAX_VERTICES = {MAX_VERTICES}")


class Graph:
    """Immutable simple undirected graph with set-based adjacency."""

    __slots__ = ("n", "adj", "_masks")

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
        """Bitmask of the neighbours of every vertex, as a new list the caller
        may edit; the masks are built on the first call and kept."""
        try:
            masks = self._masks
        except AttributeError:
            masks = self._masks = self._build_masks()
        return list(masks)

    def _build_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << u for u in s) for s in self.adj)

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

    def induced(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on `keep`, relabeled to 0..len(keep)-1 in sorted order."""
        keep = sorted(set(keep))
        index = {v: i for i, v in enumerate(keep)}
        edges = [(i, index[u]) for i, v in enumerate(keep) for u in self.adj[v]
                 if u > v and u in index]
        return Graph(len(keep), edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# edge-list file format: "p <n> <m>" then m lines "<u> <v>", '#' comments

def parse_edge_list(text: str | Iterable[str]) -> Graph:
    """Parse the plain edge-list format into a Graph.

    First non-comment line must be "p <n> <m>"; the next m non-comment lines
    are "<u> <v>" with 0-based endpoints. Duplicate edges collapse silently,
    self-loops and out-of-range indices are hard errors. A header with more
    than MAX_VERTICES vertices is refused with ExactLimitError.
    """
    lines = read_lines(text)
    header_no, tokens = next(lines, (1, [""]))
    if len(tokens) != 3 or tokens[0] != "p":
        raise ParseError(header_no, f"expected header 'p <n> <m>', got {' '.join(tokens)!r}")
    n, m = parse_ints(header_no, tokens[1:])
    if n < 0 or m < 0:
        raise ParseError(header_no, "negative vertex or edge count")
    check_vertex_count(n)
    edges: list[tuple[int, int]] = []
    for line_no, tokens in lines:
        if len(edges) == m:
            raise ParseError(line_no, f"unexpected extra line after {m} edges")
        if len(tokens) != 2:
            raise ParseError(line_no, f"expected '<u> <v>', got {len(tokens)} tokens")
        u, v = parse_ints(line_no, tokens)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(line_no, f"vertex index out of range for n={n}")
        if u == v:
            raise ParseError(line_no, f"self-loop at vertex {u}")
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(header_no, f"header promised {m} edges but only {len(edges)} were given")
    return Graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# pair-index bitmask helpers (the exact dimension's cover search)

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

def degeneracy_ordering(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Greedy min-degree peeling.

    Returns (k, ordering) where every vertex has at most k neighbors after
    it in the ordering, and k is the smallest number with this property.
    Ties in the peel go to the smallest vertex index.
    """
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    # lazy deletion: degrees only fall, so a live vertex's current entry
    # (deg[u], u) always pops before its stale ones
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    order: list[int] = []
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        k = max(k, d)
        alive[v] = False
        order.append(v)
        for w in g.adj[v]:
            if alive[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return k, tuple(order)


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

def max_independent_set(g: Graph) -> frozenset[int]:
    """Exact maximum independent set by branch and bound over bitmasks;
    refuses n > INDEPENDENT_SET_LIMIT."""
    if g.n > INDEPENDENT_SET_LIMIT:
        raise ExactLimitError(
            f"exact independent set refused for n={g.n} > {INDEPENDENT_SET_LIMIT}")
    return frozenset(_bits(_max_independent(g.adjacency_masks(), (1 << g.n) - 1)))


def _clique_number(nbr: list[int], within: int) -> int:
    """Size of a largest clique in the vertex mask `within`, from the complement masks."""
    return _max_independent([within & ~(m | 1 << v) for v, m in enumerate(nbr)],
                            within).bit_count()


def _max_independent(nbr: list[int], avail: int) -> int:
    """Mask of a maximum independent set among the vertices of `avail`,
    where nbr[v] is the neighbour mask of v."""
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

    grow(avail, 0, 0)
    return best_set


def maximal_cliques(g: Graph) -> Iterator[int]:
    """Vertex masks of the maximal cliques, by Bron-Kerbosch with pivoting."""
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

    return expand(0, (1 << g.n) - 1, 0)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number (0 for the empty graph); refuses n > CHROMATIC_LIMIT."""
    if g.n > CHROMATIC_LIMIT:
        raise ExactLimitError(f"exact chromatic number refused for n={g.n} > {CHROMATIC_LIMIT}")
    return _chromatic(g.adjacency_masks(), (1 << g.n) - 1)


def _chromatic(nbr: list[int], within: int) -> int:
    """Exact chromatic number of the subgraph induced on the vertex mask
    `within`, where nbr[v] is the neighbour mask of v.

    A first-fit colouring along decreasing degree with at most two colours
    is optimal. Otherwise iterative deepening over k from the clique number
    (a maximum independent set of the complement masks) up to first fit's
    palette, by backtracking along the same order. Colour classes are vertex
    masks that only ever hold vertices of `within`, so a class is tested
    against whole neighbour masks.
    """
    order = sorted(_bits(within), key=lambda v: -(nbr[v] & within).bit_count())
    first_fit: list[int] = []
    for v in order:
        for c, cls in enumerate(first_fit):
            if not cls & nbr[v]:
                first_fit[c] |= 1 << v
                break
        else:
            first_fit.append(1 << v)
    upper = len(first_fit)
    if upper <= 2:
        return upper
    omega = _clique_number(nbr, within)

    def colorable(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for c in range(min(k, used + 1)):  # a new colour only one beyond the used
            if not classes[c] & nbr[v]:
                classes[c] |= 1 << v
                if colorable(i + 1, max(used, c + 1)):
                    return True
                classes[c] ^= 1 << v
        return False

    for k in range(omega, upper):
        classes = [0] * k
        if colorable(0, 0):
            return k
    return upper


# ---------------------------------------------------------------------------
# greedy coloring

def greedy_coloring(g: Graph, order: Sequence[int]) -> tuple[int, ...]:
    """First-fit along `order`, a permutation of g's vertices (ValueError
    otherwise): the colour of each vertex, at most max_degree. Every colour
    from 0 to the largest is used."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the graph's vertices")
    colors = [-1] * g.n
    for v in order:
        used = {colors[u] for u in g.adj[v] if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return tuple(colors)


def color_classes(colors: Sequence[int]) -> list[list[int]]:
    """The vertices of each colour from 0 to the largest, each ascending;
    `colors` gives each vertex's colour."""
    classes: list[list[int]] = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        classes[c].append(v)
    return classes


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
