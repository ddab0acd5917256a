"""Tree decompositions: the PACE-style text format, validation of the three
defining conditions, and a min-fill heuristic construction.

Bag ids are 1-based (a parsed decomposition is rooted at bag 1); graph
vertices are 0-based like everywhere else in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable

from .graphs import Graph, _bits, check_vertex_count, parse_ints, read_lines


class TreeDecompositionError(ValueError):
    """Structured rejection; `condition` names which defining condition broke
    (1 = vertex coverage, 2 = edge coverage, 3 = connected vertex traces,
    0 = malformed structure)."""

    def __init__(self, condition: int, message: str):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class TreeDecomposition:
    bags: dict[int, frozenset[int]]
    tree: dict[int, tuple[int, ...]]  # bag adjacency, symmetric
    root: int
    n: int  # number of graph vertices the bags speak about

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=0) - 1

    def nodes(self) -> list[int]:
        return sorted(self.bags)


def _check_tree_shape(td: TreeDecomposition) -> dict[int, int | None]:
    """Check that the bags form a tree; return each bag's parent when the
    tree hangs from the root (None at the root)."""
    nodes = set(td.bags)
    if td.root not in nodes:
        raise TreeDecompositionError(0, f"root bag {td.root} does not exist")
    for i, nbrs in td.tree.items():
        if i not in nodes:
            raise TreeDecompositionError(0, f"tree edge at unknown bag {i}")
        for j in nbrs:
            if j not in nodes:
                raise TreeDecompositionError(0, f"tree edge to unknown bag {j}")
            if j == i:
                raise TreeDecompositionError(0, f"tree edge ({i},{i}) is a loop")
            if i not in td.tree.get(j, ()):
                raise TreeDecompositionError(0, "tree adjacency is not symmetric")
    edge_count = sum(len(nbrs) for nbrs in td.tree.values()) // 2
    if edge_count != len(nodes) - 1:
        raise TreeDecompositionError(0, "bag tree is not a tree (wrong edge count)")
    parent = {td.root: None}
    stack = [td.root]
    while stack:
        i = stack.pop()
        for j in td.tree.get(i, ()):
            if j not in parent:
                parent[j] = i
                stack.append(j)
    if parent.keys() != nodes:
        raise TreeDecompositionError(0, "bag tree is not connected")
    return parent


def _check_traces(td: TreeDecomposition, parent: dict[int, int | None]) -> None:
    """Condition 3: for each vertex, the bags containing it induce a subtree.
    They induce a forest of the rooted tree with one component per such bag
    that is the root or hangs from a bag without the vertex."""
    tops: dict[int, int] = {}
    for i, bag in td.bags.items():
        above = td.bags[parent[i]] if parent[i] is not None else ()
        for v in bag:
            tops[v] = tops.get(v, 0) + (v not in above)
    for v, count in tops.items():
        if count != 1:
            raise TreeDecompositionError(
                3, f"bags containing vertex {v} do not form a connected subtree")


def validate_tree_decomposition(td: TreeDecomposition, g: Graph) -> None:
    """Raise TreeDecompositionError unless td is a tree decomposition of g:
    a tree of bags over the vertices 0..g.n-1 that covers every vertex, puts
    every edge inside some bag and has connected vertex traces."""
    if td.n != g.n:
        raise TreeDecompositionError(0, f"decomposition is for n={td.n}, graph has n={g.n}")
    parent = _check_tree_shape(td)
    covered = set().union(*td.bags.values())
    stray = {v for v in covered if not 0 <= v < td.n}
    if stray:
        raise TreeDecompositionError(0, f"bag vertex {min(stray)} out of range for n={td.n}")
    if covered != set(range(td.n)):
        missing = sorted(set(range(td.n)) - covered)
        raise TreeDecompositionError(1, f"vertices {missing} appear in no bag")
    holders: dict[int, set[int]] = {}  # the bags containing each vertex
    for i, bag in td.bags.items():
        for v in bag:
            holders.setdefault(v, set()).add(i)
    for u, v in g.edges():
        if holders[u].isdisjoint(holders[v]):
            raise TreeDecompositionError(2, f"edge ({u},{v}) is inside no bag")
    _check_traces(td, parent)


def read_tree_decomposition(text: str | Iterable[str]) -> TreeDecomposition:
    """Read the PACE-style format without validating the decomposition.

    Header "s td <#bags> <maxbagsize> <n>", bag lines "b <id> <v...>" with
    0-based vertices, then bag-tree edges "<id> <id>"; lines starting with
    "c" are comments. Root is bag 1.
    Malformed lines and counts that disagree with the header raise
    TreeDecompositionError (a non-number, ParseError); a header with more
    than MAX_VERTICES vertices is refused with ExactLimitError. The tree and
    bag conditions are left to `validate_tree_decomposition`, which
    `decompose_treewidth` runs on every decomposition it is given.
    """
    lines = (line for line in read_lines(text) if not line[1][0].startswith("c"))
    header_no, head = next(lines, (1, [""]))
    if len(head) != 5 or head[:2] != ["s", "td"]:
        raise TreeDecompositionError(
            0, f"line {header_no}: expected 's td <#bags> <maxbagsize> <n>'")
    bag_count, max_bag, n = parse_ints(header_no, head[2:])
    check_vertex_count(n)
    bags: dict[int, frozenset[int]] = {}
    edges: list[list[int]] = []
    for line_no, tokens in lines:
        if tokens[0] == "b":
            if len(tokens) < 2:
                raise TreeDecompositionError(0, f"line {line_no}: expected 'b <id> <v...>'")
            bag_id, *bag = parse_ints(line_no, tokens[1:])
            if bag_id in bags:
                raise TreeDecompositionError(0, f"line {line_no}: duplicate bag {bag_id}")
            bags[bag_id] = frozenset(bag)
        elif len(tokens) != 2:
            raise TreeDecompositionError(0, f"line {line_no}: expected '<id> <id>'")
        else:
            edges.append(parse_ints(line_no, tokens))
    if len(bags) != bag_count:
        raise TreeDecompositionError(0, f"header promised {bag_count} bags, found {len(bags)}")
    if any(len(b) > max_bag for b in bags.values()):
        raise TreeDecompositionError(0, "a bag exceeds the declared maximum size")
    tree: dict[int, set[int]] = {i: set() for i in bags}
    for i, j in edges:  # a bag edge at an unknown bag is left to the validation
        tree.setdefault(i, set()).add(j)
        tree.setdefault(j, set()).add(i)
    return TreeDecomposition(
        bags=bags,
        tree={i: tuple(sorted(s)) for i, s in tree.items()},
        root=1,
        n=n,
    )


def format_tree_decomposition(td: TreeDecomposition) -> str:
    lines = [f"s td {len(td.bags)} {td.width + 1} {td.n}"]
    for i in td.nodes():
        lines.append("b " + " ".join(str(x) for x in [i] + sorted(td.bags[i])))
    done = set()
    for i in td.nodes():
        for j in td.tree[i]:
            if (j, i) not in done:
                lines.append(f"{i} {j}")
                done.add((i, j))
    return "\n".join(lines) + "\n"


def heuristic_tree_decomposition(g: Graph) -> TreeDecomposition:
    """Min-fill elimination ordering, turned into a valid tree decomposition.

    Each step eliminates the live vertex of least (fill, index), where fill
    counts the non-adjacent pairs among its neighbors in the fill graph.
    The fill graph is held as per-vertex neighbor bitmasks. Eliminating v
    makes S = N(v) a clique, and the fill counts are updated from the fill
    edges that adds, never recounted, so a step costs time in proportion to
    its fill edges and to |S|:
    - every w != v gains the fill edges with both ends in N(w). A fill
      edge's ends have their common neighbors as one AND of two masks, and
      these masks are summed in bit-sliced counters: plane i holds bit i of
      every vertex's count, and adding a mask ripples a carry through the
      planes. The counts are read off the planes once per step. Nothing
      else changes for w outside N[v];
    - a neighbor a of v, with outside neighbors O = N(a) - N[v] and fill
      partners F = S - N[a], also loses v, which misses all of O, and gains
      F, each b of which misses O - N(b). |O & N(b)| is taken once per fill
      edge (a, b) and counted at both ends. When S is already a clique,
      the neighbors only lose v.
    The next vertex comes off a heap of (fill, vertex) entries with lazy
    deletion: an entry is live iff its vertex is and its fill is current,
    so ties go to the least index. The heap is rebuilt from the live
    vertices when stale entries outnumber them. Once a vertex of fill 0
    sees every other live vertex, the live vertices form a clique, every
    fill among them is 0, and they are eliminated in one step, ascending.

    Bag i holds the i-th eliminated vertex plus its not-yet-eliminated
    neighbors in the fill graph; each bag hangs under the bag of its
    earliest-eliminated later neighbor, so vertex traces stay connected.
    The root is the last eliminated vertex's bag. Width is a heuristic
    upper bound on the true treewidth (exact on chordal inputs).

    The result is valid by construction and is not validated here:
    `decompose_treewidth` validates every tree decomposition it is given.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition(bags={1: frozenset()}, tree={1: ()}, root=1, n=0)
    adj = g.adjacency_masks()
    # C(deg v, 2) minus the edges among v's neighbors
    cost = [nb.bit_count() * (nb.bit_count() - 1) // 2
            - sum((adj[a] & nb).bit_count() for a in _bits(nb)) // 2 for nb in adj]
    heap = [(c, v) for v, c in enumerate(cost)]
    heapify(heap)
    alive = set(range(n))
    elim_order: list[int] = []
    later_nbrs: list[list[int]] = [[]] * n
    cross = [0] * n

    for _ in range(n):
        fill, v = heappop(heap)
        while v not in alive or cost[v] != fill:
            fill, v = heappop(heap)
        alive.discard(v)
        elim_order.append(v)
        nb = adj[v]
        bit = 1 << v
        later = []
        rest = nb
        while rest:
            low = rest & -rest
            later.append(low.bit_length() - 1)
            rest ^= low
        later_nbrs[v] = later
        if not fill and len(later) == len(alive):
            # the live vertices are a clique, so every fill stays 0 and the
            # rest go in ascending order, each seeing the ones after it
            for i, u in enumerate(later):
                elim_order.append(u)
                later_nbrs[u] = later[i + 1:]
            break
        if not fill:
            # a neighbor a of degree d loses v and the len(later) - 1 edges
            # from v into N(a): its fill drops by d - len(later)
            for a in later:
                drop = adj[a].bit_count() - len(later)
                adj[a] ^= bit
                if drop:
                    cost[a] -= drop
                    heappush(heap, (cost[a], a))
        else:
            # no count exceeds `fill`, so fill.bit_length() planes hold them;
            # cross[a] sums |O & N(b)| over a's fill partners b
            outside = ~(nb | bit)
            fresh_of = [nb & ~adj[a] & ~(1 << a) for a in later]
            planes = [0] * fill.bit_length()
            for a, fresh in zip(later, fresh_of):
                fresh &= -(2 << a)  # each fill edge (a, b) once, at a < b
                seen = adj[a] ^ bit
                while fresh:
                    low = fresh & -fresh
                    b = low.bit_length() - 1
                    fresh ^= low
                    carry = seen & adj[b]
                    shared = (carry & outside).bit_count()
                    cross[a] += shared
                    cross[b] += shared
                    i = 0
                    while carry:
                        plane = planes[i]
                        planes[i] = plane ^ carry
                        carry &= plane
                        i += 1
            touched = nb
            for i, plane in enumerate(planes):
                touched |= plane
                unit = 1 << i
                while plane:
                    low = plane & -plane
                    cost[low.bit_length() - 1] -= unit
                    plane ^= low
            for a, fresh in zip(later, fresh_of):
                old = adj[a]
                cost[a] += (fresh.bit_count() - 1) * (old & outside).bit_count() - cross[a]
                cross[a] = 0
                adj[a] = (old | fresh) ^ bit
            while touched:
                low = touched & -touched
                w = low.bit_length() - 1
                heappush(heap, (cost[w], w))
                touched ^= low
        if len(heap) > 2 * len(alive):
            heap = [(cost[u], u) for u in alive]
            heapify(heap)

    elim_pos = {v: i for i, v in enumerate(elim_order)}
    bags = {i + 1: frozenset(later_nbrs[v]).union((v,)) for i, v in enumerate(elim_order)}
    root = n  # bag of the last eliminated vertex
    tree: dict[int, set[int]] = {i: set() for i in bags}
    for i, v in enumerate(elim_order[:-1], start=1):
        if later_nbrs[v]:
            parent = min(elim_pos[u] for u in later_nbrs[v]) + 1
        else:
            parent = root
        tree[i].add(parent)
        tree[parent].add(i)
    return TreeDecomposition(
        bags=bags,
        tree={i: tuple(sorted(s)) for i, s in tree.items()},
        root=root,
        n=n,
    )
