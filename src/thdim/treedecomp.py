"""Tree decompositions: the PACE-style text format, validation of the three
defining conditions, and a min-fill heuristic construction.

Bag ids are 1-based (a parsed decomposition is rooted at bag 1); graph
vertices are 0-based like everywhere else in this package.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, check_vertex_count


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


def validate_tree_decomposition(td: TreeDecomposition, g: Graph | None = None) -> None:
    """Raise TreeDecompositionError unless td is a tree of bags over the
    vertices 0..td.n-1 that covers every vertex and has connected vertex
    traces; when g is given, unless td is a tree decomposition of g (same n,
    every edge inside some bag)."""
    if g is not None and td.n != g.n:
        raise TreeDecompositionError(0, f"decomposition is for n={td.n}, graph has n={g.n}")
    parent = _check_tree_shape(td)
    covered = set().union(*td.bags.values())
    stray = {v for v in covered if not 0 <= v < td.n}
    if stray:
        raise TreeDecompositionError(0, f"bag vertex {min(stray)} out of range for n={td.n}")
    if covered != set(range(td.n)):
        missing = sorted(set(range(td.n)) - covered)
        raise TreeDecompositionError(1, f"vertices {missing} appear in no bag")
    if g is not None:
        holders: dict[int, set[int]] = {}  # the bags containing each vertex
        for i, bag in td.bags.items():
            for v in bag:
                holders.setdefault(v, set()).add(i)
        for u, v in g.edges():
            if holders[u].isdisjoint(holders[v]):
                raise TreeDecompositionError(2, f"edge ({u},{v}) is inside no bag")
    _check_traces(td, parent)


def read_tree_decomposition(text: str) -> TreeDecomposition:
    """Read the PACE-style format without validating the decomposition.

    Header "s td <#bags> <maxbagsize> <n>", bag lines "b <id> <v...>" with
    0-based vertices, then bag-tree edges "<id> <id>". Root is bag 1.
    Malformed lines, counts that disagree with the header and tree edges at
    unknown bags raise TreeDecompositionError; a header with more than
    MAX_VERTICES vertices is refused with ExactLimitError. The tree and bag
    conditions are left to `validate_tree_decomposition`, which
    `decompose_treewidth` runs on every decomposition it is given.
    """
    header = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 5 or tokens[0] != "s" or tokens[1] != "td":
                raise TreeDecompositionError(
                    0, f"line {line_no}: expected 's td <#bags> <maxbagsize> <n>'")
            header = tuple(int(t) for t in tokens[2:])
            check_vertex_count(header[2])
            continue
        if tokens[0] == "b":
            if len(tokens) < 2:
                raise TreeDecompositionError(0, f"line {line_no}: expected 'b <id> <v...>'")
            bag_id = int(tokens[1])
            if bag_id in bags:
                raise TreeDecompositionError(0, f"line {line_no}: duplicate bag {bag_id}")
            bags[bag_id] = frozenset(int(t) for t in tokens[2:])
        else:
            if len(tokens) != 2:
                raise TreeDecompositionError(0, f"line {line_no}: expected '<id> <id>'")
            edges.append((int(tokens[0]), int(tokens[1])))
    if header is None:
        raise TreeDecompositionError(0, "missing 's td' header")
    bag_count, max_bag, n = header
    if len(bags) != bag_count:
        raise TreeDecompositionError(
            0, f"header promised {bag_count} bags, found {len(bags)}")
    if any(len(b) > max_bag for b in bags.values()):
        raise TreeDecompositionError(0, "a bag exceeds the declared maximum size")
    tree: dict[int, set[int]] = {i: set() for i in bags}
    for i, j in edges:
        if i not in bags or j not in bags:
            raise TreeDecompositionError(0, f"tree edge ({i},{j}) uses unknown bag")
        tree[i].add(j)
        tree[j].add(i)
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
    The fill graph is held as per-vertex neighbor bitmasks, and beside each
    fill count is the number of edges among the vertex's neighbors, so that
    fill = C(deg, 2) - inside. Eliminating v only adds edges inside N(v),
    and the counts are updated from those fill edges, never recounted: a
    vertex outside N[v] gains the fill edges inside its own neighborhood,
    and a neighbor a of v loses v and its edges, gains the fill edges
    among N(v) - a, and gains the edges of its new neighbors.

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
    # inside[v]: edges among v's neighbors; cost[v] = C(deg v, 2) - inside[v]
    inside = [sum((adj[a] & nb).bit_count() for a in _bits(nb)) // 2 for nb in adj]
    cost = [nb.bit_count() * (nb.bit_count() - 1) // 2 - inside[v]
            for v, nb in enumerate(adj)]
    alive = set(range(n))
    elim_order: list[int] = []
    later_nbrs: list[set[int]] = [set() for _ in range(n)]

    for _ in range(n):
        v = min(alive, key=lambda u: (cost[u], u))
        nb = adj[v]
        fill = cost[v]
        later = list(_bits(nb))
        later_nbrs[v] = set(later)
        new = {a: nb & ~adj[a] & ~(1 << a) for a in later}
        # a vertex w outside N[v] gains the fill edges among the vertices it
        # sees; only the ends of fill edges and their neighbors can gain any
        filling = touched = 0
        for a, fresh in new.items():
            if fresh:
                filling |= 1 << a
                touched |= adj[a]
        for w in _bits(touched & ~nb & ~(1 << v)):
            seen = adj[w] & filling
            if seen & (seen - 1):  # w sees at least two ends of fill edges
                gained = sum((new[a] & seen).bit_count() for a in _bits(seen)) // 2
                inside[w] += gained
                cost[w] -= gained
        # each a in N(v) becomes adjacent to x = N(a) + F - v, F = new[a]; on
        # the old adjacency, edges among x are those among N(a) - v, the fill
        # edges not at a, and the old edges at F, those inside F counted twice
        keep = ~(1 << v)
        grown = {}
        for a, fresh in new.items():
            x = (adj[a] | fresh) & keep
            at_fresh = within_fresh = 0
            for b in _bits(fresh):
                at_fresh += (adj[b] & x).bit_count()
                within_fresh += (adj[b] & fresh).bit_count()
            inside[a] += (fill - fresh.bit_count() - (adj[a] & nb).bit_count()
                          + at_fresh - within_fresh // 2)
            grown[a] = x
        for a, x in grown.items():
            adj[a] = x
            d = x.bit_count()
            cost[a] = d * (d - 1) // 2 - inside[a]
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
    return TreeDecomposition(
        bags=bags,
        tree={i: tuple(sorted(s)) for i, s in tree.items()},
        root=root,
        n=n,
    )
