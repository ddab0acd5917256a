"""Tree decompositions: the PACE-style text format, validation of the three
defining conditions, and a min-fill heuristic construction.

Bag ids are 1-based (a parsed decomposition is rooted at bag 1); graph
vertices are 0-based like everywhere else in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, check_vertex_count


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


def _check_tree_shape(td: TreeDecomposition) -> None:
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
    seen = {td.root}
    stack = [td.root]
    while stack:
        i = stack.pop()
        for j in td.tree.get(i, ()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if seen != nodes:
        raise TreeDecompositionError(0, "bag tree is not connected")


def _check_traces(td: TreeDecomposition) -> None:
    """Condition 3: for each vertex, the bags containing it induce a subtree."""
    holders: dict[int, set[int]] = {}
    for i, bag in td.bags.items():
        for v in bag:
            holders.setdefault(v, set()).add(i)
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


def validate_tree_decomposition(td: TreeDecomposition, g: Graph | None = None) -> None:
    """Raise TreeDecompositionError unless td is a tree of bags over the
    vertices 0..td.n-1 that covers every vertex and has connected vertex
    traces; when g is given, unless td is a tree decomposition of g (same n,
    every edge inside some bag)."""
    if g is not None and td.n != g.n:
        raise TreeDecompositionError(0, f"decomposition is for n={td.n}, graph has n={g.n}")
    _check_tree_shape(td)
    covered = set().union(*td.bags.values())
    stray = {v for v in covered if not 0 <= v < td.n}
    if stray:
        raise TreeDecompositionError(0, f"bag vertex {min(stray)} out of range for n={td.n}")
    if covered != set(range(td.n)):
        missing = sorted(set(range(td.n)) - covered)
        raise TreeDecompositionError(1, f"vertices {missing} appear in no bag")
    if g is not None:
        for u, v in g.edges():
            if not any(u in bag and v in bag for bag in td.bags.values()):
                raise TreeDecompositionError(2, f"edge ({u},{v}) is inside no bag")
    _check_traces(td)


def parse_tree_decomposition(text: str, g: Graph | None = None) -> TreeDecomposition:
    """Parse the PACE-style format.

    Header "s td <#bags> <maxbagsize> <n>", bag lines "b <id> <v...>" with
    0-based vertices, then bag-tree edges "<id> <id>". Root is bag 1.
    The result passes `validate_tree_decomposition(td, g)`, which checks
    edge coverage only when the graph is supplied. A header with more than
    MAX_VERTICES vertices is refused with ExactLimitError.
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
    td = TreeDecomposition(
        bags=bags,
        tree={i: tuple(sorted(s)) for i, s in tree.items()},
        root=1,
        n=n,
    )
    validate_tree_decomposition(td, g)
    return td


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
