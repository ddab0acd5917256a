"""The bounded-degree decomposition pipeline: suitable permutation families,
bounded-degree vertex partitions, split extensions G*[A,B] and their
decomposition, and the top-level max-degree construction.

Every randomized ingredient is checked exactly before use (Las Vegas with
explicit retry caps), and no check draws random inputs: a permutation
family is checked on the block orders its split's cells use, not sampled.
Correctness of the emitted decompositions is established by intersection
checking, never by trusting the probabilistic argument.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .decompose import Decomposition, RandomizedSearchError, _finish
from .graphs import Graph, color_classes, degeneracy_ordering, greedy_coloring
from .seeding import split_seed
from .threshold import _check_a_order, _Intersection

PARTITION_RESTARTS = 16  # fresh random assignments before bounded_partition gives up


# ---------------------------------------------------------------------------
# suitable families of permutations

def build_suitable_family(ground: int, k: int,
                          requirements: Iterable[tuple[tuple[int, ...], int]],
                          seed: int = 0) -> Iterator[tuple[tuple[int, ...], int | None]]:
    """Random permutations of range(ground), drawn one at a time until every
    requirement (subset, last) holds: some permutation puts `last` after the
    rest of `subset`. Yields each permutation with the family's size, None
    until every requirement holds.

    The family has ceil(k * 2^k * ln ln max(ground, 16)) permutations, the
    size at which a family is likely k-suitable (every element of every
    k-subset comes last in some member), or more when the requirements need
    more, up to 4x that; beyond the cap the draw fails with statistics. The
    check is exact over the requirements given and draws nothing from the
    stream, so the family is a prefix of the permutations the seed yields,
    and a caller may stop reading it at any member. As a generator, it
    checks k and ground when the first member is drawn.
    """
    if not (2 <= k <= ground):
        raise ValueError(f"need 2 <= k <= ground, got k={k}, ground={ground}")
    rng = random.Random(split_seed(seed, "suitable", ground, k))
    start = math.ceil(k * (2 ** k) * math.log(math.log(max(ground, 16))))
    cap = 4 * start
    bad = list(requirements)
    drawn = 0
    while drawn < start or (bad and drawn < cap):
        p = list(range(ground))
        rng.shuffle(p)
        drawn += 1
        if bad:
            pos = {v: i for i, v in enumerate(p)}
            bad = [(s, x) for s, x in bad if max(s, key=pos.__getitem__) != x]
        yield tuple(p), None if bad else max(start, drawn)
    if bad:
        raise RandomizedSearchError(
            "suitable family not found",
            {"ground": ground, "k": k, "size": drawn, "uncovered": len(bad)})


# ---------------------------------------------------------------------------
# bounded-degree partition

def bounded_partition(g: Graph, d: int, parts: int,
                      seed: int = 0) -> tuple[frozenset[int], ...]:
    """Partition V so every vertex has at most d neighbors inside every part.

    One part is V itself when no vertex has more than d neighbors, the only
    answer the repair below could give, and is returned with nothing drawn.
    Otherwise: random assignment plus randomized local repair: while some
    vertex sees more than d neighbors in a part, one of those neighbors
    (picked at random) moves to a part where the vertex has fewest. A repair
    stuck after max(1000, 50 * n * parts) moves is followed by a fresh
    restart; exhausting PARTITION_RESTARTS of them fails with the worst
    violation.
    """
    if parts < 1 or d < 1:
        raise ValueError("need parts >= 1 and d >= 1")
    if parts == 1 and g.max_degree() <= d:
        return (frozenset(range(g.n)),)
    cap = max(1000, 50 * g.n * parts)
    worst_seen = 0
    for attempt in range(PARTITION_RESTARTS):
        rng = random.Random(split_seed(seed, "partition", attempt))
        part_of = [rng.randrange(parts) for _ in range(g.n)]
        counts = [[0] * parts for _ in range(g.n)]  # counts[v][i] = |N(v) & V_i|
        for v in range(g.n):
            for u in g.adj[v]:
                counts[v][part_of[u]] += 1
        for _ in range(cap):
            violations = [(v, i) for v in range(g.n) for i in range(parts)
                          if counts[v][i] > d]
            if not violations:
                return tuple(frozenset(v for v in range(g.n) if part_of[v] == i)
                             for i in range(parts))
            v, i = violations[rng.randrange(len(violations))]
            candidates = [u for u in g.adj[v] if part_of[u] == i]
            w = candidates[rng.randrange(len(candidates))]
            fewest = min(counts[v])
            targets = [j for j in range(parts) if counts[v][j] == fewest]
            target = targets[rng.randrange(len(targets))]
            old = part_of[w]
            part_of[w] = target
            for u in g.adj[w]:
                counts[u][old] -= 1
                counts[u][target] += 1
        worst_seen = max(worst_seen,
                         max(counts[v][i] for v in range(g.n) for i in range(parts)))
    raise RandomizedSearchError(
        "bounded partition repair failed",
        {"d": d, "parts": parts, "worst_violation": worst_seen})


# ---------------------------------------------------------------------------
# bipartite coloring families

def bipartite_coloring_family(g: Graph, a_side: Sequence[int], b_side: Sequence[int],
                              r: int, t: int, ell: int,
                              seed: int = 0) -> tuple[list[dict[int, int]], dict[int, int]]:
    """t random colorings of A with ell colors such that every vertex of B has
    one coloring giving each color to at most r of its A-neighbors, and
    `first`, mapping each B-vertex to the index of its first such coloring.

    Colorings are independent and uniform, and each is tested only on the
    B-vertices no earlier one covers; if some stay uncovered the family
    grows up to 3t before failing with them.
    """
    if r < 1 or t < 1 or ell < 1:
        raise ValueError("need r, t, ell >= 1")
    a_side = sorted(a_side)
    rng = random.Random(split_seed(seed, "bipartite-colorings"))
    colorings: list[dict[int, int]] = []
    first: dict[int, int] = {}
    a_set = set(a_side)
    uncovered = {v: [u for u in g.adj[v] if u in a_set] for v in sorted(b_side)}
    while len(colorings) < 3 * t:
        c = {a: rng.randrange(ell) for a in a_side}
        for v in [v for v, nbrs in uncovered.items() if _thin(nbrs, c, r)]:
            first[v] = len(colorings)
            del uncovered[v]
        colorings.append(c)
        if len(colorings) >= t and not uncovered:
            return colorings, first
    raise RandomizedSearchError(
        "bipartite coloring family not found",
        {"t": t, "grew_to": len(colorings), "uncovered_b_vertices": list(uncovered)})


def _thin(nbrs: Sequence[int], coloring: dict[int, int], r: int) -> bool:
    """Whether `coloring` gives each color to at most r of `nbrs`."""
    tally: dict[int, int] = {}
    for u in nbrs:
        tally[coloring[u]] = tally.get(coloring[u], 0) + 1
        if tally[coloring[u]] > r:
            return False
    return True


# ---------------------------------------------------------------------------
# split extensions: G*[A, B], with A independent and B = V - A, keeps the
# edges of G at A and completes B into a clique

def decompose_split(g: Graph, a_side: Iterable[int], seed: int = 0) -> Decomposition:
    """Decompose G*[A, V - A] into a greedy subcover of its threshold
    factors, verified against G*[A, V - A]. A is `a_side`, an independent
    set of g."""
    a_side = set(a_side)
    orders, budget = _split_factors(g, a_side, seed, None)
    edges = [(a, u) for a in a_side for u in g.adj[a]]
    edges.extend(combinations([v for v in range(g.n) if v not in a_side], 2))
    # the split graph keeps g's edges at A, so it completes each order as g does
    split = Graph(g.n, edges)
    return _finish(split, "maxdeg", budget, _Intersection(split), orders)


def _split_factors(g: Graph, a_side: Iterable[int], seed: int,
                   diagnostics: list[str] | None) -> tuple[list[tuple[int, ...]], int]:
    """The threshold factors of G*[A, V - A], each listed as the order of
    A's vertices that guides its completion from g (`threshold_supergraph`),
    and their claimed count bound; repeats included, nothing completed or
    verified.

    The first order, A ascending, gives the all-of-A-isolated factor, which
    resolves every non-edge inside A. A is checked once, for range and
    independence (`_check_a_order`), before anything reads A's
    neighbourhoods. For the rest, B is sliced by which random
    coloring of A first spreads each vertex's neighborhood thinly (at most r
    per color), each (coloring, color) cell gets a conflict-free ordering of
    its A-part from a permutation family over the conflict color classes
    (blocks): each permutation orders the blocks twice, once with every
    block ascending and once with every block descending. The family is
    grown until it meets every block order the cells need
    (`_cell_requirements`). A completion depends on a permutation only
    through the order of the non-empty blocks, so each distinct ordering of
    a cell is listed once, in the order the permutations first give it; a
    cell with one non-empty block has one such order. The family is drawn
    only as far as the cells read it (`_cell_orderings`), and the claimed
    bound counts all of it. Each ordering is
    completed from g alone: its clique side, V minus the ordering, holds B,
    so the factor contains G*[A, B]; each B-vertex of the cell's slice gets
    the level the cell's requirements assume, and every other vertex sees
    the ordering up to its last neighbour in it (none of it without one).

    A cell's blocks and requirements depend on its slice only through the
    hoods: the A-neighbours in the cell of each B-vertex of the slice that
    has some. Each B-vertex's A-neighbours are listed once, ascending, from
    A's adjacency; they give d, and per coloring the slice's lists are
    bucketed by color (`_hoods`), so every edge between A and B is read
    once, not once per coloring or cell.

    `diagnostics`, when given, collects text lines describing the parameters
    and intermediate artifacts.
    """
    a_side = sorted(a_side)
    b_side = sorted(set(range(g.n)).difference(a_side))
    _check_a_order(g, a_side)
    orders = [tuple(a_side)]
    budget = 1
    # A is independent, so every neighbour of a vertex of A lies in B
    a_hoods: dict[int, list[int]] = {}  # each B-vertex's A-neighbours, ascending
    for a in a_side:
        for b in g.adj[a]:
            a_hoods.setdefault(b, []).append(a)
    d = max(2, max(map(len, a_hoods.values()), default=0))
    delta = max(1, max((len(g.adj[a]) for a in a_side), default=0))
    r = math.ceil(math.sqrt(math.log(d)))
    ell = math.ceil(math.e * (math.e * d / (r + 1)) ** (1 + 1 / r))
    t = math.ceil(math.log(4 * d * delta))
    if diagnostics is not None:
        diagnostics.append(
            f"split |A|={len(a_side)} |B|={len(b_side)} d={d} delta={delta} "
            f"r={r} ell={ell} t={t}")

    if a_side and b_side:
        colorings, first = bipartite_coloring_family(
            g, a_side, b_side, r=r, t=t, ell=ell,
            seed=split_seed(seed, "colorings"))
        ground = r * delta + 1
        slices: list[list[int]] = [[] for _ in range(len(colorings))]
        for v in b_side:
            slices[first[v]].append(v)

        cells: list[list[list[int]]] = []  # the blocks of each cell
        requirements: set[tuple[tuple[int, ...], int]] = set()
        for j, c in enumerate(colorings):
            b_part = slices[j]
            if not b_part:
                continue
            by_color: dict[int, list[int]] = {}
            for a in a_side:
                by_color.setdefault(c[a], []).append(a)
            hoods = _hoods(a_hoods, c, b_part)
            for color, a_part in sorted(by_color.items()):
                cell_hoods = hoods.get(color, [])
                blocks = _conflict_blocks(a_part, cell_hoods, ground)
                cells.append(blocks)
                requirements.update(_cell_requirements(blocks, cell_hoods))

        orderings, size, drawn = _cell_orderings(
            cells, build_suitable_family(ground, r + 1, requirements,
                                         seed=split_seed(seed, "suitable")))
        orders.extend(orderings)
        budget += 2 * size * t * ell
        if diagnostics is not None:
            diagnostics.append(f"  suitable family: ground={ground} k={r + 1} "
                               f"size={size} drawn={drawn}")
            diagnostics.append(f"  bipartite colorings: {len(colorings)}")
    return orders, budget


def _cell_orderings(cells: Sequence[Sequence[Sequence[int]]],
                    family: Iterable[tuple[tuple[int, ...], int | None]]
                    ) -> tuple[list[tuple[int, ...]], int, int]:
    """The orderings of the cells' A-parts along a permutation `family`
    (`build_suitable_family`), the family's size and the permutations drawn.

    Each permutation orders a cell's non-empty blocks, and each distinct
    ordering is listed twice, every block ascending and then every block
    descending, cell by cell, in the order the permutations first give it. A
    cell with one non-empty block has one ordering; one with U of them has
    at most |U|!. So the family is read only until its size is known and
    every cell has either seen all its orderings or the whole family.
    """
    used = [[ci for ci, block in enumerate(blocks) if block] for blocks in cells]
    seen: list[dict[tuple[int, ...], None]] = [
        dict.fromkeys([tuple(u)] if len(u) < 2 else []) for u in used]
    unseen = [(projections, u) for projections, u in zip(seen, used) if len(u) > 1]
    for drawn, (perm, size) in enumerate(family, 1):
        position = sorted(range(len(perm)), key=perm.__getitem__)  # of each block id
        for projections, u in unseen:
            projections[tuple(sorted(u, key=position.__getitem__))] = None
        unseen = [(projections, u) for projections, u in unseen
                  if len(projections) < math.factorial(len(u))]
        if size is not None and not unseen:
            break
    orderings: list[tuple[int, ...]] = []
    for blocks, projections in zip(cells, seen):
        orderings.extend(dict.fromkeys(tuple(v for ci in proj for v in blocks[ci][::step])
                                       for proj in projections for step in (1, -1)))
    return orderings, size, drawn


def _hoods(a_hoods: dict[int, Sequence[int]], coloring: dict[int, int],
           b_part: Sequence[int]) -> dict[int, list[list[int]]]:
    """The hoods of every cell of `coloring` over the slice b_part, by color.

    `a_hoods` maps each B-vertex with an A-neighbour (a vertex `coloring`
    colors) to those neighbours, ascending. One walk of b_part in its
    order: each B-vertex's list is split by color, keeping its order, and
    each piece goes to the hood list of its color, so a cell's hoods are in
    slice order and none is empty.
    """
    hoods: dict[int, list[list[int]]] = {}
    for b in b_part:
        mine: dict[int, list[int]] = {}
        for u in a_hoods.get(b, ()):
            mine.setdefault(coloring[u], []).append(u)
        for color, nbrs in mine.items():
            hoods.setdefault(color, []).append(nbrs)
    return hoods


def _cell_requirements(blocks: Sequence[Sequence[int]],
                       hoods: Iterable[Sequence[int]]) -> set[tuple[tuple[int, ...], int]]:
    """The (subset, last) block orders a cell's completions need.

    `hoods` holds, for each B-vertex b of the slice with a neighbour in the
    cell, b's A-neighbours in the cell. A completion excludes the non-edge
    (a, b), a in the A-part, iff a comes after every neighbour of b in the
    ordering. Those neighbours lie in distinct blocks N_b, so with beta the
    block of a it is enough that some permutation puts beta last among
    N_b | {beta}; when beta is in N_b, the ascending or the descending pass
    puts a after b's neighbour inside beta. A b with no neighbour in the
    cell has no hood: it sees none of the cell in every completion.
    """
    block_of = {v: ci for ci, block in enumerate(blocks) for v in block}
    filled = [(ci, len(block)) for ci, block in enumerate(blocks) if block]
    needed = set()
    for nbrs in hoods:
        nbr_blocks = {block_of[u] for u in nbrs}
        for ci, size in filled:
            # b has at most one neighbour per block
            if size > (ci in nbr_blocks):
                needed.add((tuple(sorted(nbr_blocks | {ci})), ci))
    return needed


def _conflict_blocks(a_part: Sequence[int], hoods: Sequence[Sequence[int]],
                     palette: int) -> list[list[int]]:
    """Color the conflict graph on a_part (two vertices in one hood, that is
    with a common B-neighbour, make an edge) greedily along a degeneracy
    order; return the color classes, each ascending, padded out to
    `palette` blocks. With no conflict edge that is a_part in one block."""
    a_sorted = sorted(a_part)
    if all(len(nbrs) < 2 for nbrs in hoods):
        return [a_sorted] + [[] for _ in range(palette - 1)]
    index = {a: i for i, a in enumerate(a_sorted)}
    conflict_edges = set()
    for nbrs in hoods:
        conflict_edges.update((index[x], index[y]) for x, y in combinations(nbrs, 2))
    conflict = Graph(len(a_sorted), conflict_edges)
    _, order = degeneracy_ordering(conflict)
    blocks = [[a_sorted[i] for i in cls]
              for cls in color_classes(greedy_coloring(conflict, order[::-1]))]
    if len(blocks) > palette:
        raise AssertionError("conflict coloring exceeded its palette")
    return blocks + [[] for _ in range(palette - len(blocks))]


# ---------------------------------------------------------------------------
# top-level max-degree decomposition

def decompose_maxdeg(g: Graph, seed: int = 0,
                     diagnostics: list[str] | None = None) -> Decomposition:
    """Partition the graph so every vertex sees few neighbors per part, color
    each part, and decompose one split extension per color class; a greedy
    subcover of the union of all factor lists intersects back to g
    (verified)."""
    delta = g.max_degree()
    if delta < 2:
        raise ValueError("max-degree decomposition needs maximum degree >= 2")
    d = max(2, math.ceil(100 * math.log(delta)))
    parts = math.ceil(3 * delta / d)
    partition = bounded_partition(g, d, parts, seed=split_seed(seed, "partition"))
    if diagnostics is not None:
        diagnostics.append(f"maxdeg delta={delta} d={d} parts={parts}")
        diagnostics.append(
            "partition sizes: " + " ".join(str(len(p)) for p in partition))
    orders: list[tuple[int, ...]] = []
    budget = 0
    for i, part in enumerate(partition):
        members = sorted(part)
        sub = g.induced(members)
        _, order = degeneracy_ordering(sub)
        classes = color_classes(greedy_coloring(sub, order))
        if len(classes) > d + 1:
            raise AssertionError("part coloring exceeded d+1 colors")
        for j, cls in enumerate(classes):  # first-fit leaves no colour below the largest unused
            piece, piece_budget = _split_factors(
                g, [members[x] for x in cls], split_seed(seed, "split", i, j), diagnostics)
            budget += piece_budget
            orders.extend(piece)
    d = _finish(g, "maxdeg", budget, _Intersection(g), orders)
    if diagnostics is not None:
        diagnostics.append(f"factors: listed={len(orders)} distinct={len(set(orders))} "
                           f"pruned={d.size}")
    return d
