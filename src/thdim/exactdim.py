"""Ground truth at desk scale: exact threshold dimension via set cover over
the maximal threshold subgraphs of the complement (Chvatal-Hammer), the
clique-removal chromatic lower bound and the n - max(omega, alpha) upper
bound.

Convention: the dimension of a threshold graph (complete graphs included)
is 1; an intersection of zero graphs is not a thing here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

from .graphs import (CHROMATIC_LIMIT, INDEPENDENT_SET_LIMIT, ExactLimitError, Graph, _bits,
                     _chromatic, _clique_number, complete_mask, edge_mask, graph_from_mask,
                     max_independent_set, maximal_cliques, pair_index)
from .decompose import (Decomposition, _finish, decompose_degeneracy, decompose_treewidth,
                        decompose_vertex_cover)
from .threshold import ForbiddenSubgraph, ThresholdGraph, _Intersection, recognize_threshold
from .treedecomp import heuristic_tree_decomposition

EXACT_DIMENSION_LIMIT = 8


def _maximal(masks) -> list[int]:
    """The inclusion-maximal non-zero masks, largest first (ties ascending)."""
    keep: list[int] = []
    for c in sorted(set(masks), key=lambda c: (-c.bit_count(), c)):
        if c:
            for k in keep:
                if not c & ~k:
                    break
            else:
                keep.append(c)
    return keep


@lru_cache(maxsize=EXACT_DIMENSION_LIMIT + 1)
def _star_table(n: int) -> tuple[tuple[int, ...], ...]:
    """stars[v][T]: the pair mask of the star from v to the vertex set T
    (bit mask, v not in T), for every T below 2^n."""
    stars = []
    for v in range(n):
        row = [0] * (1 << n)
        for t in range(1, 1 << n):
            low = t & -t
            u = low.bit_length() - 1
            row[t] = row[t ^ low] | (1 << pair_index(n, v, u) if u != v else 0)
        stars.append(tuple(row))
    return tuple(stars)


def _maximal_covers(g: Graph) -> list[int]:
    """The inclusion-maximal non-edge pair masks c with K_n - c threshold,
    i.e. the edge sets of the maximal threshold subgraphs of the complement,
    in `_maximal`'s order.

    In a threshold graph with an edge, the last dominating vertex v of a
    creation sequence sees every earlier vertex and every later one is
    isolated, so the graph is star(v, S) plus a threshold graph on S, with
    S among v's non-neighbours in g. Hence on a vertex set U the maximal
    ones are the maximal star(v, T) | c' with T = U minus v's g-neighbours
    and c' maximal on T; the recursion is memoised on U (at most 2^n sets).
    The star is disjoint from every c' on T, so the candidates of one v are
    already maximal and in order, and `_maximal` only runs when two or more
    v contribute.
    """
    n = g.n
    full = (1 << n) - 1
    non = [full & ~(1 << v) & ~mask for v, mask in enumerate(g.adjacency_masks())]
    stars = _star_table(n)
    memo: dict[int, list[int]] = {}

    def maximal_on(u_mask: int) -> list[int]:
        groups = []
        rest = u_mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            t = non[v] & u_mask
            if t:
                star = stars[v][t]
                below = memo.get(t)
                groups.append([star | c for c in (maximal_on(t) if below is None else below)])
        if len(groups) > 1:
            memo[u_mask] = _maximal(chain.from_iterable(groups))
        else:
            memo[u_mask] = groups[0] if groups else [0]
        return memo[u_mask]

    return maximal_on(full)


def _min_cover(universe: int, covers: list[int]) -> list[int]:
    """Minimum subset of `covers` whose union is `universe` (branch & bound).

    `covers` must hold no cover inside another and be in `_maximal`'s order,
    as `_maximal_covers` gives them; branching always happens on the element
    with the fewest remaining candidates containing it.
    """
    if universe == 0:
        return []
    holders = {e: [c for c in covers if c >> e & 1] for e in _bits(universe)}
    if not all(holders.values()):
        raise AssertionError("uncoverable non-edge; the cover search is broken")

    # greedy for the initial upper bound
    best: list[int] = []
    left = universe
    while left:
        c = max(covers, key=lambda c: (c & left).bit_count())
        best.append(c)
        left &= ~c
    biggest = max(c.bit_count() for c in covers)

    chosen: list[int] = []

    def search(left: int) -> None:
        nonlocal best
        if left == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + math.ceil(left.bit_count() / biggest) >= len(best):
            return
        # every holder of an element of left meets left, so the element with
        # the fewest remaining candidates is the one with the fewest holders
        e = min(_bits(left), key=lambda x: len(holders[x]))
        for c in sorted(holders[e], key=lambda c: -(c & left).bit_count()):
            chosen.append(c)
            search(left & ~c)
            chosen.pop()

    search(universe)
    return best


def exact_dimension(g: Graph) -> int:
    """Exact threshold dimension for n <= 8 via set cover: each maximal
    threshold subgraph of the complement covers its edges, the non-edges of
    g that the threshold supergraph K_n minus it excludes; the answer is the
    least number of them covering every non-edge (1 when g is itself
    threshold)."""
    return len(_exact_cover(g))


def exact_decomposition(g: Graph) -> Decomposition:
    """A witnessing optimal decomposition for n <= 8."""
    complete = complete_mask(g.n)
    factors = [recognize_threshold(graph_from_mask(g.n, complete & ~c))
               for c in _exact_cover(g)]
    if not all(isinstance(t, ThresholdGraph) for t in factors):
        raise AssertionError("a maximal cover left a non-threshold factor")
    return _finish(g, "exact", len(factors), _Intersection(g, factors))


def _exact_cover(g: Graph) -> list[int]:
    """A minimum list of maximal covers whose union is every non-edge of g;
    [0] (the factor K_n = g) when g is complete."""
    if g.n > EXACT_DIMENSION_LIMIT:
        raise ExactLimitError(
            f"exact dimension refused for n={g.n} > {EXACT_DIMENSION_LIMIT}")
    universe = complete_mask(g.n) & ~edge_mask(g)
    return _min_cover(universe, _maximal_covers(g)) if universe else [0]


# ---------------------------------------------------------------------------
# bounds

def lower_bound_clique_chromatic(g: Graph) -> int:
    """min over cliques C of chi(g - C); a lower bound on the dimension.

    Removing a larger clique can only lower chi, so the minimum over maximal
    cliques equals the minimum over all cliques (the empty clique included).
    Each chi is taken on g's own adjacency masks with the clique's vertices
    left out, so no subgraph is built. The remainders first give a floor:
    chi is 0 on an empty remainder, 1 on an edgeless one and at least 2 on
    any other, so the minimum is the floor when some remainder is edgeless,
    and otherwise the chis are taken only until one is 2. Refuses
    n > CHROMATIC_LIMIT.
    """
    if g.n > CHROMATIC_LIMIT:
        raise ExactLimitError(f"clique-chromatic bound refused for n={g.n} > {CHROMATIC_LIMIT}")
    nbr = g.adjacency_masks()
    full = (1 << g.n) - 1
    rests = [full & ~clique for clique in maximal_cliques(g)]
    floor = min(2 if any(nbr[v] & rest for v in _bits(rest)) else min(rest, 1)
                for rest in rests)
    if floor < 2:
        return floor
    best = g.n
    for rest in rests:
        best = min(best, _chromatic(nbr, rest))
        if best == 2:
            break
    return best


def upper_bound_ramsey_style(g: Graph) -> int:
    """n - max(omega, alpha), floored at 1; omega from the complement masks."""
    alpha = len(max_independent_set(g))
    omega = _clique_number(g.adjacency_masks(), (1 << g.n) - 1)
    return max(g.n - max(alpha, omega), 1)


# ---------------------------------------------------------------------------
# report

@dataclass(frozen=True)
class DimensionReport:
    n: int
    m: int
    exact: int | None
    lower_bounds: dict[str, int] = field(default_factory=dict)
    upper_bounds: dict[str, int] = field(default_factory=dict)
    factor_counts: dict[str, int] = field(default_factory=dict)

    def best_lower(self) -> int:
        return max(self.lower_bounds.values(), default=1)

    def best_upper(self) -> int | None:
        pool = list(self.upper_bounds.values()) + list(self.factor_counts.values())
        return min(pool, default=None)

    def to_text(self) -> str:
        rows = [("vertices", self.n), ("edges", self.m),
                ("exact-dimension", self.exact if self.exact is not None else "n/a")]
        rows += [(f"lower:{k}", v) for k, v in sorted(self.lower_bounds.items())]
        rows += [(f"upper:{k}", v) for k, v in sorted(self.upper_bounds.items())]
        rows += [(f"factors:{k}", v) for k, v in sorted(self.factor_counts.items())]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"

    def to_rows(self) -> str:
        lines = ["key,value", f"n,{self.n}", f"m,{self.m}",
                 f"exact,{self.exact if self.exact is not None else ''}"]
        lines += [f"lower.{k},{v}" for k, v in sorted(self.lower_bounds.items())]
        lines += [f"upper.{k},{v}" for k, v in sorted(self.upper_bounds.items())]
        lines += [f"factors.{k},{v}" for k, v in sorted(self.factor_counts.items())]
        return "\n".join(lines) + "\n"


def compute_report(g: Graph, seed: int = 0) -> DimensionReport:
    """Run every bound and method that applies at this size: the exact
    dimension up to EXACT_DIMENSION_LIMIT vertices, the clique-chromatic
    bound up to CHROMATIC_LIMIT, the Ramsey-style bound and the minimum
    vertex cover decomposition up to INDEPENDENT_SET_LIMIT."""
    lower: dict[str, int] = {}
    upper: dict[str, int] = {}
    counts: dict[str, int] = {}
    decompositions: list[Decomposition] = []

    not_threshold = isinstance(recognize_threshold(g), ForbiddenSubgraph)
    lower["non-threshold"] = 2 if not_threshold else 1
    if g.n <= CHROMATIC_LIMIT:
        lower["clique-chromatic"] = lower_bound_clique_chromatic(g)

    exact = None
    if g.n <= EXACT_DIMENSION_LIMIT:
        exact = exact_dimension(g)
        counts["exact"] = exact

    if g.n <= INDEPENDENT_SET_LIMIT:
        upper["ramsey-style"] = upper_bound_ramsey_style(g)
        decompositions.append(decompose_vertex_cover(g))
    if g.n >= 2:
        decompositions.append(decompose_degeneracy(g, seed=seed))
        decompositions.append(decompose_treewidth(g, heuristic_tree_decomposition(g)))
    for d in decompositions:  # each method's upper bound is the one it claims
        upper[d.method], counts[d.method] = d.bound_claimed, d.size

    report = DimensionReport(n=g.n, m=g.m, exact=exact, lower_bounds=lower,
                             upper_bounds=upper, factor_counts=counts)
    hi = report.best_upper()
    if hi is not None and report.best_lower() > hi:
        raise AssertionError("a lower bound exceeded an upper bound; oracle bug")
    if exact is not None:
        if not (report.best_lower() <= exact <= (hi if hi is not None else exact)):
            raise AssertionError("exact dimension escaped the bound bracket; oracle bug")
    return report
