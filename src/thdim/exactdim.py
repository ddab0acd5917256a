"""Ground truth at desk scale: exact threshold dimension via set cover over
the maximal threshold subgraphs of the complement (Chvatal-Hammer), the
clique-removal chromatic lower bound, the n - max(omega, alpha) upper bound,
and the cover number of the complement.

Convention: the dimension of a threshold graph (complete graphs included)
is 1; an intersection of zero graphs is not a thing here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graphs import (ExactLimitError, Graph, chromatic_number, complete_mask,
                     degeneracy_ordering, edge_mask, graph_from_mask,
                     max_independent_set, maximal_cliques, pair_index)
from .decompose import (Decomposition, _finish, decompose_degeneracy, decompose_treewidth,
                        decompose_vertex_cover)
from .threshold import (DOMINATING, ISOLATED, ThresholdGraph, ForbiddenSubgraph,
                        recognize_threshold)
from .treedecomp import heuristic_tree_decomposition

EXACT_DIMENSION_LIMIT = 8


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
    return [ThresholdGraph.from_creation(c)
            for _, c in sorted(creations.items())]


def _maximal(masks) -> list[int]:
    """The inclusion-maximal non-zero masks, largest first (ties ascending)."""
    keep: list[int] = []
    for c in sorted(set(masks), key=lambda c: (-c.bit_count(), c)):
        if c and not any(c & ~k == 0 for k in keep):
            keep.append(c)
    return keep


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
    """
    n = g.n
    full = (1 << n) - 1
    non = [full & ~(1 << v) & ~mask for v, mask in enumerate(g.adjacency_masks())]
    memo: dict[int, list[int]] = {}

    def maximal_on(u_mask: int) -> list[int]:
        if u_mask in memo:
            return memo[u_mask]
        candidates = []
        for v in range(n):
            t = non[v] & u_mask if u_mask >> v & 1 else 0
            if t:
                star = sum(1 << pair_index(n, v, u) for u in range(n) if t >> u & 1)
                candidates += [star | c for c in maximal_on(t)]
        memo[u_mask] = _maximal(candidates) or [0]
        return memo[u_mask]

    return maximal_on(full)


def _min_cover(universe: int, covers: list[int]) -> list[int]:
    """Minimum subset of `covers` whose union is `universe` (branch & bound).

    Dominated candidates (subsets of another candidate) are dropped first;
    branching always happens on the element with the fewest remaining
    candidates containing it.
    """
    if universe == 0:
        return []
    keep = _maximal(covers)
    elements = [i for i in range(universe.bit_length()) if universe >> i & 1]
    holders = {e: [c for c in keep if c >> e & 1] for e in elements}
    if any(not holders[e] for e in elements):
        raise AssertionError("uncoverable non-edge; the cover search is broken")

    # greedy for the initial upper bound
    best: list[int] = []
    left = universe
    while left:
        c = max(keep, key=lambda c: (c & left).bit_count())
        best.append(c)
        left &= ~c
    biggest = max(c.bit_count() for c in keep)

    chosen: list[int] = []

    def search(left: int) -> None:
        nonlocal best
        if left == 0:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + math.ceil(left.bit_count() / biggest) >= len(best):
            return
        e = min((x for x in elements if left >> x & 1),
                key=lambda x: sum(1 for c in holders[x] if c & left))
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
    return _finish(g, factors, "exact", len(factors))


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

def lower_bound_clique_chromatic(g: Graph, chi_limit: int = 16) -> int:
    """min over cliques C of chi(g - C); a lower bound on the dimension.

    Removing a larger clique can only lower chi, so the minimum over maximal
    cliques equals the minimum over all cliques (the empty clique included).
    """
    if g.n > chi_limit:
        raise ExactLimitError(f"clique-chromatic bound refused for n={g.n} > {chi_limit}")
    if g.n == 0:
        return 0
    best = None
    for clique in maximal_cliques(g):
        rest = [v for v in range(g.n) if v not in clique]
        chi = chromatic_number(g.induced(rest), limit=chi_limit)
        if best is None or chi < best:
            best = chi
            if best == 0:
                break
    return best if best is not None else 0


def upper_bound_ramsey_style(g: Graph, ab_limit: int = 24) -> int:
    """n - max(omega, alpha), floored at 1."""
    alpha = len(max_independent_set(g, limit=ab_limit))
    omega = len(max_independent_set(g.complement(), limit=ab_limit))
    return max(g.n - max(alpha, omega), 1)


def threshold_cover_number(g: Graph) -> int:
    """Fewest threshold graphs whose union is g: the dimension of the complement."""
    return exact_dimension(g.complement())


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


def compute_report(g: Graph, seed: int = 0, exact_cap: int = EXACT_DIMENSION_LIMIT,
                   chi_limit: int = 16, ab_limit: int = 24,
                   include_maxdeg: bool = False) -> DimensionReport:
    """Run every bound and method that applies at this size."""
    lower: dict[str, int] = {}
    upper: dict[str, int] = {}
    counts: dict[str, int] = {}

    not_threshold = isinstance(recognize_threshold(g), ForbiddenSubgraph)
    lower["non-threshold"] = 2 if not_threshold else 1
    if g.n <= chi_limit:
        lower["clique-chromatic"] = lower_bound_clique_chromatic(g, chi_limit)

    exact = None
    if g.n <= min(exact_cap, EXACT_DIMENSION_LIMIT):
        exact = exact_dimension(g)
        counts["exact"] = exact

    if g.n <= ab_limit:
        upper["ramsey-style"] = upper_bound_ramsey_style(g, ab_limit)
        cover = sorted(set(range(g.n)) - max_independent_set(g, limit=ab_limit))
        upper["vertex-cover"] = max(len(cover), 1)
        counts["vertex-cover"] = decompose_vertex_cover(g, cover).size
    if g.n >= 2:
        k, _ = degeneracy_ordering(g)
        upper["degeneracy"] = 10 * max(k, 1) * math.ceil(math.log(g.n))
        counts["degeneracy"] = decompose_degeneracy(g, seed=seed).size
        td = heuristic_tree_decomposition(g)
        upper["treewidth"] = 2 * (td.width + 1)
        counts["treewidth"] = decompose_treewidth(g, td).size
    if include_maxdeg and g.max_degree() >= 2:
        from .maxdeg import decompose_maxdeg
        counts["maxdeg"] = decompose_maxdeg(g, seed=seed).size

    report = DimensionReport(n=g.n, m=g.m, exact=exact, lower_bounds=lower,
                             upper_bounds=upper, factor_counts=counts)
    hi = report.best_upper()
    if hi is not None and report.best_lower() > hi:
        raise AssertionError("a lower bound exceeded an upper bound; oracle bug")
    if exact is not None:
        if not (report.best_lower() <= exact <= (hi if hi is not None else exact)):
            raise AssertionError("exact dimension escaped the bound bracket; oracle bug")
    return report
