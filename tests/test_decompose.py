import hashlib
import math
import random
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thdim import (Decomposition, ParseError, RandomizedSearchError, ThresholdGraph,
                   build_separating_colorings, complete_graph, cycle_graph,
                   decompose_degeneracy, decompose_treewidth, decompose_vertex_cover,
                   degeneracy_ordering, disjoint_cliques, empty_graph,
                   exact_dimension, format_decomposition, gen_gnm, heuristic_tree_decomposition,
                   parse_decomposition, path_graph, recognize_threshold, star_graph,
                   threshold_supergraph, verify_decomposition)
from thdim import decompose, threshold
from thdim.decompose import _sample_coloring, treewidth_ordering
from thdim.graphs import color_classes
from thdim.seeding import split_seed
from thdim.treedecomp import TreeDecomposition

from helpers import (all_graphs, anchor_bag_ordering, edge_mask_verify, forward_neighbours,
                     is_proper_coloring, pendant_complement_bags, pendant_clique_complement, position,
                     random_corpus, small_graphs)


# ---------------------------------------------------------------------------
# verify

def make(factors, method="manual", bound=None):
    return Decomposition(factors=tuple(factors), method=method,
                         bound_claimed=bound if bound is not None else len(factors))


def test_verify_p4_two_factor_example():
    g = path_graph(4)
    f1 = recognize_threshold(parse_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)]))
    f2 = recognize_threshold(parse_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3)]))
    assert isinstance(f1, ThresholdGraph) and isinstance(f2, ThresholdGraph)
    assert verify_decomposition(g, make([f1, f2])) is None


def parse_edges(n, edges):
    from thdim import Graph
    return Graph(n, edges)


def test_verify_complete_factor_fails_with_first_nonedge():
    g = path_graph(4)
    k4 = recognize_threshold(complete_graph(4))
    assert verify_decomposition(g, make([k4])) == ((0, 2), None)


def test_verify_threshold_graph_with_itself():
    t = recognize_threshold(star_graph(4))
    assert verify_decomposition(star_graph(4), make([t])) is None


def test_verify_missing_edge_names_factor():
    g = path_graph(3)
    bad = recognize_threshold(parse_edges(3, [(0, 1)]))  # drops edge (1,2)
    assert verify_decomposition(g, make([bad])) == ((1, 2), 0)


def test_verify_vertex_set_mismatch():
    with pytest.raises(ValueError):
        verify_decomposition(path_graph(3), make([recognize_threshold(complete_graph(4))]))


# ---------------------------------------------------------------------------
# vertex cover method

def test_vc_star_single_factor():
    star = star_graph(5)
    d = decompose_vertex_cover(star)  # the cover is the center
    assert d.size == 1 and d.verified
    assert d.factors[0].graph == star


def test_vc_p4():
    d = decompose_vertex_cover(path_graph(4))  # the cover is [1, 3]
    assert d.size == 2 and d.verified


def test_vc_pendant_clique_complement():
    h = pendant_clique_complement(3)
    d = decompose_vertex_cover(h)  # a minimum cover has 3 vertices, as the pendant side
    assert d.size == 3 and d.verified


def test_vc_edgeless_single_factor():
    d = decompose_vertex_cover(empty_graph(4))
    assert d.size == 1 and d.verified


def test_vc_factor_count_matches_cover():
    for g in random_corpus(10, [(7, 10), (8, 12)], seed=41):
        from thdim.graphs import max_independent_set
        cover = sorted(set(range(g.n)) - max_independent_set(g))
        d = decompose_vertex_cover(g)
        assert d.verified and d.size == max(len(cover), 1)
        assert d.size <= d.bound_claimed


def test_vc_default_cover_is_minimum_up_to_independent_set_limit():
    # the first factors are guided by the minimum cover's vertices but its
    # last, each as the singleton independent side
    from thdim.graphs import INDEPENDENT_SET_LIMIT, max_independent_set
    graphs = [empty_graph(3), star_graph(6)] + random_corpus(
        12, [(8, 12), (16, 30), (INDEPENDENT_SET_LIMIT, 50)], seed=43)
    for g in graphs:
        cover = sorted(set(range(g.n)) - max_independent_set(g))
        d = decompose_vertex_cover(g)
        assert d.size == d.bound_claimed == max(len(cover), 1)
        assert list(d.factors[:-1]) == [threshold_supergraph(g, [v]) for v in cover[:-1]]


def test_vc_default_cover_beyond_limit_is_a_matching_cover(monkeypatch):
    def refuse(g):
        raise AssertionError("no exact independent set beyond the limit")

    monkeypatch.setattr("thdim.decompose.max_independent_set", refuse)
    g = gen_gnm(30, 60, seed=5)
    d = decompose_vertex_cover(g)
    assert d.verified and d.bound_claimed == d.size
    assert d.size % 2 == 0  # both ends of each matched edge


# ---------------------------------------------------------------------------
# separating coloring families

def test_family_edgeless_vacuous():
    g = empty_graph(4)
    family = build_separating_colorings(g, seed=0)
    # every pair of an edgeless graph has an end in a class of one coloring,
    # whose completion isolates it after all the other vertices
    assert len(family.colorings) == 1
    for c in family.colorings:
        assert is_proper_coloring(c, g, 10)


def test_family_c10():
    g = cycle_graph(10)
    k, _ = degeneracy_ordering(g)
    family = build_separating_colorings(g, seed=0)
    assert 1 <= len(family.colorings) <= math.ceil(math.log(10))
    assert all(is_proper_coloring(c, g, 10 * k) for c in family.colorings)
    assert family.decomposition.verified_for == g
    assert verify_decomposition(g, family.decomposition) is None


def test_family_k5_vacuous():
    g = complete_graph(5)
    family = build_separating_colorings(g, seed=0)
    assert family.decomposition.verified_for == g
    assert verify_decomposition(g, family.decomposition) is None


def test_family_deterministic():
    g = cycle_graph(8)
    a = build_separating_colorings(g, seed=4)
    b = build_separating_colorings(g, seed=4)
    assert a == b


def test_family_preconditions():
    for n in (0, 1):
        with pytest.raises(ValueError):
            build_separating_colorings(empty_graph(n), seed=0)


def _forward_palette_ok(g, k, order):
    """Palette 10k leaves a color for every vertex: more than its forward degree."""
    pos = position(order)
    return all(10 * k > sum(pos[u] > pos[v] for u in g.adj[v]) for v in range(g.n))


def _completions_intersect_to(g, family, order):
    """Whether the completions of the family's color classes, each ordered
    by position, intersect to g, on their edge sets."""
    pos = position(order)
    edges = set(combinations(range(g.n), 2))
    for coloring in family:
        for cls in color_classes(coloring):
            if cls:
                completion = threshold_supergraph(g, sorted(cls, key=pos.__getitem__))
                edges &= set(completion.graph.edges())
    return edges == set(g.edges())


@contextmanager
def _forced_search(k=None, resamples=None):
    """The family search with the degeneracy it reads forced to k (the order
    is still g's) and its number of seeded draws forced to `resamples`: a
    k below the true degeneracy makes draws that are not accepted."""
    with pytest.MonkeyPatch.context() as mp:
        if k is not None:
            mp.setattr(decompose, "degeneracy_ordering",
                       lambda g: (k, degeneracy_ordering(g)[1]))
        if resamples is not None:
            mp.setattr(decompose, "RESAMPLES", resamples)
        yield


def _walked_family(g, k, order, seed, resamples):
    """The family build_separating_colorings must return, found from the
    same seeded draws by intersecting edge sets: the shortest accepted
    prefix of the first draw accepted whole, or the stats it must raise
    with."""
    r = math.ceil(math.log(g.n))
    forward = forward_neighbours(g, order)
    family = []
    for attempt in range(resamples):
        rng = random.Random(split_seed(seed + attempt, "separating"))
        family = [_sample_coloring(forward, k, order, rng) for _ in range(r)]
        if _completions_intersect_to(g, family, order):
            return next(tuple(family[:j]) for j in range(1, r + 1)
                        if _completions_intersect_to(g, family[:j], order))
    return {"resamples": resamples, "final_size": len(family)}


@settings(max_examples=200, deadline=None)
@given(small_graphs(14), st.integers(1, 2), st.integers(0, 2), st.integers(0, 2 ** 16))
def test_family_search_matches_the_pair_walk(g, k, resamples, seed):
    assume(g.n >= 2)
    _, order = degeneracy_ordering(g)
    assume(_forward_palette_ok(g, k, order))
    expected = _walked_family(g, k, order, seed, resamples)
    try:
        with _forced_search(k, resamples):
            family = build_separating_colorings(g, seed=seed)
    except RandomizedSearchError as err:
        assert err.stats == expected
    else:
        assert family.colorings == expected
        d = family.decomposition
        assert d.verified_for == g and d.method == "degeneracy"
        assert d.bound_claimed == 10 * k * math.ceil(math.log(g.n))
        assert [frozenset(f.split_a) for f in d.factors] == [
            frozenset(cls) for c in family.colorings for cls in color_classes(c) if cls]


def test_family_is_the_shortest_accepted_prefix_of_its_draw():
    # oracle: `_Intersection.mismatch` on fresh class completions of the
    # first seeded draw of ceil(ln n) colorings that is accepted whole
    shorter = 0
    for n, m, s in [(n, m * n, s) for n in (20, 40, 60) for m in (1, 2, 3) for s in (0, 1)]:
        g = gen_gnm(n, m, seed=s)
        k, order = degeneracy_ordering(g)
        k = max(k, 1)
        pos, forward = position(order), forward_neighbours(g, order)
        r = math.ceil(math.log(n))
        family = build_separating_colorings(g, seed=s)

        def completions(coloring):
            return [threshold_supergraph(g, sorted(cls, key=pos.__getitem__))
                    for cls in color_classes(coloring) if cls]

        for attempt in range(64):
            rng = random.Random(split_seed(s + attempt, "separating"))
            draw = [_sample_coloring(forward, k, order, rng) for _ in range(r)]
            factors = [f for c in draw for f in completions(c)]
            if threshold._Intersection(g, factors).mismatch() is None:
                break
        else:
            raise AssertionError("no seeded draw is accepted whole")
        j = len(family.colorings)
        assert family.colorings == tuple(draw[:j])
        prefixes = [[f for c in draw[:i] for f in completions(c)] for i in range(1, j + 1)]
        assert [threshold._Intersection(g, p).mismatch() is None for p in prefixes] == (
            [False] * (j - 1) + [True])
        assert [f.split_a for f in family.decomposition.factors] == [
            f.split_a for f in prefixes[-1]]
        shorter += j < r
    assert shorter  # some family stops before its draw's last coloring


@st.composite
def factor_chunks(draw):
    """A graph on 2 to 14 vertices and factor lists for it, a chunk at a
    time, as the family search adds them: the class completions of a seeded
    coloring, built afresh, so a class recurring across chunks is an equal
    factor object; or the completion of one independent set in ascending
    order, which holds each pair it excludes at the later end only. Maybe a
    fresh copy of a factor of an earlier chunk is appended to a later one,
    and maybe a random threshold graph, which may drop an edge, is inserted
    into one chunk."""
    g = draw(small_graphs(14))
    assume(g.n >= 2)
    k, order = degeneracy_ordering(g)
    k = max(k, 1)
    pos, forward = position(order), forward_neighbours(g, order)
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    chunks = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            coloring = _sample_coloring(forward, k, order, rng)
            chunks.append(decompose._class_completions(g, coloring, pos))
        else:
            independent = []
            for v in draw(st.permutations(range(g.n))):
                if not any(g.has_edge(u, v) for u in independent):
                    independent.append(v)
            chunks.append([threshold_supergraph(g, sorted(independent))])
    if len(chunks) > 1 and draw(st.booleans()):
        j = draw(st.integers(1, len(chunks) - 1))
        f = draw(st.sampled_from([f for chunk in chunks[:j] for f in chunk]))
        chunks[j].append(ThresholdGraph(list(f.order), list(f.cuts)))
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(0, g.n - 1))))
        chunk = chunks[draw(st.integers(0, len(chunks) - 1))]
        chunk.insert(draw(st.integers(0, len(chunk))),
                     ThresholdGraph(draw(st.permutations(range(g.n))), cuts))
    return g, chunks


@settings(max_examples=300, deadline=None)
@given(factor_chunks())
def test_resumable_check_answers_as_a_fresh_one_on_every_prefix(case):
    g, chunks = case
    check = threshold._Intersection(g)
    added = []
    for chunk in chunks:
        check.add(chunk)
        added += chunk
        got = check.mismatch()
        assert got == threshold._Intersection(g, added).mismatch()
        assert got == edge_mask_verify(g, added)


def test_family_accepted_after_a_retry_is_pinned():
    # the first seed s >= 0 whose G(10, 30) draw, with k forced to 1 and
    # seed s, is accepted on a redraw (none of seeds 0-999 of G(10, 20) is)
    g = gen_gnm(10, 30, seed=9)
    _, order = degeneracy_ordering(g)
    with _forced_search(k=1):
        family = build_separating_colorings(g, seed=9)
    with _forced_search(k=1, resamples=1), pytest.raises(RandomizedSearchError):
        build_separating_colorings(g, seed=9)  # the first draw is not accepted
    with _forced_search(k=1, resamples=2):
        assert build_separating_colorings(g, seed=9) == family
    # the redraw stops at its first coloring, a prefix of that draw
    redraw = random.Random(split_seed(9 + 1, "separating"))
    forward = forward_neighbours(g, order)
    assert family.colorings == (_sample_coloring(forward, 1, order, redraw),)
    assert hashlib.sha256(repr(family.colorings).encode()).hexdigest() == (
        "8bf335c292cc409ec7994684e33d5769cbc4961d7670706b112779d39203569c")


def test_family_search_error_stats_are_pinned():
    # G(16, 80), with k forced to 1 and one draw allowed, is refused after
    # the whole draw of ceil(ln 16) = 3 colorings
    g = gen_gnm(16, 80, seed=74)
    with _forced_search(k=1, resamples=1), pytest.raises(RandomizedSearchError) as err:
        build_separating_colorings(g, seed=74)
    assert err.value.stats == {"resamples": 1, "final_size": 3}


# ---------------------------------------------------------------------------
# degeneracy method

def test_degeneracy_c10_bound():
    d = decompose_degeneracy(cycle_graph(10), seed=0)
    assert d.verified and d.size <= 60 == d.bound_claimed


def test_degeneracy_tree():
    d = decompose_degeneracy(path_graph(8), seed=0)
    assert d.verified and d.size <= 30


def test_degeneracy_k4():
    d = decompose_degeneracy(complete_graph(4), seed=0)
    assert d.verified


def test_degeneracy_factor_independent_part_is_color_class():
    g = cycle_graph(10)
    family = build_separating_colorings(g, seed=0)
    d = decompose_degeneracy(g, seed=0)
    classes = [frozenset(cls) for c in family.colorings
               for cls in color_classes(c) if cls]
    assert [frozenset(f.split_a) for f in d.factors] == classes


def test_degeneracy_walks_each_factor_once(monkeypatch):
    # the family search's verification is the only one, and it resumes: the
    # check is asked after each of the two colorings of a family accepted at
    # its first draw, yet the isolated prefixes of each listed factor are
    # walked once, in order, a class that recurs across colorings (equal
    # factors) once per listing
    g = gen_gnm(30, 60, seed=3)
    with _forced_search(resamples=1):
        first_draw = build_separating_colorings(g, seed=3).colorings
    assert len(first_draw) == 2 < math.ceil(math.log(g.n))
    assert build_separating_colorings(g, seed=3).colorings == first_draw
    walked = []

    def counting(t):
        walked.append(t)
        return original(t)

    original = threshold._isolated_prefixes
    monkeypatch.setattr(threshold, "_isolated_prefixes", counting)
    monkeypatch.setattr(decompose, "_isolated_prefixes", counting, raising=False)
    d = decompose_degeneracy(g, seed=3)
    assert d.verified_for == g
    assert d.size == sum(1 for c in first_draw for cls in color_classes(c) if cls)
    distinct = {tuple(cls) for c in first_draw for cls in color_classes(c) if cls}
    assert len(set(d.factors)) == len(distinct) < d.size
    assert walked == list(d.factors)
    assert all(t is f for t, f in zip(walked, d.factors))


def test_degeneracy_bound_on_randoms():
    for g in random_corpus(8, [(9, 14), (12, 18)], seed=55):
        k, _ = degeneracy_ordering(g)
        d = decompose_degeneracy(g, seed=1)
        assert d.verified
        assert d.size <= 10 * max(k, 1) * math.ceil(math.log(g.n)) == d.bound_claimed


@settings(max_examples=200, deadline=None)
@given(small_graphs(14), st.integers(0, 2 ** 16))
def test_degeneracy_is_verified_within_its_bound(g, seed):
    # no result is longer than ceil(ln n) colorings, so none has more than
    # bound_claimed = 10k*ceil(ln n) factors
    assume(g.n >= 2)
    k, _ = degeneracy_ordering(g)
    r = math.ceil(math.log(g.n))
    family = build_separating_colorings(g, seed=seed)
    d = decompose_degeneracy(g, seed=seed)
    assert d.verified_for == g and verify_decomposition(g, d) is None
    assert d.factors == family.decomposition.factors
    assert 1 <= len(family.colorings) <= r
    assert d.size <= d.bound_claimed == 10 * max(k, 1) * r


def test_a_completion_dropping_an_edge_fails_at_once_without_a_redraw(monkeypatch):
    # a dropped edge is a construction bug, not an unlucky draw: the check of
    # the first coloring raises, and no other coloring is drawn
    g = cycle_graph(10)
    keeps_no_pair = threshold_supergraph(empty_graph(g.n), list(range(g.n)))
    completions, sample = decompose._class_completions, decompose._sample_coloring
    drawn = []
    monkeypatch.setattr(decompose, "_sample_coloring",
                        lambda *args: drawn.append(sample(*args)) or drawn[-1])
    monkeypatch.setattr(decompose, "_class_completions",
                        lambda *args: [*completions(*args), keeps_no_pair])
    with pytest.raises(AssertionError, match=r"^degeneracy construction failed verification: "
                                             r"factor \d+ drops an edge of the graph: \(0, 1\)$"):
        build_separating_colorings(g, seed=0)
    assert len(drawn) == 1


# ---------------------------------------------------------------------------
# treewidth method

def test_treewidth_tree_at_most_four_factors():
    g = path_graph(8)
    td = heuristic_tree_decomposition(g)
    d = decompose_treewidth(g, td)
    assert d.verified and d.size <= 4 and d.bound_claimed == 4


def test_treewidth_2k3_bracket():
    g = disjoint_cliques(3)
    td = heuristic_tree_decomposition(g)
    assert td.width == 2
    d = decompose_treewidth(g, td)
    assert d.verified and exact_dimension(g) <= d.size <= 6


def test_treewidth_handmade_star_bags():
    h = pendant_clique_complement(3)
    bags = pendant_complement_bags(3)
    tree = {1: tuple(range(2, 5)), **{i: (1,) for i in range(2, 5)}}
    td = TreeDecomposition(bags=bags, tree=tree, root=1, n=6)
    d = decompose_treewidth(h, td)
    assert d.verified and d.size <= 6


def test_treewidth_ordering_respects_preorder_and_bags():
    # the one-walk ordering and coloring equal the anchor-bag oracle's on
    # every rooting of heuristic and hand-made tree decompositions
    cases = [(g, heuristic_tree_decomposition(g))
             for g in random_corpus(24, [(6, 5), (10, 18), (14, 30), (20, 45)], seed=83)]
    star = {1: tuple(range(2, 6)), **{i: (1,) for i in range(2, 6)}}
    cases.append((pendant_clique_complement(4),
                  TreeDecomposition(bags=pendant_complement_bags(4), tree=star, root=1, n=8)))
    for g, td in cases:
        for root in td.bags:
            rooted = TreeDecomposition(bags=td.bags, tree=td.tree, root=root, n=td.n)
            order, colors = treewidth_ordering(rooted)
            assert (order, colors) == anchor_bag_ordering(g, rooted)
            for bag in td.bags.values():
                inside = [colors[v] for v in bag]
                assert len(set(inside)) == len(inside)
            assert max(colors) + 1 <= td.width + 1


def test_treewidth_rejects_invalid_td():
    g = path_graph(4)
    bad = TreeDecomposition(bags={1: frozenset({0, 1})}, tree={1: ()}, root=1, n=4)
    with pytest.raises(Exception):
        decompose_treewidth(g, bad)


def test_treewidth_bound_on_randoms():
    for g in random_corpus(8, [(8, 12), (10, 17)], seed=77):
        td = heuristic_tree_decomposition(g)
        d = decompose_treewidth(g, td)
        assert d.verified and d.size <= 2 * (td.width + 1) == d.bound_claimed


# ---------------------------------------------------------------------------
# monotone sanity and serialization

def test_exact_dimension_below_method_counts_small():
    for g in all_graphs(4):
        dim = exact_dimension(g)
        assert dim <= decompose_vertex_cover(g).size
        if g.n >= 2:
            assert dim <= decompose_degeneracy(g, seed=0).size
            td = heuristic_tree_decomposition(g)
            assert dim <= decompose_treewidth(g, td).size


def test_serialization_round_trip():
    g = cycle_graph(6)
    d = decompose_degeneracy(g, seed=3)
    text = format_decomposition(d)
    assert text.startswith(f"td-decomp degeneracy {d.size}\n")
    back = parse_decomposition(text)
    assert back.method == "degeneracy" and back.size == d.size
    assert verify_decomposition(g, back) is None
    assert [f.graph for f in back.factors] == [f.graph for f in d.factors]


def test_parse_decomposition_errors():
    with pytest.raises(ValueError):
        parse_decomposition("")
    with pytest.raises(ValueError):
        parse_decomposition("td-decomp degeneracy 2\nts 1 0:i\n")
    with pytest.raises(ValueError):
        parse_decomposition("wrong header\n")


def test_an_unknown_method_is_refused_at_the_header():
    # before any factor line is read: a well-formed one (d) and one with
    # too few tokens (x) both leave line 1 named
    for body in ("ts 1 0:d\n", "ts 2 0:x\n"):
        with pytest.raises(ParseError, match=r"^line 1: unknown method 'bogus'$"):
            parse_decomposition("td-decomp bogus 1\n" + body)


def test_decomposition_requires_factors_and_known_method():
    t = recognize_threshold(complete_graph(2))
    with pytest.raises(ValueError):
        Decomposition(factors=(), method="manual", bound_claimed=0)
    with pytest.raises(ValueError):
        Decomposition(factors=(t,), method="bogus", bound_claimed=1)


def test_decomposition_cannot_be_declared_verified():
    t = recognize_threshold(complete_graph(2))
    with pytest.raises(TypeError):
        Decomposition(factors=(t,), method="manual", bound_claimed=1, verified=True)
    assert not Decomposition(factors=(t,), method="manual", bound_claimed=1).verified
