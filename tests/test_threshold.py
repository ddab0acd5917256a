from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thdim import (ForbiddenSubgraph, Graph, LtfWitness, ThresholdGraph,
                   complete_graph, cycle_graph, empty_graph, extract_ltf,
                   format_threshold, parse_threshold, path_graph,
                   recognize_threshold, star_graph, threshold_supergraph,
                   verify_ltf)
from thdim.threshold import (DOMINATING, ISOLATED, _gain, _Intersection, _isolated_prefixes,
                             classify_forbidden)

from helpers import (_supergraph_creations, all_graphs, brute_is_threshold, complement, creation,
                     from_creation, guided_completion_args, is_supergraph, named_corpus, naive_completion_edges,
                     random_corpus, small_graphs, sorting_completion_creation,
                     sorting_recognize_threshold,
                     threshold_struct_ok)


# ---------------------------------------------------------------------------
# recognition

def test_complete_graph_accepted_all_dominating():
    t = recognize_threshold(complete_graph(5))
    assert isinstance(t, ThresholdGraph)
    assert all(tag == DOMINATING for _, tag in creation(t)[1:])


def test_star_accepted():
    t = recognize_threshold(star_graph(5))
    assert isinstance(t, ThresholdGraph)
    assert threshold_struct_ok(t)


def test_p4_refused_with_itself():
    w = recognize_threshold(path_graph(4))
    assert isinstance(w, ForbiddenSubgraph)
    assert w.kind == "P4" and w.vertices == (0, 1, 2, 3)


def test_c4_and_2k2_refused():
    from thdim import disjoint_cliques
    assert recognize_threshold(cycle_graph(4)).kind == "C4"
    assert recognize_threshold(disjoint_cliques(2)).kind == "2K2"


def test_recognition_matches_brute_force_n5():
    for g in all_graphs(5):
        w = recognize_threshold(g)
        accepted = isinstance(w, ThresholdGraph)
        assert accepted == brute_is_threshold(g)
        if not accepted:
            assert classify_forbidden(g, w.vertices) == w.kind


def test_bucket_peel_matches_sorting_peel():
    # same creation sequence or same witness, on every labelled graph n <= 5
    corpus = [g for n in range(6) for g in all_graphs(n)] + list(named_corpus().values())
    for g in corpus:
        assert recognize_threshold(g) == sorting_recognize_threshold(g)


@st.composite
def near_threshold_graphs(draw, max_n: int):
    """A threshold graph from a random creation sequence, with one vertex
    pair flipped half the time, so the peel runs long before it accepts or
    sticks."""
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(n)))
    tags = [draw(st.sampled_from((ISOLATED, DOMINATING))) for _ in range(n)]
    edges = set(from_creation(zip(order, tags)).graph.edges())
    if n >= 2 and draw(st.booleans()):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges ^= {(min(u, v), max(u, v))}
    return Graph(n, edges)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(16), near_threshold_graphs(24)))
def test_bucket_peel_matches_sorting_peel_property(g):
    assert recognize_threshold(g) == sorting_recognize_threshold(g)


def test_recognition_randoms_and_witness_induced():
    for g in random_corpus(25, [(7, 10), (8, 13)], seed=2):
        result = recognize_threshold(g)
        if isinstance(result, ThresholdGraph):
            assert brute_is_threshold(g)
            assert threshold_struct_ok(result)
            assert result.graph == g
        else:
            quad = result.vertices
            sub = g.induced(quad)
            degs = sorted(sub.degree(v) for v in range(4))
            assert (sub.m, degs) in [(2, [1, 1, 1, 1]), (3, [1, 1, 2, 2]),
                                     (4, [2, 2, 2, 2])]


def test_targeted_witness_beyond_scan_limit():
    # no vertex of a 13-vertex path is isolated or dominating, so peeling
    # stalls at once and the incomparability search runs on all of it
    g = Graph_with_p4_tail()
    w = recognize_threshold(g)
    assert isinstance(w, ForbiddenSubgraph)
    sub = g.induced(w.vertices)
    assert sub.m in (2, 3, 4)


def Graph_with_p4_tail():
    from thdim import Graph
    edges = [(i, i + 1) for i in range(12)]  # path on 13 vertices
    return Graph(13, edges)


def test_complement_closure():
    for g in random_corpus(20, [(6, 8), (7, 12)], seed=7):
        a = isinstance(recognize_threshold(g), ThresholdGraph)
        b = isinstance(recognize_threshold(complement(g)), ThresholdGraph)
        assert a == b


# ---------------------------------------------------------------------------
# guided supergraph

def test_completion_edgeless_example():
    g = empty_graph(3)
    t = threshold_supergraph(g, [0, 1])
    assert not t.graph.has_edge(2, 0) and not t.graph.has_edge(2, 1)
    assert t.graph.m == 0


def test_completion_p4_example():
    t = threshold_supergraph(path_graph(4), [0, 3])
    assert set(t.graph.edges()) == {(0, 1), (0, 2), (1, 2), (2, 3)}


def test_completion_empty_a_gives_complete():
    g = path_graph(5)
    t = threshold_supergraph(g, [])
    assert t.graph == complete_graph(5)


def test_completion_contract_violations():
    g = path_graph(4)
    with pytest.raises(ValueError, match=r"^a_order is not independent: edge \(0,1\)$"):
        threshold_supergraph(g, [0, 1])
    with pytest.raises(ValueError, match="^a_order contains duplicates$"):
        threshold_supergraph(g, [0, 0])
    with pytest.raises(ValueError, match="^a_order vertex out of range$"):
        threshold_supergraph(g, [0, 9])
    with pytest.raises(ValueError, match="^a_order vertex out of range$"):
        threshold_supergraph(g, [-1])


def test_an_edge_inside_a_order_is_named_at_its_first_endpoint():
    # edges 0-1, 1-2, 1-3: in (1, 2, 0), 1 sees 2 and 0 and is named with 2,
    # the earlier of them in a_order; in (3, 0, 1), 3 sees 1 only
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    with pytest.raises(ValueError, match=r"^a_order is not independent: edge \(1,2\)$"):
        threshold_supergraph(g, (1, 2, 0))
    with pytest.raises(ValueError, match=r"^a_order is not independent: edge \(3,1\)$"):
        threshold_supergraph(g, (3, 0, 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_completion_order_is_a_permutation_sorted_by_level(data):
    # the completion builds its factor without the constructor's checks
    g = data.draw(small_graphs(9))
    a_order = data.draw(guided_completion_args(g))
    t = threshold_supergraph(g, a_order)
    assert sorted(t.order) == list(range(g.n))
    assert list(t.cuts) == sorted(set(t.cuts)) and all(0 <= c < g.n for c in t.cuts)
    assert creation(t) == sorting_completion_creation(g, a_order)
    assert set(t.graph.edges()) == naive_completion_edges(g, a_order)


def test_completion_is_threshold_supergraph_of_input():
    for g in random_corpus(20, [(7, 9), (8, 12)], seed=13):
        ind = max_independent_like(g)
        t = threshold_supergraph(g, ind)
        assert isinstance(recognize_threshold(t.graph), ThresholdGraph)
        assert is_supergraph(t.graph, g)
        assert threshold_struct_ok(t)
        assert set(t.split_a) == set(ind)


def max_independent_like(g):
    # greedy independent set, ordered by index: cheap and deterministic
    taken = []
    for v in range(g.n):
        if all(not g.has_edge(v, u) for u in taken):
            taken.append(v)
    return taken


def test_completion_matches_direct_edge_formula():
    for g in random_corpus(20, [(6, 7), (8, 11)], seed=17):
        ind = max_independent_like(g)
        t = threshold_supergraph(g, ind)
        assert set(t.graph.edges()) == naive_completion_edges(g, ind)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_an_order_scores_its_completion_from_closed_neighbourhoods(data):
    # the vertices placed before a_j are those outside E_j = N[a_j] | ... |
    # N[a_k], so the prune scores an order without completing it
    g = data.draw(small_graphs(9))
    a_order = data.draw(guided_completion_args(g))
    full = (1 << g.n) - 1
    closed = [mask | 1 << v for v, mask in enumerate(g.adjacency_masks())]
    reach, pairs = 0, []
    for a in reversed(a_order):
        reach |= closed[a]
        pairs.append((a, full & ~reach))
    t = threshold_supergraph(g, a_order)
    assert list(_isolated_prefixes(t)) == pairs[::-1]
    # the gain counts the completion's non-edges that `excluded` does not
    # hold at their later-placed end
    excluded = [data.draw(st.integers(0, full)) for _ in range(g.n)]
    position = {v: p for p, v in enumerate(t.order)}
    fresh = 0
    for pair in combinations(range(g.n), 2):
        if not t.graph.has_edge(*pair):
            earlier, later = sorted(pair, key=position.__getitem__)
            fresh += not excluded[later] >> earlier & 1
    assert _gain(a_order, closed, excluded) == fresh


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_recording_an_order_writes_the_rows_its_completion_walks(data):
    # `record` writes each pair at its isolated end from the closed
    # neighbourhoods, as `_walk` does from the built completion, over
    # rows that may already hold pairs
    g = data.draw(small_graphs(9))
    orders = data.draw(st.lists(guided_completion_args(g), min_size=1, max_size=3))
    recorded, walked = _Intersection(g), _Intersection(g)
    start = [data.draw(st.integers(0, (1 << g.n) - 1)) for _ in range(g.n)]
    recorded.excluded, walked.excluded = list(start), list(start)
    for a_order in orders:
        recorded.record(a_order)
        walked._walk(threshold_supergraph(g, a_order), 0)
    assert recorded.excluded == walked.excluded
    assert recorded.dropped is walked.dropped is None


# ---------------------------------------------------------------------------
# LTF witnesses

def test_kn_scheme_and_hand_witness():
    g = complete_graph(4)
    t = recognize_threshold(g)
    extract_ltf(t)  # verifies internally
    hand = LtfWitness(weights=(1, 1, 1, 1), bound=4)
    assert verify_ltf(g, hand) is None


def test_star_hand_witness():
    n = 5
    hand = LtfWitness(weights=(1,) + (n - 1,) * (n - 1), bound=n)
    assert verify_ltf(star_graph(n), hand) is None


def test_p3_scheme_passes_exhaustively():
    t = recognize_threshold(path_graph(3))
    w = extract_ltf(t)
    g = path_graph(3)
    for mask in range(8):
        x = tuple((mask >> i) & 1 for i in range(3))
        support = [i for i in range(3) if x[i]]
        is_clique = all(g.has_edge(u, v) for u in support for v in support if u < v)
        assert w.accepts(x) == is_clique


def test_all_threshold_graphs_n6_have_valid_witnesses():
    for n in range(1, 7):
        for pairs in _supergraph_creations(empty_graph(n)).values():
            t = from_creation(pairs)
            extract_ltf(t)  # raises InternalVerificationError on any failure


def test_corrupted_witness_detected():
    g = star_graph(4)
    bad = LtfWitness(weights=(1, 1, 1, 1), bound=4)  # accepts two leaves together
    counterexample = verify_ltf(g, bad)
    assert counterexample is not None
    assert len(counterexample) >= 2 and not g.has_edge(*counterexample[:2])


def test_verify_ltf_arity_mismatch():
    with pytest.raises(ValueError):
        verify_ltf(path_graph(3), LtfWitness(weights=(1, 1), bound=1))


# ---------------------------------------------------------------------------
# serialization

def test_threshold_line_round_trip():
    t = recognize_threshold(star_graph(5))
    line = format_threshold(t)
    assert line.startswith("ts 5 ")
    back = parse_threshold(line)
    assert back.graph == t.graph


@pytest.mark.parametrize("line", [
    "ts", "xx 3 0:i 1:i 2:i", "ts 3 0:i 1:i", "ts 3 0:q 1:i 2:i", "ts 3 0:i 0:i 2:i",
    "", "# only a comment",
])
def test_threshold_line_errors(line):
    with pytest.raises(ValueError):
        parse_threshold(line)


def test_creation_replay_validation():
    with pytest.raises(ValueError):
        from_creation([(0, ISOLATED), (0, DOMINATING)])
