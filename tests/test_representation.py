"""Property tests for factors held as creation sequences packed into
order/cuts arrays: the packed passes agree with the pair walks in
helpers.py, level LTF weights are never larger than base-(n+1) weights and
accept exactly the factor's edges, the isolated vertices' prefixes and the degree vector agree
with the materialized graph, degree vectors identify labeled threshold
graphs, the prefix-based decomposition check agrees with the edge-mask
oracle in helpers.py, `parse_threshold` agrees with the pair-based parser in
helpers.py, and malformed sequences and cuts are refused with ValueError."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thdim import (Decomposition, Graph, LtfWitness, ThresholdGraph, extract_ltf,
                   format_threshold, ltfs_to_graph, parse_decomposition, parse_threshold,
                   recognize_threshold, threshold_supergraph, verify_decomposition)
from thdim.threshold import DOMINATING, ISOLATED, _isolated_prefixes, _ltf_counterexample

from helpers import (creation, edge_mask_verify, from_creation, pair_parse_threshold,
                     pair_walk_base_ltf, pair_walk_format, pair_walk_graph,
                     pair_walk_isolated_prefixes, pair_walk_ltf, pair_walk_ltf_counterexample)


@st.composite
def creations(draw, min_n=0, max_n=12, n=None):
    if n is None:
        n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))
    tags = draw(st.lists(st.sampled_from([ISOLATED, DOMINATING]), min_size=n, max_size=n))
    return tuple(zip(order, tags))


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def factor_lists(draw, g):
    """1..4 factors on g's vertices: supergraphs of g guided by a random
    ordered independent set (these contain g) mixed with arbitrary threshold
    graphs (these usually drop an edge)."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            a_order = []
            for v in draw(st.permutations(range(g.n))):
                if draw(st.booleans()) and not any(g.has_edge(u, v) for u in a_order):
                    a_order.append(v)
            factors.append(threshold_supergraph(g, a_order))
        else:
            factors.append(from_creation(draw(creations(n=g.n))))
    return factors


def _agrees_with_pair_walks(pairs):
    t = from_creation(pairs)
    assert creation(t) == tuple(pairs)
    assert t.graph == pair_walk_graph(pairs)
    assert list(_isolated_prefixes(t)) == pair_walk_isolated_prefixes(pairs)
    line = format_threshold(t)
    assert line == pair_walk_format(pairs)
    assert parse_threshold(line) == t
    witness = extract_ltf(t)
    assert (witness.weights, witness.bound) == pair_walk_ltf(pairs)


@settings(max_examples=300, deadline=None)
@given(creations())
@example(())
@example(((0, ISOLATED),))
@example(((0, DOMINATING),))
@example(tuple((v, ISOLATED) for v in (3, 0, 5, 1, 4, 2)))
@example(tuple((v, DOMINATING) for v in (3, 0, 5, 1, 4, 2)))
def test_packed_passes_match_pair_walks(pairs):
    _agrees_with_pair_walks(pairs)


def test_packed_passes_match_pair_walks_on_long_runs():
    # runs of a few dozen vertices, ORed into each prefix a bit at a time
    rng = random.Random(7)
    for n, isolated_share in ((300, 0.02), (300, 0.5), (1000, 0.01)):
        order = list(range(n))
        rng.shuffle(order)
        _agrees_with_pair_walks([(v, ISOLATED if rng.random() < isolated_share else DOMINATING)
                                 for v in order])


@pytest.mark.parametrize("n, first_cut", [
    (300, 290), (1000, 995), (300, 299),  # short tails: 10, 5 and 1 vertices
    (300, 200), (1000, 600), (40, 21),    # long tails: 100, 400 and 19 vertices
    (300, 150), (41, 20),                 # the cut at n/2 or just below builds from the front
])
def test_isolated_prefixes_of_a_first_cut_past_half(n, first_cut):
    # degeneracy and treewidth factors place most vertices before their first
    # cut, whose prefix is then the complement of the tail from the cut on
    rng = random.Random(n + first_cut)
    order = list(range(n))
    rng.shuffle(order)
    tags = [DOMINATING] * first_cut + [ISOLATED]
    tags += [ISOLATED if rng.random() < 0.3 else DOMINATING for _ in range(n - first_cut - 1)]
    _agrees_with_pair_walks(list(zip(order, tags)))
    # a first cut at position 0 leaves the mask unbuilt for the second one
    _agrees_with_pair_walks(list(zip(order, [ISOLATED] + tags[1:])))


@settings(max_examples=300, deadline=None)
@given(creations(max_n=30))
@example(())
@example(((0, ISOLATED),))
@example(((0, DOMINATING),))
@example(tuple((v, DOMINATING) for v in (3, 0, 5, 1, 4, 2)))  # k = 0
@example(tuple((v, ISOLATED) for v in (3, 0, 5, 1, 4, 2)))    # all isolated
@example(tuple(zip(range(12), [ISOLATED, DOMINATING] * 6)))  # levels alternate
def test_level_weights_are_at_most_base_weights_and_give_the_factor(pairs):
    # the bound and the fan-in sum(w) of the level gate never exceed those of
    # the base-(n+1) gate, and its accepted pairs are exactly the factor's edges
    t = from_creation(pairs)
    witness = extract_ltf(t)
    base_weights, base_bound = pair_walk_base_ltf(pairs)
    assert witness.bound <= base_bound
    assert sum(witness.weights) <= sum(base_weights)
    assert ltfs_to_graph([witness]) == t.graph


@settings(max_examples=500, deadline=None)
@given(creations(min_n=1, max_n=8), st.data())
def test_certificate_matches_pair_walk(pairs, data):
    t = from_creation(pairs)
    if data.draw(st.booleans()):
        exact = extract_ltf(t)
        weights = list(exact.weights)
        i = data.draw(st.integers(0, t.n - 1))
        weights[i] = max(0, weights[i] + data.draw(st.integers(-3, 3)))
        bound = exact.bound + data.draw(st.integers(-3, 3))
    else:
        weights = data.draw(st.lists(st.integers(0, 6), min_size=t.n, max_size=t.n))
        bound = data.draw(st.integers(0, 12))
    witness = LtfWitness(tuple(weights), bound)
    assert _ltf_counterexample(t, witness) == pair_walk_ltf_counterexample(pairs, witness)


SEQUENCE_REFUSED = "creation sequence must mention each vertex exactly once"


@pytest.mark.parametrize("creation, message", [
    ([(0, ISOLATED), (0, DOMINATING)], SEQUENCE_REFUSED),   # a duplicate vertex
    ([(-1, ISOLATED), (0, DOMINATING)], SEQUENCE_REFUSED),  # a negative vertex
    ([(0, ISOLATED), (2, DOMINATING)], SEQUENCE_REFUSED),   # a vertex >= n
    ([(2 ** 32, ISOLATED)], SEQUENCE_REFUSED),              # past array('I')
])
def test_constructor_refusals(creation, message):
    # ValueError with this message, never array('I')'s OverflowError
    with pytest.raises(ValueError) as refused:
        from_creation(creation)
    assert str(refused.value) == message


@pytest.mark.parametrize("order, cuts", [([0, 0], []), ([-1], [0]), ([2 ** 32], [0]), ([1], [])])
def test_builders_constructor_runs_the_same_check(order, cuts):
    with pytest.raises(ValueError) as refused:
        ThresholdGraph(order, cuts)
    assert str(refused.value) == SEQUENCE_REFUSED


CUTS_UNSORTED = "cuts must strictly ascend"
CUTS_OUT_OF_RANGE = "cuts must lie in [0, n)"


@pytest.mark.parametrize("cuts, message", [
    ([2, 0], CUTS_UNSORTED),
    ([1, 1], CUTS_UNSORTED),
    ([-1], CUTS_OUT_OF_RANGE),
    ([-1, 0], CUTS_OUT_OF_RANGE),
    ([3], CUTS_OUT_OF_RANGE),
    ([0, 3], CUTS_OUT_OF_RANGE),
    ([2 ** 32], CUTS_OUT_OF_RANGE),  # past array('I')
])
def test_cuts_refusals(cuts, message):
    with pytest.raises(ValueError) as refused:
        ThresholdGraph([2, 0, 1], cuts)
    assert str(refused.value) == message


VERTEX_TEXTS = st.one_of(st.integers(-2, 7).map(str),
                         st.sampled_from(["", "-0", "1:2", str(2 ** 32), "\uff11"]))
TAG_TEXTS = st.sampled_from([f":{ISOLATED}", f":{DOMINATING}", ":x", ":dd", ":", "", DOMINATING])


def respellings(v):
    """Other ways to write the vertex v that int() reads as v."""
    return st.sampled_from([f"+{v}", f"0{v}", chr(0x660 + v)])  # v < 10: an Arabic-Indic digit


@st.composite
def ts_lines(draw):
    """`ts` lines, most well formed, some with a vertex, a tag or the count
    written otherwise."""
    pairs = draw(creations(max_n=6))
    heads = [str(v) for v, _ in pairs]
    tags = [f":{tag}" for _, tag in pairs]
    for _ in range(draw(st.integers(0, 2)) if pairs else 0):
        i = draw(st.integers(0, len(pairs) - 1))
        part = draw(st.sampled_from(["vertex", "respelled", "tag"]))
        if part == "vertex":
            heads[i] = draw(VERTEX_TEXTS)
        elif part == "respelled":
            heads[i] = draw(respellings(pairs[i][0]))
        else:
            tags[i] = draw(TAG_TEXTS)
    count = draw(st.one_of(st.just(str(len(pairs))), st.integers(-1, 7).map(str)))
    return " ".join(["ts", count, *map(str.__add__, heads, tags)])


@settings(max_examples=500, deadline=None)
@given(ts_lines())
@example("ts 2 0:i 0:d")
@example("ts 1 4294967296:i")
@example("ts 2 :d 1:i")
@example("ts 2 1:2:i 0:d")
@example("ts 2 +1:d 0:i")
@example("ts 1 \u0660:d")
@example("ts 1 0:dd")
def test_parse_matches_pair_parser(line):
    try:
        expected = pair_parse_threshold(line)
    except ValueError:
        with pytest.raises(ValueError):
            parse_threshold(line)
        return
    t = parse_threshold(line)
    assert t == expected
    assert parse_threshold(format_threshold(t)) == t


@pytest.mark.parametrize("line, message", [
    ("ts 2 0:i 0:d", SEQUENCE_REFUSED),
    ("ts 2 -1:i 0:d", SEQUENCE_REFUSED),
    ("ts 2 0:i 2:d", SEQUENCE_REFUSED),
    ("ts 1 4294967296:i", SEQUENCE_REFUSED),
    ("ts 2 0:d 1:x", "bad creation token '1:x'"),
])
def test_decomposition_file_refusals(line, message):
    with pytest.raises(ValueError) as refused:
        parse_decomposition(f"td-decomp manual 1\n{line}\n")
    assert str(refused.value) == message


@settings(max_examples=300, deadline=None)
@given(creations())
def test_compact_views_match_materialized_graph(pairs):
    t = from_creation(pairs)
    g = t.graph
    placed = list(t.order)
    prefixes = list(_isolated_prefixes(t))
    assert [w for w, _ in prefixes] == list(t.split_a)
    held = []
    for w, prefix in prefixes:
        assert prefix == sum(1 << u for u in placed[:placed.index(w)])
        held += [frozenset((u, w)) for u in range(t.n) if prefix >> u & 1]
    non_edges = [frozenset(p) for p in combinations(range(t.n), 2) if not g.has_edge(*p)]
    assert sorted(held, key=sorted) == sorted(non_edges, key=sorted)  # each non-edge once


@settings(max_examples=100, deadline=None)
@given(creations(min_n=1))
def test_recognized_sequence_has_the_same_degree_vector(pairs):
    t = from_creation(pairs)
    again = recognize_threshold(t.graph)
    assert isinstance(again, ThresholdGraph)
    assert again.graph == t.graph  # so the same degree vector


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_mask_verification_matches_edge_mask_oracle(data):
    g = data.draw(graphs())
    factors = data.draw(factor_lists(g))
    d = Decomposition(factors=tuple(factors), method="manual", bound_claimed=len(factors))
    assert verify_decomposition(g, d) == edge_mask_verify(g, factors)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_reported_pair_is_a_dropped_edge_or_a_kept_non_edge(data):
    # the pair names its own fault: an edge of g that factor i drops, or a
    # non-edge of g that every factor keeps
    g = data.draw(graphs())
    factors = data.draw(factor_lists(g))
    d = Decomposition(factors=tuple(factors), method="manual", bound_claimed=len(factors))
    mismatch = verify_decomposition(g, d)
    if mismatch is not None:
        (u, w), idx = mismatch
        if idx is None:
            assert not g.has_edge(u, w) and all(f.graph.has_edge(u, w) for f in factors)
        else:
            assert g.has_edge(u, w) and not factors[idx].graph.has_edge(u, w)


# C4 = 0-2-1-3-0, with non-edges {0, 1} and {2, 3}. The first factor places 0
# isolated after 1, so it holds {0, 1} at the smaller end 0; the second places
# 3 isolated after 2, so it holds {2, 3} at the larger end 3 only, which the
# scan for kept pairs reaches by testing a bit of 3's row.
C4 = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
HELD_AT_SMALLER = from_creation(((1, ISOLATED), (0, ISOLATED), (2, DOMINATING), (3, DOMINATING)))
HELD_AT_LARGER = from_creation(((2, ISOLATED), (3, ISOLATED), (0, DOMINATING), (1, DOMINATING)))


def _check(g, factors):
    d = Decomposition(factors=tuple(factors), method="manual", bound_claimed=len(factors))
    mismatch = verify_decomposition(g, d)
    assert mismatch == edge_mask_verify(g, factors)
    return mismatch


def test_non_edge_held_at_either_end_verifies():
    assert _check(C4, [HELD_AT_SMALLER, HELD_AT_LARGER]) is None
    assert _check(C4, [HELD_AT_LARGER, HELD_AT_SMALLER]) is None


def test_non_edge_kept_without_its_only_factor_is_reported():
    assert _check(C4, [HELD_AT_LARGER]) == ((0, 1), None)
    assert _check(C4, [HELD_AT_SMALLER]) == ((2, 3), None)


def test_smallest_dropped_edge_is_reported_whichever_end_is_isolated():
    # 3 enters isolated after 1 and 2 (dropping the edge (1, 3)), then 0
    # after 1, 2 and 3 (dropping (0, 2) and (0, 3)): the smallest is (0, 2),
    # at its isolated end 0
    bad = from_creation(((1, DOMINATING), (2, DOMINATING), (3, ISOLATED), (0, ISOLATED)))
    assert _check(C4, [HELD_AT_SMALLER, bad]) == ((0, 2), 1)
    # 2 enters isolated after 0 and 1: the smallest is (0, 2), at its
    # isolated end 2
    mirror = from_creation(((0, DOMINATING), (1, DOMINATING), (2, ISOLATED), (3, DOMINATING)))
    assert _check(C4, [mirror]) == ((0, 2), 0)


def test_pairs_held_at_their_larger_ends_only():
    # an all-isolated factor in ascending order holds every pair at its
    # larger end: far more bit tests than vertices, so the check also
    # records each pair at its earlier-placed end
    n = 8
    ascending = from_creation(tuple((v, ISOLATED) for v in range(n)))
    assert _check(Graph(n, []), [ascending]) is None
    one_dominating = from_creation(tuple((v, DOMINATING if v == 5 else ISOLATED)
                                         for v in range(n)))
    assert _check(Graph(n, []), [one_dominating]) == ((0, 5), None)
