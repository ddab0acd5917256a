"""Property tests for factors held as creation sequences: the compact
per-vertex views agree with the materialized graph, degree vectors identify
labeled threshold graphs, and the mask-based decomposition check agrees with
the edge-mask oracle in helpers.py."""

from hypothesis import given, settings
from hypothesis import strategies as st

from thdim import (Decomposition, Graph, ThresholdGraph, recognize_threshold,
                   threshold_supergraph, verify_decomposition)
from thdim.threshold import DOMINATING, ISOLATED

from helpers import edge_mask_verify


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
            factors.append(ThresholdGraph(draw(creations(n=g.n))))
    return factors


@settings(max_examples=300, deadline=None)
@given(creations())
def test_compact_views_match_materialized_graph(creation):
    t = ThresholdGraph(creation)
    g = t.graph
    full = (1 << t.n) - 1
    masks = t.nonadjacency_masks()
    for v in range(t.n):
        adjacent = sum(1 << u for u in g.adj[v])
        assert masks[v] == full & ~adjacent & ~(1 << v)
    assert t.degrees() == tuple(g.degree(v) for v in range(t.n))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(creations(n=n), creations(n=n))))
def test_degree_vector_identifies_labeled_threshold_graph(pair):
    s, t = ThresholdGraph(pair[0]), ThresholdGraph(pair[1])
    assert (s.degrees() == t.degrees()) == (s.graph == t.graph)


@settings(max_examples=100, deadline=None)
@given(creations(min_n=1))
def test_recognized_sequence_has_the_same_degree_vector(creation):
    t = ThresholdGraph(creation)
    again = recognize_threshold(t.graph)
    assert isinstance(again, ThresholdGraph)
    assert again.degrees() == t.degrees()


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_mask_verification_matches_edge_mask_oracle(data):
    g = data.draw(graphs())
    factors = data.draw(factor_lists(g))
    d = Decomposition(factors=tuple(factors), method="manual", bound_claimed=len(factors))
    r = verify_decomposition(g, d)
    assert (r.ok, r.reason, r.pair, r.factor_index) == edge_mask_verify(g, factors)
