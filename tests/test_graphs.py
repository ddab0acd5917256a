import math

import pytest

from thdim import (ExactLimitError, Graph, ParseError, VertexOrdering, complement,
                   complete_graph, cycle_graph, degeneracy_ordering, disjoint_cliques,
                   empty_graph, exact_small_invariants, girth,
                   greedy_coloring, parse_edge_list, path_graph, petersen_graph,
                   write_edge_list)
from thdim.graphs import MAX_VERTICES, max_independent_set, chromatic_number

from helpers import all_graphs, pendant_clique_complement, exhaustive_girth, random_corpus


def test_graph_rejects_self_loops_and_bad_indices():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_graph_collapses_duplicate_edges():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_parse_p4():
    g = parse_edge_list("p 4 3\n0 1\n1 2\n2 3\n")
    assert g == path_graph(4)


def test_parse_edgeless_and_triangle():
    assert parse_edge_list("p 2 0\n") == empty_graph(2)
    assert parse_edge_list("p 3 3\n0 1\n1 2\n0 2\n") == complete_graph(3)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\np 3 1\n# another\n0 2\n"
    assert parse_edge_list(text).has_edge(0, 2)


@pytest.mark.parametrize("text,fragment", [
    ("p 3 1\n0 3\n", "line 2"),
    ("p 3 1\n1 1\n", "self-loop"),
    ("p 3 1\nx y\n", "line 2"),
    ("q 3 1\n0 1\n", "line 1"),
    ("p 3 2\n0 1\n", "2 edges"),
    ("p 3 1\n0 1\n1 2\n", "extra line"),
])
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def test_vertex_count_above_the_cap_is_refused_before_allocation(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a graph was allocated for a hostile header")

    monkeypatch.setattr(Graph, "__init__", refuse)
    for n in (MAX_VERTICES + 1, 10 ** 12):
        with pytest.raises(ExactLimitError):
            parse_edge_list(f"p {n} 0\n")


def test_edge_list_round_trip():
    g = petersen_graph()
    assert parse_edge_list(write_edge_list(g)) == g


def test_complement_k3_and_involution():
    assert complement(complete_graph(3)) == empty_graph(3)
    assert complement(complement(path_graph(4))) == path_graph(4)
    for g in random_corpus(10, [(7, 10), (8, 14)], seed=5):
        assert complement(complement(g)) == g


def test_complement_of_clique_with_pendants():
    h = pendant_clique_complement(3)
    # pendant edges and the clique disappear, everything else appears
    assert not h.has_edge(0, 1) and not h.has_edge(0, 3)
    assert h.has_edge(3, 4) and h.has_edge(0, 4)


@pytest.mark.parametrize("g,k", [
    (cycle_graph(10), 2),
    (complete_graph(5), 4),
    (petersen_graph(), 3),
    (path_graph(6), 1),
    (empty_graph(4), 0),
])
def test_degeneracy_values(g, k):
    got, _ = degeneracy_ordering(g)
    assert got == k


def test_degeneracy_forward_neighbors_bound():
    for g in random_corpus(15, [(8, 12), (10, 20), (12, 18)], seed=9):
        k, ordering = degeneracy_ordering(g)
        pos = ordering.position()
        for v in range(g.n):
            forward = sum(1 for u in g.adj[v] if pos[u] > pos[v])
            assert forward <= k


def test_girth_named_values():
    assert girth(path_graph(5)) == math.inf
    assert girth(petersen_graph()) == 5
    assert girth(cycle_graph(4)) == 4
    assert girth(complete_graph(4)) == 3


def test_girth_matches_exhaustive_enumeration():
    for g in all_graphs(5):
        assert girth(g) == exhaustive_girth(g)
    for g in random_corpus(20, [(7, 9), (8, 11)], seed=3):
        assert girth(g) == exhaustive_girth(g)


def test_exact_invariants_named():
    inv = exact_small_invariants(disjoint_cliques(3))
    assert (inv.alpha, inv.omega, inv.beta, inv.chi) == (2, 3, 4, 3)
    inv = exact_small_invariants(cycle_graph(5))
    assert (inv.alpha, inv.omega, inv.beta, inv.chi) == (2, 2, 3, 3)
    inv = exact_small_invariants(pendant_clique_complement(3))
    assert (inv.alpha, inv.omega, inv.beta) == (3, 3, 3)


def test_exact_invariants_consistency():
    for g in random_corpus(12, [(7, 10), (8, 13)], seed=11):
        inv = exact_small_invariants(g)
        assert inv.alpha + inv.beta == g.n
        assert inv.omega == len(max_independent_set(g.complement()))
        assert inv.chi >= inv.omega


def test_exact_invariants_refusal():
    big = empty_graph(30)
    with pytest.raises(ExactLimitError):
        max_independent_set(big)
    with pytest.raises(ExactLimitError):
        chromatic_number(empty_graph(20))


def test_chromatic_number_small_cases():
    assert chromatic_number(empty_graph(0)) == 0
    assert chromatic_number(empty_graph(5)) == 1
    assert chromatic_number(complete_graph(6)) == 6
    assert chromatic_number(cycle_graph(7)) == 3
    assert chromatic_number(petersen_graph()) == 3


def test_greedy_coloring_bounds():
    order = VertexOrdering(tuple(range(4)))
    assert greedy_coloring(empty_graph(4), order).palette_size == 1
    assert greedy_coloring(complete_graph(4), order).palette_size == 4
    c5 = greedy_coloring(cycle_graph(5), VertexOrdering(tuple(range(5))))
    assert c5.palette_size <= 3


def test_greedy_coloring_proper_on_randoms():
    for g in random_corpus(10, [(9, 16), (11, 22)], seed=21):
        _, order = degeneracy_ordering(g)
        coloring = greedy_coloring(g, order)
        assert coloring.is_proper_for(g)
        assert coloring.palette_size <= g.max_degree() + 1


def test_vertex_ordering_validation():
    with pytest.raises(ValueError):
        VertexOrdering((0, 0, 1))
