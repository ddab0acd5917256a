import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thdim import (ExactLimitError, Graph, ParseError, complete_graph, cycle_graph,
                   degeneracy_ordering, disjoint_cliques, empty_graph, girth,
                   greedy_coloring, parse_edge_list, path_graph, petersen_graph,
                   write_edge_list)
from thdim.graphs import (MAX_VERTICES, chromatic_number, color_classes, complete_mask,
                          edge_mask, max_independent_set)

from helpers import (all_graphs, backtrack_chromatic_number, clebsch_graph, complement, crown_graph,
                     named_corpus, pendant_clique_complement, exhaustive_girth,
                     is_proper_coloring, pair_walk_induced, position, random_corpus,
                     rescan_degeneracy_ordering, small_graphs)


def test_graph_rejects_self_loops_and_bad_indices():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_graph_collapses_duplicate_edges():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_adjacency_masks_are_a_new_list_on_every_call():
    g = path_graph(3)
    masks = g.adjacency_masks()
    assert masks == [0b010, 0b101, 0b010]
    masks[1] = 0  # as heuristic_tree_decomposition edits its copy
    assert g.adjacency_masks() == [0b010, 0b101, 0b010]
    assert g.adjacency_masks() is not g.adjacency_masks()


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
        assert edge_mask(complement(g)) == complete_mask(g.n) ^ edge_mask(g)


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
        pos = position(ordering)
        for v in range(g.n):
            forward = sum(1 for u in g.adj[v] if pos[u] > pos[v])
            assert forward <= k


def test_degeneracy_heap_peel_matches_rescan():
    corpus = random_corpus(24, [(1, 0), (8, 12), (40, 60), (60, 180), (120, 90), (200, 600)],
                           seed=17)
    corpus += list(all_graphs(5))
    corpus += [petersen_graph(), empty_graph(7), complete_graph(6), cycle_graph(9)]
    for g in corpus:
        k, ordering = degeneracy_ordering(g)
        assert (k, ordering) == rescan_degeneracy_ordering(g)


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
    g = disjoint_cliques(3)
    assert (len(max_independent_set(g)), len(max_independent_set(complement(g))),
            chromatic_number(g)) == (2, 3, 3)
    g = cycle_graph(5)
    assert (len(max_independent_set(g)), len(max_independent_set(complement(g))),
            chromatic_number(g)) == (2, 2, 3)
    g = pendant_clique_complement(3)
    assert len(max_independent_set(g)) == len(max_independent_set(complement(g))) == 3


def test_exact_invariants_consistency():
    for g in random_corpus(12, [(7, 10), (8, 13)], seed=11):
        alpha = max_independent_set(g)
        assert all(not g.has_edge(u, v) for u in alpha for v in alpha)
        assert chromatic_number(g) >= len(max_independent_set(complement(g)))


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


def test_chromatic_number_matches_backtracking_oracle():
    corpus = [g for n in range(6) for g in all_graphs(n)] + list(named_corpus().values())
    # first fit takes 5 colours on the crown graph, and deepening must stop
    # at omega = 2; the 16-vertex Clebsch graph is triangle-free with chi 4,
    # so deepening climbs from 2 to 4 at CHROMATIC_LIMIT
    corpus += [crown_graph(5), clebsch_graph()]
    for g in corpus:
        assert chromatic_number(g) == backtrack_chromatic_number(g)
    assert [chromatic_number(g) for g in corpus[-2:]] == [2, 4]


@settings(max_examples=300, deadline=None)
@given(small_graphs(12))
def test_chromatic_number_matches_backtracking_oracle_property(g):
    assert chromatic_number(g) == backtrack_chromatic_number(g)


@settings(max_examples=300, deadline=None)
@given(small_graphs(12), st.data())
def test_induced_matches_the_pair_walk(g, data):
    # keep is drawn unsorted and with repeats
    keep = data.draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n)) if g.n else []
    sub = g.induced(keep)
    assert sub == pair_walk_induced(g, keep)
    assert sub.n == len(set(keep))


def test_induced_on_every_vertex_is_the_graph_itself():
    g = petersen_graph()
    assert g.induced(range(g.n)) is g
    assert g.induced([9, 0, 5, *range(10)]) is g
    assert g.induced(range(1, g.n)) is not g


def test_greedy_coloring_bounds():
    assert greedy_coloring(empty_graph(4), range(4)) == (0, 0, 0, 0)
    assert greedy_coloring(complete_graph(4), [3, 2, 1, 0]) == (3, 2, 1, 0)
    assert max(greedy_coloring(cycle_graph(5), range(5))) == 2


def test_greedy_coloring_proper_on_randoms():
    for g in random_corpus(10, [(9, 16), (11, 22)], seed=21):
        _, order = degeneracy_ordering(g)
        assert is_proper_coloring(greedy_coloring(g, order), g, g.max_degree() + 1)


@pytest.mark.parametrize("order", [(0, 0, 1), (0, 1), (0, 1, 2, 3), (0, 1, 3), (-1, 0, 1)])
def test_greedy_coloring_refuses_an_order_that_is_not_a_permutation(order):
    # a repeat, the wrong length, an out-of-range vertex
    with pytest.raises(ValueError, match="not a permutation"):
        greedy_coloring(path_graph(3), order)


@settings(max_examples=300, deadline=None)
@given(small_graphs(12), st.data())
def test_greedy_classes_partition_the_vertices_with_no_colour_skipped(g, data):
    # maxdeg seeds each split by its class's index: every index below the
    # largest colour must name a class that is there
    order = data.draw(st.permutations(range(g.n)))
    classes = color_classes(greedy_coloring(g, order))
    assert sorted(v for cls in classes for v in cls) == list(range(g.n))
    assert all(classes)
