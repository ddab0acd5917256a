import pytest
from hypothesis import assume, given, settings

from thdim import (ExactLimitError, Graph, ThresholdGraph, complete_graph,
                   compute_report, cycle_graph, disjoint_cliques, empty_graph,
                   exact_decomposition, exact_dimension, lower_bound_clique_chromatic,
                   path_graph, recognize_threshold, star_graph,
                   upper_bound_ramsey_style, verify_decomposition, write_edge_list)
from thdim import exactdim
from thdim.cli import main
from thdim.graphs import edge_mask, graph_from_mask

from helpers import (all_graphs, brute_is_threshold, clebsch_graph, complement, crown_graph,
                     dfs_exact_cover, enumerate_threshold_supergraphs, induced_clique_chromatic,
                     named_corpus, pendant_clique_complement, random_corpus, small_graphs)


# ---------------------------------------------------------------------------
# supergraph enumeration

def test_complete_graph_has_single_supergraph():
    for n in (2, 4, 6):
        supers = enumerate_threshold_supergraphs(complete_graph(n))
        assert len(supers) == 1
        assert supers[0].graph == complete_graph(n)


def test_single_edge_supergraph():
    assert len(enumerate_threshold_supergraphs(complete_graph(2))) == 1


def test_p4_supergraph_count_matches_filter():
    g = path_graph(4)
    gmask = edge_mask(g)
    expected = 0
    for mask in range(1 << 6):
        if mask & gmask == gmask and brute_is_threshold(graph_from_mask(4, mask)):
            expected += 1
    assert len(enumerate_threshold_supergraphs(g)) == expected


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 46), (5, 332)])
def test_all_labeled_threshold_graph_counts(n, count):
    # enumeration over the edgeless graph lists every labeled threshold graph
    supers = enumerate_threshold_supergraphs(empty_graph(n))
    assert len(supers) == count
    filtered = sum(1 for g in all_graphs(n) if brute_is_threshold(g)) if n <= 4 else None
    if filtered is not None:
        assert len(supers) == filtered


def test_supergraphs_are_threshold_supergraphs():
    g = cycle_graph(5)
    for t in enumerate_threshold_supergraphs(g):
        assert brute_is_threshold(t.graph)
        assert edge_mask(t.graph) & edge_mask(g) == edge_mask(g)


def test_enumeration_refusal():
    with pytest.raises(ExactLimitError):
        enumerate_threshold_supergraphs(empty_graph(9))


# ---------------------------------------------------------------------------
# exact dimension

@pytest.mark.parametrize("g,dim", [
    (disjoint_cliques(2), 2),
    (path_graph(4), 2),
    (cycle_graph(4), 2),
    (disjoint_cliques(3), 3),
    (cycle_graph(5), 3),
    (complete_graph(5), 1),
    (empty_graph(5), 1),
    (star_graph(6), 1),
    (pendant_clique_complement(3), 3),
])
def test_exact_dimension_values(g, dim):
    assert exact_dimension(g) == dim


def test_dimension_one_iff_threshold():
    for g in all_graphs(5):
        accepted = isinstance(recognize_threshold(g), ThresholdGraph)
        assert (exact_dimension(g) == 1) == accepted
        if not accepted:
            assert exact_dimension(g) >= 2


def test_exact_dimension_refusal():
    with pytest.raises(ExactLimitError):
        exact_dimension(empty_graph(9))


def test_exact_decomposition_witnesses_dimension():
    for g in [path_graph(4), disjoint_cliques(3), cycle_graph(5), complete_graph(3)]:
        d = exact_decomposition(g)
        assert d.verified and d.size == exact_dimension(g) == d.bound_claimed
        assert verify_decomposition(g, d) is None


ORACLE_GRAPHS = ([g for n in range(6) for g in all_graphs(n)]
                 + random_corpus(24, [(6, 5), (6, 9), (7, 8), (7, 14), (8, 9), (8, 13)],
                                 seed=43))


def test_maximal_covers_match_all_supergraph_search():
    for g in ORACLE_GRAPHS:
        covers, factors = dfs_exact_cover(g)
        maximal = {c for c in covers if not any(c != d and c & ~d == 0 for d in covers)}
        assert exactdim._maximal_covers(g) == sorted(maximal, key=lambda c: (-c.bit_count(), c))
        assert exact_dimension(g) == len(factors)
        d = exact_decomposition(g)
        assert [t.graph for t in d.factors] == [t.graph for t in factors]


@settings(max_examples=200, deadline=None)
@given(small_graphs(8))
def test_maximal_covers_are_already_maximal(g):
    # `_min_cover` takes them as they come, with no second `_maximal` pass;
    # a complete graph gets [0] and never reaches it
    assume(g.m < g.n * (g.n - 1) // 2)
    covers = exactdim._maximal_covers(g)
    assert exactdim._maximal(covers) == covers


def test_report_path_enumerates_no_supergraphs(tmp_path):
    for g in random_corpus(4, [(8, 10), (8, 13)], seed=47):
        d = exact_decomposition(g)
        assert d.verified and d.size == exact_dimension(g)
        assert exact_dimension(complement(g)) >= 1
        assert compute_report(g, seed=1).exact == d.size
        path = tmp_path / "g.txt"
        path.write_text(write_edge_list(g))
        assert main(["report", str(path), "--seed", "1"]) == 0


# ---------------------------------------------------------------------------
# bounds

def test_clique_chromatic_named_values():
    assert lower_bound_clique_chromatic(complete_graph(4)) == 0
    assert lower_bound_clique_chromatic(disjoint_cliques(3)) == 3
    assert lower_bound_clique_chromatic(disjoint_cliques(2)) == 2
    assert lower_bound_clique_chromatic(cycle_graph(5)) == 2
    assert lower_bound_clique_chromatic(star_graph(4)) == 1  # K_{1,3}: two leaves are left


def test_clique_chromatic_below_exact():
    for g in random_corpus(20, [(6, 8), (7, 11), (8, 13)], seed=23):
        assert lower_bound_clique_chromatic(g) <= exact_dimension(g)


def test_clique_chromatic_matches_induced_subgraph_oracle():
    corpus = [g for n in range(6) for g in all_graphs(n)] + list(named_corpus().values())
    # removing the triangle leaves the crown graph (omega 2, chi 2, first fit
    # 4), so deepening must start from the omega of what is left, not of g;
    # every other maximal clique leaves the triangle. The Clebsch graph has
    # 16 vertices, CHROMATIC_LIMIT.
    corpus += [Graph(11, list(crown_graph(4).edges()) + [(8, 9), (8, 10), (9, 10)]),
               clebsch_graph()]
    for g in corpus:
        assert lower_bound_clique_chromatic(g) == induced_clique_chromatic(g)
    assert lower_bound_clique_chromatic(corpus[-2]) == 2


@settings(max_examples=300, deadline=None)
@given(small_graphs(12))
def test_clique_chromatic_matches_induced_subgraph_oracle_property(g):
    assert lower_bound_clique_chromatic(g) == induced_clique_chromatic(g)


def test_clique_chromatic_refusal():
    with pytest.raises(ExactLimitError):
        lower_bound_clique_chromatic(empty_graph(17))


def test_ramsey_style_values():
    assert upper_bound_ramsey_style(complete_graph(6)) == 1
    assert upper_bound_ramsey_style(pendant_clique_complement(3)) == 3
    assert upper_bound_ramsey_style(cycle_graph(5)) == 3


def test_ramsey_style_above_exact():
    for g in random_corpus(15, [(7, 10), (8, 14)], seed=29):
        assert exact_dimension(g) <= upper_bound_ramsey_style(g)


def test_cover_number():
    # the fewest threshold graphs whose union is g: the complement's dimension
    assert exact_dimension(complement(empty_graph(6))) == 1
    assert exact_dimension(disjoint_cliques(3)) == 3
    assert exact_dimension(complement(cycle_graph(4))) == 2


# ---------------------------------------------------------------------------
# report

def test_report_2k3():
    r = compute_report(disjoint_cliques(3))
    assert r.exact == 3
    assert r.lower_bounds["clique-chromatic"] == 3
    assert r.upper_bounds["ramsey-style"] == 3
    assert r.best_lower() <= r.exact <= r.best_upper()
    text = r.to_text()
    assert "exact-dimension" in text and "3" in text
    rows = r.to_rows()
    assert rows.startswith("key,value\n") and "exact,3" in rows


def test_report_k5():
    r = compute_report(complete_graph(5))
    assert r.exact == 1 and r.lower_bounds["clique-chromatic"] == 0


def test_report_brackets_on_randoms():
    for g in random_corpus(6, [(7, 10), (8, 13)], seed=37):
        r = compute_report(g, seed=1)
        assert r.best_lower() <= r.exact <= r.best_upper()
        for name, count in r.factor_counts.items():
            assert r.exact <= count


def test_one_report_builds_the_masks_of_g_once(monkeypatch):
    # every bound and method of the report reads g's neighbour masks, each
    # through its own adjacency_masks() call
    built = []
    build = Graph._build_masks
    monkeypatch.setattr(Graph, "_build_masks", lambda h: built.append(h) or build(h))
    g = cycle_graph(8)
    r = compute_report(g, seed=1)
    assert r.exact is not None and "clique-chromatic" in r.lower_bounds
    assert sum(h is g for h in built) == 1


def test_report_beyond_exact_cap():
    g = cycle_graph(12)
    r = compute_report(g)
    assert r.exact is None
    assert r.best_upper() is not None
