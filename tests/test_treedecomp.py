import pytest

from thdim import treedecomp
from thdim import (ExactLimitError, TreeDecomposition, TreeDecompositionError, complete_graph,
                   cycle_graph, format_tree_decomposition,
                   heuristic_tree_decomposition, parse_tree_decomposition,
                   path_graph, petersen_graph, validate_tree_decomposition)

from helpers import pendant_complement_bags, pendant_clique_complement, random_corpus


def test_parse_single_bag_k3():
    td = parse_tree_decomposition("s td 1 3 3\nb 1 0 1 2\n", complete_graph(3))
    assert td.width == 2 and td.root == 1


def test_parse_path_of_bags_for_p4():
    text = "s td 3 2 4\nb 1 0 1\nb 2 1 2\nb 3 2 3\n1 2\n2 3\n"
    td = parse_tree_decomposition(text, path_graph(4))
    assert td.width == 1


def test_vertex_count_above_the_cap_is_refused_before_validation(monkeypatch):
    # validation without a graph lists range(n), so it must never see this n
    def refuse(*_args, **_kwargs):
        raise AssertionError("a hostile header reached validation")

    monkeypatch.setattr(treedecomp, "validate_tree_decomposition", refuse)
    with pytest.raises(ExactLimitError):
        parse_tree_decomposition(f"s td 1 1 {10 ** 12}\nb 1 0\n")


def test_parse_rejects_disconnected_trace():
    # vertex 1 sits in bags 1 and 3 but not in the middle bag
    text = "s td 3 2 4\nb 1 0 1\nb 2 2 3\nb 3 1 2\n1 2\n2 3\n"
    with pytest.raises(TreeDecompositionError) as err:
        parse_tree_decomposition(text)
    assert err.value.condition == 3


def test_parse_rejects_missing_vertex():
    text = "s td 1 2 3\nb 1 0 1\n"
    with pytest.raises(TreeDecompositionError) as err:
        parse_tree_decomposition(text)
    assert err.value.condition == 1


def test_validate_rejects_uncovered_edge():
    text = "s td 2 2 4\nb 1 0 1\nb 2 2 3\n1 2\n"
    with pytest.raises(TreeDecompositionError) as err:
        parse_tree_decomposition(text, path_graph(4))
    assert err.value.condition == 2


@pytest.mark.parametrize("text", [
    "b 1 0\n",                           # missing header
    "s td 2 1 1\nb 1 0\n",               # bag count mismatch
    "s td 1 1 2\nb 1 0 1\n",             # bag exceeds declared size
    "s td 2 1 2\nb 1 0\nb 2 1\n",        # no tree edge: forest, not tree
    "s td 1 1 1\nb 1 0\nb 1 0\n",        # duplicate bag id
])
def test_parse_structural_errors(text):
    with pytest.raises(TreeDecompositionError) as err:
        parse_tree_decomposition(text)
    assert err.value.condition in (0, 1)


def test_heuristic_on_tree_is_exact():
    td = heuristic_tree_decomposition(path_graph(8))
    assert td.width == 1


def test_heuristic_on_k5():
    assert heuristic_tree_decomposition(complete_graph(5)).width == 4


def test_heuristic_on_c6():
    assert heuristic_tree_decomposition(cycle_graph(6)).width == 2


def test_heuristic_valid_on_randoms():
    for g in random_corpus(12, [(9, 14), (12, 20)], seed=31) + [petersen_graph()]:
        td = heuristic_tree_decomposition(g)
        validate_tree_decomposition(td, g)  # raises on any violation


def test_handmade_star_bags_validate():
    h = pendant_clique_complement(3)
    bags = pendant_complement_bags(3)
    tree = {1: tuple(range(2, 5))}
    for i in range(2, 5):
        tree[i] = (1,)
    td = TreeDecomposition(bags=bags, tree=tree, root=1, n=6)
    validate_tree_decomposition(td, h)
    assert td.width == 2


def test_format_round_trip():
    g = cycle_graph(6)
    td = heuristic_tree_decomposition(g)
    back = parse_tree_decomposition(format_tree_decomposition(td), g)
    assert back.width == td.width
    assert set(map(frozenset, back.bags.values())) == set(map(frozenset, td.bags.values()))


def test_validate_without_graph_checks_range_and_coverage():
    shape = {"tree": {1: (2,), 2: (1,)}, "root": 1, "n": 3}
    validate_tree_decomposition(
        TreeDecomposition(bags={1: frozenset({0, 1}), 2: frozenset({1, 2})}, **shape))
    for bags, condition in [({1: frozenset({0}), 2: frozenset({1})}, 1),
                            ({1: frozenset({0, 1}), 2: frozenset({2, 3})}, 0)]:
        with pytest.raises(TreeDecompositionError) as err:
            validate_tree_decomposition(TreeDecomposition(bags=bags, **shape))
        assert err.value.condition == condition
