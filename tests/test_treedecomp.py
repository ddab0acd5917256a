from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thdim import treedecomp
from thdim import (ExactLimitError, Graph, TreeDecomposition, TreeDecompositionError,
                   complete_graph, cycle_graph, format_tree_decomposition,
                   heuristic_tree_decomposition, path_graph, petersen_graph,
                   validate_tree_decomposition)

from helpers import (all_graphs, complete_bipartite, dense_graphs,
                     dfs_validate_tree_decomposition, named_corpus, pendant_complement_bags,
                     pendant_clique_complement, random_corpus, read_valid,
                     rescan_min_fill_tree_decomposition, small_graphs)


def test_parse_single_bag_k3():
    td = read_valid("s td 1 3 3\nb 1 0 1 2\n", complete_graph(3))
    assert td.width == 2 and td.root == 1


def test_parse_path_of_bags_for_p4():
    text = "s td 3 2 4\nb 1 0 1\nb 2 1 2\nb 3 2 3\n1 2\n2 3\n"
    td = read_valid(text, path_graph(4))
    assert td.width == 1


def test_vertex_count_above_the_cap_is_refused_before_validation(monkeypatch):
    # validation lists range(n), and read_valid builds the edgeless graph on n
    # vertices, so reading must refuse this n before either
    def refuse(*_args, **_kwargs):
        raise AssertionError("a hostile header reached validation")

    monkeypatch.setattr(treedecomp, "validate_tree_decomposition", refuse)
    with pytest.raises(ExactLimitError):
        read_valid(f"s td 1 1 {10 ** 12}\nb 1 0\n")


def test_parse_rejects_disconnected_trace():
    # vertex 1 sits in bags 1 and 3 but not in the middle bag
    text = "s td 3 2 4\nb 1 0 1\nb 2 2 3\nb 3 1 2\n1 2\n2 3\n"
    with pytest.raises(TreeDecompositionError) as err:
        read_valid(text)
    assert err.value.condition == 3


def test_parse_rejects_missing_vertex():
    text = "s td 1 2 3\nb 1 0 1\n"
    with pytest.raises(TreeDecompositionError) as err:
        read_valid(text)
    assert err.value.condition == 1


def test_validate_rejects_uncovered_edge():
    text = "s td 2 2 4\nb 1 0 1\nb 2 2 3\n1 2\n"
    with pytest.raises(TreeDecompositionError) as err:
        read_valid(text, path_graph(4))
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
        read_valid(text)
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


def _shape(td):
    return td.bags, td.tree, td.root, td.n


def _disjoint_copies(g, count):
    return Graph(g.n * count, [(u + i * g.n, v + i * g.n)
                               for i in range(count) for u, v in g.edges()])


def _grid(rows, cols):
    return Graph(rows * cols, [(r * cols + c, r * cols + c + 1)
                               for r in range(rows) for c in range(cols - 1)]
                 + [(r * cols + c, (r + 1) * cols + c)
                    for r in range(rows - 1) for c in range(cols)])


def _largest_step_gain(td, g):
    """The most fill edges one elimination step of td's order puts inside
    the neighbourhood of one other live vertex, replayed on Python sets. Bag
    i belongs to the i-th eliminated vertex, the one in no later bag."""
    order, later = [], set()
    for i in sorted(td.bags, reverse=True):
        (v,) = td.bags[i] - later
        order.append(v)
        later |= td.bags[i]
    adj = [set(g.adj[v]) for v in range(g.n)]
    best = 0
    for v in reversed(order):
        fill = [(a, b) for a, b in combinations(sorted(adj[v]), 2) if b not in adj[a]]
        for w in range(g.n):
            if w != v and adj[w] is not None:
                best = max(best, sum(a in adj[w] and b in adj[w] for a, b in fill))
        for a, b in fill:
            adj[a].add(b)
            adj[b].add(a)
        for a in adj[v]:
            adj[a].discard(v)
        adj[v] = None
    return best


def test_min_fill_matches_rescan():
    corpus = [g for n in range(6) for g in all_graphs(n)] + list(named_corpus().values())
    corpus += random_corpus(10, [(15, 30), (25, 40), (40, 120), (60, 180), (120, 360)], seed=8)
    # denser graphs add many fill edges per step, so the neighbour updates
    # carry most of the counts
    corpus += random_corpus(12, [(20, 60), (40, 200), (80, 400)], seed=14)
    # many vertices tie on fill at every step, so the heap's order decides
    corpus += [_disjoint_copies(petersen_graph(), 3), _disjoint_copies(cycle_graph(5), 4),
               _disjoint_copies(complete_bipartite(2, 3), 3)]
    corpus += [cycle_graph(n) for n in (3, 7, 16, 31)]
    corpus += [_grid(r, c) for r, c in ((2, 5), (3, 4), (4, 5), (5, 5), (6, 7))]
    corpus += [complete_bipartite(s, t) for s, t in ((1, 5), (2, 2), (3, 4), (4, 4), (3, 7), (5, 6))]
    # one step adds 8 or more fill edges around some vertex, so its count
    # carries past the third bit-sliced plane
    dense = random_corpus(12, [(30, 250)], seed=22)
    assert max(_largest_step_gain(rescan_min_fill_tree_decomposition(g), g) for g in dense) >= 8
    for g in corpus + dense:
        assert _shape(heuristic_tree_decomposition(g)) == \
            _shape(rescan_min_fill_tree_decomposition(g))


@settings(max_examples=300, deadline=None)
@given(small_graphs(14))
def test_min_fill_matches_rescan_property(g):
    assert _shape(heuristic_tree_decomposition(g)) == \
        _shape(rescan_min_fill_tree_decomposition(g))


@settings(max_examples=100, deadline=None)
@given(dense_graphs(24))
def test_min_fill_matches_rescan_on_dense_graphs(g):
    assert _shape(heuristic_tree_decomposition(g)) == \
        _shape(rescan_min_fill_tree_decomposition(g))


def test_validate_names_the_one_uncovered_edge_of_c6():
    # a path of bags along 0-1-2-3-4-5 covers every edge of C6 but (0,5)
    bags = {i + 1: frozenset({i, i + 1}) for i in range(5)}
    tree = {i: tuple(j for j in (i - 1, i + 1) if 1 <= j <= 5) for i in bags}
    td = TreeDecomposition(bags=bags, tree=tree, root=1, n=6)
    with pytest.raises(TreeDecompositionError) as err:
        validate_tree_decomposition(td, cycle_graph(6))
    assert err.value.condition == 2
    assert str(err.value) == "edge (0,5) is inside no bag"


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
    back = read_valid(format_tree_decomposition(td), g)
    assert back.width == td.width
    assert set(map(frozenset, back.bags.values())) == set(map(frozenset, td.bags.values()))


def test_validate_against_the_edgeless_graph_checks_range_and_coverage():
    shape = {"tree": {1: (2,), 2: (1,)}, "root": 1, "n": 3}
    validate_tree_decomposition(
        TreeDecomposition(bags={1: frozenset({0, 1}), 2: frozenset({1, 2})}, **shape), Graph(3))
    for bags, condition in [({1: frozenset({0}), 2: frozenset({1})}, 1),
                            ({1: frozenset({0, 1}), 2: frozenset({2, 3})}, 0)]:
        with pytest.raises(TreeDecompositionError) as err:
            validate_tree_decomposition(TreeDecomposition(bags=bags, **shape), Graph(3))
        assert err.value.condition == condition


@st.composite
def bag_trees(draw):
    """A random tree of bags, ids 1..m in random order and a random root.
    Each vertex's bags are grown as a connected subtree from a random bag;
    then up to two (bag, vertex) memberships are flipped, the vertex possibly
    out of range, which may break any of the conditions."""
    m = draw(st.integers(1, 8))
    ids = draw(st.permutations(range(1, m + 1)))
    tree: dict[int, set[int]] = {i: set() for i in ids}
    for j in range(1, m):
        p = ids[draw(st.integers(0, j - 1))]
        tree[ids[j]].add(p)
        tree[p].add(ids[j])
    n = draw(st.integers(0, 6))
    bags: dict[int, set[int]] = {i: set() for i in ids}
    for v in range(n):
        trace = {draw(st.sampled_from(ids))}
        for _ in range(draw(st.integers(0, m - 1))):
            frontier = sorted({j for i in trace for j in tree[i]} - trace)
            if frontier:
                trace.add(draw(st.sampled_from(frontier)))
        for i in trace:
            bags[i].add(v)
    for _ in range(draw(st.integers(0, 2))):
        bags[draw(st.sampled_from(ids))] ^= {draw(st.integers(0, n))}
    return TreeDecomposition(bags={i: frozenset(b) for i, b in bags.items()},
                             tree={i: tuple(sorted(s)) for i, s in tree.items()},
                             root=draw(st.sampled_from(ids)), n=n)


def _outcome(check, td, g):
    try:
        check(td, g)
    except TreeDecompositionError as err:
        return err.condition, str(err)
    return None


@settings(max_examples=500, deadline=None)
@given(bag_trees(), st.data())
def test_rooted_trace_check_matches_per_vertex_walks(td, data):
    g = Graph(td.n)
    if data.draw(st.booleans()):
        pairs = combinations(range(td.n), 2)
        g = Graph(td.n, [p for p in pairs if data.draw(st.booleans())])
    assert _outcome(validate_tree_decomposition, td, g) == \
        _outcome(dfs_validate_tree_decomposition, td, g)
