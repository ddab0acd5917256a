import random
import re
import types
from itertools import chain, combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thdim import (Graph, RandomizedSearchError, ThresholdGraph,
                   bipartite_coloring_family, bounded_partition,
                   build_suitable_family, complete_graph, cycle_graph,
                   decompose_maxdeg, decompose_split, degeneracy_ordering,
                   format_decomposition, greedy_coloring, path_graph, petersen_graph,
                   recognize_threshold, star_graph, threshold_supergraph,
                   verify_decomposition)
from thdim import threshold
from thdim.decompose import _finish
from thdim.graphs import color_classes, edge_mask
from thdim.maxdeg import _cell_orderings, _cell_requirements, _conflict_blocks, _hoods

from helpers import (all_suitable_pairs, bounded_degree_graph, complete_bipartite,
                     full_scan_uncovered_pairs, guided_completion_args, plain_greedy_subcover,
                     random_corpus, small_graphs, unmet_requirements,
                     walk_cell_requirements, walk_conflict_blocks, whole_family,
                     whole_family_orderings)


# ---------------------------------------------------------------------------
# suitable families

def test_identity_plus_reverse_is_2_suitable():
    perms = [(0, 1, 2), (2, 1, 0)]
    assert full_scan_uncovered_pairs(3, 2, perms) == []


def test_identity_alone_is_not_2_suitable():
    assert full_scan_uncovered_pairs(3, 2, [(0, 1, 2)]) != []


def test_build_small_family():
    fam = whole_family(3, 2, all_suitable_pairs(3, 2), seed=0)
    assert full_scan_uncovered_pairs(3, 2, fam) == []


def test_build_family_n_equals_k():
    fam = whole_family(2, 2, all_suitable_pairs(2, 2), seed=0)
    assert len(fam) >= 2
    assert full_scan_uncovered_pairs(2, 2, fam) == []


def test_build_family_n8_k3():
    fam = whole_family(8, 3, all_suitable_pairs(8, 3), seed=1)
    assert full_scan_uncovered_pairs(8, 3, fam) == []


def test_build_family_deterministic():
    pairs = all_suitable_pairs(6, 2)
    assert (list(build_suitable_family(6, 2, pairs, seed=9))
            == list(build_suitable_family(6, 2, pairs, seed=9)))


def test_build_family_grows_a_prefix_of_its_stream():
    # the check draws nothing, so more requirements only extend the family
    bare = whole_family(40, 2, [], seed=3)
    full = whole_family(40, 2, all_suitable_pairs(40, 2), seed=3)
    assert len(full) > len(bare)
    assert full[:len(bare)] == bare
    assert full_scan_uncovered_pairs(40, 2, full) == []
    assert full_scan_uncovered_pairs(40, 2, bare) != []


@pytest.mark.parametrize("requirements", [[], all_suitable_pairs(8, 4)])
def test_build_family_yields_its_size_once_the_requirements_hold(requirements):
    # None up to the member that meets the last requirement, then the size
    # of the whole family: its start size, or the members the requirements
    # needed (every 4-subset of 8 needs more than the 9 a 2-suitable start has)
    drawn = list(build_suitable_family(8, 2, requirements, seed=3))
    perms = [perm for perm, _ in drawn]
    known = next(i for i in range(len(perms))
                 if not unmet_requirements(perms[:i + 1], requirements))
    start = len(whole_family(8, 2, [], seed=3))
    assert [size for _, size in drawn] == [None] * known + [len(perms)] * (len(perms) - known)
    assert len(perms) == max(start, known + 1)
    assert (len(perms) > start) == bool(requirements)


def test_build_family_refuses_unmeetable_requirement():
    with pytest.raises(RandomizedSearchError, match="suitable family not found"):
        whole_family(4, 2, [((0, 1), 2)], seed=0)


def test_build_family_preconditions():
    # a generator checks its arguments when the first member is drawn
    with pytest.raises(ValueError):
        next(build_suitable_family(3, 1, [], seed=0))
    with pytest.raises(ValueError):
        next(build_suitable_family(2, 3, [], seed=0))


# ---------------------------------------------------------------------------
# reading a family into the orderings of cells

@st.composite
def family_cases(draw):
    """A ground, k, cells and requirements over the ground's block ids, and
    a seed. A cell is `ground` blocks of distinct vertices, each ascending,
    some empty; a requirement is a subset of block ids and one of them."""
    ground = draw(st.integers(2, 7))
    k = draw(st.integers(2, ground))
    cells = []
    for _ in range(draw(st.integers(1, 4))):
        block_of = draw(st.lists(st.integers(0, ground - 1), min_size=1, max_size=8))
        cells.append([[v for v, ci in enumerate(block_of) if ci == b] for b in range(ground)])
    subsets = st.lists(st.integers(0, ground - 1), min_size=1, unique=True)
    requirement = subsets.flatmap(
        lambda s: st.tuples(st.just(tuple(sorted(s))), st.sampled_from(s)))
    return ground, k, cells, draw(st.lists(requirement, max_size=12)), draw(st.integers(0, 2 ** 16))


@settings(max_examples=200, deadline=None)
@given(family_cases())
@example((3, 2, [[[0], [1], [2]]], [], 0))  # a cell with three non-empty blocks
@example((7, 2, [[[0], [1, 2], [], [3], [], [], []], [[0, 1], [], [], [], [], [], [2]]],
          [(tuple(range(7)), x) for x in range(7)], 1))  # the family grows past its start
def test_cells_read_what_the_whole_family_gives(case):
    # the orderings and size from reading the family only as far as the
    # cells need equal those from projecting every member onto every cell
    ground, k, cells, requirements, seed = case

    def family():
        return build_suitable_family(ground, k, requirements, seed=seed)
    try:
        expected = whole_family_orderings(cells, family())
    except RandomizedSearchError:
        with pytest.raises(RandomizedSearchError, match="suitable family not found"):
            _cell_orderings(cells, family())
        return
    orderings, size, drawn = _cell_orderings(cells, family())
    assert (orderings, size) == expected[:2]
    assert 1 <= drawn <= size


def test_cells_stop_the_draw_once_each_has_seen_its_orderings():
    perms = whole_family(6, 2, [], seed=5)
    one_block = [[0, 1], [], [], [], [], []]
    two_blocks = [[2], [], [], [3], [], []]
    assert _cell_orderings([one_block], build_suitable_family(6, 2, [], seed=5)) == (
        [(0, 1), (1, 0)], len(perms), 1)
    # both orders of blocks 0 and 3 are seen at the first member that swaps them
    swapped = next(i for i, p in enumerate(perms)
                   if (p.index(0) < p.index(3)) != (perms[0].index(0) < perms[0].index(3)))
    orderings, size, drawn = _cell_orderings([one_block, two_blocks],
                                             build_suitable_family(6, 2, [], seed=5))
    assert (len(orderings), size, drawn) == (2 + 2, len(perms), swapped + 1)
    # 5! orderings of five blocks are more than the members, so all are read,
    # also when requirements grow the family past its start
    five_blocks = [[v] for v in range(5)] + [[]]
    requirements = [(tuple(range(6)), x) for x in range(6)]
    grown = whole_family(6, 2, requirements, seed=5)
    assert len(grown) > len(perms)
    orderings, size, drawn = _cell_orderings([five_blocks],
                                             build_suitable_family(6, 2, requirements, seed=5))
    assert size == drawn == len(grown)
    assert orderings == whole_family_orderings(
        [five_blocks], build_suitable_family(6, 2, requirements, seed=5))[0]


# ---------------------------------------------------------------------------
# bounded partitions

def test_partition_trivial(monkeypatch):
    # one part is V, drawn from nothing, when no vertex has more than d
    # neighbours; with more, the repair loop runs (and here can only refuse)
    import thdim.maxdeg

    def no_draw(*args):
        raise AssertionError("random.Random seeded")

    monkeypatch.setattr(thdim.maxdeg.random, "Random", no_draw)
    for g in (petersen_graph(), star_graph(1), Graph(0)):
        assert bounded_partition(g, max(1, g.max_degree()), 1) == (frozenset(range(g.n)),)
    with pytest.raises(AssertionError, match="seeded"):
        bounded_partition(petersen_graph(), 2, 1)
    monkeypatch.undo()
    with pytest.raises(RandomizedSearchError, match="worst_violation"):
        bounded_partition(petersen_graph(), 2, 1)


def test_partition_c8_two_parts():
    g = cycle_graph(8)
    parts = bounded_partition(g, 1, 2, seed=0)
    assert len(parts) == 2
    for v in range(8):
        for part in parts:
            assert len(g.adj[v] & part) <= 1


def test_partition_k4_three_parts_or_cap():
    try:
        parts = bounded_partition(complete_graph(4), 1, 3, seed=0)
    except RandomizedSearchError as err:
        assert "worst_violation" in str(err)
        return
    for v in range(4):
        for part in parts:
            assert len(complete_graph(4).adj[v] & part) <= 1


def test_partition_property_on_randoms():
    for i, g in enumerate(random_corpus(6, [(12, 18), (15, 25)], seed=61)):
        d = max(2, g.max_degree() // 2 + 1)
        parts = bounded_partition(g, d, 2, seed=i)
        assert frozenset().union(*parts) == frozenset(range(g.n))
        for v in range(g.n):
            for part in parts:
                assert len(g.adj[v] & part) <= d


def test_partition_preconditions():
    with pytest.raises(ValueError):
        bounded_partition(path_graph(3), 0, 1)
    with pytest.raises(ValueError):
        bounded_partition(path_graph(3), 1, 0)


# ---------------------------------------------------------------------------
# bipartite coloring families

def test_colorings_trivial_when_degrees_small():
    g = star_graph(5)  # center 0 in A, leaves in B have degree 1
    fam, first = bipartite_coloring_family(g, [0], [1, 2, 3, 4], r=1, t=1, ell=2, seed=0)
    assert len(fam) >= 1
    assert first == {1: 0, 2: 0, 3: 0, 4: 0}


def test_colorings_star_center_in_b():
    # center 4 sees 4 leaves; with r=2 and 2 colors a coloring must balance
    g = Graph(5, [(4, i) for i in range(4)])
    fam, first = bipartite_coloring_family(g, [0, 1, 2, 3], [4], r=2, t=3, ell=2, seed=0)
    thin = []
    for c in fam:
        tally = {}
        for leaf in range(4):
            tally[c[leaf]] = tally.get(c[leaf], 0) + 1
        thin.append(all(x <= 2 for x in tally.values()))
    assert first == {4: thin.index(True)}


def test_colorings_always_verify_when_r_covers_degree():
    g = cycle_graph(6)
    fam, first = bipartite_coloring_family(g, [0, 2, 4], [1, 3, 5], r=2, t=1, ell=1, seed=0)
    assert len(fam) == 1 and first == {1: 0, 3: 0, 5: 0}


def test_colorings_preconditions():
    with pytest.raises(ValueError):
        bipartite_coloring_family(path_graph(2), [0], [1], r=0, t=1, ell=1)


# ---------------------------------------------------------------------------
# split extensions

def test_split_extension_validation():
    with pytest.raises(ValueError, match="^a_order is not independent"):
        decompose_split(path_graph(4), [0, 1])
    for a_side in ([0, 4], [-1, 2], [9]):
        with pytest.raises(ValueError, match="^a_order vertex out of range$"):
            decompose_split(path_graph(4), a_side)


def test_split_extension_graph():
    d = decompose_split(path_graph(4), [0, 2])
    eg = d.verified_for
    assert eg.has_edge(1, 3)            # clique side completed
    assert eg.has_edge(0, 1) and eg.has_edge(2, 3) and eg.has_edge(1, 2)
    assert not eg.has_edge(0, 2)
    assert eg.m == 4


def test_split_reads_a_generator_like_a_list():
    g = bounded_degree_graph(30, 40, 6, seed=2)
    _, order = degeneracy_ordering(g)
    a_side = color_classes(greedy_coloring(g, order))[0]
    from_list = decompose_split(g, a_side, seed=4)
    from_generator = decompose_split(g, (v for v in reversed(a_side)), seed=4)
    assert format_decomposition(from_generator) == format_decomposition(from_list)
    assert from_generator.verified_for == from_list.verified_for
    assert len(from_list.factors) > 1


def test_split_low_degree_clamps():
    # every B vertex has at most one A neighbor: d clamps to 2, still verifies
    g = Graph(4, [(0, 2), (1, 3)])
    d = decompose_split(g, [0, 1], seed=0)
    assert d.verified


def test_split_two_centers_four_leaves():
    edges = [(a, b) for a in range(4) for b in (4, 5)]
    g = Graph(6, edges)
    d = decompose_split(g, range(4), seed=0)
    assert d.verified
    # G*[A, B] is g plus the edge that completes B = {4, 5} into a clique
    assert d.verified_for == Graph(6, edges + [(4, 5)])
    assert verify_decomposition(d.verified_for, d) is None
    for f in d.factors:
        assert isinstance(recognize_threshold(f.graph), ThresholdGraph)


def test_split_a_isolated_factor_alone_insufficient(monkeypatch):
    # the all-of-A-isolated factor attaches each B-vertex to A ascending up
    # to its last neighbour, so it keeps a missing A-B edge below that
    # neighbour, here (0, 5); some cell factor must resolve it
    listed = _recording_orders(monkeypatch)
    g = Graph(6, [(a, b) for a in range(4) for b in (4, 5) if (a, b) != (0, 5)])
    d = decompose_split(g, range(4), seed=0)
    assert listed[0] == (0, 1, 2, 3)
    first = threshold_supergraph(g, listed[0])
    assert first.split_a == (0, 1, 2, 3) and first.graph.has_edge(0, 5)
    from thdim import Decomposition
    stripped = Decomposition(factors=(first,), method="manual", bound_claimed=1)
    assert verify_decomposition(d.verified_for, stripped) == ((0, 5), None)
    assert verify_decomposition(d.verified_for, d) is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_factor_is_the_completion_of_g_along_its_a_side(seed):
    # no vertex is joined to a cell's A-part beyond its own neighbours, so
    # each kept factor is rebuilt from g and its isolated vertices alone
    g = bounded_degree_graph(40, 50, 6, seed=seed)
    _, order = degeneracy_ordering(g)
    a_side = color_classes(greedy_coloring(g, order))[0]
    decompositions = [decompose_maxdeg(g, seed=seed), decompose_split(g, a_side, seed=seed)]
    for d in decompositions:
        assert d.size > 1
        for f in d.factors:
            assert f == threshold_supergraph(g, f.split_a)


# ---------------------------------------------------------------------------
# full pipeline

@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(12), petersen_graph()])
def test_maxdeg_named_graphs(g):
    d = decompose_maxdeg(g, seed=0)
    assert d.verified and d.size <= d.bound_claimed
    for f in d.factors:
        assert isinstance(recognize_threshold(f.graph), ThresholdGraph)


def test_maxdeg_star_200_draws_two_parts(monkeypatch):
    # Delta = 200 gives d = ceil(100 ln 200) = 530 and ceil(600 / 530) = 2
    # parts: past Delta = 171 the partition is drawn
    import thdim.maxdeg
    calls = []
    partition = thdim.maxdeg.bounded_partition

    def recording(g, d, parts, seed=0):
        calls.append((d, parts))
        return partition(g, d, parts, seed)

    monkeypatch.setattr(thdim.maxdeg, "bounded_partition", recording)
    g = star_graph(201)
    d = decompose_maxdeg(g, seed=1)
    assert calls == [(530, 2)]
    assert d.verified and d.size <= d.bound_claimed
    assert verify_decomposition(g, d) is None


def test_maxdeg_requires_degree_two():
    with pytest.raises(ValueError):
        decompose_maxdeg(path_graph(2), seed=0)


def test_maxdeg_deterministic():
    g = petersen_graph()
    a = decompose_maxdeg(g, seed=5)
    b = decompose_maxdeg(g, seed=5)
    assert [edge_mask(f.graph) for f in a.factors] == [edge_mask(f.graph) for f in b.factors]


def test_maxdeg_bounded_randoms():
    for i in range(4):
        g = bounded_degree_graph(14 + 4 * i, round(1.3 * (14 + 4 * i)), 6, seed=i)
        d = decompose_maxdeg(g, seed=i)
        assert d.verified


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.data())
def test_cell_requirements_are_what_a_permutation_needs(p, q, data):
    # cell A = 0..p-1, B = p..p+q-1: a permutation of the blocks meets every
    # requirement iff its ascending and descending orderings together
    # exclude every A-B non-edge
    pairs = [(a, b) for a in range(p) for b in range(p, p + q)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    g = Graph(p + q, edges)
    b_part = range(p, p + q)
    hoods = [sorted(g.adj[b]) for b in b_part if g.adj[b]]
    blocks = _conflict_blocks(range(p), hoods, p)
    needed = _cell_requirements(blocks, hoods)
    non_edges = set(pairs) - set(edges)
    for perm in permutations(range(p)):
        excluded = set()
        for step in (1, -1):
            t = threshold_supergraph(g, [v for ci in perm for v in blocks[ci][::step]])
            excluded |= {(a, b) for a, b in non_edges if not t.graph.has_edge(a, b)}
        assert (unmet_requirements([perm], needed) == []) == (excluded == non_edges)


@st.composite
def split_cells(draw):
    """A graph with an independent A side (some B-B edges too), a coloring
    of A with up to four colors, and a B slice."""
    n = draw(st.integers(2, 14))
    a_side = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    b_side = [v for v in range(n) if v not in a_side]
    pairs = [(a, b) for a in a_side for b in b_side] + list(combinations(b_side, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    coloring = {a: draw(st.integers(0, 3)) for a in a_side}
    b_part = sorted(draw(st.sets(st.sampled_from(b_side))))
    return Graph(n, edges), coloring, b_part


# cell 0 = {1, 3} has a conflict edge (common B-neighbour 2), cell 1 = {4}
# one hood, and cell 2 = {6} none: its one neighbour 0 is outside the slice
@example(case=(Graph(7, [(1, 2), (2, 3), (4, 5), (0, 6), (0, 2)]),
               {1: 0, 3: 0, 4: 1, 6: 2}, [2, 5]))
@settings(max_examples=300, deadline=None)
@given(split_cells())
def test_bucketed_hoods_give_each_cell_what_its_slice_walk_gives(case):
    g, coloring, b_part = case
    a_hoods = {b: nbrs for b in range(g.n)
               if (nbrs := sorted(u for u in g.adj[b] if u in coloring))}
    hoods = _hoods(a_hoods, coloring, b_part)
    for color in set(coloring.values()):
        a_part = [a for a in sorted(coloring) if coloring[a] == color]
        blocks = _conflict_blocks(a_part, hoods.get(color, []), len(coloring))
        assert blocks == walk_conflict_blocks(g, a_part, b_part, len(coloring))
        assert (_cell_requirements(blocks, hoods.get(color, []))
                == walk_cell_requirements(g, blocks, b_part))


def test_maxdeg_k55_55():
    # d = 55 gives r = 3 and a ground of 166 blocks, where C(166, 4) subsets
    # are far too many to check each; the cells need only a few of them. The
    # prune keeps two factors, the dimension of K_{55,55}
    g = complete_bipartite(55, 55)
    d = decompose_maxdeg(g, seed=1)
    assert d.verified and d.size == 2
    assert verify_decomposition(g, d) is None


@pytest.mark.parametrize(("g", "most_blocks"),
                         [(bounded_degree_graph(40, 50, 6, seed=s), 2) for s in (1, 2, 3)]
                         + [(complete_bipartite(55, 55), 3)],
                         ids=["bounded-1", "bounded-2", "bounded-3", "K55,55"])
def test_splits_list_what_their_whole_families_give(monkeypatch, g, most_blocks):
    # each split's orders and budget, read from the family as far as its
    # cells need, equal those from projecting the whole family onto every
    # cell; in K_{55,55} a cell holds up to r = 3 mutually conflicting vertices
    import thdim.maxdeg
    splits = []
    split_factors = thdim.maxdeg._split_factors

    def recording(*args):
        splits.append(split_factors(*args))
        return splits[-1]

    monkeypatch.setattr(thdim.maxdeg, "_split_factors", recording)
    lazy = decompose_maxdeg(g, seed=1)
    lazy_splits = splits[:]
    del splits[:]
    blocks_read = []

    def whole(cells, family):
        blocks_read.extend(sum(1 for block in blocks if block) for blocks in cells)
        return whole_family_orderings(cells, family)

    monkeypatch.setattr(thdim.maxdeg, "_cell_orderings", whole)
    drawn_whole = decompose_maxdeg(g, seed=1)
    assert splits == lazy_splits
    assert format_decomposition(lazy) == format_decomposition(drawn_whole)
    assert lazy.bound_claimed == drawn_whole.bound_claimed
    assert max(blocks_read) == most_blocks


def test_a_split_draws_only_the_permutations_its_cells_read(monkeypatch):
    # a split whose cells each have one non-empty block reads no member, so
    # it draws one, to learn the family's size; none draws past that size
    import thdim.maxdeg
    splits = []

    class Counting(random.Random):
        def shuffle(self, x):  # only the suitable family shuffles
            splits[-1]["draws"] += 1
            super().shuffle(x)

    conflict_blocks = thdim.maxdeg._conflict_blocks

    def recording_blocks(*args):
        blocks = conflict_blocks(*args)
        splits[-1]["filled"].append(sum(1 for block in blocks if block))
        return blocks

    split_factors = thdim.maxdeg._split_factors

    def recording_split(g, a_side, seed, diagnostics):
        splits.append({"draws": 0, "filled": [], "lines": []})
        return split_factors(g, a_side, seed, splits[-1]["lines"])

    monkeypatch.setattr(thdim.maxdeg, "random", types.SimpleNamespace(Random=Counting))
    monkeypatch.setattr(thdim.maxdeg, "_conflict_blocks", recording_blocks)
    monkeypatch.setattr(thdim.maxdeg, "_split_factors", recording_split)
    for seed in (1, 2, 3):
        assert decompose_maxdeg(bounded_degree_graph(40, 50, 6, seed=seed), seed=seed).verified
    one_block = [s for s in splits if s["filled"] and max(s["filled"]) == 1]
    several = [s for s in splits if s["filled"] and max(s["filled"]) > 1]
    assert one_block and several
    assert all(s["draws"] <= 1 for s in one_block)
    for s in splits:
        family = re.search(r"suitable family: .* size=(\d+) drawn=(\d+)$", "\n".join(s["lines"]),
                           re.MULTILINE)
        if family is None:
            assert not s["filled"] and s["draws"] == 0
            continue
        size, drawn = map(int, family.groups())
        assert s["draws"] == drawn <= size


def _recording_orders(monkeypatch) -> list[tuple[int, ...]]:
    """Every order `_split_factors` lists, split after split."""
    import thdim.maxdeg
    listed = []
    original = thdim.maxdeg._split_factors

    def recording(*args, **kwargs):
        orders, budget = original(*args, **kwargs)
        listed.extend(orders)
        return orders, budget

    monkeypatch.setattr(thdim.maxdeg, "_split_factors", recording)
    return listed


def _recording_completions(monkeypatch) -> list[ThresholdGraph]:
    """Every completion built, in the order built."""
    built = []
    original = threshold.threshold_supergraph

    def recording(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(threshold, "threshold_supergraph", recording)
    return built


def test_maxdeg_walks_each_factor_built_once(monkeypatch):
    # the prune's check is the only verification: each factor built is
    # walked once, in the order built
    built = _recording_completions(monkeypatch)
    walked = []

    def counting(t):
        walked.append(t)
        return original(t)

    original = threshold._isolated_prefixes
    monkeypatch.setattr(threshold, "_isolated_prefixes", counting)
    g = bounded_degree_graph(30, 40, 6, seed=2)
    d = decompose_maxdeg(g, seed=0)
    assert d.verified_for == g
    assert [id(t) for t in walked] == [id(t) for t in built]


@pytest.mark.parametrize("method", ["maxdeg", "split"])
def test_maxdeg_completes_only_the_factors_it_keeps(monkeypatch, method):
    # orders are scored from g, so the completions built are the factors
    # kept, each built once
    built = _recording_completions(monkeypatch)
    listed = _recording_orders(monkeypatch)
    g = bounded_degree_graph(40, 50, 6, seed=1)
    if method == "maxdeg":
        d = decompose_maxdeg(g, seed=1)
    else:
        _, order = degeneracy_ordering(g)
        d = decompose_split(g, color_classes(greedy_coloring(g, order))[0], seed=1)
    assert sorted(map(id, built)) == sorted(map(id, d.factors))
    assert 1 < d.size < len(set(listed))


def test_maxdeg_factors_are_the_plain_greedy_over_the_factors_built(monkeypatch):
    # the greedy over the completions of every order listed, by pair sets
    listed = _recording_orders(monkeypatch)
    g = bounded_degree_graph(40, 50, 6, seed=1)
    d = decompose_maxdeg(g, seed=1)
    completions = [threshold_supergraph(g, order) for order in listed]
    assert list(d.factors) == plain_greedy_subcover(g, completions)
    assert d.size < len(set(completions))


# ---------------------------------------------------------------------------
# the greedy subcover prune

@st.composite
def order_lists(draw):
    """A graph and a list of guided completion orders of it, some repeated
    and, at the draw's choice, with every single vertex among them, so
    that their completions cover every non-edge."""
    g = draw(small_graphs(8))
    orders = [tuple(draw(guided_completion_args(g))) for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        orders += [(v,) for v in range(g.n)]
    orders += draw(st.lists(st.sampled_from(orders), max_size=3))
    return g, draw(st.permutations(orders))


@settings(max_examples=300, deadline=None)
@given(order_lists())
def test_prune_is_the_plain_greedy_and_verifies(case):
    g, orders = case
    completions = [threshold_supergraph(g, order) for order in orders]
    check = threshold._Intersection(g)
    kept = check.prune(orders)
    assert check.factors == kept
    again = threshold._Intersection(g)
    assert again.prune(orders) == kept  # deterministic
    distinct = list(dict.fromkeys(completions))
    positions = [distinct.index(f) for f in kept]
    assert positions == sorted(set(positions))  # a subsequence of the distinct orders
    full = threshold._Intersection(g, completions).mismatch()
    assert check.mismatch() == full == threshold._Intersection(g, kept).mismatch()
    if full is None:
        assert kept == plain_greedy_subcover(g, completions)


def test_prune_names_a_pick_that_drops_an_edge(monkeypatch):
    g = path_graph(4)
    orders = [(v,) for v in range(4)]
    # (0,) and then (1,) are picked; (1,) gets a factor in which 1 enters
    # isolated after 0 only, so it drops the edge (0, 1)
    bad = ThresholdGraph([0, 1, 2, 3], [1])
    original = threshold.threshold_supergraph
    monkeypatch.setattr(threshold, "threshold_supergraph",
                        lambda g, order: bad if order == (1,) else original(g, order))
    check = threshold._Intersection(g)
    kept = check.prune(orders)
    assert kept == [original(g, (0,)), bad]
    assert check.mismatch() == ((0, 1), 1) == threshold._Intersection(g, kept).mismatch()
    with pytest.raises(AssertionError, match=r"factor 1 drops an edge of the graph: \(0, 1\)"):
        _finish(g, "maxdeg", 4, threshold._Intersection(g), orders)


def test_prune_names_the_non_edge_every_order_keeps():
    g = path_graph(4)
    orders = [(0,), (0, 2)]
    completions = [threshold_supergraph(g, order) for order in orders]
    check = threshold._Intersection(g)
    assert check.prune(orders) == completions[:1]  # (0, 2) excludes nothing more
    assert check.mismatch() == ((1, 3), None) == threshold._Intersection(g, completions).mismatch()
    with pytest.raises(AssertionError, match="a non-edge survives every factor"):
        _finish(g, "maxdeg", 2, threshold._Intersection(g), orders)


def test_prune_keeps_the_first_factor_of_a_complete_graph():
    g = complete_graph(4)
    orders = [(2,), (0,), (1,)]
    first = threshold_supergraph(g, orders[0])
    check = threshold._Intersection(g)
    assert check.prune(orders) == [first]
    assert _finish(g, "maxdeg", 3, threshold._Intersection(g), orders).factors == (first,)


class _CellVertex(int):
    """A vertex of a cell's A-part that remembers its cell."""


def test_maxdeg_completes_each_ordering_once_per_cell(monkeypatch):
    # cells of two colourings can give equal orderings, so an ordering does
    # not name its cell: `_conflict_blocks`, called once per cell, hands out
    # the cell's vertices tagged with the cell's index. A cell lists each
    # of its orderings once, and only the picks are completed, each once
    import thdim.maxdeg
    cells = 0
    conflict_blocks = thdim.maxdeg._conflict_blocks

    def tagging(a_part, hoods, palette):
        nonlocal cells
        blocks = conflict_blocks(a_part, hoods, palette)
        tagged = [[_CellVertex(v) for v in block] for block in blocks]
        for v in chain.from_iterable(tagged):
            v.cell = cells
        cells += 1
        return tagged

    monkeypatch.setattr(thdim.maxdeg, "_conflict_blocks", tagging)
    listed = _recording_orders(monkeypatch)
    built = _recording_completions(monkeypatch)
    g = bounded_degree_graph(40, 50, 6, seed=3)
    d = decompose_maxdeg(g, seed=3)
    assert d.verified
    by_cell: dict = {}
    for ordering in listed:
        if not isinstance(ordering[0], _CellVertex):
            continue  # the all-of-A-isolated factor of a split
        assert {v.cell for v in ordering} == {ordering[0].cell}
        by_cell.setdefault(ordering[0].cell, []).append(ordering)
    assert len(by_cell) == cells > 1
    for orderings in by_cell.values():
        assert len(orderings) == len(set(orderings))
    assert len(listed) < 1000
    completed = [t.split_a for t in built]
    assert len(completed) == len(set(completed)) == d.size
