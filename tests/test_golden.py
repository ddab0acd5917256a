"""Seeded decompositions stay byte-identical: sha256 of format_decomposition
for fixed inputs and seeds, recorded before factors became creation
sequences and checked by mask verification. The exact-method hashes were
recorded when the exact search moved to maximal covers of the complement;
they pin the creation order recognize_threshold gives each factor. The
treewidth hash at n = 120 was recorded before min-fill kept its fill costs
up to date incrementally; it pins the elimination order. The degeneracy hash
at n = 400 was recorded before separating colorings were checked on their
class completions instead of by a walk over all vertex pairs. The report
hashes (the CSV `thdim report --out` writes) were recorded before the
clique-chromatic bound moved onto adjacency bitmasks. The treewidth hash at
n = 400 was recorded before min-fill updated each neighbour's fill count
from the new fill edges instead of recounting it; its bags reach 135
vertices, so it pins the update on large neighbourhoods. The maxdeg hash on
K_{55,55} was recorded before each colouring's B slice was bucketed by
colour once instead of walked once per cell; with r = 3 and a ground of 166
blocks its cells have conflict edges and many blocks, where the n = 40
maxdeg goldens mostly reach cells of one block. The treewidth hashes and the
n = 12 report hash were re-recorded when a one-vertex colour class stopped
emitting its factor twice; each new treewidth factor list was first checked
to equal the old one with repeats dropped (first occurrence kept), so they
still pin the min-fill elimination order. The degeneracy hashes, the report
hashes and the experiment table hash were re-recorded when the family search
began to stop at the first coloring after which the intersection closes;
each new degeneracy factor list was first checked to be a prefix, by whole
colorings, of the old one, and the reports and the table changed only in
their degeneracy factor counts and the ratios computed from them. The
maxdeg hashes were re-recorded when maxdeg began to keep the greedy
subcover of its factors instead of one factor per degree vector; each new
list was first checked to be the plain greedy, by pair sets, over the
factors the old code built. They were re-recorded again when each cell's
orderings were completed from g alone instead of joining every vertex
outside the cell to all of its A-part; each factor built was first checked
to be a subgraph of the one built at the same index before, and the kept
list to be the plain greedy, by pair sets, over the new factors built. The
K_{55,55} hash did not move. The circuit hashes (sha256 of format_circuit for
seeded compiles) were recorded when gates took level weights, after each
gate was checked to equal the level weights that helpers.pair_walk_ltf
computes from its factor's creation sequence and each circuit to verify
equal and to read back unchanged."""

import hashlib
import math

import pytest

from thdim import (Graph, compile_circuit, compute_report, decompose_degeneracy, decompose_maxdeg,
                   decompose_treewidth, decompose_vertex_cover, exact_decomposition,
                   format_circuit, format_decomposition, gen_gnm, girth,
                   heuristic_tree_decomposition, render_table, run_experiment)

from helpers import bounded_degree_graph, complement, complete_bipartite

GOLDEN = {
    ("degeneracy", 12, 20, 1): "77b5a1e6a0e2f3ab3a21ae063e58c88cecc43e368e207c5f6dd03688230eef61",
    ("treewidth", 12, 20, 1): "4d8c985ddb6bde848cfcf124bb4ea3d9afd3b2ae97f99a6bf79f49b20e2e829d",
    ("degeneracy", 20, 45, 2): "38d6ee303fa5b74c9400b7b0c1c69a8d411aebc5feb2e04945860e4cc4f7fd43",
    ("treewidth", 20, 45, 2): "8573b0ea69df4bd9cd72aea94a31110f036fd6c5cf828a7eed403deb63d017b9",
    ("degeneracy", 30, 60, 3): "38497a3dd33a592f97c1177b9570c031154b7fd90d22127e58304651f27f63cf",
    ("treewidth", 30, 60, 3): "244515901628cf1f5a3493a8e708d3ad28eb6167143e26e9dd9a3020957ad2e0",
    ("degeneracy", 400, 1200, 1): "a889ceb7fc4ed2af564b35c0d401879e37cfedd09033a0ae352b509bd7ab7a3a",
    ("treewidth", 120, 360, 4): "b318cb0111ab579bdaf62da83a9b69c432839de7ff1739c7f5dfdfd4985c4542",
    ("treewidth", 400, 1200, 1): "b2dc0858414958c4025b17837450f6305e0bc2787530a582cbd20bfcf8ad6370",
    ("vertex-cover", 12, 20, 1): "61604f3b558f26a98a16e1fb2d1e16addcb13f6bf5e0c16c852144b4839ad2d9",
    ("maxdeg", 40, 50, 4): "6fbb71f92b52bff1a7ea8abe592a702c9d755aa798518ea0b5125d96cdcd66e5",
    ("maxdeg", 40, 50, 5): "2c50e7ac7d06ddb58ea562e15a132b2de3a26c92f3cfc9a5b1882987e0b183d3",
    ("exact", 8, 10, 1): "842c56136a46af5f5dabb1fcca77025fee349a08c364c405154e265f1e6cb6a7",
    ("exact", 8, 13, 2): "851fdd35091401e4dc8c4fae1a2493bdd932d573f2a658043fca3bba6b3f03d6",
}


def build(method, n, m, seed):
    if method == "maxdeg":
        return decompose_maxdeg(bounded_degree_graph(n, m, 6, seed=seed), seed=seed)
    g = gen_gnm(n, m, seed=seed)
    if method == "degeneracy":
        return decompose_degeneracy(g, seed=seed)
    if method == "treewidth":
        return decompose_treewidth(g, heuristic_tree_decomposition(g))
    if method == "exact":
        return exact_decomposition(g)
    return decompose_vertex_cover(g)


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_seeded_decomposition_is_byte_identical(case):
    d = build(*case)
    assert d.verified
    assert hashlib.sha256(format_decomposition(d).encode()).hexdigest() == GOLDEN[case]


def test_maxdeg_on_k55_55_is_byte_identical():
    d = decompose_maxdeg(complete_bipartite(55, 55), seed=1)
    assert d.verified
    assert (hashlib.sha256(format_decomposition(d).encode()).hexdigest()
            == "343bf824a043bfb5c5c102ede0f3425f72f177892792c55b1398e947b422eaf7")


CIRCUIT_GOLDEN = {
    ("degeneracy", 16, 24, 1): "d7fb9e7bb53a87a069510860fd721c48512b604fa6efa3afeb1e802353281bb7",
    ("treewidth", 24, 18, 4): "7dab3c6ec0e76c0fefd5f075a951fecdc8fb07cd642d098661d3ac94f37c1f57",
    ("vertex-cover", 12, 20, 1): "98596d59ca032f4b89a505856eff498c7c8e2436b3f3cff838cadc32e0913df2",
}


@pytest.mark.parametrize("case", sorted(CIRCUIT_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_seeded_circuit_is_byte_identical(case):
    method, n, m, seed = case
    g = gen_gnm(n, m, seed=seed)
    if method == "treewidth":
        assert girth(g) == math.inf  # seed 4 draws a forest
    text = format_circuit(compile_circuit(g, build(*case)))
    assert hashlib.sha256(text.encode()).hexdigest() == CIRCUIT_GOLDEN[case]


REPORT_GOLDEN = {
    (8, 10, 1): "b28147ca631fd3c92c050fa47ec2c8c9fd467fc3c3509ede21af2c0cec7d99ca",
    (12, 20, 1): "e98b11ee8f7033556075acfb66ed1f241f41c85ba1f43345ee4023c2604cf7e4",
}


@pytest.mark.parametrize("case", sorted(REPORT_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_seeded_report_is_byte_identical(case):
    n, m, seed = case
    rows = compute_report(gen_gnm(n, m, seed=seed), seed=seed).to_rows()
    assert hashlib.sha256(rows.encode()).hexdigest() == REPORT_GOLDEN[case]


def test_report_builds_no_complement(monkeypatch):
    g = gen_gnm(8, 10, seed=1)
    co = complement(g)
    init = Graph.__init__

    def refuse(self, n, edges=()):
        init(self, n, edges)
        if self == co:
            raise AssertionError("compute_report built a complement graph")

    monkeypatch.setattr(Graph, "__init__", refuse)
    rows = compute_report(g, seed=1).to_rows()
    assert hashlib.sha256(rows.encode()).hexdigest() == REPORT_GOLDEN[(8, 10, 1)]


def test_seeded_experiment_table_is_byte_identical():
    table = render_table(run_experiment([(8, 10, 4), (60, 180, 3), (120, 360, 2)], seed=1))
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "93e3b11d5c2091e0660cfc36c4931120830b64bde14c26dbde472ebc1267292a")
