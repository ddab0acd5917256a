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
equal and to read back unchanged. The degeneracy and treewidth hashes, their
circuit hashes, the report hashes and the experiment table hash were
re-recorded when those methods began to keep the greedy subcover of their
completions, as maxdeg does; each new factor list was first checked to be
the plain greedy, by pair sets, over the factors the old code listed, each
new circuit's gates to be a subsequence of the old ones, and the reports
and the table to change only in their degeneracy and treewidth factor
counts and the ratios computed from them."""

import hashlib
import math

import pytest

from thdim import (Graph, compile_circuit, compute_report, decompose_degeneracy, decompose_maxdeg,
                   decompose_treewidth, decompose_vertex_cover, exact_decomposition,
                   format_circuit, format_decomposition, gen_gnm, girth,
                   heuristic_tree_decomposition, render_table, run_experiment)

from helpers import bounded_degree_graph, complement, complete_bipartite

GOLDEN = {
    ("degeneracy", 12, 20, 1): "41767183c86291350fe19b3a77d2b15082ddfd704cd84c9721e28878c68d8272",
    ("treewidth", 12, 20, 1): "f85ca910a9fd3d38c93ff4253ed9235926fdb55bcbd2b0f04625b6f6b7577a2d",
    ("degeneracy", 20, 45, 2): "98fe90ef36353102d968661f94dc61610b985826f829261834852cf7dd49907b",
    ("treewidth", 20, 45, 2): "ce12ea103cd8e60518710b67519667fc298f8c04a98fcb2534254494e07baaae",
    ("degeneracy", 30, 60, 3): "e9e7c56b7f5c09d3a0fab097749b0daeb0bbabff0c58d20f4fd90112e85d6940",
    ("treewidth", 30, 60, 3): "e76f079ff41c82fcca47fb948daf3d0446de5981ddaf6f237ce1c200a6063672",
    ("degeneracy", 400, 1200, 1): "04bd51846313aadf3ee8994ca44cca5c572a6697124144da7c4b9724a4d3fb09",
    ("treewidth", 120, 360, 4): "2f53bf102d450205af9e5cf852e9a8ef73e4b2ce32d676992244e5ef566bee90",
    ("treewidth", 400, 1200, 1): "03aa4185294e2b6ae66549984aa57d5c884960ae837d0d52f8c169fc1fbe1d08",
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
    ("degeneracy", 16, 24, 1): "8b2ae3f207028a9ea362bdfb2f0e3c3845660f0d952659df1cff77ba2e25f8c6",
    ("treewidth", 24, 18, 4): "5ae594e75ba881be39a4eef8cb3dd9600fac6e977a07e55a55a00980b5a2438f",
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
    (8, 10, 1): "434d0c3c9d8d745d908a40e13860427031adec9a5f79626e6c9da8a094383f0f",
    (12, 20, 1): "334abf522f6fea8fed1835e311a0f0f97c5106f245a6923a9665c7f7f2721a75",
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
        "a0933fa89bb7e7170bf99cee1396cf82347d4d0ce7cb821625bd1c558be81e3a")
