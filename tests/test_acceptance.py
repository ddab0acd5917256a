"""Acceptance suite: one test per criterion, each printing its own pass/fail
line (run with `pytest tests/test_acceptance.py -v -s`)."""

import math
import time
from contextlib import contextmanager

import thdim.maxdeg
from thdim import (ThresholdGraph, compile_circuit,
                   complete_graph, cycle_graph, decompose_degeneracy,
                   decompose_maxdeg, decompose_treewidth, decompose_vertex_cover,
                   degeneracy_ordering, disjoint_cliques, exact_dimension,
                   girth_degeneracy_check,
                   heuristic_tree_decomposition, lower_bound_clique_chromatic,
                   ltfs_to_graph, petersen_graph, recognize_threshold,
                   render_table, run_experiment, validate_tree_decomposition,
                   verify_circuit, verify_decomposition)
from thdim.graphs import empty_graph, max_independent_set
from thdim.seeding import split_seed
from thdim.threshold import extract_ltf
from thdim.treedecomp import TreeDecomposition

from helpers import (_supergraph_creations, all_graphs, bounded_degree_graph, brute_is_threshold,
                     complement, from_creation, pendant_complement_bags, pendant_clique_complement,
                     named_corpus, random_corpus, representatives, unmet_requirements)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _oracle_corpus():
    reps = representatives(5)
    assert len(reps) == 34
    sizes = [(6, 7), (6, 9), (6, 11), (7, 9), (7, 11), (7, 14),
             (8, 11), (8, 14), (8, 17)]
    return reps + random_corpus(200, sizes, seed=0)


def _methods(g, seed):
    out = {}
    out["vertex-cover"] = decompose_vertex_cover(g)
    if g.n >= 2:
        out["degeneracy"] = decompose_degeneracy(g, seed=seed)
        out["treewidth"] = decompose_treewidth(g, heuristic_tree_decomposition(g))
    if g.max_degree() >= 2:
        out["maxdeg"] = decompose_maxdeg(g, seed=seed)
    return out


def test_criterion_1_oracle_agreement():
    with criterion(1, "oracle agreement"):
        start = time.monotonic()
        for idx, g in enumerate(_oracle_corpus()):
            lo = lower_bound_clique_chromatic(g)
            dim = exact_dimension(g)
            methods = _methods(g, seed=idx)
            for name, d in methods.items():
                assert d.verified and verify_decomposition(g, d) is None, (idx, name)
            best = min(d.size for d in methods.values())
            assert lo <= dim <= best, (idx, lo, dim, best)
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"runtime target missed: {elapsed:.0f}s"


def test_criterion_2_tight_examples():
    with criterion(2, "tight examples"):
        for n in (2, 3):
            tk = disjoint_cliques(n)
            assert exact_dimension(tk) == n
            assert lower_bound_clique_chromatic(tk) == n
        h = pendant_clique_complement(3)
        assert exact_dimension(h) == 3
        alpha = len(max_independent_set(h))
        assert h.n - alpha == alpha == len(max_independent_set(complement(h))) == 3
        bags = pendant_complement_bags(3)
        tree = {1: tuple(range(2, 5)), **{i: (1,) for i in range(2, 5)}}
        td = TreeDecomposition(bags=bags, tree=tree, root=1, n=6)
        validate_tree_decomposition(td, h)
        assert td.width == 2


def test_criterion_3_bound_compliance():
    with criterion(3, "bound compliance"):
        corpus = list(named_corpus().values())
        corpus += random_corpus(60, [(7, 10), (9, 15), (12, 20), (14, 25)], seed=3)
        for idx, g in enumerate(corpus):
            cover = sorted(set(range(g.n)) - max_independent_set(g))
            vc = decompose_vertex_cover(g)
            assert vc.size <= max(len(cover), 1)
            if g.n >= 2:
                k, _ = degeneracy_ordering(g)
                deg = decompose_degeneracy(g, seed=idx)
                assert deg.size <= 10 * max(k, 1) * math.ceil(math.log(g.n))
                td = heuristic_tree_decomposition(g)
                tw = decompose_treewidth(g, td)
                assert tw.size <= 2 * (td.width + 1)


def test_criterion_4_circuit_equivalence():
    with criterion(4, "circuit equivalence"):
        corpus = [g for g in named_corpus().values() if g.n <= 16]
        corpus += random_corpus(12, [(10, 18), (13, 24), (16, 30)], seed=4)
        for idx, g in enumerate(corpus):
            for d in _methods(g, seed=idx).values():
                circuit = compile_circuit(g, d)
                t0 = time.monotonic()
                counterexample = verify_circuit(g, circuit)
                assert time.monotonic() - t0 < 1.0, "per-circuit runtime target missed"
                assert counterexample is None, (idx, d.method, counterexample)
                assert ltfs_to_graph(circuit.gates) == g


def test_criterion_5_ltf_witness_soundness():
    with criterion(5, "LTF witness soundness"):
        total = 0
        for n in range(1, 8):
            for pairs in _supergraph_creations(empty_graph(n)).values():
                t = from_creation(pairs)
                extract_ltf(t)  # verifies exhaustively, raises on failure
                total += 1
        assert total == 1 + 2 + 8 + 46 + 332 + 2874 + 29024


def test_criterion_6_recognition_cross_check():
    with criterion(6, "recognition cross-check"):
        for n in range(0, 7):
            for g in all_graphs(n):
                accepted = isinstance(recognize_threshold(g), ThresholdGraph)
                assert accepted == brute_is_threshold(g)


def test_criterion_7_maxdeg_pipeline(monkeypatch):
    with criterion(7, "max-degree pipeline"):
        families = []
        original = thdim.maxdeg.build_suitable_family

        def recording(ground, k, requirements, seed=0):
            # the members the pipeline reads, which stop once the family's
            # size is known, that is once every requirement is met
            requirements = list(requirements)
            read = []
            families.append((read, requirements))
            for perm, size in original(ground, k, requirements, seed=seed):
                read.append(perm)
                yield perm, size

        monkeypatch.setattr(thdim.maxdeg, "build_suitable_family", recording)
        corpus = [petersen_graph(), cycle_graph(12), complete_graph(4)]
        for i in range(50):
            n = 8 + (i * 7) % 33
            corpus.append(bounded_degree_graph(n, round(1.25 * n), 6,
                                               seed=split_seed(7, "crit7", i)))
        for idx, g in enumerate(corpus):
            d = decompose_maxdeg(g, seed=idx)
            assert d.verified and verify_decomposition(g, d) is None
        assert families, "pipeline never read a suitable family"
        for read, requirements in families:
            assert read and unmet_requirements(read, requirements) == []


def test_criterion_8_random_graph_experiment():
    with criterion(8, "random-graph experiment"):
        start = time.monotonic()
        rows_a = run_experiment([(50, 100, 20)], seed=0)
        table_a = render_table(rows_a)
        trials = [r for r in rows_a if r.kind == "trial"]
        assert len(trials) == 20
        for r in trials:
            assert r.verified
            assert r.bound == 10 * max(r.degeneracy, 1) * math.ceil(math.log(50))
            assert r.factors <= r.bound
        table_b = render_table(run_experiment([(50, 100, 20)], seed=0))
        assert table_a == table_b, "output not byte-identical across runs"
        assert time.monotonic() - start < 120, "runtime target missed"


def test_criterion_9_girth_property():
    with criterion(9, "girth property"):
        corpus = list(named_corpus().values())
        corpus += random_corpus(40, [(9, 12), (12, 16), (15, 20)], seed=9)
        for g in corpus:
            chk = girth_degeneracy_check(g)
            assert chk.ok, (chk,)
        pet = girth_degeneracy_check(petersen_graph())
        assert (pet.girth, pet.g_param, pet.bound, pet.degeneracy) == (5, 4, 4, 3)
