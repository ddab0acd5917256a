import pytest

from thdim import (Decomposition, GraphicFunction, LtfWitness, MajorityCircuit,
                   compile_circuit, complete_graph, cycle_graph,
                   decompose_degeneracy, decompose_vertex_cover,
                   disjoint_cliques, empty_graph,
                   exact_decomposition, format_circuit, gen_gnm,
                   ltfs_to_graph, parse_circuit, path_graph, star_graph,
                   to_2cnf, verify_circuit)
from thdim.graphs import max_independent_set

from helpers import eval_2cnf, random_corpus


# ---------------------------------------------------------------------------
# graphic functions

def test_eval_graphic_k3_all_ones():
    f = GraphicFunction(complete_graph(3))
    assert f.evaluate((1, 1, 1)) == 1


def test_eval_graphic_2k2_cross_pair():
    f = GraphicFunction(disjoint_cliques(2))
    assert f.evaluate((1, 0, 1, 0)) == 0
    assert f.evaluate((1, 1, 0, 0)) == 1


def test_eval_graphic_zero_vector_everywhere():
    for g in [empty_graph(3), path_graph(4), complete_graph(2)]:
        assert GraphicFunction(g).evaluate((0,) * g.n) == 1


def test_eval_graphic_arity_mismatch():
    with pytest.raises(ValueError):
        GraphicFunction(path_graph(3)).evaluate((1, 0))


# ---------------------------------------------------------------------------
# 2-CNF

def test_to_2cnf_complete_graph_empty():
    assert to_2cnf(complete_graph(4)) == []


def test_to_2cnf_edgeless_three_clauses():
    assert len(to_2cnf(empty_graph(3))) == 3


def test_to_2cnf_p4_clauses():
    clauses = to_2cnf(path_graph(4))
    pairs = {(a[0], b[0]) for a, b in clauses}
    assert pairs == {(0, 2), (0, 3), (1, 3)}


def test_2cnf_equivalence_exhaustive():
    for g in [path_graph(4), cycle_graph(5), disjoint_cliques(3), gen_gnm(10, 20, seed=3)]:
        f = GraphicFunction(g)
        clauses = to_2cnf(g)
        for mask in range(1 << g.n):
            x = tuple((mask >> i) & 1 for i in range(g.n))
            assert f.evaluate(x) == eval_2cnf(clauses, x)


# ---------------------------------------------------------------------------
# compilation and verification

def test_compile_threshold_single_gate():
    g = star_graph(5)
    d = decompose_vertex_cover(g)
    c = compile_circuit(g, d)
    assert c.gate_count == 1
    assert verify_circuit(g, c) is None


def test_compile_p4_two_gates():
    g = path_graph(4)
    d = decompose_vertex_cover(g)
    c = compile_circuit(g, d)
    assert c.gate_count == 2
    assert verify_circuit(g, c) is None


def test_compile_2k3_exact_three_gates():
    g = disjoint_cliques(3)
    d = exact_decomposition(g)
    c = compile_circuit(g, d)
    assert c.gate_count == 3
    assert verify_circuit(g, c) is None


def test_compile_rejects_unverified():
    g = path_graph(4)
    d = decompose_vertex_cover(g)
    stale = Decomposition(factors=d.factors, method=d.method,
                          bound_claimed=d.bound_claimed)
    with pytest.raises(ValueError):
        compile_circuit(g, stale)


def test_compile_rejects_decomposition_verified_for_another_graph():
    d = decompose_vertex_cover(path_graph(4))
    with pytest.raises(ValueError):
        compile_circuit(cycle_graph(4), d)


def test_compile_does_not_verify_again(monkeypatch):
    import thdim.circuits
    import thdim.decompose
    g = gen_gnm(16, 24, seed=3)
    d = decompose_degeneracy(g, seed=0)
    calls = []

    def counting(graph, decomposition):
        calls.append(graph.n)

    monkeypatch.setattr(thdim.decompose, "verify_decomposition", counting)
    monkeypatch.setattr(thdim.circuits, "verify_decomposition", counting, raising=False)
    assert compile_circuit(g, d).gate_count == d.size
    assert calls == []


def test_verify_circuit_2k2_exhaustive():
    g = disjoint_cliques(2)
    d = exact_decomposition(g)
    c = compile_circuit(g, d)
    assert c.gate_count == 2
    assert verify_circuit(g, c) is None


def test_verify_circuit_detects_corruption():
    g = disjoint_cliques(2)
    c = compile_circuit(g, exact_decomposition(g))
    gate = c.gates[0]
    hacked = MajorityCircuit(
        arity=c.arity,
        gates=(LtfWitness(weights=gate.weights, bound=gate.bound + 10 ** 9),)
              + c.gates[1:])
    counterexample = verify_circuit(g, hacked)
    assert counterexample is not None
    # the counterexample disagrees for real
    x = [int(v in counterexample) for v in range(g.n)]
    assert hacked.evaluate(x) != GraphicFunction(g).evaluate(x)


def test_verify_matches_naive_evaluation():
    for g in random_corpus(6, [(7, 10), (8, 13)], seed=47):
        d = decompose_degeneracy(g, seed=0)
        c = compile_circuit(g, d)
        f = GraphicFunction(g)
        naive = all(c.evaluate(x) == f.evaluate(x)
                    for x in _all_vectors(g.n))
        assert (verify_circuit(g, c) is None) == naive == True


def _all_vectors(n):
    for mask in range(1 << n):
        yield tuple((mask >> i) & 1 for i in range(n))


def test_verify_exact_at_arity_24():
    g = gen_gnm(24, 60, seed=11)
    d = decompose_vertex_cover(g)
    assert d.size == g.n - len(max_independent_set(g))
    assert verify_circuit(g, compile_circuit(g, d)) is None


def test_verify_exhaustive_refused_beyond_20():
    # a negative weight leaves only the 2^n walk, which stops at 20 inputs
    g = empty_graph(21)
    d = decompose_vertex_cover(g)
    c = compile_circuit(g, d)
    negative = MajorityCircuit(arity=21, gates=c.gates + (LtfWitness((-1,) * 21, 0),))
    with pytest.raises(ValueError):
        verify_circuit(g, negative)


def test_verify_arity_mismatch():
    g = path_graph(3)
    c = compile_circuit(g, exact_decomposition(g))
    with pytest.raises(ValueError):
        verify_circuit(path_graph(4), c)


PAIR_GATE = LtfWitness(weights=(1, 1), bound=2)
TRIPLE_GATE = LtfWitness(weights=(1, 1, 1), bound=3)


@pytest.mark.parametrize(("call", "message"), [
    (lambda: MajorityCircuit(arity=3, gates=(TRIPLE_GATE, PAIR_GATE)), "gate arity mismatch"),
    (lambda: MajorityCircuit(arity=2, gates=(PAIR_GATE,)).evaluate((1, 0, 1)),
     "expected 2 bits, got 3"),
    (lambda: PAIR_GATE.accepts((1,)), "vector length does not match arity"),
    (lambda: ltfs_to_graph([]), "need at least one gate"),
    (lambda: ltfs_to_graph([PAIR_GATE, TRIPLE_GATE]), "gate arity mismatch"),
    (lambda: cycle_graph(2), "cycle needs at least 3 vertices"),
], ids=["circuit-gate-arity", "circuit-input-length", "gate-input-length",
        "no-gates", "mixed-gate-arities", "two-cycle"])
def test_argument_checks_refuse(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# gates back to graphs

def test_single_gate_sum_to_complete():
    n = 5
    gate = LtfWitness(weights=(1,) * n, bound=n)
    assert ltfs_to_graph([gate]) == complete_graph(n)


def test_star_gate_to_star():
    n = 5
    gate = LtfWitness(weights=(1,) + (n - 1,) * (n - 1), bound=n)
    assert ltfs_to_graph([gate]) == star_graph(n)


def test_round_trip_through_compilation():
    for g in random_corpus(8, [(6, 8), (8, 13)], seed=53):
        for d in [decompose_degeneracy(g, seed=0), exact_decomposition(g)]:
            c = compile_circuit(g, d)
            assert ltfs_to_graph(c.gates) == g


# ---------------------------------------------------------------------------
# file format

def test_circuit_file_round_trip():
    g = path_graph(4)
    c = compile_circuit(g, decompose_vertex_cover(g))
    text = format_circuit(c)
    assert text.startswith("ltf-and 4 2\n")
    back = parse_circuit(text)
    assert back == c


def test_weights_past_the_decimal_digit_limit_round_trip_in_hex():
    # 14 000 bits is the last width written in decimal (4215 digits); past
    # 4300 digits Python refuses to convert to or from decimal
    edge, big = 2 ** 14_000 - 1, 10 ** 4400 + 7
    c = MajorityCircuit(3, (LtfWitness((edge, -big, 1), big),))
    text = format_circuit(c)
    assert text == f"ltf-and 3 1\ngate {hex(big)} {edge} -{hex(big)} 1\n"
    assert parse_circuit(text) == c


def test_small_circuits_hold_decimal_tokens_only():
    g = gen_gnm(16, 24, seed=1)
    text = format_circuit(compile_circuit(g, decompose_degeneracy(g, seed=1)))
    tokens = [tok for line in text.splitlines()[1:] for tok in line.split()[1:]]
    assert tokens and all(tok.lstrip("-").isdigit() for tok in tokens)


@pytest.mark.parametrize("text", [
    "", "ltf-and 3\n", "ltf-and 3 1\ngate 1 1 1\n", "ltf-and 2 1\nnope 1 1 1\n",
    "ltf-and 2 2\ngate 1 1 1\n", "ltf-and -1 1\ngate\n",
])
def test_circuit_file_errors(text):
    with pytest.raises(ValueError):
        parse_circuit(text)
