"""The exact circuit check behind `verify_circuit`, `verify_ltf` and
`thdim verify`: each gate's accepted pairs peeled into a threshold graph,
the pairs compared with the graph, and a clique search for gates that are
not exact on their own pair graph. It agrees with the input walk of
`helpers.walk_counterexample`, every set it returns is misjudged by the
circuit, and it walks no inputs unless a weight is negative."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thdim import (Graph, GraphicFunction, LtfWitness, MajorityCircuit, compile_circuit,
                   complete_graph, decompose_degeneracy, decompose_vertex_cover, gen_gnm, ltfs_to_graph,
                   path_graph, verify_circuit, verify_ltf, write_edge_list)
from thdim import threshold
from thdim.cli import main
from thdim.threshold import (_circuit_counterexample, _gray_counterexample, _ltf_counterexample,
                             _pair_graph, and_of_gates_counterexample)

from helpers import edge_mask_verify, walk_counterexample


def gates_of(draw, n, count, lowest=0):
    weights = st.lists(st.integers(lowest, 8), min_size=n, max_size=n)
    return [LtfWitness(tuple(draw(weights)), draw(st.integers(-1, 20)))
            for _ in range(count)]


def flip_pair(draw, g):
    """g with one pair's adjacency flipped, or g itself below two vertices."""
    if g.n < 2:
        return g
    u, v = sorted(draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2,
                                unique=True)))
    return Graph(g.n, set(g.edges()) ^ {(u, v)})


@st.composite
def random_gates(draw):
    """Random non-negative gates, against the graph of the pairs they all
    accept (so the pair check passes and the per-gate checks decide) or that
    graph with one pair flipped."""
    n = draw(st.integers(0, 12))
    gates = gates_of(draw, n, draw(st.integers(1, 3)))
    g = ltfs_to_graph(gates)
    if draw(st.booleans()):
        g = flip_pair(draw, g)
    return g, gates


@st.composite
def perturbed_circuits(draw):
    """A compiled circuit with one weight or one bound of one gate moved:
    by a little, to zero, or to a sum of other weights; with the factors
    the gates were compiled from, in gate order."""
    n = draw(st.integers(2, 12))
    g = gen_gnm(n, draw(st.integers(0, n * (n - 1) // 2)), seed=draw(st.integers(0, 999)))
    if draw(st.booleans()):
        d = decompose_degeneracy(g, seed=0)
    else:
        d = decompose_vertex_cover(g)
    gates = list(compile_circuit(g, d).gates)
    gi = draw(st.integers(0, len(gates) - 1))
    w, b = list(gates[gi].weights), gates[gi].bound
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    delta = draw(st.integers(-2, 2))
    kind = draw(st.sampled_from(["weight", "weight-to-zero", "weight-to-complement",
                                 "bound", "bound-to-subset"]))
    if kind == "weight":
        w[i] = max(0, w[i] + delta)
    elif kind == "weight-to-zero":
        w[i] = 0
    elif kind == "weight-to-complement":
        w[i] = max(0, b - w[j] + delta)
    elif kind == "bound":
        b += delta
    else:
        subset = draw(st.lists(st.integers(0, n - 1), unique=True))
        b = sum(w[v] for v in subset) + delta
    gates[gi] = LtfWitness(tuple(w), b)
    return g, gates, [f.graph for f in d.factors]


def assert_misjudged(g, gates, vertices):
    """The circuit of the gates and the graphic function of g differ on the
    indicator vector of the vertices."""
    x = [int(v in vertices) for v in range(g.n)]
    circuit = MajorityCircuit(arity=g.n, gates=tuple(gates))
    assert circuit.evaluate(x) != GraphicFunction(g).evaluate(x)


def assert_agrees_with_walk(g, gates):
    bad = _circuit_counterexample(g, gates)
    assert (bad is None) == (walk_counterexample(g, gates) is None)
    if bad is not None:
        assert_misjudged(g, gates, {v for v in range(g.n) if bad >> v & 1})


@settings(max_examples=300, deadline=None)
@given(random_gates())
def test_exact_check_agrees_with_walk_on_random_gates(case):
    assert_agrees_with_walk(*case)


@settings(max_examples=150, deadline=None)
@given(perturbed_circuits())
def test_exact_check_agrees_with_walk_on_perturbed_compiled_circuits(case):
    g, gates, _ = case
    assert_agrees_with_walk(g, gates)


@settings(max_examples=150, deadline=None)
@given(perturbed_circuits())
def test_every_counterexample_returned_is_misjudged(case):
    # the vertices verify_circuit returns, and those verify_ltf returns for a
    # gate against the factor it was compiled from, are ascending, and their
    # indicator vector is one the circuit (the gate) gets wrong
    g, gates, factors = case
    checks = [(g, gates, verify_circuit(g, MajorityCircuit(g.n, tuple(gates))))]
    checks += [(h, [gate], verify_ltf(h, gate)) for h, gate in zip(factors, gates)]
    for graph, checked, bad in checks:
        if bad is not None:
            assert list(bad) == sorted(set(bad))
            assert_misjudged(graph, checked, bad)


@st.composite
def graph_and_gates(draw, max_n, lowest):
    """Zero to three gates with weights from `lowest` up, against a random
    graph on at most max_n vertices."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [pair for pair in pairs if draw(st.booleans())])
    return g, gates_of(draw, n, draw(st.integers(0, 3)), lowest=lowest)


@settings(max_examples=100, deadline=None)
@given(graph_and_gates(8, lowest=-3))
def test_walk_for_negative_weights_agrees_with_oracle(case):
    g, gates = case
    assert_agrees_with_walk(g, gates)
    # the packed walk meets the oracle's first counterexample, in the same order
    bad = _gray_counterexample(g, gates)
    assert bad == walk_counterexample(g, gates)
    if not gates and g.m < g.n * (g.n - 1) // 2:
        assert bad is not None  # no gate rejects a non-edge


def test_walk_fields_hold_a_bound_minus_sum_of_twice_the_weights():
    # all-negative weights under a bound of their total: on the full input
    # bound - sum is twice the gate's total weight, which its field must hold
    # without a carry into the next field
    gates = [LtfWitness((-1,) * 5, 5), LtfWitness((-3,) * 5, 15)]
    assert _gray_counterexample(complete_graph(5), gates) is None
    assert _gray_counterexample(path_graph(5), gates) == 0b111 == walk_counterexample(
        path_graph(5), gates)  # the first input in Gray order that is no clique


def test_walk_refuses_a_gate_of_the_wrong_arity():
    with pytest.raises(ValueError, match="arity mismatch"):
        and_of_gates_counterexample(path_graph(3), [LtfWitness((1, -1, 0), 1),
                                                    LtfWitness((1, -1), 0)])


@st.composite
def gate_lists(draw):
    n = draw(st.integers(1, 8))
    return gates_of(draw, n, draw(st.integers(1, 3)), lowest=-3)


@settings(max_examples=200, deadline=None)
@given(gate_lists())
def test_ltfs_to_graph_holds_the_pairs_the_circuit_accepts(gates):
    # the gates' pair sums against evaluating each two-ones input
    n = gates[0].arity
    circuit = MajorityCircuit(n, tuple(gates))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if circuit.evaluate([int(v in (i, j)) for v in range(n)])]
    assert ltfs_to_graph(gates) == Graph(n, pairs)


@settings(max_examples=300, deadline=None)
@given(graph_and_gates(7, lowest=0))
def test_pair_check_names_the_pair_a_decomposition_check_names(case):
    # the circuit's pair check and verify_decomposition report the same
    # first pair when the gates' pair graphs do not intersect to g
    g, gates = case
    mismatch = edge_mask_verify(g, [_pair_graph(gate) for gate in gates])
    if mismatch is not None:
        (u, v), _ = mismatch
        assert _circuit_counterexample(g, gates) == 1 << u | 1 << v


def test_zero_gates_accept_everything():
    empty = MajorityCircuit(3, ())
    assert verify_circuit(complete_graph(3), empty) is None
    assert verify_circuit(path_graph(3), empty) == (0, 2)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.builds(
    LtfWitness, st.lists(st.integers(0, 8), min_size=n, max_size=n).map(tuple),
    st.integers(-1, 20))))
def test_pair_graph_holds_exactly_the_accepted_pairs(gate):
    h = _pair_graph(gate)
    if gate.arity:
        assert h.graph == ltfs_to_graph([gate])
    else:
        assert h.n == 0


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


K3_PLUS_19 = Graph(22, [(0, 1), (0, 2), (1, 2)])


def test_k3_plus_isolated_vertices_is_caught(tmp_path, capsys):
    # the gate accepts exactly the pairs of K3 + 19 isolated vertices but
    # rejects the triangle, which random 22-bit vectors almost never hit
    graph = write(tmp_path, "k3.gr", write_edge_list(K3_PLUS_19))
    circuit = write(tmp_path, "k3.circ", "ltf-and 22 1\ngate 5 2 2 2" + " 5" * 19 + "\n")
    assert main(["verify", graph, circuit]) == 1
    assert capsys.readouterr().out == "not-equal verify-mode=exact counterexample=[0, 1, 2]\n"


def test_equal_circuit_with_a_gate_not_exact_on_its_pair_graph():
    # on the path 0-1-2, the first gate accepts every pair but not the
    # triangle; the second gate already rejects the pair 02, so the AND is
    # exact and the clique search must find no heavy clique of the path
    g = path_graph(3)
    loose, tight = LtfWitness((1, 1, 1), 2), LtfWitness((1, 0, 1), 1)
    assert _ltf_counterexample(_pair_graph(loose), loose) == {0, 1, 2}
    assert verify_circuit(g, MajorityCircuit(3, (loose, tight))) is None
    assert walk_counterexample(g, [loose, tight]) is None


def test_clique_search_finds_a_clique_of_g_just_over_the_bound():
    # g is a triangle plus an isolated vertex 3. The first gate accepts every
    # pair but no triple, and the set it is first shown to reject, all four
    # vertices, is not a clique of g; the search must find the triangle,
    # which weighs the bound plus one
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    loose, tight = LtfWitness((1, 1, 1, 1), 2), LtfWitness((1, 1, 1, 3), 3)
    assert _ltf_counterexample(_pair_graph(loose), loose) == {0, 1, 2, 3}
    circuit = MajorityCircuit(4, (loose, tight))
    assert verify_circuit(g, circuit) == (0, 1, 2)


def test_a_clique_check_reads_the_masks_of_the_pair_check(monkeypatch):
    # the one gate accepts every pair of K3 but not the triangle, so the
    # check reaches the clique test, which reads the pair check's masks
    built = []
    masks = Graph.adjacency_masks
    monkeypatch.setattr(Graph, "adjacency_masks", lambda g: built.append(g) or masks(g))
    circuit = MajorityCircuit(3, (LtfWitness((1, 1, 1), 2),))
    assert verify_circuit(complete_graph(3), circuit) == (0, 1, 2)
    assert len(built) == 1


def test_clique_search_over_its_budget_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(threshold, "CLIQUE_SEARCH_NODES", 1)
    graph = write(tmp_path, "p3.gr", write_edge_list(path_graph(3)))
    circuit = write(tmp_path, "p3.circ", "ltf-and 3 2\ngate 2 1 1 1\ngate 1 1 0 1\n")
    assert main(["verify", graph, circuit]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "refused: clique search" in captured.err


def test_negative_weights_walk_up_to_20_inputs_and_are_refused_above(tmp_path, capsys):
    # -x_0 + x_1 + ... + x_{n-1} <= 0 accepts the pair {0, 1}, which the
    # empty graph does not have; the Gray-code walk meets it third
    for n in (20, 21):
        graph = write(tmp_path, f"e{n}.gr", f"p {n} 0\n")
        circuit = write(tmp_path, f"e{n}.circ",
                        f"ltf-and {n} 1\ngate 0 -1" + " 1" * (n - 1) + "\n")
        assert main(["verify", graph, circuit]) == 1
        captured = capsys.readouterr()
        if n == 20:
            assert captured.out == "not-equal verify-mode=exact counterexample=[0, 1]\n"
        else:
            assert captured.out == "" and "refused: a gate has a negative weight" in captured.err


def test_verify_walks_no_inputs_at_arity_40(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("verification walked inputs")

    monkeypatch.setattr(threshold, "_gray_counterexample", refuse)
    monkeypatch.setattr(threshold, "and_of_gates_counterexample", refuse)
    g = gen_gnm(40, 60, seed=8)
    c = compile_circuit(g, decompose_degeneracy(g, seed=0))
    assert verify_circuit(g, c) is None
    for gate in c.gates:
        assert verify_ltf(ltfs_to_graph([gate]), gate) is None
    # twice its bound, a gate accepts every pair: each one it should reject is
    # a counterexample
    loosened = tuple(LtfWitness(w.weights, 2 * w.bound) for w in c.gates)
    counterexample = verify_circuit(g, MajorityCircuit(40, loosened))
    assert counterexample is not None
    assert_misjudged(g, loosened, counterexample)


def test_verify_option_is_accepted_and_ignored(tmp_path, capsys):
    graph = write(tmp_path, "k3.gr", write_edge_list(K3_PLUS_19))
    circuit = write(tmp_path, "k3.circ", "ltf-and 22 1\ngate 5 2 2 2" + " 5" * 19 + "\n")
    for mode in ("exhaustive", "sampled"):
        assert main(["verify", graph, circuit, "--verify", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == "not-equal verify-mode=exact counterexample=[0, 1, 2]\n"
        assert captured.err == "note: --verify is ignored; verification is exact\n"
    exact = write(tmp_path, "k3-exact.circ",
                  "ltf-and 22 1\ngate 6 2 2 2" + " 5" * 19 + "\n")
    assert main(["verify", graph, exact]) == 0
    assert capsys.readouterr().out == "equal verify-mode=exact\n"
