"""The exact circuit check behind `verify_circuit`, `verify_ltf` and
`thdim verify`: each gate's accepted pairs peeled into a threshold graph,
the pairs compared with the graph, and a clique search for gates that are
not exact on their own pair graph. It agrees with the input walk of
`helpers.walk_counterexample`, every set it returns is misjudged by the
circuit, and it walks no inputs unless a weight is negative."""

from hypothesis import given, settings
from hypothesis import strategies as st

from thdim import (Graph, GraphicFunction, LtfWitness, MajorityCircuit, compile_circuit,
                   complete_graph, decompose_degeneracy, decompose_vertex_cover, gen_gnm, ltfs_to_graph,
                   path_graph, verify_circuit, verify_ltf, write_edge_list)
from thdim import threshold
from thdim.cli import main
from thdim.threshold import _circuit_counterexample, _ltf_counterexample, _pair_graph

from helpers import walk_counterexample


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
    by a little, to zero, or to a sum of other weights."""
    n = draw(st.integers(2, 12))
    g = gen_gnm(n, draw(st.integers(0, n * (n - 1) // 2)), seed=draw(st.integers(0, 999)))
    if draw(st.booleans()):
        d = decompose_degeneracy(g, seed=0)
    else:
        d = decompose_vertex_cover(g, range(n))
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
    return g, gates


def assert_agrees_with_walk(g, gates):
    bad = _circuit_counterexample(g, gates)
    assert (bad is None) == (walk_counterexample(g, gates) is None)
    if bad is not None:
        x = tuple(bad >> v & 1 for v in range(g.n))
        circuit = MajorityCircuit(arity=g.n, gates=tuple(gates))
        assert circuit.evaluate(x) != GraphicFunction(g).evaluate(x)


@settings(max_examples=300, deadline=None)
@given(random_gates())
def test_exact_check_agrees_with_walk_on_random_gates(case):
    assert_agrees_with_walk(*case)


@settings(max_examples=150, deadline=None)
@given(perturbed_circuits())
def test_exact_check_agrees_with_walk_on_perturbed_compiled_circuits(case):
    assert_agrees_with_walk(*case)


@st.composite
def gates_with_negative_weights(draw):
    """Gates whose weights may be negative, against a random graph."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, [pair for pair in pairs if draw(st.booleans())])
    return g, gates_of(draw, n, draw(st.integers(1, 3)), lowest=-3)


@settings(max_examples=100, deadline=None)
@given(gates_with_negative_weights())
def test_walk_for_negative_weights_agrees_with_oracle(case):
    assert_agrees_with_walk(*case)


def test_zero_gates_accept_everything():
    empty = MajorityCircuit(3, ())
    assert verify_circuit(GraphicFunction(complete_graph(3)), empty) == (True, None)
    assert verify_circuit(GraphicFunction(path_graph(3)), empty) == (False, (1, 0, 1))


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
    assert verify_circuit(GraphicFunction(g), MajorityCircuit(3, (loose, tight))) == (True, None)
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
    assert verify_circuit(GraphicFunction(g), circuit) == (False, (1, 1, 1, 0))


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
    assert verify_circuit(GraphicFunction(g), c) == (True, None)
    for gate in c.gates:
        assert verify_ltf(ltfs_to_graph([gate]), gate) == (True, None)
    # twice its bound, a gate accepts every pair: each one it should reject is
    # a counterexample
    loosened = MajorityCircuit(40, tuple(LtfWitness(w.weights, 2 * w.bound) for w in c.gates))
    ok, counterexample = verify_circuit(GraphicFunction(g), loosened)
    assert not ok and loosened.evaluate(counterexample) != GraphicFunction(g).evaluate(
        counterexample)


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
