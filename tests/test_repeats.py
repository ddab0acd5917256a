"""Repeated factors and gates. A decomposition or circuit may list a
factor or gate more than once, and each layer treats a repeat as it treats
any other listed factor or gate: the intersection check walks it,
`compile` certifies it and gives it its own gate, and `verify` checks that
gate. A repeat excludes no pair its twin does not, and an AND is
idempotent, so none of that may change an output or a verdict. The
degeneracy method writes no repeat: a color class that recurs across its
colorings excludes no new pair, so its prune keeps it at most once."""

from hypothesis import given, settings
from hypothesis import strategies as st

from thdim import (LtfWitness, MajorityCircuit, ThresholdGraph, build_separating_colorings,
                   compile_circuit, decompose_degeneracy, decompose_vertex_cover,
                   format_circuit, format_decomposition, gen_gnm, parse_circuit,
                   threshold_supergraph, verify_circuit)
from thdim import circuits, decompose, threshold
from thdim.graphs import color_classes

from helpers import (edge_mask_verify, fresh_degeneracy_text, maximal_cliques, small_graphs,
                     walk_counterexample)


def tightened_below(g, gate):
    """The gate with its bound set 1 below its heaviest clique of g: a gate
    that rejects a clique, so a circuit holding it is wrong."""
    heaviest = max(sum(gate.weights[v] for v in c) for c in maximal_cliques(g))
    return LtfWitness(gate.weights, heaviest - 1)


def insert_repeats(draw, items, always=()):
    """`items` with repeats of some of them, and of those at the indices
    `always`, inserted, each after the first occurrence of what it repeats,
    and the new index of each original item."""
    listed = list(enumerate(items))  # (original index or None, item)
    picks = [draw(st.integers(0, len(items) - 1))
             for _ in range(draw(st.integers(0, 2 * len(items))))]
    for i in [*always, *picks]:
        first = next(p for p, (j, _) in enumerate(listed) if j == i)
        listed.insert(draw(st.integers(first + 1, len(listed))), (None, items[i]))
    new_index = {j: p for p, (j, _) in enumerate(listed) if j is not None}
    return [item for _, item in listed], new_index


@st.composite
def factors_with_repeats(draw):
    """A graph, factors for it (vertex completions that contain it, random
    threshold graphs, and one that isolates an endpoint of an edge, so drops
    it), and the same factor objects with repeats inserted."""
    g = draw(small_graphs(12))
    factors = [threshold_supergraph(g, [v])
               for v in draw(st.lists(st.integers(0, max(g.n - 1, 0)), unique=True))
               if v < g.n]
    for _ in range(draw(st.integers(0, 2))):
        order = draw(st.permutations(range(g.n)))
        cuts = sorted(draw(st.sets(st.integers(0, max(g.n - 1, 0)))))
        factors.append(ThresholdGraph(order, [c for c in cuts if c < g.n]))
    edges = list(g.edges())
    if edges and draw(st.booleans()):
        u = draw(st.sampled_from(edges))[0]
        order = [v for v in range(g.n) if v != u] + [u]
        factors.insert(draw(st.integers(0, len(factors))), ThresholdGraph(order, [g.n - 1]))
    if not factors:
        factors.append(ThresholdGraph(range(g.n), []))  # the complete graph
    repeated, new_index = insert_repeats(draw, factors)
    return g, factors, repeated, new_index


@settings(max_examples=300, deadline=None)
@given(factors_with_repeats())
def test_repeated_factors_leave_the_mismatch_unchanged(case):
    g, factors, repeated, new_index = case
    expected = threshold._Intersection(g, factors).mismatch()
    got = threshold._Intersection(g, repeated).mismatch()
    if expected is None or expected[1] is None:
        assert got == expected
    else:
        pair, idx = expected
        assert got == (pair, new_index[idx])
    assert got == edge_mask_verify(g, repeated)


@st.composite
def circuits_with_repeats(draw):
    """A compiled circuit for a graph on at most 12 vertices, with up to two
    gates' bounds lowered to 1 below their heaviest clique of the graph,
    and its gates with repeats inserted (fresh copies equal by value), those
    gates' among them, every first occurrence kept in order."""
    n = draw(st.integers(2, 12))
    g = gen_gnm(n, draw(st.integers(0, n * (n - 1) // 2)), seed=draw(st.integers(0, 999)))
    if draw(st.booleans()):
        d = decompose_degeneracy(g, seed=draw(st.integers(0, 3)))
    else:
        d = decompose_vertex_cover(g)
    gates = list(dict.fromkeys(compile_circuit(g, d).gates))
    planted = draw(st.sets(st.integers(0, len(gates) - 1), max_size=2))
    for i in planted:
        gates[i] = tightened_below(g, gates[i])
    repeated, _ = insert_repeats(draw, gates, always=planted)
    copies = [LtfWitness(tuple(gate.weights), gate.bound) for gate in repeated]
    return g, gates, copies


@settings(max_examples=150, deadline=None)
@given(circuits_with_repeats())
def test_repeated_gates_leave_the_verdict_unchanged(case):
    g, gates, repeated = case
    expected = verify_circuit(g, MajorityCircuit(arity=g.n, gates=tuple(gates)))
    assert verify_circuit(g, MajorityCircuit(arity=g.n, gates=tuple(repeated))) == expected
    doubled = tuple(gate for gate in repeated for _ in range(2))
    assert verify_circuit(g, MajorityCircuit(arity=g.n, gates=doubled)) == expected
    assert (expected is None) == (walk_counterexample(g, gates) is None)


def test_a_repeated_bad_gate_is_caught_with_the_same_counterexample():
    g = gen_gnm(12, 20, seed=4)
    gates = list(dict.fromkeys(compile_circuit(g, decompose_degeneracy(g, seed=0)).gates))
    bad, worse = tightened_below(g, gates[3]), tightened_below(g, gates[2])
    rest = [gate for j, gate in enumerate(gates) if j not in (2, 3)]
    for first, distinct, listings in (
            (bad, (bad, *rest, worse), [(bad, *rest, bad, worse), (bad, bad, *rest, worse, bad),
                                        (bad, *rest, *rest, worse, worse, bad)]),
            (worse, (*rest, worse, bad), [(*rest, worse, bad, worse),
                                          (*rest, worse, *rest, bad, bad)])):
        # the first bad gate listed names the counterexample
        expected = verify_circuit(g, MajorityCircuit(arity=g.n, gates=(*rest, first)))
        assert expected is not None
        assert verify_circuit(g, MajorityCircuit(arity=g.n, gates=distinct)) == expected
        for listed in listings:
            assert verify_circuit(g, MajorityCircuit(arity=g.n, gates=listed)) == expected
    assert verify_circuit(g, MajorityCircuit(arity=g.n, gates=(*rest, bad))) != (
        verify_circuit(g, MajorityCircuit(arity=g.n, gates=(*rest, worse))))


def test_circuit_with_repeated_gates_reads_back_unchanged():
    g = gen_gnm(16, 24, seed=7)
    compiled = compile_circuit(g, decompose_degeneracy(g, seed=2))
    c = MajorityCircuit(arity=g.n, gates=compiled.gates + compiled.gates[:2])
    assert len(set(c.gates)) < c.gate_count
    text = format_circuit(c)
    parsed = parse_circuit(text)
    assert verify_circuit(g, parsed) is None
    assert parsed == c and format_circuit(parsed) == text


def test_degeneracy_text_matches_the_fresh_completions_oracle():
    graphs = [gen_gnm(8, m, seed=s) for m in (4, 8, 12, 16) for s in range(3)]
    graphs += [gen_gnm(16, 24, seed=s) for s in range(3)] + [gen_gnm(60, 180, seed=1)]
    for g in graphs:
        for seed in (0, 1):
            assert format_decomposition(decompose_degeneracy(g, seed=seed)) == (
                fresh_degeneracy_text(g, seed))


def test_a_recurring_class_is_kept_once():
    # a class listed by two colorings has one completion, which excludes
    # no new pair the second time, so the prune picks it at most once
    g = gen_gnm(16, 30, seed=3)  # its accepted prefix of colorings repeats a class
    family = build_separating_colorings(g, seed=1)
    classes = [frozenset(cls) for c in family.colorings for cls in color_classes(c) if cls]
    assert len(set(classes)) < len(classes)
    d = family.decomposition
    assert len(set(d.factors)) == len({frozenset(f.split_a) for f in d.factors}) == d.size
    assert {frozenset(f.split_a) for f in d.factors} <= set(classes)


def counting_calls(monkeypatch, module, name):
    """The arguments of every call of `module.name` from now on."""
    calls = []
    original = getattr(module, name)

    def counting(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_compile_certifies_each_listed_factor(monkeypatch):
    g = gen_gnm(20, 40, seed=0)
    d = decompose_degeneracy(g, seed=2)
    certified = counting_calls(monkeypatch, circuits, "extract_ltf")
    c = compile_circuit(g, d)
    assert certified == list(d.factors)
    assert all(t is f for t, f in zip(certified, d.factors))
    assert c.gate_count == d.size == len(set(c.gates))


def test_equal_factor_objects_are_each_walked_and_certified(monkeypatch):
    g = gen_gnm(12, 20, seed=4)
    factors = list(decompose_vertex_cover(g).factors)
    copy = ThresholdGraph(list(factors[0].order), list(factors[0].cuts))
    assert copy == factors[0] and copy is not factors[0]
    walked = counting_calls(monkeypatch, threshold, "_isolated_prefixes")
    check = threshold._Intersection(g)
    check.add([*factors, copy])
    assert walked == [*factors, copy] and walked[-1] is copy
    d = decompose._finish(g, "manual", len(factors) + 1, check)
    assert d.factors == (*factors, copy)
    certified = counting_calls(monkeypatch, circuits, "extract_ltf")
    c = compile_circuit(g, d)
    assert certified == [*factors, copy] and certified[-1] is copy
    assert c.gates[0] == c.gates[-1]

