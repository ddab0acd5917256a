"""The exact LTF certificate for threshold factors: `_ltf_counterexample`
agrees with the Gray-code walk of `helpers.walk_counterexample` on every
witness it is shown, any set it returns is misjudged by the gate, and
`extract_ltf` and `verify_ltf` certify factors far beyond the reach of a 2^n
walk without walking any inputs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thdim import LtfWitness, ThresholdGraph, extract_ltf, ltfs_to_graph, verify_ltf
from thdim import threshold
from thdim.threshold import DOMINATING, ISOLATED, _ltf_counterexample

from helpers import from_creation, maximal_cliques, walk_counterexample


def is_clique(t: ThresholdGraph, vertices) -> bool:
    vs = sorted(vertices)
    return all(t.graph.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1:])


@st.composite
def factors_and_witnesses(draw):
    n = draw(st.integers(0, 8))
    order = draw(st.permutations(range(n)))
    tags = draw(st.lists(st.sampled_from([ISOLATED, DOMINATING]), min_size=n, max_size=n))
    t = from_creation(zip(order, tags))
    kind = draw(st.sampled_from(["weight", "bound", "random"]))
    if kind == "random":
        weights = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        return t, LtfWitness(tuple(weights), draw(st.integers(-1, 14)))
    w = extract_ltf(t)
    delta = draw(st.integers(-3, 3))
    if kind == "bound" or n == 0:
        return t, LtfWitness(w.weights, w.bound + delta)
    weights = list(w.weights)
    i = draw(st.integers(0, n - 1))
    weights[i] = max(0, weights[i] + delta)
    return t, LtfWitness(tuple(weights), w.bound)


@settings(max_examples=1000, deadline=None)
@given(factors_and_witnesses())
def test_certificate_agrees_with_gray_walk(case):
    t, w = case
    bad = _ltf_counterexample(t, w)
    assert (bad is None) == (walk_counterexample(t.graph, [w]) is None)
    if bad is not None:
        assert w.accepts([int(v in bad) for v in range(t.n)]) != is_clique(t, bad)


def test_certificate_rejects_negative_weights_and_wrong_arity():
    t = from_creation(((0, ISOLATED), (1, DOMINATING)))
    with pytest.raises(ValueError):
        _ltf_counterexample(t, LtfWitness((1, -1), 1))
    with pytest.raises(ValueError):
        _ltf_counterexample(t, LtfWitness((1, 1, 1), 3))


def test_certificate_finds_triangle_among_isolated_vertices():
    # K3 plus 19 isolated vertices: the gate (2,2,2,5 x 19) <= 5 accepts every
    # pair but rejects the triangle, which random 22-bit vectors almost never hit
    t = from_creation(((0, ISOLATED), (1, DOMINATING), (2, DOMINATING))
                      + tuple((v, ISOLATED) for v in range(3, 22)))
    gate = LtfWitness((2, 2, 2) + (5,) * 19, 5)
    assert _ltf_counterexample(t, gate) == {0, 1, 2}


def test_extract_ltf_on_40_vertices_walks_no_inputs(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("extract_ltf walked or sampled inputs")

    monkeypatch.setattr(threshold, "_gray_counterexample", refuse)
    monkeypatch.setattr(threshold, "and_of_gates_counterexample", refuse)
    rng = random.Random(40)
    order = list(range(40))
    rng.shuffle(order)
    t = from_creation((v, rng.choice([ISOLATED, DOMINATING])) for v in order)
    w = extract_ltf(t)
    assert ltfs_to_graph([w]) == t.graph
    cliques = maximal_cliques(t.graph)
    assert len(cliques) <= len(t.split_a) + 1
    for clique in cliques:
        assert w.accepts([int(v in clique) for v in range(t.n)])
    # the exact check of verify_ltf walks no inputs either
    assert verify_ltf(t.graph, w) is None
