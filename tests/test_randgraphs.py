import itertools
import math

import pytest

from thdim import (ExactLimitError, complete_graph, cycle_graph, empty_graph, gen_gnm,
                   girth_degeneracy_check, parse_experiment_spec, path_graph,
                   petersen_graph, render_table, run_experiment)
from thdim.graphs import MAX_VERTICES
from thdim.randgraphs import TABLE_HEADER, _pair_at

from helpers import listed_gen_gnm


# ---------------------------------------------------------------------------
# generators

def test_gnm_endpoints_and_count():
    assert gen_gnm(5, 0, seed=0) == empty_graph(5)
    assert gen_gnm(5, 10, seed=0) == complete_graph(5)
    assert gen_gnm(9, 14, seed=3).m == 14


def test_gnm_out_of_range():
    with pytest.raises(ValueError):
        gen_gnm(4, 7, seed=0)
    with pytest.raises(ValueError):
        gen_gnm(4, -1, seed=0)


def test_gnm_deterministic():
    assert gen_gnm(10, 20, seed=5) == gen_gnm(10, 20, seed=5)


@pytest.mark.parametrize("n,m,seed", [
    (0, 0, 1), (1, 0, 2), (2, 1, 3), (5, 10, 0), (9, 14, 3), (40, 50, 7),
    (60, 180, 11), (120, 360, 4), (25, 300, 5),
])
def test_gnm_matches_listed_fisher_yates(n, m, seed):
    assert gen_gnm(n, m, seed=seed) == listed_gen_gnm(n, m, seed=seed)


def test_pair_at_unranks_combinations():
    for n in range(2, 14):
        assert [_pair_at(n, i) for i in range(math.comb(n, 2))] == \
            list(itertools.combinations(range(n), 2))
    n = MAX_VERTICES
    assert _pair_at(n, 0) == (0, 1)
    assert _pair_at(n, n - 1) == (1, 2)
    assert _pair_at(n, math.comb(n, 2) - 1) == (n - 2, n - 1)


def test_gnm_large_sparse():
    g = gen_gnm(MAX_VERTICES, 10, seed=1)
    assert g.n == MAX_VERTICES and g.m == 10


# ---------------------------------------------------------------------------
# experiment

def test_experiment_rows_and_aggregates():
    rows = run_experiment([(12, 18, 4)], seed=0)
    assert len(rows) == 6  # 4 trials + median + max
    kinds = [r.kind for r in rows]
    assert kinds == ["trial"] * 4 + ["agg-median", "agg-max"]
    for r in rows[:4]:
        assert r.verified and r.factors <= r.bound
        assert r.bound == 10 * max(r.degeneracy, 1) * math.ceil(math.log(12))


def test_experiment_flags_below_hypothesis():
    rows = run_experiment([(20, 5, 1)], seed=0)
    assert all("below-m>=n/2" in r.flag for r in rows)


def test_experiment_byte_identical():
    a = render_table(run_experiment([(15, 25, 3), (10, 14, 2)], seed=4))
    b = render_table(run_experiment([(15, 25, 3), (10, 14, 2)], seed=4))
    assert a == b
    assert a.splitlines()[0] == TABLE_HEADER


def test_experiment_seed_changes_output():
    a = render_table(run_experiment([(12, 18, 2)], seed=1))
    b = render_table(run_experiment([(12, 18, 2)], seed=2))
    assert a != b


def test_parse_spec():
    assert parse_experiment_spec("# c\n50 100 20\n10 14 2\n") == [(50, 100, 20), (10, 14, 2)]
    with pytest.raises(ValueError):
        parse_experiment_spec("50 100\n")
    assert parse_experiment_spec(f"1 0 1\n8 28 1\n{MAX_VERTICES} 0 1\n") == \
        [(1, 0, 1), (8, 28, 1), (MAX_VERTICES, 0, 1)]


def test_parse_spec_refuses_more_vertices_than_the_cap():
    with pytest.raises(ExactLimitError):
        parse_experiment_spec(f"8 8 1\n{MAX_VERTICES + 1} 10 1\n")


@pytest.mark.parametrize("line", ["8 29 1", "8 -1 1", "8 8 0", "8 8 -2", "0 0 1", "-3 0 1"])
def test_parse_spec_rejects_out_of_range_values(line):
    with pytest.raises(ValueError) as err:
        parse_experiment_spec("# c\n8 8 1\n" + line + "\n")
    assert not isinstance(err.value, ExactLimitError)
    assert str(err.value).startswith("line 3:")


# ---------------------------------------------------------------------------
# girth-degeneracy relation

def test_girth_check_petersen():
    chk = girth_degeneracy_check(petersen_graph())
    assert chk.girth == 5 and chk.g_param == 4
    assert chk.bound == 4 and chk.degeneracy == 3 and chk.ok


def test_girth_check_forest():
    chk = girth_degeneracy_check(path_graph(9))
    assert chk.g_param is None and chk.ok and chk.degeneracy <= chk.bound == 2


def test_girth_check_small_cycles():
    for n in (4, 5, 6, 9):
        chk = girth_degeneracy_check(cycle_graph(n))
        assert chk.ok and chk.degeneracy == 2


def test_girth_check_dense():
    chk = girth_degeneracy_check(complete_graph(6))
    assert chk.girth == 3 and chk.g_param == 2
    assert chk.bound == 6 and chk.ok
