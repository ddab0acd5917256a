import argparse
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import thdim
from thdim import (Graph, complete_graph, cycle_graph, decompose_degeneracy,
                   disjoint_cliques, format_decomposition, format_tree_decomposition,
                   gen_gnm, heuristic_tree_decomposition,
                   ltfs_to_graph, parse_circuit, parse_decomposition, path_graph,
                   star_graph, verify_circuit, verify_decomposition, write_edge_list)
from thdim.cli import build_parser, main

from helpers import empty_graph_base_circuit


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(write_edge_list(g))
    return str(p)


def test_recognize_threshold_graph(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.gr", complete_graph(4))
    assert main(["recognize", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("threshold\nts 4 ")


def test_recognize_p4_negative(tmp_path, capsys):
    path = write_graph(tmp_path, "p4.gr", path_graph(4))
    assert main(["recognize", path]) == 1
    assert "not-threshold" in capsys.readouterr().out


def test_recognize_c4_negative(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.gr", cycle_graph(4))
    assert main(["recognize", path]) == 1
    assert "C4" in capsys.readouterr().out


def run_module(*argv):
    """`python -m thdim.cli argv`, with PYTHONPATH the source tree of the
    thdim under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(thdim.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "thdim.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_dash_m_runs_the_cli(tmp_path):
    done = run_module("recognize", write_graph(tmp_path, "k4.gr", complete_graph(4)))
    assert done.returncode == 0 and done.stdout.startswith("threshold\n")
    assert run_module("recognize", write_graph(tmp_path, "p4.gr", path_graph(4))).returncode == 1
    out = tmp_path / "c10.dec"
    path = write_graph(tmp_path, "c10.gr", cycle_graph(10))
    assert run_module("decompose", path, "--method", "degeneracy", "--out", str(out)).returncode == 0
    assert verify_decomposition(cycle_graph(10), parse_decomposition(out.read_text())) is None


def test_decompose_vc_star(tmp_path):
    path = write_graph(tmp_path, "star.gr", star_graph(5))
    out = tmp_path / "d.txt"
    assert main(["decompose", path, "--method", "vc", "--out", str(out)]) == 0
    d = parse_decomposition(out.read_text())
    assert d.size == 1
    assert verify_decomposition(star_graph(5), d) is None


def test_decompose_vc_beyond_independent_set_limit(tmp_path, monkeypatch):
    def refuse(g):
        raise AssertionError("no exact independent set beyond the limit")

    monkeypatch.setattr("thdim.decompose.max_independent_set", refuse)
    g = gen_gnm(30, 60, seed=5)
    path = write_graph(tmp_path, "g30.gr", g)
    out = tmp_path / "d.txt"
    assert main(["decompose", path, "--method", "vc", "--out", str(out)]) == 0
    assert verify_decomposition(g, parse_decomposition(out.read_text())) is None


def test_decompose_degeneracy_c10(tmp_path):
    path = write_graph(tmp_path, "c10.gr", cycle_graph(10))
    out = tmp_path / "d.txt"
    assert main(["decompose", path, "--method", "degeneracy", "--seed", "7",
                 "--out", str(out)]) == 0
    d = parse_decomposition(out.read_text())
    assert d.size <= 60
    assert verify_decomposition(cycle_graph(10), d) is None


def test_decompose_treewidth_tree(tmp_path):
    path = write_graph(tmp_path, "tree.gr", path_graph(7))
    out = tmp_path / "d.txt"
    assert main(["decompose", path, "--method", "treewidth", "--out", str(out)]) == 0
    assert parse_decomposition(out.read_text()).size <= 4


def test_decompose_treewidth_with_td_file(tmp_path):
    path = write_graph(tmp_path, "p4.gr", path_graph(4))
    td = tmp_path / "p4.td"
    td.write_text("s td 3 2 4\nb 1 0 1\nb 2 1 2\nb 3 2 3\n1 2\n2 3\n")
    assert main(["decompose", path, "--method", "treewidth", "--td", str(td),
                 "--out", str(tmp_path / "d.txt")]) == 0
    assert parse_decomposition((tmp_path / "d.txt").read_text()).size <= 4


@pytest.mark.parametrize("command", ["decompose", "compile"])
def test_treewidth_refuses_the_empty_graph(tmp_path, capsys, command):
    path = write_graph(tmp_path, "empty.gr", Graph(0))
    assert main([command, path, "--method", "treewidth"]) == 2
    assert capsys.readouterr().err == (
        "error: treewidth decomposition needs at least 1 vertex\n")


def test_decompose_treewidth_validates_its_tree_decomposition_once(tmp_path, monkeypatch):
    import thdim.decompose
    import thdim.treedecomp
    calls = []
    original = thdim.treedecomp.validate_tree_decomposition

    def counting(td, g):
        calls.append((td.n, g.n))
        return original(td, g)

    monkeypatch.setattr(thdim.decompose, "validate_tree_decomposition", counting)
    monkeypatch.setattr(thdim.treedecomp, "validate_tree_decomposition", counting)
    g = gen_gnm(30, 60, seed=4)
    path = write_graph(tmp_path, "g.gr", g)
    assert main(["decompose", path, "--method", "treewidth",
                 "--out", str(tmp_path / "d.txt")]) == 0
    # a --td file is read, then validated with the graph once
    td = tmp_path / "g.td"
    td.write_text(format_tree_decomposition(heuristic_tree_decomposition(g)))
    assert main(["decompose", path, "--method", "treewidth", "--td", str(td),
                 "--out", str(tmp_path / "d.txt")]) == 0
    assert calls == [(g.n, g.n)] * 2


def test_decompose_exact_2k3(tmp_path):
    path = write_graph(tmp_path, "2k3.gr", disjoint_cliques(3))
    out = tmp_path / "d.txt"
    assert main(["decompose", path, "--method", "exact", "--out", str(out)]) == 0
    assert parse_decomposition(out.read_text()).size == 3


def test_decompose_exact_refused_when_large(tmp_path):
    path = write_graph(tmp_path, "c12.gr", cycle_graph(12))
    assert main(["decompose", path, "--method", "exact"]) == 1


def test_decompose_maxdeg(tmp_path):
    path = write_graph(tmp_path, "c12.gr", cycle_graph(12))
    out = tmp_path / "d.txt"
    assert main(["decompose", path, "--method", "maxdeg", "--out", str(out)]) == 0
    d = parse_decomposition(out.read_text())
    assert verify_decomposition(cycle_graph(12), d) is None


def test_decompose_maxdeg_diagnostics(tmp_path):
    path = write_graph(tmp_path, "c12.gr", cycle_graph(12))
    diag = tmp_path / "diag.txt"
    assert main(["decompose", path, "--method", "maxdeg", "--diag", str(diag),
                 "--out", str(tmp_path / "d.txt")]) == 0
    text = diag.read_text()
    assert "maxdeg delta=2" in text
    assert "partition sizes" in text
    families = re.findall(r"^  suitable family: ground=\d+ k=\d+ size=(\d+) drawn=(\d+)$",
                          text, re.MULTILINE)
    assert families and all(1 <= int(drawn) <= int(size) for size, drawn in families)
    counts = re.search(r"^factors: listed=(\d+) distinct=(\d+) pruned=(\d+)$", text, re.MULTILINE)
    listed, distinct, pruned = map(int, counts.groups())
    assert listed >= distinct >= pruned >= 1
    assert (tmp_path / "d.txt").read_text().startswith(f"td-decomp maxdeg {pruned}\n")


def test_decompose_deterministic_output(tmp_path):
    path = write_graph(tmp_path, "g.gr", cycle_graph(9))
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["decompose", path, "--method", "degeneracy", "--seed", "3", "--out", str(out1)])
    main(["decompose", path, "--method", "degeneracy", "--seed", "3", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_decompose_writes_a_line_at_a_time(tmp_path, monkeypatch, capsys):
    # the file and stdout get the text of format_decomposition, but the
    # writer never holds that text whole: allocations peak below half of it
    import thdim.cli

    g = gen_gnm(400, 1200, seed=1)
    d = decompose_degeneracy(g, seed=1)
    text = format_decomposition(d)
    monkeypatch.setattr(thdim.cli, "_read_graph", lambda _path: g)
    monkeypatch.setattr(thdim.cli, "_run_method", lambda _g, _args: d)
    assert main(["decompose", "g.gr"]) == 0
    assert capsys.readouterr().out == text
    out = tmp_path / "d.txt"
    tracemalloc.start()
    try:
        assert main(["decompose", "g.gr", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text() == text
    assert peak < len(text) / 2


@pytest.mark.parametrize("command", ["decompose", "compile"])
def test_a_stdout_closed_by_its_reader_is_an_error(tmp_path, command):
    # the reader takes 20 bytes and closes the pipe; the output, about
    # 270 KB, is far more than the pipe holds, so a later write fails
    path = write_graph(tmp_path, "g.gr", gen_gnm(400, 1200, seed=1))
    env = dict(os.environ, PYTHONPATH=str(Path(thdim.__file__).parents[1]))
    child = subprocess.Popen([sys.executable, "-m", "thdim.cli", command, path],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(child.stdout.read(20)) == 20
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_report_2k3(tmp_path, capsys):
    path = write_graph(tmp_path, "2k3.gr", disjoint_cliques(3))
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "exact-dimension" in out and " 3" in out


def test_report_k5_rows(tmp_path, capsys):
    path = write_graph(tmp_path, "k5.gr", complete_graph(5))
    rows = tmp_path / "rows.csv"
    assert main(["report", path, "--out", str(rows)]) == 0
    assert "exact,1" in rows.read_text()


def test_compile_and_verify_roundtrip(tmp_path, capsys):
    path = write_graph(tmp_path, "2k2.gr", disjoint_cliques(2))
    circ = tmp_path / "c.txt"
    assert main(["compile", path, "--method", "exact", "--out", str(circ)]) == 0
    err = capsys.readouterr().err
    assert "verified=true" in err
    c = parse_circuit(circ.read_text())
    assert c.gate_count == 2

    assert main(["verify", path, str(circ)]) == 0
    assert "equal" in capsys.readouterr().out


@pytest.mark.parametrize("n, m, method", [(16, 24, "degeneracy"), (24, 18, "treewidth")])
def test_compile_writes_the_certified_circuit_without_walking_it(tmp_path, monkeypatch,
                                                                 n, m, method):
    import thdim.circuits
    import thdim.threshold

    def walked(*args, **kwargs):
        raise AssertionError("compile checked the circuit again")

    g = gen_gnm(n, m, seed=5)
    path = write_graph(tmp_path, "g.gr", g)
    circ = tmp_path / "c.txt"
    with monkeypatch.context() as patch:
        patch.setattr(thdim.threshold, "and_of_gates_counterexample", walked)
        patch.setattr(thdim.circuits, "_circuit_counterexample", walked)
        assert main(["compile", path, "--method", method, "--out", str(circ)]) == 0
    c = parse_circuit(circ.read_text())
    assert verify_circuit(g, c) is None
    assert ltfs_to_graph(c.gates) == g


def test_compile_and_verify_weights_past_the_decimal_digit_limit(tmp_path, capsys):
    # the one vertex-cover gate of the empty graph on 1500 vertices has level
    # weights, all 1 with bound 1; its base-1501 gate, of about 4760 digits
    # per number, is written in hex and read back by verify
    path = tmp_path / "e1500.gr"
    path.write_text("p 1500 0\n")
    circ = tmp_path / "c.txt"
    assert main(["compile", str(path), "--method", "vc", "--out", str(circ)]) == 0
    assert circ.read_text() == "ltf-and 1500 1\ngate 1" + " 1" * 1500 + "\n"
    base = tmp_path / "base.txt"
    base.write_text(empty_graph_base_circuit(1500))
    assert " 0x" in base.read_text()
    capsys.readouterr()
    for circuit in (circ, base):
        assert main(["verify", str(path), str(circuit)]) == 0
        assert capsys.readouterr().out == "equal verify-mode=exact\n"


def test_verify_corrupted_circuit(tmp_path, capsys):
    path = write_graph(tmp_path, "k3.gr", complete_graph(3))
    circ = tmp_path / "c.txt"
    assert main(["compile", path, "--method", "vc", "--out", str(circ)]) == 0
    capsys.readouterr()
    # clamp the first gate so it rejects vectors it must accept
    lines = circ.read_text().splitlines()
    gate = lines[1].split()
    gate[1] = "-1"
    lines[1] = " ".join(gate)
    circ.write_text("\n".join(lines) + "\n")
    assert main(["verify", path, str(circ)]) == 1
    assert "counterexample" in capsys.readouterr().out


@pytest.mark.parametrize("data", [
    b"",                                                             # empty
    b"# only a comment\n",                                           # empty
    b"ltf 4 1\ngate 1 0 0 0 0\n",                                    # bad header
    b"ltf-and 4 1\ngate 2 1 1 1 1\ngate 2 1 1 1 1\ngate 2 1 1 1 1\n",  # more gates
    b"ltf-and 4 3\ngate 2 1 1 1 1\n",                                # fewer gates
    b"ltf-and 4 1\ngate 2 1 x 1 1\n",                                # bad number
    b"ltf-and 4 1\ngate 2 1 1 1\n",                                  # too few weights
    b"ltf-and 4 2\ngate 2 1 1 1 1\n\xff\xfe 1 1 1 1\n",              # not UTF-8
])
def test_verify_refuses_bad_circuit_files(tmp_path, capsys, data):
    # the file is read a line at a time: each fault, found before or after
    # some gates are parsed, ends in exit 2 with one error line
    path = write_graph(tmp_path, "p4.gr", path_graph(4))
    circ = tmp_path / "c.txt"
    circ.write_bytes(data)
    assert main(["verify", path, str(circ)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [["recognize"], ["decompose"], ["report"], ["compile"],
                                  ["verify", "c.circ"]])
def test_out_of_memory_is_a_refusal(tmp_path, monkeypatch, capsys, argv):
    import thdim.cli

    def exhaust(_path):
        raise MemoryError

    monkeypatch.setattr(thdim.cli, "_read_graph", exhaust)
    assert main([argv[0], str(tmp_path / "g.gr"), *argv[1:]]) == 1
    assert capsys.readouterr().err == "refused: out of memory\n"


def test_hostile_vertex_counts_are_refused(tmp_path, monkeypatch, capsys):
    import thdim.graphs
    import thdim.treedecomp

    def refuse(*_args, **_kwargs):
        raise AssertionError("allocated for a hostile header")

    path = write_graph(tmp_path, "p4.gr", path_graph(4))
    hostile = tmp_path / "hostile.gr"
    hostile.write_text(f"p {10 ** 12} 0\n")
    td = tmp_path / "hostile.td"
    td.write_text(f"s td 1 1 {10 ** 12}\nb 1 0\n")
    with monkeypatch.context() as patch:
        patch.setattr(thdim.graphs.Graph, "__init__", refuse)
        assert main(["recognize", str(hostile)]) == 1
    with monkeypatch.context() as patch:
        patch.setattr(thdim.treedecomp, "validate_tree_decomposition", refuse)
        assert main(["decompose", path, "--method", "treewidth", "--td", str(td)]) == 1
    assert capsys.readouterr().err.count(f"refused: {10 ** 12} vertices exceed the cap") == 2


def test_experiment_command(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("12 18 3\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", str(spec), "--seed", "0", "--out", str(out1)]) == 0
    assert main(["experiment", str(spec), "--seed", "0", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text().startswith("kind,n,m,trial")


def test_experiment_records_a_refused_trial_in_its_row(tmp_path):
    # one vertex is below the degeneracy method's two: a refusal, not a bug
    spec, out = tmp_path / "spec.txt", tmp_path / "t.csv"
    spec.write_text("1 0 1\n")
    assert main(["experiment", str(spec), "--seed", "0", "--out", str(out)]) == 0
    assert out.read_text() == (
        "kind,n,m,trial,seed,degeneracy,factors,bound,ratio,verified,flag\n"
        "trial,1,0,0,11559177372754217917,0,,0,,0,below-m>=n/2;failed:ValueError\n")


def test_experiment_ends_in_exit_3_on_a_failed_verification(tmp_path, monkeypatch, capsys):
    import thdim.randgraphs

    def failing(*_args, **_kwargs):
        raise AssertionError("degeneracy construction failed verification")

    spec, out = tmp_path / "spec.txt", tmp_path / "t.csv"
    spec.write_text("8 12 1\n")
    monkeypatch.setattr(thdim.randgraphs, "decompose_degeneracy", failing)
    assert main(["experiment", str(spec), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "internal error: degeneracy construction failed verification\n")
    assert not out.exists()


@pytest.mark.parametrize("line,code", [("100001 10 1", 1), ("8 29 1", 2), ("8 8 0", 2)])
def test_experiment_spec_refusals(tmp_path, monkeypatch, line, code):
    import thdim.randgraphs

    def refuse(*_args, **_kwargs):
        raise AssertionError("a refused spec must not generate graphs")

    spec = tmp_path / "spec.txt"
    spec.write_text("6 6 1\n" + line + "\n")
    monkeypatch.setattr(thdim.randgraphs, "gen_gnm", refuse)
    assert main(["experiment", str(spec), "--out", str(tmp_path / "t.csv")]) == code
    assert not (tmp_path / "t.csv").exists()


def test_parser_is_built_once_and_keeps_no_values(tmp_path, capsys):
    import thdim.cli
    path = write_graph(tmp_path, "c9.gr", cycle_graph(9))
    circ = tmp_path / "c.txt"
    assert main(["compile", path, "--out", str(circ)]) == 0
    capsys.readouterr()
    thdim.cli.build_parser.cache_clear()

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    tw = tmp_path / "tw.txt"
    assert run("decompose", path, "--method", "treewidth", "--out", str(tw))[:2] == (0, "")
    assert tw.read_text().startswith("td-decomp treewidth ")
    code, bare, err = run("decompose", path)
    assert code == 0 and bare.startswith("td-decomp degeneracy ") and "method=degeneracy" in err
    code, out, _ = run("report", path)
    assert code == 0 and "exact-dimension" in out
    assert run("decompose", path, "--method", "bogus")[0] == 2
    assert run("verify", path, str(circ))[:2] == (0, "equal verify-mode=exact\n")
    vc = tmp_path / "vc.txt"
    assert run("decompose", path, "--method", "vc", "--seed", "5", "--out", str(vc))[:2] == (0, "")
    assert run("decompose", path)[:2] == (0, bare)
    rows = tmp_path / "rows.csv"
    assert run("report", path, "--seed", "2", "--out", str(rows))[0] == 0
    assert run("report")[0] == 2
    assert run("verify", path, str(circ), "--verify", "sampled")[0] == 0
    assert run("decompose", path)[:2] == (0, bare)
    info = thdim.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 10)


def test_usage_errors(tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("not a graph\n")
    assert main(["recognize", str(bad)]) == 2
    assert main(["recognize", str(tmp_path / "missing.gr")]) == 2
    assert main(["decompose"]) == 2           # missing path
    assert main(["bogus-command"]) == 2


@pytest.mark.parametrize("argv", [
    "recognize DIR", "decompose DIR", "report DIR", "compile DIR", "verify DIR CIRC",
    "verify GRAPH DIR", "decompose GRAPH --method treewidth --td DIR", "experiment DIR",
    "decompose GRAPH --out DIR", "compile GRAPH --out DIR", "report GRAPH --out DIR",
    "experiment SPEC --out DIR", "decompose GRAPH --method maxdeg --diag DIR",
])
def test_a_directory_for_a_path_is_a_usage_error(tmp_path, capsys, argv):
    graph = write_graph(tmp_path, "k3.gr", complete_graph(3))
    circ = tmp_path / "c.txt"
    assert main(["compile", graph, "--out", str(circ)]) == 0
    spec = tmp_path / "spec.txt"
    spec.write_text("6 6 1\n")
    paths = {"DIR": str(tmp_path), "GRAPH": graph, "CIRC": str(circ), "SPEC": str(spec)}
    capsys.readouterr()
    assert main([paths.get(word, word) for word in argv.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "decompose GRAPH --method treewidth --out DIR",
    "decompose GRAPH --method treewidth --out MISSING",
    "decompose GRAPH --method maxdeg --diag DIR",
    "compile GRAPH --method maxdeg --diag MISSING --out OUT",
    "report GRAPH --out MISSING", "experiment SPEC --out DIR",
])
def test_a_path_that_cannot_be_written_is_refused_before_the_work(tmp_path, capsys,
                                                                 monkeypatch, argv):
    def work(*args, **kwargs):
        pytest.fail("the work started before the output path was checked")

    for name in ("_read_graph", "_run_method", "compute_report", "run_experiment"):
        monkeypatch.setattr(thdim.cli, name, work)
    graph = write_graph(tmp_path, "k3.gr", complete_graph(3))
    spec = tmp_path / "spec.txt"
    spec.write_text("6 6 1\n")
    paths = {"DIR": str(tmp_path), "GRAPH": graph, "SPEC": str(spec),
             "MISSING": str(tmp_path / "missing" / "x.txt"), "OUT": str(tmp_path / "c.txt")}
    assert main([paths.get(word, word) for word in argv.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists() and not (tmp_path / "c.txt").exists()


def test_the_path_check_creates_and_truncates_nothing(tmp_path, monkeypatch):
    def refused(*args, **kwargs):
        raise thdim.RandomizedSearchError("no luck", {})

    monkeypatch.setattr(thdim.cli, "_run_method", refused)
    graph = write_graph(tmp_path, "k3.gr", complete_graph(3))
    out = tmp_path / "earlier.dec"
    out.write_text("earlier\n")
    diag = tmp_path / "diag.txt"
    assert main(["decompose", graph, "--method", "maxdeg", "--out", str(out),
                 "--diag", str(diag)]) == 1
    assert out.read_text() == "earlier\n" and not diag.exists()


# a bad --td file -> its message, the same whether the file is parsed alone
# or validated against the graph
BAD_TD = {
    "s td 1 1 4\nb 1 0\n": "vertices [1, 2, 3] appear in no bag",
    "s td 1 3 3\nb\n": "line 2: expected 'b <id> <v...>'",
    "s td 1 3 3\nb 1 0 1 2\n": "decomposition is for n=3, graph has n=4",
    "s td 2 2 4\nb 1 0 1\nb 2 2 3\n1 2\n": "edge (1,2) is inside no bag",
    # one bag edge and a loop pass the symmetry test and the edge count
    "s td 2 3 4\nb 1 0 1 2\nb 2 2 3\n1 2\n1 1\n": "tree edge (1,1) is a loop",
}


@pytest.mark.parametrize("text", list(BAD_TD))
def test_bad_td_file_is_usage_error(tmp_path, capsys, text):
    path = write_graph(tmp_path, "p4.gr", path_graph(4))
    td = tmp_path / "bad.td"
    td.write_text(text)
    assert main(["decompose", path, "--method", "treewidth", "--td", str(td)]) == 2
    assert capsys.readouterr().err == f"error: {BAD_TD[text]}\n"


@pytest.mark.parametrize("argv_tail", [
    "recognize --seed 1", "recognize --out x", "recognize --exact-cap 8",
    "decompose --verify sampled", "compile --verify sampled",
    "verify --out x", "verify --exact-cap 8", "verify --method vc", "verify --td x",
    "verify --diag x", "verify --seed 1",
    "experiment --exact-cap 8",
    "decompose --exact-cap 8", "compile --exact-cap 8", "report --exact-cap 8",
])
def test_options_a_subcommand_does_not_read_are_usage_errors(tmp_path, argv_tail):
    command, *option = argv_tail.split()
    path = write_graph(tmp_path, "k3.gr", complete_graph(3))
    circ = tmp_path / "c.txt"
    assert main(["compile", path, "--out", str(circ)]) == 0
    spec = tmp_path / "spec.txt"
    spec.write_text("6 6 1\n")
    argv = {"recognize": ["recognize", path], "decompose": ["decompose", path],
            "compile": ["compile", path, "--out", str(tmp_path / "c2.txt")],
            "verify": ["verify", path, str(circ)], "report": ["report", path],
            "experiment": ["experiment", str(spec), "--out", str(tmp_path / "t.csv")]}[command]
    assert main(argv) == 0
    assert main(argv + option) == 2


@pytest.mark.parametrize("command", ["decompose", "compile"])
@pytest.mark.parametrize("option, method", [
    *[("--td", m) for m in ("vc", "degeneracy", "maxdeg", "exact")],
    *[("--diag", m) for m in ("vc", "degeneracy", "treewidth", "exact")],
])
def test_an_option_that_the_method_does_not_read_is_a_usage_error(tmp_path, capsys, command,
                                                                  option, method):
    path = write_graph(tmp_path, "p3.gr", path_graph(3))
    given, out = tmp_path / "given", tmp_path / "out.txt"
    assert main([command, path, "--method", method, option, str(given), "--out", str(out)]) == 2
    reader = {"--td": "treewidth", "--diag": "maxdeg"}[option]
    assert capsys.readouterr().err == (
        f"error: {option} applies only to --method {reader}, not {method}\n")
    assert not given.exists() and not out.exists()


def test_readme_options_table_matches_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for name, cell in re.findall(r"^\| `(\w+)` \| (.*) \|$", readme, re.MULTILINE):
        table[name] = set(re.findall(r"`(--[\w-]+)`", cell))
    for name, cell in re.findall(r"^\| `(\w+)` \| those of `(\w+)` \|$", readme, re.MULTILINE):
        table[name] = table[cell]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {name: {s for a in p._actions for s in a.option_strings
                       if s.startswith("--") and s != "--help"}
                for name, p in sub.choices.items()}
    assert table == declared
