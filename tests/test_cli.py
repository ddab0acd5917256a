import pytest

from thdim import (GraphicFunction, complete_graph, cycle_graph, disjoint_cliques, gen_gnm,
                   ltfs_to_graph, parse_circuit, parse_decomposition, path_graph,
                   star_graph, verify_circuit, verify_decomposition, write_edge_list)
from thdim.cli import main


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


def test_decompose_vc_star(tmp_path):
    path = write_graph(tmp_path, "star.gr", star_graph(5))
    out = tmp_path / "d.txt"
    assert main(["decompose", path, "--method", "vc", "--out", str(out)]) == 0
    d = parse_decomposition(out.read_text())
    assert d.size == 1
    assert verify_decomposition(star_graph(5), d).ok


def test_decompose_degeneracy_c10(tmp_path):
    path = write_graph(tmp_path, "c10.gr", cycle_graph(10))
    out = tmp_path / "d.txt"
    assert main(["decompose", path, "--method", "degeneracy", "--seed", "7",
                 "--out", str(out)]) == 0
    d = parse_decomposition(out.read_text())
    assert d.size <= 60
    assert verify_decomposition(cycle_graph(10), d).ok


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
    assert verify_decomposition(cycle_graph(12), d).ok


def test_decompose_maxdeg_diagnostics(tmp_path):
    path = write_graph(tmp_path, "c12.gr", cycle_graph(12))
    diag = tmp_path / "diag.txt"
    assert main(["decompose", path, "--method", "maxdeg", "--diag", str(diag),
                 "--out", str(tmp_path / "d.txt")]) == 0
    text = diag.read_text()
    assert "maxdeg delta=2" in text
    assert "suitable family" in text and "partition sizes" in text


def test_decompose_deterministic_output(tmp_path):
    path = write_graph(tmp_path, "g.gr", cycle_graph(9))
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["decompose", path, "--method", "degeneracy", "--seed", "3", "--out", str(out1)])
    main(["decompose", path, "--method", "degeneracy", "--seed", "3", "--out", str(out2)])
    assert out1.read_text() == out2.read_text()


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
    assert verify_circuit(GraphicFunction(g), c) == (True, None)
    assert ltfs_to_graph(c.gates) == g


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


def test_usage_errors(tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("not a graph\n")
    assert main(["recognize", str(bad)]) == 2
    assert main(["recognize", str(tmp_path / "missing.gr")]) == 2
    assert main(["decompose"]) == 2           # missing path
    assert main(["bogus-command"]) == 2


@pytest.mark.parametrize("text", ["s td 1 1 4\nb 1 0\n", "s td 1 3 3\nb\n"])
def test_bad_td_file_is_usage_error(tmp_path, text):
    path = write_graph(tmp_path, "p4.gr", path_graph(4))
    td = tmp_path / "bad.td"
    td.write_text(text)
    assert main(["decompose", path, "--method", "treewidth", "--td", str(td)]) == 2


@pytest.mark.parametrize("argv_tail", [
    "recognize --seed 1", "recognize --out x", "recognize --exact-cap 8",
    "decompose --verify sampled", "compile --verify sampled",
    "verify --out x", "verify --exact-cap 8", "verify --method vc", "verify --td x",
    "verify --diag x", "verify --seed 1",
    "experiment --exact-cap 8",
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
            "verify": ["verify", path, str(circ)],
            "experiment": ["experiment", str(spec), "--out", str(tmp_path / "t.csv")]}[command]
    assert main(argv) == 0
    assert main(argv + option) == 2
