"""Every text format is read through one line reader: the same comment rule,
the same line breaks, the same refusal of a token that is not a number (an
error naming its line), and the same value from a text, a list of its lines
and an open file."""

import time

import pytest

from thdim import (ParseError, compile_circuit, decompose_vertex_cover,
                   format_circuit, format_decomposition, parse_circuit, parse_decomposition,
                   parse_edge_list, parse_experiment_spec, path_graph)
from thdim.cli import main
from thdim.treedecomp import read_tree_decomposition

_CIRCUIT = format_circuit(compile_circuit(path_graph(4), decompose_vertex_cover(path_graph(4))))
_DECOMPOSITION = format_decomposition(decompose_vertex_cover(path_graph(4)))

# format -> (parser, a valid text whose first line is its header, and the
# (line index, token index) of a number in its header and in a body line)
FORMATS = {
    "edge-list": (parse_edge_list, "p 3 2\n0 1\n1 2\n", (0, 2), (2, 0)),
    "tree-decomposition": (read_tree_decomposition, "s td 2 2 3\nb 1 0 1\nb 2 1 2\n1 2\n",
                           (0, 3), (2, 2)),
    "decomposition": (parse_decomposition, _DECOMPOSITION, (0, 2), (1, 1)),
    "circuit": (parse_circuit, _CIRCUIT, (0, 1), (1, 3)),
    "experiment-spec": (parse_experiment_spec, "6 6 1\n8 10 2\n", (0, 0), (1, 2)),
}


def _replace(text, where, token):
    lines = text.splitlines()
    i, j = where
    tokens = lines[i].split()
    tokens[j] = token
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_a_trailing_comment_is_dropped_in_every_format(name):
    parse, text, _, (body, _) = FORMATS[name]
    lines = text.splitlines()
    lines[0] += "  # the header"
    lines[body] += "\t#an entry #with a second hash"
    assert parse("\n".join(lines) + "\n") == parse(text)


@pytest.mark.parametrize("name", sorted(FORMATS))
@pytest.mark.parametrize("part", ["header", "body"])
def test_a_token_that_is_not_a_number_names_its_line(name, part):
    parse, text, header, body = FORMATS[name]
    where = header if part == "header" else body
    # a comment and a blank line first, so the line number is not the index
    bad = "# leading comment\n\n" + _replace(text, where, "x")
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert str(err.value).startswith(f"line {where[0] + 3}: ") and "'x'" in str(err.value)


def test_a_vertex_of_a_creation_token_that_is_not_a_number_names_its_line():
    lines = _DECOMPOSITION.splitlines()
    tokens = lines[2].split()
    tokens[2] = "x:" + tokens[2].partition(":")[2]
    lines[2] = " ".join(tokens)
    with pytest.raises(ParseError, match=r"^line 3: .*'x'$"):
        parse_decomposition("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_a_text_its_lines_and_an_open_file_give_the_same_value(tmp_path, name):
    parse, text, _, _ = FORMATS[name]
    path = tmp_path / "input.txt"
    path.write_text("# a comment\r\n\r\n" + text.replace("\n", "\r\n"), newline="")
    expected = parse(text)
    assert parse(text.splitlines()) == expected
    assert parse(text.splitlines(keepends=True)) == expected
    with open(path, encoding="utf-8") as lines:
        assert parse(lines) == expected


def test_a_text_breaks_into_lines_only_at_newline_and_carriage_return():
    for newline in ("\n", "\r", "\r\n"):
        assert parse_edge_list(newline.join(["p 3 2", "0 1", "1 2", ""])) == path_graph(3)
    for separator in ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        with pytest.raises(ParseError, match="^line 1: expected header"):
            parse_edge_list(separator.join(["p 3 2", "0 1", "1 2", ""]))


# the three inputs the command line read through `Path.read_text` and
# `str.splitlines`, which also broke lines at the separators below
CLI_INPUTS = {
    "graph": (["p 3 2", "0 1", "1 2"], ["recognize", "FILE"]),
    "td": (["s td 2 2 3", "b 1 0 1", "b 2 1 2", "1 2"],
           ["decompose", "GRAPH", "--method", "treewidth", "--td", "FILE"]),
    "spec": (["6 6 1", "6 7 1"], ["experiment", "FILE"]),
}


@pytest.mark.parametrize("name", sorted(CLI_INPUTS))
@pytest.mark.parametrize("separator", ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x85",
                                       "\u2028", "\u2029"])
def test_the_command_line_breaks_input_lines_only_at_newline_and_carriage_return(
        tmp_path, capsys, name, separator):
    lines, argv = CLI_INPUTS[name]
    graph = tmp_path / "p3.gr"
    graph.write_text("p 3 2\n0 1\n1 2\n")
    path = tmp_path / "input.txt"
    path.write_text(separator.join(lines) + separator, encoding="utf-8", newline="")
    paths = {"FILE": str(path), "GRAPH": str(graph)}
    code = main([paths.get(word, word) for word in argv])
    err = capsys.readouterr().err
    if separator in ("\n", "\r", "\r\n"):
        assert code == 0
    else:
        assert code == 2 and err.startswith("error: line 1: ")


def test_a_spec_row_above_max_edges_is_refused_before_any_draw(tmp_path, capsys):
    spec = tmp_path / "hostile.txt"
    spec.write_text("6 6 1\n100000 4999950000 1\n")
    start = time.perf_counter()
    assert main(["experiment", str(spec)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == \
        "refused: line 2: m=4999950000 exceeds the cap MAX_EDGES = 1000000\n"


def test_a_spec_row_at_max_edges_is_accepted():
    assert parse_experiment_spec("# at the cap\n2000 1000000 1\n") == [(2000, 1000000, 1)]


def test_an_edge_list_is_not_capped_by_max_edges():
    # MAX_EDGES bounds what an experiment draws; a file holds its own edges
    with pytest.raises(ParseError, match="^line 1: header promised 2000000 edges"):
        parse_edge_list("p 2000 2000000\n")
