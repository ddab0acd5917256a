"""Every text parser, fed a valid-looking header and random token lines,
returns a value or raises ValueError (ParseError and TreeDecompositionError
are ValueErrors), never another exception, and gives the same outcome when
fed the text as a list of its lines.

Header integers stay small: a huge vertex count is a size question, not a
format one."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thdim import (path_graph, parse_circuit, parse_decomposition, parse_edge_list,
                   parse_experiment_spec, parse_threshold)
from thdim.decompose import METHODS

from helpers import read_valid

SMALL = st.integers(-3, 50)
TOKEN = st.one_of(SMALL.map(str), st.sampled_from(
    ["b", "gate", "ts", "p", "s", "td", "c", "#", "x", ":", "0:i", "1:d", "2:i", "-1:d",
     "3:q", "0:", "1.5"]))


@st.composite
def texts(draw, header, keyword):
    """`header` with each integer field near zero, small, or equal to the
    number of body lines, so that counts in the header often match the body;
    body lines often start with the format's line keyword."""
    line = st.tuples(st.one_of(st.just(keyword), TOKEN), st.lists(TOKEN, max_size=5))
    lines = [" ".join([first, *rest]) for first, rest in draw(st.lists(line, max_size=4))]
    field = st.one_of(st.just(len(lines)), st.integers(-3, 3), SMALL)
    fields = [draw(field) for _ in range(header.count("{}"))]
    method = draw(st.sampled_from(METHODS + ("bogus",)))
    return "\n".join([header.format(*fields, method=method)] + lines) + "\n"


def _td_with_graph(text):
    return read_valid(text, path_graph(4))


# parser -> its header line, with {} for each integer field, its line
# keyword, and inputs that once crashed it, replayed on every run because
# random draws seldom make several header fields and a line agree at once
PARSERS = {
    "edge-list": (parse_edge_list, "p {} {}", "0", ()),
    "tree-decomposition": (read_valid, "s td {} {} {}", "b",
                           ("s td 1 3 3\nb\n",)),
    "tree-decomposition-with-graph": (_td_with_graph, "s td {} {} {}", "b",
                                      ("s td 1 3 3\nb\n",)),
    "circuit": (parse_circuit, "ltf-and {} {}", "gate", ("ltf-and -1 1\ngate\n",)),
    "threshold": (parse_threshold, "ts {}", "0:i", ()),
    "decomposition": (parse_decomposition, "td-decomp {method} {}", "ts", ()),
    "experiment-spec": (parse_experiment_spec, "{} {} {}", "1", ()),
}


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_parser_raises_only_value_errors(name):
    parse, header, keyword, crashers = PARSERS[name]

    def check(text):
        # fed as a list of its lines, the parser reads the same file
        assert _outcome(parse, text.splitlines(keepends=True)) == _outcome(parse, text)

    test = given(texts(header, keyword))(check)
    for text in crashers:
        test = example(text)(test)
    settings(max_examples=150, deadline=None)(test)()
