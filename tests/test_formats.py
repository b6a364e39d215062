import pytest
from hypothesis import given, settings

from sepfacets import formats, graphs
from sepfacets.canon import generate_all
from sepfacets.formats import (
    FormatError,
    emit_edge_spec,
    emit_graph6,
    parse_edge_list,
    parse_edge_spec,
    parse_graph6,
)
from sepfacets.graphs import complete_graph, edges, from_edges

from conftest import graph_strategy


def test_decode_known_strings():
    k2 = parse_graph6("A_")
    assert k2.n == 2 and edges(k2) == [(0, 1)]
    k4 = parse_graph6("C~")
    assert k4 == complete_graph(4)


def test_reference_vector_from_format_docs():
    # the worked example shipped with the format definition
    g = parse_graph6("DQc")
    assert g.n == 5 and edges(g) == [(0, 2), (0, 4), (1, 3), (3, 4)]
    assert emit_graph6(g) == "DQc"


def test_header_tolerated():
    assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")


def test_round_trip_generated_corpus():
    # every class has one graph6 string
    for n in range(1, 8):
        for g in generate_all(n):
            line = emit_graph6(g)
            assert parse_graph6(line) == g
            assert emit_graph6(parse_graph6(line)) == line


@settings(max_examples=80, deadline=None)
@given(graph_strategy(max_n=12))
def test_round_trip_random(g):
    assert parse_graph6(emit_graph6(g)) == g


def test_long_form_for_63_vertices():
    for n, head in ((63, "~??~"), (64, "~?@?")):
        g = from_edges(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
        line = emit_graph6(g)
        assert line.startswith(head)
        assert parse_graph6(line) == g and emit_graph6(parse_graph6(line)) == line


def test_malformed_inputs(monkeypatch):
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6("C~~")  # trailing garbage
    with pytest.raises(FormatError):
        parse_graph6("C")  # body too short
    with pytest.raises(FormatError):
        parse_graph6("A" + chr(62))  # byte below 63
    with pytest.raises(FormatError):
        parse_graph6(chr(127) + "AA")  # byte above 126
    with pytest.raises(FormatError):
        parse_graph6("?")  # zero vertices
    # K3 is Bw and K4 is C~; the long form is for 63 vertices and more
    for line in ("~??Bw", "~??C~"):
        with pytest.raises(FormatError, match="below 63"):
            parse_graph6(line)
    with pytest.raises(FormatError, match="^graph6 sizes above 258047 are not supported$"):
        parse_graph6("~~")
    with pytest.raises(FormatError, match="^truncated graph6 size block$"):
        parse_graph6("~?")
    # the empty graph on 65 vertices: size block ~?@@, then 2080 zero bits
    monkeypatch.delenv("SEP_MAX_N", raising=False)
    with pytest.raises(FormatError, match=r"^vertex count 65 outside \[1, 64\]$"):
        parse_graph6("~?@@" + "?" * 347)


def test_parse_and_from_edges_read_the_cap_once(monkeypatch):
    # each checks the vertex cap before it builds a row, and builds no
    # second check into the Graph it returns
    reads = []
    for module in graphs, formats:
        monkeypatch.setattr(module, "max_vertices", lambda: reads.append(1) or 64)
    assert parse_graph6("C~") == complete_graph(4)
    assert len(reads) == 2  # complete_graph(4) goes through from_edges
    reads.clear()
    from_edges(5, [(0, 1), (3, 4)])
    parse_graph6("DQc")
    assert len(reads) == 2


def test_nonzero_padding_is_refused():
    # K3 is Bw: three edge bits 111, then three zero padding bits
    assert parse_graph6("Bw") == complete_graph(3)
    with pytest.raises(FormatError, match="nonzero padding"):
        parse_graph6("Bx")
    for n in range(2, 10):
        line = emit_graph6(complete_graph(n))
        for bit in range(-(n * (n - 1) // 2) % 6):
            with pytest.raises(FormatError, match="nonzero padding"):
                parse_graph6(line[:-1] + chr((ord(line[-1]) - 63 | 1 << bit) + 63))


def test_edge_list_round_trip():
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 4)])
    assert parse_edge_spec(emit_edge_spec(g)) == g
    assert emit_edge_spec(g) == "5 7;0 1;0 4;1 2;1 3;2 3;2 4;3 4"


def test_edge_list_errors():
    with pytest.raises(FormatError):
        parse_edge_list("")
    with pytest.raises(FormatError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(FormatError):
        parse_edge_list("3 2\n0 1\n")  # declared 2 edges, found 1
    with pytest.raises(FormatError):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(FormatError, match="^non-integer header 'x 1'$"):
        parse_edge_list("x 1\n0 1")
    with pytest.raises(FormatError, match="^expected 'i j' edge line, got '0 1 1'$"):
        parse_edge_list("2 1\n0 1 1")
    with pytest.raises(FormatError):
        parse_edge_spec("3 1;0 0")  # loop
