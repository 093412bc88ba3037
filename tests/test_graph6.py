import random

import pytest

from domguard.graph import (VERTEX_CAP, Graph, cartesian_product, complete, cycle, empty, path,
                            star)
from domguard.graph6 import (EdgeListError, Graph6Error, parse_edge_list, parse_graph6,
                             parse_graph6_lines, write_edge_list, write_graph6)

from conftest import random_graph


def test_k1_writes_as_at_sign():
    assert write_graph6(complete(1)) == "@"


def test_d_question_brace_round_trip():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert write_graph6(g) == "D?{"
    # that particular line happens to be a 5-vertex star centered at 4
    assert sorted(g.neighbors(4)) == [0, 1, 2, 3]


def test_known_encodings():
    assert write_graph6(empty(1)) == "@"
    assert write_graph6(complete(2)) == "A_"
    assert write_graph6(empty(2)) == "A?"
    assert parse_graph6("Bw") == complete(3)


def test_optional_header_is_accepted():
    assert parse_graph6(">>graph6<<A_") == complete(2)


def test_round_trip_random_graphs():
    rng = random.Random(123)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        assert parse_graph6(write_graph6(g)) == g


def test_round_trip_at_cap_via_long_header():
    g = empty(63)
    line = write_graph6(g)
    assert line.startswith("~")
    assert parse_graph6(line) == g
    g64 = Graph(64, [(0, 63)])
    assert parse_graph6(write_graph6(g64)) == g64
    top = Graph(VERTEX_CAP, [(0, VERTEX_CAP - 1), (1, 2), (VERTEX_CAP - 2, VERTEX_CAP - 1)])
    assert parse_graph6(write_graph6(top)) == top


def test_round_trip_ladder_of_order_400():
    ladder = cartesian_product(path(200), complete(2))
    line = write_graph6(ladder)
    assert line.startswith("~") and parse_graph6(line) == ladder


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("")
        assert exc.value.offset == 0

    def test_non_printable_byte(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("D?\x1f")
        assert exc.value.offset == 2

    def test_truncated_data(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D?")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("A_XYZ")
        assert exc.value.offset == 2

    def test_order_over_cap(self):
        with pytest.raises(Graph6Error, match="vertex cap 1024"):
            parse_graph6("~?O@")  # long-form header claiming n=1025 > cap

    def test_nonzero_padding_rejected(self):
        # K_2 is "A_": data byte '_' = 0b100000; flip a padding bit
        bad = "A" + chr(63 + 0b100001)
        with pytest.raises(Graph6Error):
            parse_graph6(bad)


def test_parser_never_crashes_on_printable_noise():
    rng = random.Random(99)
    alphabet = [chr(c) for c in range(63, 127)]
    for _ in range(500):
        noise = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        try:
            g = parse_graph6(noise)
        except Graph6Error:
            continue
        # anything accepted must round-trip exactly
        assert write_graph6(g) == noise


def test_parse_lines_skips_blanks_and_reports_line():
    graphs = parse_graph6_lines("@\n\nA_\n")
    assert [g.n for g in graphs] == [1, 2]
    with pytest.raises(Graph6Error) as exc:
        parse_graph6_lines("@\nZZZ~~\n")
    assert "line 2" in str(exc.value)


class TestEdgeList:
    def test_round_trip(self):
        g = Graph(5, [(0, 1), (2, 4)])
        assert parse_edge_list(write_edge_list(g)) == g

    def test_comments_and_isolated_vertices(self):
        text = "# fixture\nn 4\n0 1  # pendant\n"
        g = parse_edge_list(text)
        assert g.n == 4 and g.edge_count == 1

    def test_missing_header(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("0 1\n")

    def test_bad_tokens(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("n x\n")
        with pytest.raises(EdgeListError):
            parse_edge_list("n 3\n0 a\n")
        with pytest.raises(EdgeListError):
            parse_edge_list("n 3\n1 1\n")
        with pytest.raises(EdgeListError):
            parse_edge_list("n 3\n0 5\n")
