import tracemalloc

import numpy as np
import pytest

import trimat as tm
from trimat import graph
from trimat.graph import degrees_all

from .conftest import scalar_triangle_exists


def test_from_edge_list_single_triangle(single_triangle):
    g = single_triangle
    assert g.ab.get(0, 0) and g.ac.get(0, 0) and g.bc.get(0, 0)


def test_from_edge_list_edgeless_and_duplicates():
    g = tm.from_edge_list(2, 2, 2, [])
    assert g.ab.count() == g.ac.count() == g.bc.count() == 0

    g2 = tm.from_edge_list(1, 1, 1, [("AB", 0, 0), ("AB", 0, 0)])
    assert g2.ab.count() == 1


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(IndexError):
        tm.from_edge_list(1, 1, 1, [("AB", 0, 5)])
    with pytest.raises(ValueError):
        tm.from_edge_list(1, 1, 1, [("AD", 0, 0)])


def test_degree_sums_match_edge_counts():
    rng = tm.CounterRng(53)
    g = tm.random_tripartite(rng, 30, 30, 30, 0.2)
    sub = g.full_view()
    db, dc = degrees_all(g, sub)
    assert int(db.sum()) == g.ab.count()
    assert int(dc.sum()) == g.ac.count()


def test_degree_trivial(single_triangle):
    sub = single_triangle.full_view()
    assert tm.degree(single_triangle, sub, 0, "B") == 1
    assert tm.degree(single_triangle, sub, 0, "C") == 1

    edgeless = tm.from_edge_list(3, 3, 3, [])
    assert tm.degree(edgeless, edgeless.full_view(), 1, "B") == 0


def test_degree_matches_scalar_count_on_random_views():
    rng = tm.CounterRng(59)
    g = tm.random_tripartite(rng, 25, 40, 35, 0.3)
    sub = tm.SubInstance(
        g,
        np.arange(0, 25, 2),
        np.arange(1, 40, 3),
        np.arange(0, 35, 4),
    )
    for v in sub.ia:
        v = int(v)
        expect_b = sum(1 for b in sub.ib if g.ab.get(v, int(b)))
        expect_c = sum(1 for c in sub.ic if g.ac.get(v, int(c)))
        assert tm.degree(g, sub, v, "B") == expect_b
        assert tm.degree(g, sub, v, "C") == expect_c
        assert tm.degree(g, sub, v, "B") == len(tm.neighborhood(g, sub, v, "B"))


def test_degree_requires_vertex_in_view():
    g = tm.from_edge_list(4, 4, 4, [])
    sub = tm.SubInstance(g, [0, 2], np.arange(4), np.arange(4))
    with pytest.raises(ValueError):
        tm.degree(g, sub, 1, "B")
    with pytest.raises(ValueError):
        tm.neighborhood(g, sub, 3, "C")


def test_neighborhood_trivial(single_triangle):
    sub = single_triangle.full_view()
    assert list(tm.neighborhood(single_triangle, sub, 0, "B")) == [0]

    edgeless = tm.from_edge_list(2, 2, 2, [])
    assert len(tm.neighborhood(edgeless, edgeless.full_view(), 0, "B")) == 0


def test_neighborhood_and_complement_partition_the_part():
    rng = tm.CounterRng(61)
    g = tm.random_tripartite(rng, 20, 33, 27, 0.4)
    sub = tm.SubInstance(g, np.arange(20), np.arange(0, 33, 2), np.arange(1, 27, 2))
    for v in (0, 7, 19):
        for part in ("B", "C"):
            nbh = tm.neighborhood(g, sub, v, part)
            indices = sub.ib if part == "B" else sub.ic
            rest = np.setdiff1d(indices, nbh, assume_unique=True)
            merged = np.sort(np.concatenate([nbh, rest]))
            assert np.array_equal(merged, indices)


def test_graph_text_roundtrip_with_comments():
    text = "# tiny instance\n3 2 2\nAB 0 1\n\nAC 2 0  # trailing note\nBC 1 1\n"
    g = tm.parse_graph_text(text)
    assert (g.nA, g.nB, g.nC) == (3, 2, 2)
    assert g.ab.get(0, 1) and g.ac.get(2, 0) and g.bc.get(1, 1)
    again = tm.parse_graph_text(tm.format_graph_text(g))
    assert tm.format_graph_text(again) == tm.format_graph_text(g)


def test_graph_text_errors_carry_line_numbers():
    with pytest.raises(tm.FormatError) as err:
        tm.parse_graph_text("2 2 2\nXY 0 0\n")
    assert err.value.line_no == 2
    with pytest.raises(tm.FormatError) as err:
        tm.parse_graph_text("2 2 2\nAB 0 9\n")
    assert err.value.line_no == 2
    with pytest.raises(tm.FormatError):
        tm.parse_graph_text("")


def test_three_copy_construction_preserves_triangles():
    # K3 has a triangle, the 4-path does not.
    k3 = tm.from_general_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert tm.detect(k3).found
    path = tm.from_general_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not tm.detect(path).found

    rng = tm.CounterRng(71)
    for _ in range(20):
        n = 3 + rng.next_below(8)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.next_below(3) == 0
        ]
        g3 = tm.from_general_graph(n, edges)
        eset = set(edges)

        def has(u, v):
            return (u, v) in eset or (v, u) in eset

        expect = any(
            has(a, b) and has(a, c) and has(b, c)
            for a in range(n)
            for b in range(a + 1, n)
            for c in range(b + 1, n)
        )
        assert tm.detect(g3).found == expect
        assert scalar_triangle_exists(g3) == expect


def test_three_copy_construction_matches_per_edge_sets():
    rng = tm.CounterRng(97)
    for n in (1, 2, 7, 64, 65, 130):
        edges = [(rng.next_below(n), rng.next_below(n)) for _ in range(3 * n)]
        # repeats in both orientations and explicit self-loops
        edges += [(v, u) for u, v in edges[: n // 2]] + edges[:3] + [(0, 0), (n - 1, n - 1)]
        expect = tm.TripartiteGraph(n, n, n)
        for u, v in edges:
            if u != v:
                for m in (expect.ab, expect.ac, expect.bc):
                    m.set(u, v)
                    m.set(v, u)
        got = tm.from_general_graph(n, edges)
        assert (got.ab, got.ac, got.bc) == (expect.ab, expect.ac, expect.bc)
    assert tm.from_general_graph(3, []).ab.count() == 0
    with pytest.raises(IndexError):
        tm.from_general_graph(3, [(0, 3)])


# -- edge-list building and the graph text format against per-edge code ----


def _edge_list_reference(na, nb, nc, edges):
    """One range-checked BitMatrix.set per edge."""
    g = tm.TripartiteGraph(na, nb, nc)
    for pair, i, j in edges:
        getattr(g, pair.lower()).set(i, j)
    return g


def _format_reference(g):
    out = [f"{g.nA} {g.nB} {g.nC}"]
    for pair, m in (("AB", g.ab), ("AC", g.ac), ("BC", g.bc)):
        for i in range(m.rows):
            for j in range(m.cols):
                if m.get(i, j):
                    out.append(f"{pair} {i} {j}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize(
    "sizes",
    [
        (0, 1, 7), (1, 1, 1), (7, 63, 64), (65, 130, 1), (64, 0, 65), (5, 7, 0), (0, 0, 0),
        # decimal width boundaries of the largest endpoint
        (10, 11, 1), (100, 101, 2), (1001, 1, 11),
    ],
)
def test_edge_list_and_text_match_per_edge_references(sizes):
    na, nb, nc = sizes
    rng = tm.CounterRng(sum(sizes))
    shapes = {"AB": (na, nb), "AC": (na, nc), "BC": (nb, nc)}
    edges = [
        (pair, rng.next_below(r), rng.next_below(c))
        for pair, (r, c) in shapes.items()
        if r and c
        for _ in range(r + c)
    ]
    edges += edges[:5]  # duplicates
    expect = _edge_list_reference(na, nb, nc, edges)
    got = tm.from_edge_list(na, nb, nc, iter(edges))
    assert (got.ab, got.ac, got.bc) == (expect.ab, expect.ac, expect.bc)

    text = tm.format_graph_text(got)
    assert text == _format_reference(expect)
    again = tm.parse_graph_text(text)
    assert (again.ab, again.ac, again.bc) == (expect.ab, expect.ac, expect.bc)

    edgeless = tm.TripartiteGraph(na, nb, nc)
    assert tm.format_graph_text(edgeless) == _format_reference(edgeless)


def test_graph_text_names_first_offending_line():
    for text, line in [
        ("2 2 2\nAB 0 0\nAB 0 x\nAB 9 9\n", 3),
        ("2 2 2\nAB 0 0\n\nBC 2 0\nXY 0 0\n", 4),
        ("2 2 2\nAC 1 1\nAC 1 -1\n", 3),
        ("10000000000 1 1\nAB 0 0\nAB 0 5\n", 3),
    ]:
        with pytest.raises(tm.FormatError) as err:
            tm.parse_graph_text(text)
        assert err.value.line_no == line


# -- the bulk parser against the line parser --------------------------------


def _outcome(parse, text):
    """The parsed graph's sizes and matrices, or the FormatError's line and message."""
    try:
        g = parse(text)
    except tm.FormatError as exc:
        return "error", exc.line_no, str(exc)
    return "graph", (g.nA, g.nB, g.nC), (g.ab, g.ac, g.bc)


def _mutants(text, rng):
    """(name, text) pairs, each a canonical text with one edge line or its end changed."""
    head, body = text.split("\n", 1)
    lines = body.splitlines(keepends=True)
    k = rng.next_below(len(lines))
    pair, i, j = lines[k].split()
    big = str(max(int(x) for x in head.split()))  # out of range for every pair

    def at(*new):
        return "".join([head, "\n", *lines[:k], *new, *lines[k + 1 :]])

    yield "comment line", at("# note\n", lines[k])
    yield "trailing comment", at(f"{pair} {i} {j} # note\n")
    yield "blank line", at("\n", lines[k])
    yield "crlf", at(f"{pair} {i} {j}\r\n")
    yield "tab", at(f"{pair}\t{i} {j}\n")
    yield "double space", at(f"{pair} {i}  {j}\n")
    yield "form feed", at(f"{pair} {i} {j}\x0c\n")
    yield "leading zero", at(f"{pair} 0{i} {j}\n")
    yield "plus sign", at(f"{pair} +{i} {j}\n")
    yield "minus zero", at(f"{pair} {i} -0\n")
    yield "20-digit endpoint", at(f"{pair} {'9' * 20} {j}\n")
    yield "20-digit zero-padded endpoint", at(f"{pair} {i} {j.zfill(20)}\n")
    yield "i out of range", at(f"{pair} {big} {j}\n")
    yield "j out of range", at(f"{pair} {i} {big}\n")
    yield "letter endpoint", at(f"{pair} {i} C\n")
    yield "digit before the pair", at(f"1{pair} {i} {j}\n")
    yield "lowercase pair", at(f"{pair.lower()} {i} {j}\n")
    yield "reversed pair", at(f"{pair[::-1]} {i} {j}\n")
    yield "two fields", at(f"{pair} {i}\n")
    yield "four fields", at(f"{pair} {i} {j} 0\n")
    yield "no final newline", text[:-1]
    yield "digit after the final newline", text + "7"
    yield "header only", head
    yield "empty body", head + "\n"


@pytest.mark.parametrize("window", [graph._WINDOW, 64])
@pytest.mark.parametrize("sizes", [(1, 1, 1), (0, 3, 4), (5, 1, 7), (12, 30, 9), (64, 65, 130)])
def test_bulk_parser_agrees_with_the_line_parser(monkeypatch, window, sizes):
    # a small window makes every text span many windows, cut at many line ends
    monkeypatch.setattr(graph, "_WINDOW", window)
    rng = tm.CounterRng(sum(sizes) + window)
    g = tm.random_tripartite(rng, *sizes, 0.3)
    if g.ab.count() + g.ac.count() + g.bc.count() == 0:
        g.bc = tm.BitMatrix.from_coords(g.nB, g.nC, [g.nB - 1], [g.nC - 1])
    text = tm.format_graph_text(g)
    fast, slow = graph._parse_canonical(text), graph._parse_graph_lines(text)
    assert fast is not None  # the canonical text must not fall back
    assert (fast.ab, fast.ac, fast.bc) == (slow.ab, slow.ac, slow.bc)
    for name, mutant in _mutants(text, rng):
        expect = _outcome(graph._parse_graph_lines, mutant)
        assert _outcome(tm.parse_graph_text, mutant) == expect, name


def test_bulk_parse_peak_memory_is_at_most_the_line_parsers():
    g = tm.random_tripartite(tm.CounterRng(3), 256, 256, 256, 0.45)
    text = tm.format_graph_text(g)
    assert text.count("\n") > 85_000 and len(text) > 3 * graph._WINDOW
    assert graph._parse_canonical(text) is not None
    peaks = []
    for parse in (tm.parse_graph_text, graph._parse_graph_lines):
        tracemalloc.start()
        try:
            got = parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (got.ab, got.ac, got.bc) == (g.ab, g.ac, g.bc)
    assert peaks[0] <= peaks[1]
