"""The chunked edge-list writer.

`dump_graph(g, fh)` writes g a chunk of edges at a time. These tests pin
that its text is byte for byte the line-at-a-time rendering kept here, that
`load_graph` reads it back as g, and that the text held at once is one
chunk's, with no per-vertex table even when n is in the billions.
"""

import io
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distsparse import WeightedGraph, dump_graph, load_graph, load_graph_file
from distsparse import graph
from conftest import dense_random_graph

ROWS = graph._CHUNK_ROWS


def line_text(g):
    """The edge list rendered a line at a time, as one string."""
    lines = [f"n {g.n}", *map("{} {} {!r}".format, g.u.tolist(), g.v.tolist(), g.w.tolist())]
    return "\n".join(lines) + "\n"


def dumped(g):
    out = io.StringIO()
    dump_graph(g, out)
    return out.getvalue()


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# positive finite doubles from the smallest subnormal to near the largest,
# values whose shortest repr switches notation, and the edges of the range
# in which the writer's formatter is repr's text
WEIGHTS = st.floats(min_value=5e-324, max_value=1.79e308) | st.sampled_from(
    [3.0, 1e16, 1e-05, 1e-4, np.nextafter(1e-4, 0), 9999999999999998.0]
)


@st.composite
def graphs(draw):
    """Graphs of m edges around the chunk size; the ids spaced by `gap` from
    `base`, so that they reach 2^32 and beyond."""
    m = draw(st.sampled_from([0, 1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5]))
    weights = draw(st.lists(WEIGHTS, min_size=1, max_size=40))
    base = draw(st.sampled_from([0, 2**32 - 2, 2**32]) | st.integers(0, 2**40))
    gap = draw(st.sampled_from([1, 2**32 + 1]))
    c = 2
    while c * (c - 1) // 2 < m:
        c += 1
    u, v = np.triu_indices(c, 1)
    records = np.empty(m, graph.EDGE_DTYPE)
    records["u"], records["v"] = base + gap * u[:m], base + gap * v[:m]
    records["w"] = np.resize(np.array(weights), m)
    return WeightedGraph(base + gap * (c - 1) + 1 + draw(st.integers(0, 2)), records)


class _Writes(list):
    """A text stream that keeps every write."""

    write = list.append


class TestText:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_line_rendering_and_round_trip(self, g):
        text = dumped(g)
        assert text == line_text(g)
        assert load_graph(text) == g

    def test_weights_where_orjson_and_repr_part(self):
        # every power of ten times three mantissas, the neighbours of 1e-4
        # and 1e16, and the extreme doubles; a first chunk wholly inside
        # [1e-4, 1e16), then chunks mixing both sides
        inside = np.geomspace(1e-4, 1e15, ROWS)
        powers = [m * 10.0**e for e in range(-323, 309) for m in (1, 1.5, 9.999999999999999)]
        edges = [*np.nextafter([1e-4, 1e16], 0), *np.nextafter([1e-4, 1e16], np.inf), 1e-4, 1e16]
        extremes = [9999999999999998.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        w = np.concatenate([inside, np.resize([*powers, *edges, *extremes], 2 * ROWS)])
        records = np.empty(len(w), graph.EDGE_DTYPE)
        u, v = np.triu_indices(200, 1)
        records["u"], records["v"], records["w"] = u[: len(w)], v[: len(w)], w
        g = WeightedGraph(200, records[np.isfinite(w)])
        outside = [(c < 1e-4) | (c >= 1e16) for c in np.split(g.w, [ROWS, 2 * ROWS])]
        assert [o.any() for o in outside] == [False, True, True]
        assert [o.all() for o in outside] == [False, False, False]
        text = dumped(g)
        assert text == line_text(g)
        assert load_graph(text) == g

    def test_one_write_per_chunk(self):
        g = dense_random_graph(np.random.default_rng(1), 150, 0.9)
        writes = _Writes()
        dump_graph(g, writes)
        assert len(writes) == 1 + -(-g.m // ROWS) and g.m > 2 * ROWS
        assert "".join(writes) == line_text(g)


class TestBoundedMemory:
    def test_200k_edges_under_2_mb(self, tmp_path):
        # the whole text is 3 MB; rendered at once, with its lines and the
        # joined copy, the write peaked at about 19 MB
        g = dense_random_graph(np.random.default_rng(2), 800, 0.625)
        path = tmp_path / "g.el"
        with open(path, "w", encoding="utf-8") as fh:
            assert traced_peak(lambda: dump_graph(g, fh)) < 2 * 2**20
        assert path.read_text() == line_text(g)
        assert load_graph_file(path) == g

    def test_billions_of_vertices_no_per_vertex_table(self):
        # n * n does not fit in int64; a string per vertex would take
        # hundreds of GB
        n = 3_037_000_500
        g = WeightedGraph(n, [(0, 1, 1.0), (5, n - 1, 2.5), (n - 2, n - 1, 1e-300)])
        out = io.StringIO()
        assert traced_peak(lambda: dump_graph(g, out)) < 64 * 2**10
        assert out.getvalue() == line_text(g) == f"n {n}\n0 1 1.0\n5 {n - 1} 2.5\n{n - 2} {n - 1} 1e-300\n"
