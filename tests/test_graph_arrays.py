"""The array-backed graph against per-edge references kept here.

Each reference is the per-edge Python loop the graph layer used before it
stored its edges as arrays: validation, Laplacian, degrees, induced
subgraph, connected components and the line-by-line edge-list parser. The
array code must give the same graph (bit for bit), or the same error
message for the same first offending edge or line.
"""

import io
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from collections import deque
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distsparse.graph as graph_mod
from distsparse import (
    ParseError,
    WeightedGraph,
    connected_components,
    dump_graph,
    induced_subgraph,
    kmeans,
    laplacian,
    load_graph,
    load_graph_file,
    sparsify_er,
)

# --- references: the per-edge loops -------------------------------------


def reference_graph(n, edges):
    """(n, sorted edges) as the per-edge validation stored them, or its
    ValueError."""
    if n < 1:
        raise ValueError("vertex count must be positive")
    seen = set()
    norm = []
    for u, v, w in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex id out of range: ({u}, {v}) with n={n}")
        w = float(w)
        if not w > 0:
            raise ValueError(f"non-positive weight {w} on edge ({u}, {v})")
        if math.isinf(w):
            raise ValueError(f"non-finite weight {w} on edge ({u}, {v})")
        p = (u, v) if u < v else (v, u)
        if p in seen:
            raise ValueError(f"duplicate edge {p}")
        seen.add(p)
        norm.append((p[0], p[1], w))
    norm.sort()
    return n, tuple(norm)


def lexsort_reference(n, rec):
    """(n, sorted edges) or the first offence's ValueError, from an
    `EDGE_DTYPE` array, with duplicates found by a stable `np.lexsort` scan
    over (lo, hi): a pair's first edge in input order is kept."""
    lo, hi = np.minimum(rec["u"], rec["v"]), np.maximum(rec["u"], rec["v"])
    order = np.lexsort((hi, lo))
    same = (lo[order][1:] == lo[order][:-1]) & (hi[order][1:] == hi[order][:-1])
    dup = np.zeros(len(rec), dtype=bool)
    dup[order[1:][same]] = True
    for (u, v, w), is_dup in zip(rec.tolist(), dup.tolist()):
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex id out of range: ({u}, {v}) with n={n}")
        if not w > 0:
            raise ValueError(f"non-positive weight {w} on edge ({u}, {v})")
        if math.isinf(w):
            raise ValueError(f"non-finite weight {w} on edge ({u}, {v})")
        if is_dup:
            raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
    return n, tuple(sorted((min(u, v), max(u, v), w) for u, v, w in rec.tolist()))


def reference_laplacian(g):
    L = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        L[u, v] -= w
        L[v, u] -= w
        L[u, u] += w
        L[v, v] += w
    return L


def reference_degrees(g):
    d = np.zeros(g.n)
    for u, v, w in g.edges:
        d[u] += w
        d[v] += w
    return d


def reference_induced(g, pairs):
    wanted = {(u, v) if u < v else (v, u) for u, v in pairs}
    missing = wanted - {(u, v) for u, v, _ in g.edges}
    if missing:
        raise ValueError(f"edges not present in graph: {sorted(missing)}")
    return g.n, tuple(e for e in g.edges if (e[0], e[1]) in wanted)


def reference_components(g):
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def reference_load(text):
    """The line-by-line parser: (n, sorted edges) or its ParseError."""
    n_header = None
    triples = []
    seen = {}
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if first_data_line and parts[0] == "n":
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                n_header = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n_header < 1:
                raise ParseError(f"line {lineno}: vertex count must be positive")
            first_data_line = False
            continue
        first_data_line = False
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: malformed edge {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not w > 0:
            raise ParseError(f"line {lineno}: weight must be strictly positive, got {w}")
        if math.isinf(w):
            raise ParseError(f"line {lineno}: weight must be finite, got {w}")
        p = (u, v) if u < v else (v, u)
        if p in seen:
            raise ParseError(f"line {lineno}: duplicate edge {p} (first at line {seen[p]})")
        seen[p] = lineno
        triples.append((u, v, w))
    if n_header is None:
        if not triples:
            raise ParseError("empty edge list and no 'n <count>' header")
        n = max(max(u, v) for u, v, _ in triples) + 1
    else:
        n = n_header
        for u, v, _ in triples:
            if u >= n or v >= n:
                raise ParseError(f"vertex id {max(u, v)} exceeds declared count {n}")
    return reference_graph(n, tuple(triples))


def outcome(fn, *args):
    """("ok", value) or (exception type name, message)."""
    try:
        return "ok", fn(*args)
    except (ValueError, ParseError) as exc:
        return type(exc).__name__, str(exc)


def as_pair(g):
    return g.n, g.edges


# --- strategies -----------------------------------------------------------

# mostly valid edges over a few vertices, so that duplicates are common and
# the first offence often comes after a duplicated pair
GOOD_WEIGHTS = st.floats(min_value=1e-3, max_value=1e3)
WEIGHTS = st.one_of(GOOD_WEIGHTS, GOOD_WEIGHTS, GOOD_WEIGHTS, st.sampled_from([0.0, -0.0, -1.5, float("nan"), float("inf"), 1e-300, 3]))
IDS = st.one_of(*[st.integers(0, 4)] * 6, st.integers(-2, 9), st.sampled_from([2**63, 10**20, -(10**20)]))


@st.composite
def raw_graphs(draw):
    """(n, triples) with ids, weights and pairs that may break any rule."""
    n = draw(st.one_of(st.just(5), st.integers(-1, 8)))
    triples = draw(st.lists(st.tuples(IDS, IDS, WEIGHTS), max_size=12))
    return n, triples


# in-range ids that repeat pairs, beside ids for which lo * n + hi wraps
# in int64 at n = 4 or 8 (2**62 * 4 = 2**64) and can collide with an
# in-range pair's key
KEY_IDS = st.one_of(
    *[st.integers(0, 7)] * 4, st.sampled_from([-1, -(2**61), -(2**62), 2**61, 2**62, 2**62 + 1, 2**63 - 1])
)


@st.composite
def shuffled_records(draw):
    """(n, EDGE_DTYPE array) in shuffled order, with repeated edges."""
    n = draw(st.sampled_from([3, 4, 7, 8]))
    triples = draw(st.lists(st.tuples(KEY_IDS, KEY_IDS, WEIGHTS), max_size=16))
    if triples:
        triples += draw(st.lists(st.sampled_from(triples), max_size=4))
    triples = draw(st.permutations(triples))
    return n, np.array(triples, dtype=graph_mod.EDGE_DTYPE)


@st.composite
def valid_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=len(chosen), max_size=len(chosen)))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    triples = [(v, u, w) if f else (u, v, w) for (u, v), w, f in zip(chosen, weights, flips)]
    return WeightedGraph(n, triples)


INT_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "4", "+1", "007", "-1", "1_0", "٣", "99999999999999999999", "9223372036854775807", "1.0", "x", "n"]
)
FLOAT_TOKENS = st.sampled_from(
    ["1.0", "2.5", "0.1", "3", "1_0", "0", "-1.5", "inf", "nan", "1e999", ".5", "5.", "1e-3", "٢", "0x1p3", "1,5", "-0", "Infinity"]
)
SEPS = st.sampled_from([" ", "  ", "\t", " \t"])
PADS = st.sampled_from(["", "", "", " ", "\t"])
TAILS = st.sampled_from(["", "", "", " ", " # c", "#c", "\t"])


@st.composite
def data_lines(draw):
    u, v, w = draw(INT_TOKENS), draw(INT_TOKENS), draw(FLOAT_TOKENS)
    return draw(PADS) + u + draw(SEPS) + v + draw(SEPS) + w + draw(TAILS)


OTHER_LINES = st.sampled_from(
    ["", "   ", "# comment", "  # indented comment", "# a # b", "n 4", "n 0", "n x", "n 3 4", "n 1_0", "0 1", "0 1 1.0 2", "é"]
)
NEWLINES = st.sampled_from(["\n"] * 12 + ["\r\n", "\r", "\x0b", " "])


@st.composite
def edge_list_texts(draw):
    header = draw(st.sampled_from(["", "", "n 5\n", "n 3\n", "# head\nn 6\n", "n 2\n"]))
    lines = draw(st.lists(st.one_of(data_lines(), data_lines(), data_lines(), OTHER_LINES), max_size=10))
    text = header
    for line in lines:
        text += line + draw(NEWLINES)
    if draw(st.booleans()) and text.endswith("\n"):
        text = text[:-1]
    return text


# --- validation -----------------------------------------------------------


class TestValidation:
    @given(raw_graphs())
    @settings(max_examples=400, deadline=None)
    @example((2, ((0, 1, math.inf),)))
    @example((3, ((0, 1, 1.0), (1, 2, -math.inf))))
    def test_same_graph_or_same_first_offence(self, case):
        n, triples = case
        assert outcome(lambda: as_pair(WeightedGraph(n, triples))) == outcome(reference_graph, n, triples)

    @given(raw_graphs())
    @settings(max_examples=100, deadline=None)
    def test_records_input_agrees_with_triples(self, case):
        n, triples = case
        small = [(u, v, w) for u, v, w in triples if abs(u) < 2**62 and abs(v) < 2**62]
        rec = np.array(small, dtype=graph_mod.EDGE_DTYPE)
        assert outcome(lambda: as_pair(WeightedGraph(n, rec))) == outcome(lambda: as_pair(WeightedGraph(n, small)))

    @given(shuffled_records())
    @settings(max_examples=400, deadline=None)
    @example((4, np.array([(-(2**62), 1, 1.0), (0, 1, 1.0)], dtype=graph_mod.EDGE_DTYPE)))
    @example((4, np.array([(1, 0, 1.0), (2, 3, 1.0), (1, -(2**62), 1.0), (0, 1, 1.0)], dtype=graph_mod.EDGE_DTYPE)))
    def test_one_key_sort_gives_the_lexsort_first_offence(self, case):
        n, rec = case
        # as the CLI runs it: an int64 key that wraps must not raise
        with np.errstate(all="raise"):
            got = outcome(lambda: as_pair(WeightedGraph(n, rec)))
        assert got == outcome(lexsort_reference, n, rec)
        assert got == outcome(reference_graph, n, rec.tolist())

    @pytest.mark.parametrize("n", [3_037_000_499, 3_037_000_500, 2**40], ids=["one-key", "lexsort", "lexsort-2^40"])
    @pytest.mark.parametrize("extra", ["valid", "dup", "range"])
    def test_sort_near_the_largest_one_key_n(self, n, extra):
        # n * n fits in int64 up to n = 3 037 000 499; beyond it, lexsort,
        # and at n = 2**40 the key of an in-range pair would wrap
        top = n - 1
        triples = [(top, top - 1, 2.0), (0, 1, 1.0), (top - 2, top, 0.5), (1, top, 3.0), (0, top, 1.5)]
        triples += {"valid": [], "dup": [(top - 1, top, 1.0)], "range": [(0, n, 1.0)]}[extra]
        rec = np.array(triples, dtype=graph_mod.EDGE_DTYPE)
        got = outcome(lambda: as_pair(WeightedGraph(n, rec)))
        assert got == outcome(lexsort_reference, n, rec)

    @pytest.mark.parametrize("n", [3_037_000_499, 3_037_000_500, 2**40], ids=["one-key", "ranked", "ranked-2^40"])
    def test_edge_ids_near_the_largest_one_key_n(self, n):
        # beyond the one-key n the pairs' ids are ranked among the graph's own
        # vertices first; an id out of range, or past int64, is no vertex
        top = n - 1
        g = WeightedGraph(n, [(top, top - 1, 2.0), (0, 1, 1.0), (top - 2, top, 0.5), (1, top, 3.0), (0, top, 1.5)])
        index = {p: i for i, p in enumerate(zip(g.u.tolist(), g.v.tolist()))}
        # (-1, n + 1) is out of range, and its key is that of the edge (0, 1)
        absent = [(0, top - 1), (top - 1, 1), (top, top), (0, n), (-1, top), (top + 5, -3), (-1, n + 1)]
        pairs = [*index, *((v, u) for u, v in index), *absent]
        # with an id past int64 in the batch, every id is first read as a Python int
        for batch in (pairs, [(2**64, 0), (0, -(2**63) - 1), *pairs]):
            with np.errstate(all="raise"):
                got = graph_mod.edge_ids(g, batch).tolist()
            assert got == [index.get((min(p), max(p)), -1) for p in batch]
        assert got[2 : 2 + 2 * g.m] == [*range(g.m), *range(g.m)]
        assert graph_mod.edge_ids(WeightedGraph(n, ()), batch).tolist() == [-1] * len(batch)

    @pytest.mark.parametrize("bad", [0.5, "1", True], ids=["float", "str", "bool"])
    def test_ids_that_are_not_integers_are_refused(self, bad):
        # family files refuse these too; an EDGE_DTYPE array is typed already
        with pytest.raises(ValueError, match=f"vertex id {bad!r} is not an integer"):
            WeightedGraph(3, [(0, 2, 1.0), (bad, 2, 1.0)])
        with pytest.raises(ValueError, match="vertex id 'b' is not an integer"):
            WeightedGraph(3, [(0, "b", 1.0), ("a", 1, 1.0)])  # the first in input order
        assert WeightedGraph(3, [(np.int32(1), 2, 1.0)]).edges == ((1, 2, 1.0),)

    def test_ids_beyond_64_bits_within_range_are_refused(self):
        with pytest.raises(ValueError, match="does not fit in 64 bits"):
            WeightedGraph(10**20 + 1, [(0, 10**20, 1.0)])

    def test_equality_and_hash_by_content(self):
        a = WeightedGraph(4, [(2, 1, 1.5), (0, 3, 2.0)])
        b = WeightedGraph(4, ((0, 3, 2.0), (1, 2, 1.5)))
        assert a == b and hash(a) == hash(b)
        assert a != WeightedGraph(4, [(0, 3, 2.0)])
        assert a != WeightedGraph(5, [(2, 1, 1.5), (0, 3, 2.0)])
        assert repr(a) == "WeightedGraph(n=4, edges=((0, 3, 2.0), (1, 2, 1.5)))"
        assert a.__eq__(object()) is NotImplemented and (a == object()) is False

    def test_pickle_round_trip(self):
        a = WeightedGraph(4, [(2, 1, 1.5), (0, 3, 2.0)])
        b = pickle.loads(pickle.dumps(a))
        assert b == a and hash(b) == hash(a)

    def test_immutable(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(FrozenInstanceError):
            g.n = 3
        with pytest.raises(FrozenInstanceError):
            del g.n
        with pytest.raises(ValueError):
            g.records["w"][0] = 2.0
        assert isinstance(g.edges, tuple) and g.edges is g.edges

    def test_every_construction_runs_post_init_with_sized_edges(self, monkeypatch):
        # per-layer tracing wraps __post_init__ and reads len(obj.edges) first;
        # an induced subgraph selects already validated records and skips it
        seen = []
        original = WeightedGraph.__post_init__

        def wrapped(obj):
            seen.append(len(obj.edges))
            original(obj)

        monkeypatch.setattr(WeightedGraph, "__post_init__", wrapped)
        g = load_graph("n 6\n" + "".join(f"{u} {v} 1.0\n" for u in range(6) for v in range(u + 1, 6)))
        h = sparsify_er(g, 0.9, seed=1, constant=0.2).h
        sub = induced_subgraph(g, [(0, 1), (2, 3)])
        WeightedGraph(3, (e for e in [(0, 1, 1.0)]))
        assert seen == [g.m, h.m, 1] and sub.m == 2


# --- Laplacian, degrees, subgraphs, components ---------------------------


class TestArrayOperations:
    @given(valid_graphs())
    @settings(max_examples=300, deadline=None)
    def test_laplacian_and_degrees_bitwise(self, g):
        L = laplacian(g)
        assert L.tobytes() == reference_laplacian(g).tobytes()
        assert g.degrees().tobytes() == reference_degrees(g).tobytes()

    @given(valid_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_induced_subgraph(self, g, data):
        pairs = [(u, v) for u, v, _ in g.edges]
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
        chosen = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in chosen]
        if data.draw(st.booleans()):
            chosen.append(data.draw(st.sampled_from([(0, g.n), (g.n + 3, 1), (0, 0)])))
        # pairs may come as any 2-element iterables: lists (say, from JSON)
        # or numpy rows
        forms = [list, frozenset, lambda c: [list(p) for p in c], lambda c: np.array(c).reshape(-1, 2)]
        chosen = data.draw(st.sampled_from(forms))(chosen)
        got = outcome(lambda: as_pair(induced_subgraph(g, chosen)))
        assert got == outcome(reference_induced, g, chosen)
        if got[0] == "ok":
            # built from trusted records, it equals the validated construction
            sub = induced_subgraph(g, chosen)
            assert sub == WeightedGraph(*got[1])
            assert not sub.records.flags.writeable

    @staticmethod
    def check_components(g):
        """The list view and the index's component and local arrays against
        the reference components."""
        comps = reference_components(g)
        assert connected_components(g) == comps
        component, local = [0] * g.n, [0] * g.n
        for i, comp in enumerate(comps):
            for j, x in enumerate(comp):
                component[x], local[x] = i, j
        _, _, got_component, got_local = g._components
        assert got_component.tolist() == component
        assert got_local.tolist() == local

    @given(valid_graphs(max_n=14))
    @settings(max_examples=300, deadline=None)
    def test_connected_components(self, g):
        self.check_components(g)

    def test_components_among_thousands_of_isolated_vertices(self):
        # 60 of 5000 vertices carry 50 random edges; the edge (0, n - 1)
        # puts the last vertex in the first component
        rng = np.random.default_rng(8)
        n = 5000
        pool = rng.choice(n - 1, size=60, replace=False)
        pairs = {(min(a, b), max(a, b)) for a, b in pool[rng.integers(60, size=(50, 2))].tolist() if a != b}
        g = WeightedGraph(n, [(a, b, 1.0) for a, b in pairs | {(0, n - 1)}])
        assert len(connected_components(g)) > 4900
        self.check_components(g)

    def test_components_of_a_long_path(self):
        n = 200
        g = WeightedGraph(n, [(i, i + 1, 1.0) for i in reversed(range(n - 1))])
        assert connected_components(g) == [list(range(n))]

    def test_dump_graph_text(self):
        g = WeightedGraph(3, [(2, 0, 0.1), (0, 1, 1e-7), (1, 2, 3.0)])
        out = io.StringIO()
        dump_graph(g, out)
        assert out.getvalue() == "n 3\n0 1 1e-07\n0 2 0.1\n1 2 3.0\n"


# --- parser ---------------------------------------------------------------


class TestLoadGraph:
    @given(edge_list_texts())
    @settings(max_examples=800, deadline=None)
    def test_same_graph_or_same_parse_error(self, text):
        expected = outcome(reference_load, text)
        if expected[0] == "ok" and expected[1][0] > 2**63:
            # valid line by line, but an id needs more than 64 bits
            expected = ("ValueError", f"vertex id {expected[1][0] - 1} does not fit in 64 bits")
        assert outcome(lambda: as_pair(load_graph(text))) == expected
        assert outcome(lambda: as_pair(load_graph(text.encode("utf-8")))) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0 1 1_0\n", (2, ((0, 1, 10.0),))),
            ("0 ١ 2\n", (2, ((0, 1, 2.0),))),
            ("n 3\n# c\n\n  # c\n2 0 1.5\n", (3, ((0, 2, 1.5),))),
            ("0 1 1.0 # c\n", "line 1: expected 'u v w', got '0 1 1.0 # c'"),
            ("# a\n0 1 1.0\n# b\n\n1 0 2.0\n", "line 5: duplicate edge (0, 1) (first at line 2)"),
            ("n 3\n0 1 1.0\n0 7 1.0\n", "vertex id 7 exceeds declared count 3"),
            ("0 1 1.0\r\n1 2 2.0\r\n", (3, ((0, 1, 1.0), (1, 2, 2.0)))),
            ("0\x0b1 2\n", "line 1: expected 'u v w', got '0'"),
            ("0 1 inf\n", "line 1: weight must be finite, got inf"),
            ("n 3\n0 1 1.0\n1 2 1e999\n", "line 3: weight must be finite, got inf"),
            ("0 1 Infinity\n", "line 1: weight must be finite, got inf"),
            ("0 1 -inf\n", "line 1: weight must be strictly positive, got -inf"),
            ("n x\n0 1 1.0\n", "line 1: bad vertex count 'x'"),
            ("n 0\n0 1 1.0\n", "line 1: vertex count must be positive"),
            ("n -1\n0 1 1.0\n", "line 1: vertex count must be positive"),
        ],
    )
    def test_examples(self, text, expected):
        got = outcome(lambda: as_pair(load_graph(text)))
        assert got == (("ok", expected) if isinstance(expected, tuple) else ("ParseError", expected))
        assert outcome(reference_load, text) == got
        # the same text as bytes, without a path
        assert outcome(lambda: as_pair(load_graph(text.encode("utf-8")))) == got

    def test_plain_valid_text_takes_one_pass(self, monkeypatch):
        def refuse(text):
            raise AssertionError("line rules used on plain valid text")

        monkeypatch.setattr(graph_mod, "_load_lines", refuse)
        g = load_graph("# header\nn 4\n\n0 1 0.5\n3\t2 1e-3\n  1 2 7\n")
        assert as_pair(g) == (4, ((0, 1, 0.5), (1, 2, 7.0), (2, 3, 1e-3)))


    @given(text=edge_list_texts())
    @settings(max_examples=300, deadline=None)
    def test_file_gives_what_its_text_gives(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("el") / "g.el"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(lambda: as_pair(load_graph_file(path))) == outcome(lambda: as_pair(load_graph(text)))

    @pytest.mark.parametrize(
        "name, data, expected",
        [
            ("g.el", b"# c\n\n  # c2\nn 4\n0 1 1.0\n\n3 2 2.5\n", (4, ((0, 1, 1.0), (2, 3, 2.5)))),
            ("g.el", b"\n# only a header\nn 3\n", (3, ())),
            ("g.el", b"n 3\r\n0 1 1.0\r\n1 2 2.0\r\n", (3, ((0, 1, 1.0), (1, 2, 2.0)))),
            ("g.el", b"\xef\xbb\xbf0 1 1.0\n", "line 1: malformed edge '\\ufeff0 1 1.0'"),
            ("g.el", b"0 1 1.0\n1 2 2.0 # c\n", "line 2: expected 'u v w', got '1 2 2.0 # c'"),
            # numpy would open these names as compressed files
            ("g.el.gz", b"n 3\n0 1 1.0\n", (3, ((0, 1, 1.0),))),
            ("g.el.xz", b"0 1 1.0\n", (2, ((0, 1, 1.0),))),
        ],
        ids=["comments-before-header", "header-only", "crlf", "bom", "trailing-comment", "gz-name", "xz-name"],
    )
    def test_files(self, tmp_path, name, data, expected):
        path = tmp_path / name
        path.write_bytes(data)
        got = outcome(lambda: as_pair(load_graph_file(path)))
        assert got == (("ok", expected) if isinstance(expected, tuple) else ("ParseError", expected))
        assert got == outcome(lambda: as_pair(load_graph(data.decode("utf-8"))))

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_bytes(b"0 1 1.0\n1 2 \xff\n")
        with pytest.raises(ParseError) as info:
            load_graph_file(path)
        assert str(info.value) == (
            f"invalid edge list in {path}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"
        )
        # the same bytes without a path
        with pytest.raises(ParseError) as info:
            load_graph(path.read_bytes())
        assert str(info.value) == "invalid edge list: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"

    @given(text=edge_list_texts())
    @settings(max_examples=100, deadline=None)
    def test_file_read_by_path_gives_what_its_text_gives(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("el") / "g.el"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_mod, "_BY_PATH_BYTES", 0)
            got = outcome(lambda: as_pair(load_graph_file(path)))
        assert got == outcome(lambda: as_pair(load_graph(text)))

    @staticmethod
    def spy_loads(monkeypatch):
        """The sources `np.loadtxt` is given and the files `open` opens, with
        the line rules refused."""

        def refuse(text):
            raise AssertionError("line rules used on a plain valid file")

        sources, opened = [], []
        loadtxt, builtin_open = np.loadtxt, open

        def spy(source, *args, **kwargs):
            sources.append(source)
            return loadtxt(source, *args, **kwargs)

        def spy_open(file, *args, **kwargs):
            opened.append(file)
            return builtin_open(file, *args, **kwargs)

        monkeypatch.setattr(graph_mod, "_load_lines", refuse)
        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr("builtins.open", spy_open)
        return sources, opened

    @staticmethod
    def star_file(path, size):
        """A plain edge list of exactly `size` bytes, a comment line then a
        star on vertex 0, and the (n, edges) it holds."""
        lines = []
        room = size - 2  # the comment line is at least "#\n"
        while len(line := f"0 {len(lines) + 1} 1.5\n") <= room:
            lines.append(line)
            room -= len(line)
        path.write_text("#" + "x" * room + "\n" + "".join(lines))
        assert path.stat().st_size == size
        return len(lines) + 1, tuple((0, k, 1.5) for k in range(1, len(lines) + 1))

    @pytest.mark.parametrize("delta", [-1, -graph_mod._BY_PATH_BYTES + 40])
    def test_small_plain_file_is_parsed_from_memory(self, tmp_path, monkeypatch, delta):
        path = tmp_path / "g.el"
        expected = self.star_file(path, graph_mod._BY_PATH_BYTES + delta)
        sources, opened = self.spy_loads(monkeypatch)
        assert as_pair(load_graph_file(path)) == expected
        assert len(sources) == 1 and not isinstance(sources[0], str)
        assert opened == [path]

    def test_plain_valid_file_is_read_by_path(self, tmp_path, monkeypatch):
        sources, _ = self.spy_loads(monkeypatch)
        for delta in (0, 1):
            path = tmp_path / f"g{delta}.el"
            expected = self.star_file(path, graph_mod._BY_PATH_BYTES + delta)
            assert as_pair(load_graph_file(path)) == expected
            assert sources.pop() == str(path) and not sources

    def test_bytes_are_dropped_before_numpy_reads_the_path(self, tmp_path, monkeypatch):
        """The bytes of a large plain file are not held while numpy reads
        it again, nor beside the graph it builds."""
        path, size = tmp_path / "g.el", 1 << 20
        expected = self.star_file(path, size)
        held, loadtxt = [], np.loadtxt

        def spy(source, *args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert as_pair(load_graph_file(path)) == expected
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] - before < size // 8

    @pytest.mark.parametrize("bad", [b"0 0 1.5\n", b"0 1 -1.5\n"], ids=["self-loop", "weight"])
    def test_large_plain_file_the_graph_refuses_is_worded_by_line(self, tmp_path, bad):
        path = tmp_path / "g.el"
        self.star_file(path, graph_mod._BY_PATH_BYTES + 100)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([*lines[:-1], bad]))
        with pytest.raises(ParseError, match=f"^line {len(lines)}: "):
            load_graph_file(path)

    @pytest.mark.parametrize("delta", [-1, 0])
    def test_file_that_is_not_utf8_either_side_of_the_size_rule(self, tmp_path, delta):
        path = tmp_path / "g.el"
        self.star_file(path, graph_mod._BY_PATH_BYTES + delta)
        data = path.read_bytes()
        path.write_bytes(data[:2] + b"\xff" + data[3:])
        with pytest.raises(ParseError, match=f"^invalid edge list in {path}: 'utf-8' codec can't decode byte 0xff"):
            load_graph_file(path)


# --- k-means invariant ----------------------------------------------------


class TestKmeansCheck:
    def test_objective_check_raises(self):
        # a NaN objective fails `obj <= prev_obj + 1e-9`, as an increase would
        with pytest.raises(RuntimeError, match="k-means objective increased"):
            kmeans([[0.0], [float("nan")]], 1, seed=0)

    def test_objective_check_survives_optimisation(self):
        code = (
            "import distsparse as ds\n"
            "try:\n"
            "    ds.kmeans([[0.0], [float('nan')]], 1, seed=0)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(graph_mod.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "k-means objective increased"
