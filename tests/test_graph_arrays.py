"""The array-backed graph against per-edge references kept here.

Each reference is the per-edge Python loop the graph layer used before it
stored its edges as arrays: validation, Laplacian, degrees, induced
subgraph, connected components and the line-by-line edge-list parser. The
array code must give the same graph (bit for bit), or the same error
message for the same first offending edge or line.
"""

import math
import os
import subprocess
import sys
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

    def test_immutable(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        with pytest.raises(FrozenInstanceError):
            g.n = 3
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
        L = laplacian(g).matrix
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

    @given(valid_graphs(max_n=14))
    @settings(max_examples=300, deadline=None)
    def test_connected_components(self, g):
        assert connected_components(g) == reference_components(g)

    def test_components_of_a_long_path(self):
        n = 200
        g = WeightedGraph(n, [(i, i + 1, 1.0) for i in reversed(range(n - 1))])
        assert connected_components(g) == [list(range(n))]

    def test_dump_graph_text(self):
        g = WeightedGraph(3, [(2, 0, 0.1), (0, 1, 1e-7), (1, 2, 3.0)])
        assert dump_graph(g) == "n 3\n0 1 1e-07\n0 2 0.1\n1 2 3.0\n"


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
        ],
    )
    def test_examples(self, text, expected):
        got = outcome(lambda: as_pair(load_graph(text)))
        assert got == (("ok", expected) if isinstance(expected, tuple) else ("ParseError", expected))
        assert outcome(reference_load, text) == got

    def test_plain_valid_text_takes_one_pass(self, monkeypatch):
        def refuse(text):
            raise AssertionError("line rules used on plain valid text")

        monkeypatch.setattr(graph_mod, "_load_lines", refuse)
        g = load_graph("# header\nn 4\n\n0 1 0.5\n3\t2 1e-3\n  1 2 7\n")
        assert as_pair(g) == (4, ((0, 1, 0.5), (1, 2, 7.0), (2, 3, 1e-3)))


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
