import json
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from distsparse import (
    DimensionMismatch,
    ParseError,
    WeightedGraph,
    connected_components,
    induced_subgraph,
    laplacian,
    load_graph,
    normalized_laplacian,
    quadratic_form,
    sparsify_er,
    spectral_embedding,
    verify_epsilon,
)
from distsparse import graph
from distsparse.cli import main
from conftest import edge_pairs, random_graph


def triangle(w=1.0):
    return WeightedGraph(3, ((0, 1, w), (1, 2, w), (0, 2, w)))


PATH = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))


def paths(count, size, skip=0):
    """`count` disjoint paths of `size` vertices with unit weights, after
    `skip` isolated vertices."""
    n = skip + count * size
    return WeightedGraph(n, [(x, x + 1, 1.0) for x in range(skip, n - 1) if (x - skip) % size != size - 1])


class TestLoadGraph:
    def test_basic_parse(self):
        g = load_graph("0 1 1.0\n1 2 2.0")
        assert g.n == 3 and g.m == 2
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))

    def test_header_fixes_n(self):
        g = load_graph("n 5\n0 1 1.0")
        assert g.n == 5

    def test_comments_and_blank_lines(self):
        g = load_graph("# a comment\n\n0 1 1.0\n# another\n1 2 2.0\n")
        assert g.m == 2

    def test_duplicate_edge_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_graph("0 1 1.0\n0 1 2.0")

    def test_reversed_duplicate_detected(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_graph("0 1 1.0\n1 0 2.0")

    def test_self_loop(self):
        with pytest.raises(ParseError, match="self-loop"):
            load_graph("0 0 1.0")

    def test_nonpositive_weight(self):
        with pytest.raises(ParseError, match="positive"):
            load_graph("0 1 0.0")
        with pytest.raises(ParseError, match="positive"):
            load_graph("0 1 -2.0")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 1"):
            load_graph("0 1")

    def test_id_exceeds_header(self):
        with pytest.raises(ParseError, match="exceeds"):
            load_graph("n 2\n0 5 1.0")


class TestLaplacian:
    def test_single_edge(self):
        g = WeightedGraph(2, ((0, 1, 3.0),))
        np.testing.assert_allclose(laplacian(g), [[3, -3], [-3, 3]])

    def test_triangle(self):
        L = laplacian(triangle())
        np.testing.assert_allclose(np.diag(L), [2, 2, 2])
        assert L[0, 1] == L[0, 2] == L[1, 2] == -1

    def test_weighted_path(self):
        np.testing.assert_allclose(
            laplacian(PATH), [[1, -1, 0], [-1, 3, -2], [0, -2, 2]]
        )

    def test_normalized_single_edge(self):
        g = WeightedGraph(2, ((0, 1, 1.0),))
        np.testing.assert_allclose(normalized_laplacian(g), [[1, -1], [-1, 1]])

    def test_normalized_triangle(self):
        N = normalized_laplacian(triangle())
        np.testing.assert_allclose(np.diag(N), [1, 1, 1])
        np.testing.assert_allclose(N[0, 1], -0.5)

    def test_normalized_isolated_vertex_row_zero(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        N = normalized_laplacian(g)
        assert np.all(N[2, :] == 0) and np.all(N[:, 2] == 0)

    def test_physical_memory_is_read(self):
        assert graph._physical_memory() > 0

    def test_dense_size_guard(self, monkeypatch):
        # the Laplacians return n x n arrays: four take 32 n^2 bytes, 320 000 for n=100
        monkeypatch.setattr(graph, "_physical_memory", lambda: 320_000)
        assert len(laplacian(WeightedGraph(100, ((0, 1, 1.0),)))) == 100
        big = WeightedGraph(101, ((0, 1, 1.0),))
        detail = "n=101 needs 326432 bytes for 4 dense n x n float64 arrays; physical memory is 320000 bytes"
        for dense in (laplacian, normalized_laplacian):
            with pytest.raises(MemoryError, match=re.escape(detail)):
                dense(big)
        # the factor holds the 2 x 2 block of the one edge's component
        assert big.resistances.tolist() == [1.0]
        assert spectral_embedding(big, 101).shape == (101, 101)

    @pytest.mark.parametrize(
        "g, detail",
        [
            # one path on vertices 1..101: 8 (4 + 1) 101^2 = 408 040 bytes
            (
                paths(1, 101, skip=1),
                "the component of vertex 1 (101 vertices) needs 408040 bytes for 4 dense 101 x 101 "
                "float64 blocks beside one block per component; physical memory is 320000 bytes",
            ),
            # eight paths of 60 vertices: 8 (4 + 8) 60^2 = 345 600 bytes; seven fit (316 800)
            (
                paths(8, 60),
                "the component of vertex 0 (60 vertices) needs 345600 bytes for 4 dense 60 x 60 "
                "float64 blocks beside one block per component; physical memory is 320000 bytes",
            ),
        ],
        ids=["largest-component", "blocks-of-all-components"],
    )
    def test_block_size_guard(self, monkeypatch, g, detail):
        # the factor and the clustering eigensolve hold four blocks of the
        # largest component beside one block of every component
        monkeypatch.setattr(graph, "_physical_memory", lambda: 320_000)
        c = len(connected_components(g))
        for dense in (lambda g: g.factor, lambda g: g.resistances, lambda g: spectral_embedding(g, c + 1)):
            with pytest.raises(MemoryError, match=re.escape(detail)):
                dense(g)
        assert len(paths(7, 60).factor) == 7

    def test_verifier_checks_the_size_before_the_kernel(self, monkeypatch):
        # H's edge (0, 1) joins the isolated vertex 0 to the path, a kernel
        # violation; the path's blocks do not fit, and that is what is reported
        monkeypatch.setattr(graph, "_physical_memory", lambda: 320_000)
        g = paths(1, 101, skip=1)
        with pytest.raises(MemoryError, match=re.escape("the component of vertex 1 (101 vertices) needs 408040 bytes")):
            verify_epsilon(g, WeightedGraph(g.n, ((0, 1, 1.0),)))

    def test_block_walk_checks_before_its_first_block(self, monkeypatch):
        # the component index of 102 vertices (7 344 bytes) fits in 320 000,
        # the path's blocks do not: the walk refuses them before it reads a
        # degree or builds a block
        monkeypatch.setattr(graph, "_physical_memory", lambda: 320_000)
        calls = []
        for owner, name in ((graph, "_laplacian_block"), (WeightedGraph, "degrees")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
        g = paths(1, 101, skip=1)
        with pytest.raises(MemoryError, match=re.escape("the component of vertex 1 (101 vertices) needs 408040 bytes")):
            list(graph._laplacian_blocks(g, g))
        assert calls == []
        monkeypatch.setattr(graph, "_physical_memory", lambda: 2**30)
        assert len(list(graph._laplacian_blocks(g, g))) == 1 and calls == ["degrees"]

    @pytest.mark.parametrize(
        "args, error",
        [
            (["sparsify", "--epsilon", "0.5"], "memory"),
            (["verify", "--sparsifier", "half.el"], "memory"),
            (["cluster", "--k", "2"], "memory"),
            # the normalized embedding reads the degrees for its kernel
            # column before it walks the blocks
            (["cluster", "--k", "2", "--normalized"], "invalid-value"),
        ],
    )
    def test_block_size_before_degree_overflow(self, tmp_path, monkeypatch, args, error):
        # the path 0-1-2 at 1e308: its index (216 bytes) fits in 300, its
        # blocks (360 bytes) do not, and vertex 1's degree overflows
        monkeypatch.setattr(graph, "_physical_memory", lambda: 300)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.el").write_text("0 1 1e308\n1 2 1e308\n")
        (tmp_path / "half.el").write_text("0 1 5e307\n1 2 5e307\n")
        result = CliRunner().invoke(main, [args[0], "--graph", "g.el", *args[1:]])
        detail = {
            "memory": "the component of vertex 0 (3 vertices) needs 360 bytes for 4 dense 3 x 3 "
            "float64 blocks beside one block per component; physical memory is 300 bytes",
            "invalid-value": "the weighted degree of vertex 1 overflows float64",
        }[error]
        assert (result.exit_code, json.loads(result.output)) == (1, {"error": error, "detail": detail})

    def test_vertex_count_guard(self, monkeypatch):
        # refused before any per-vertex array exists
        monkeypatch.setattr(graph, "_physical_memory", lambda: 2**30)
        g = WeightedGraph(10**20, ((0, 1, 1.0),))
        detail = (
            "n=100000000000000000000 needs 7200000000000000000000 bytes for its components "
            "at 72 bytes a vertex; physical memory is 1073741824 bytes"
        )
        for dense in (connected_components, lambda g: g.factor, lambda g: spectral_embedding(g, 2)):
            with pytest.raises(MemoryError, match=re.escape(detail)):
                dense(g)

    def test_many_small_components_factor_sparsify_and_verify(self, monkeypatch):
        # 10 000 disjoint edges on 20 000 vertices: four 20 000 x 20 000 arrays
        # would take 12.8 GB, but every block is 2 x 2
        monkeypatch.setattr(graph, "_physical_memory", lambda: 2**30)
        g = WeightedGraph(20_000, [(2 * i, 2 * i + 1, 1.0 + i % 7) for i in range(10_000)])
        assert len(g.factor) == 10_000
        np.testing.assert_allclose(g.resistances, 1.0 / g.w, rtol=1e-15)
        res = sparsify_er(g, 0.5, seed=1, constant=0.1)
        # each block's eigenvalue is w_H / w_G, and 0 where the edge was not drawn
        kept = np.isin(g.u, res.h.u)
        assert 0 < res.h.m < g.m
        assert res.epsilon_certified == pytest.approx(max(1.0, (res.h.w / g.w[kept]).max() - 1.0), rel=1e-12)
        assert verify_epsilon(g, WeightedGraph(g.n, [(u, v, w / 2) for u, v, w in g.edges])) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "g, vertex",
        [(triangle(1e308), 0), (WeightedGraph(3, ((0, 1, 1e308), (1, 2, 1e308))), 1)],
        ids=["triangle", "path"],
    )
    def test_degree_overflow_refused(self, g, vertex):
        # finite weights whose sum at a vertex is inf, which np.bincount does not trap
        detail = f"the weighted degree of vertex {vertex} overflows float64"
        for dense in (laplacian, normalized_laplacian, lambda g: g.factor):
            with pytest.raises(ValueError, match=detail):
                dense(g)


class TestQuadraticForm:
    def test_ones_in_kernel(self):
        assert quadratic_form(laplacian(triangle()), np.ones(3)) == pytest.approx(0, abs=1e-12)

    def test_single_edge(self):
        g = WeightedGraph(2, ((0, 1, 3.0),))
        assert quadratic_form(laplacian(g), [1, 0]) == pytest.approx(3)

    def test_path_hand_value(self):
        assert quadratic_form(laplacian(PATH), [1, 2, 4]) == pytest.approx(9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quadratic_form(laplacian(PATH), [1, 2])


class TestInducedSubgraph:
    def test_identity(self):
        g = triangle()
        assert induced_subgraph(g, edge_pairs(g)) == g

    def test_empty(self):
        h = induced_subgraph(triangle(), [])
        assert h.m == 0 and h.n == 3

    def test_restriction(self):
        h = induced_subgraph(triangle(), [(0, 1)])
        assert edge_pairs(h) == frozenset({(0, 1)}) and h.n == 3
        # a pair either way round, a repeat once
        assert induced_subgraph(triangle(), [(1, 0), (0, 1), (1, 0)]) == h

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            induced_subgraph(PATH, [(0, 2)])


class TestConnectedComponents:
    def test_triangle_one_component(self):
        assert connected_components(triangle()) == [[0, 1, 2]]

    def test_edgeless(self):
        # build via induced subgraph since the type requires explicit edges
        g = induced_subgraph(triangle(), [])
        assert connected_components(g) == [[0], [1], [2]]

    def test_edge_plus_isolated(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        assert connected_components(g) == [[0, 1], [2]]


class TestInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_quadratic_form_equals_edge_sum(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 15)))
        x = rng.normal(size=g.n)
        direct = sum(w * (x[u] - x[v]) ** 2 for u, v, w in g.edges)
        assert quadratic_form(laplacian(g), x) == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_row_sums_zero(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 12)
        sums = laplacian(g).sum(axis=1)
        assert np.max(np.abs(sums)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_eigenvalue_multiplicity_counts_components(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 15, p=0.12)
        evals = np.linalg.eigvalsh(laplacian(g))
        lam_max = max(evals[-1], 1e-12)
        zeros = int(np.sum(evals < 1e-8 * lam_max))
        assert zeros == len(connected_components(g))

    @pytest.mark.parametrize("seed", range(5))
    def test_laplacian_additive_over_disjoint_edge_split(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 10)
        pairs = sorted(edge_pairs(g))
        half = len(pairs) // 2
        s1, s2 = pairs[:half], pairs[half:]
        total = laplacian(induced_subgraph(g, s1)) + laplacian(induced_subgraph(g, s2))
        np.testing.assert_allclose(total, laplacian(g), atol=1e-12)


class TestConstruction:
    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph(2, ((0, 5, 1.0),))

    def test_pairs_are_the_stored_pairs(self):
        # from reversed, shuffled triples: the frozenset of stored pairs, u < v
        rng = np.random.default_rng(7)
        triples = [(v, u, w) for u, v, w in random_graph(rng, 12).edges]
        rng.shuffle(triples)
        g = WeightedGraph(12, triples)
        assert type(g.pairs()) is frozenset
        assert g.pairs() == frozenset((u, v) for v, u, _ in triples)

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_edges_canonicalized(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n)
        assert all(u < v for u, v, _ in g.edges)
        assert list(g.edges) == sorted(g.edges)
