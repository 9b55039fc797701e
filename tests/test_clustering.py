import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsparse import (
    ClusterAssignment,
    DimensionMismatch,
    WeightedGraph,
    adjusted_rand_index,
    connected_components,
    kmeans,
    laplacian,
    multicut_weight,
    normalized_laplacian,
    spectral_clustering,
    spectral_embedding,
)
from distsparse import cluster, graph
from conftest import planted_components, planted_three_block_graph, rotation_symmetric_graph, same_bits


def two_triangles():
    return WeightedGraph(
        6,
        (
            (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
        ),
    )


class TestSpectralEmbedding:
    def test_k1_connected_is_constant(self):
        g = two_triangles()
        g = WeightedGraph(6, g.edges + ((2, 3, 1.0),))
        X = spectral_embedding(g, 1)
        assert np.allclose(X[:, 0], X[0, 0])
        assert X[0, 0] > 0

    def test_disjoint_triangles_component_indicators(self):
        X = spectral_embedding(two_triangles(), 2)
        # rows within a component coincide, across components differ
        for a, b in [(0, 1), (0, 2), (3, 4), (3, 5)]:
            assert np.allclose(X[a], X[b], atol=1e-8)
        assert not np.allclose(X[0], X[3], atol=1e-6)

    def test_planted_blocks_eigengap_and_grouping(self):
        rng = np.random.default_rng(7)
        g, labels = planted_three_block_graph(rng)
        evals = np.linalg.eigvalsh(laplacian(g))
        assert evals[3] - evals[2] > 1.5 * evals[2]
        X = spectral_embedding(g, 3)
        # rows of the same block are closer than rows across blocks
        within = max(
            np.linalg.norm(X[u] - X[v])
            for u, v in itertools.combinations(range(30), 2)
            if labels[u] == labels[v]
        )
        across = min(
            np.linalg.norm(X[u] - X[v])
            for u, v in itertools.combinations(range(30), 2)
            if labels[u] != labels[v]
        )
        assert across > within

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(1)
        from conftest import random_graph

        for _ in range(10):
            g = random_graph(rng, 12)
            k = int(rng.integers(1, 6))
            X = spectral_embedding(g, k)
            np.testing.assert_allclose(X.T @ X, np.eye(k), atol=1e-8)

    def test_sign_convention(self):
        g = two_triangles()
        X = spectral_embedding(g, 3)
        for col in range(3):
            nz = np.nonzero(np.abs(X[:, col]) > 1e-12)[0]
            assert X[nz[0], col] > 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            spectral_embedding(two_triangles(), 0)
        with pytest.raises(ValueError):
            spectral_embedding(two_triangles(), 7)


@st.composite
def disjoint_unions(draw):
    """(graph, component count c, k, normalized): a disjoint union of small
    connected weighted graphs, singletons included, with its vertices
    shuffled, and a k above, at or below c."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    n, c = sum(sizes), len(sizes)
    perm = draw(st.permutations(range(n)))
    weight = st.floats(0.01, 100.0)
    edges, start = {}, 0
    for size in sizes:
        # a random spanning tree keeps each part connected; extras add cycles
        for i in range(1, size):
            edges[(start + draw(st.integers(0, i - 1)), start + i)] = draw(weight)
        for a, b in itertools.combinations(range(start, start + size), 2):
            if (a, b) not in edges and draw(st.booleans()):
                edges[(a, b)] = draw(weight)
        start += size
    g = WeightedGraph(n, tuple((min(perm[a], perm[b]), max(perm[a], perm[b]), w) for (a, b), w in edges.items()))
    regime = draw(st.sampled_from(["c<k", "c=k", "c>k"]))
    lo, hi = {"c<k": (c + 1, n), "c=k": (c, c), "c>k": (1, c - 1)}[regime]
    if lo > hi:  # regime impossible for this union: take k = c
        lo = hi = c
    return g, c, draw(st.integers(lo, hi)), draw(st.booleans())


def kernel_vector(g, comp, normalized):
    """1_S/sqrt|S|, or D^1/2 1_S/||D^1/2 1_S|| (e_v for an isolated vertex)."""
    x = np.zeros(g.n)
    x[comp] = np.sqrt(g.degrees()[comp]) if normalized and len(comp) > 1 else 1.0
    return x / np.linalg.norm(x)


class TestEmbeddingAgainstFullEigh:
    @settings(max_examples=300, deadline=None)
    @given(disjoint_unions())
    def test_matches_reference(self, case):
        g, c, k, normalized = case
        L = normalized_laplacian(g) if normalized else laplacian(g)
        X = spectral_embedding(g, k, normalized)
        assert X.shape == (g.n, k)
        np.testing.assert_allclose(X.T @ X, np.eye(k), atol=1e-10)
        reference = np.linalg.eigh(L)[0][:k]
        np.testing.assert_allclose(np.diag(X.T @ L @ X), reference, rtol=1e-8, atol=1e-8)
        for col in range(k):
            assert X[np.flatnonzero(np.abs(X[:, col]) > 1e-12)[0], col] > 0
        comps = connected_components(g)
        assert len(comps) == c
        for col, comp in enumerate(comps[:k]):
            np.testing.assert_allclose(X[:, col], kernel_vector(g, comp, normalized), rtol=1e-14, atol=0)


class TestEigensolveCount:
    """Components of sizes 3, 1, 4 and 2 with their vertices interleaved."""

    G = WeightedGraph(
        10,
        (
            (0, 4, 1.0), (4, 8, 2.0), (0, 8, 0.5),  # {0, 4, 8}
            (2, 5, 1.0), (5, 6, 1.5), (6, 9, 0.7),  # {2, 5, 6, 9}
            (3, 7, 2.5),  # {3, 7}; {1} is isolated
        ),
    )

    @pytest.fixture
    def shapes(self, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            seen.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        return seen

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_none_when_components_cover_k(self, shapes, k, normalized):
        assert len(connected_components(self.G)) == 4
        spectral_clustering(self.G, k, seed=0, normalized=normalized)
        assert shapes == []

    @pytest.mark.parametrize("k", [5, 7, 10])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_one_per_component_of_two_or_more(self, shapes, k, normalized):
        spectral_clustering(self.G, k, seed=0, normalized=normalized)
        assert shapes == [(3, 3), (4, 4), (2, 2)]


def test_embedding_drops_each_eigenvector_matrix():
    """Ten components of 300 vertices, k = 12: each component's eigensolve
    makes a 300 x 300 eigenvector matrix (0.72 MB) of which the embedding
    keeps at most 2 columns. Holding all ten matrices until the merge peaks
    at about 8.5 MB traced; holding only the kept columns, below 4 MiB."""
    rng = np.random.default_rng(5)
    edges = [(c + i, c + i + 1, float(rng.uniform(0.1, 3))) for c in range(0, 3000, 300) for i in range(299)]
    g = WeightedGraph(3000, edges)
    tracemalloc.start()
    try:
        X = spectral_embedding(g, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.shape == (3000, 12)
    assert peak < 4 * 2**20


def eigh_embedding(g, k, normalized=False):
    """`spectral_embedding` as it was before the Lanczos path: one
    `np.linalg.eigh` of every block of at least two vertices."""
    members, starts, component, _ = g._components
    c, sizes = len(starts) - 1, np.diff(starts)
    X = np.zeros((g.n, k))
    lead = members[: starts[min(c, k)]]
    X[lead, component[lead]] = np.sqrt(1.0 / sizes[component[lead]])
    if normalized:
        d = g.degrees()
        for col in np.flatnonzero(sizes[:k] > 1).tolist():
            comp = members[starts[col] : starts[col + 1]]
            X[comp, col] = np.sqrt(d[comp] / d[comp].sum())
    if c >= k:
        return X
    values, vectors = [], []
    for comp, build in graph._laplacian_blocks(g, g, normalized):
        lam, vecs = np.linalg.eigh(build())
        kept = min(k - c, len(comp) - 1)
        values.append(lam[1 : kept + 1])
        cols = vecs[:, 1 : kept + 1].copy()
        vectors += [(comp, cols[:, j]) for j in range(kept)]
    order = np.argsort(np.concatenate(values), kind="stable")[: k - c]
    for col, (comp, vec) in enumerate((vectors[i] for i in order), start=c):
        nz = np.nonzero(np.abs(vec) > 1e-12)[0]
        X[comp, col] = -vec if nz.size and vec[nz[0]] < 0 else vec
    return X


@pytest.fixture
def solves(monkeypatch):
    """The shapes passed to `np.linalg.eigh` and `np.linalg.cholesky`."""
    seen = {"eigh": [], "cholesky": []}
    for name in seen:
        real = getattr(np.linalg, name)

        def recording(a, *args, _real=real, _seen=seen[name], **kwargs):
            _seen.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


# about 55 % of a planted graph with p_in 0.95 and p_out 0.5, reweighted by
# 1/0.55: the spectrum of the benchmark's er-dense sparsifier (n = 800)
ER_DENSE_LIKE = dict(components=[(267, 267, 266)], p_in=0.52, p_out=0.275, weights=(0.18, 5.5))


class TestLanczosPath:
    """Two components of 450 and 420 vertices, each three planted blocks,
    at k = 4: each block's 2 kept pairs are found by certified Lanczos."""

    @pytest.fixture(scope="class")
    def g(self):
        return planted_components(np.random.default_rng(11), [(150, 150, 150), (140, 140, 140)], 0.5, 0.05)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_kept_values_match_eigh(self, g, normalized):
        d = g.degrees()
        for comp, build in graph._laplacian_blocks(g, g, normalized):
            mass = d[comp] if normalized else np.ones(len(comp))
            lam, _ = cluster._kept_pairs(build, np.sqrt(mass / mass.sum()), 2)
            reference = np.linalg.eigvalsh(build())[1:3]
            np.testing.assert_allclose(lam, reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_columns_match_eigh_without_a_block_eigh(self, g, solves, normalized):
        X = spectral_embedding(g, 4, normalized)
        sizes = [(450, 450), (420, 420)]
        assert sorted(solves["cholesky"]) == sorted(sizes)  # one certificate per block
        assert not set(solves["eigh"]) & set(sizes)
        np.testing.assert_allclose(X, eigh_embedding(g, 4, normalized), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_labels_match_eigh(self, g, normalized):
        reference = eigh_embedding(g, 4, normalized)
        for seed in range(10):
            assert spectral_clustering(g, 4, seed, normalized) == kmeans(reference, 4, seed)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_er_dense_like_k3_is_certified(self, solves, normalized):
        g = planted_components(np.random.default_rng(12), **ER_DENSE_LIKE)
        X = spectral_embedding(g, 3, normalized)
        assert solves["cholesky"] == [(800, 800)] and (800, 800) not in solves["eigh"]
        np.testing.assert_allclose(X, eigh_embedding(g, 3, normalized), rtol=0, atol=1e-10)


class TestLanczosFallbacks:
    """Where Lanczos cannot certify its pairs, the block takes eigh and the
    embedding is bitwise the per-block eigh loop's."""

    @pytest.mark.parametrize("normalized", [False, True])
    def test_complete_graph_runs_out_of_krylov_space(self, solves, normalized):
        # K_300 with unit weights: every vector off the kernel is an
        # eigenvector, so beta vanishes after the first Lanczos vector
        g = WeightedGraph(300, [(a, b, 1.0) for a, b in itertools.combinations(range(300), 2)])
        X = spectral_embedding(g, 3, normalized)
        assert solves == {"eigh": [(300, 300)], "cholesky": []}
        assert same_bits(X, eigh_embedding(g, 3, normalized))

    @pytest.mark.parametrize("normalized", [False, True])
    def test_star_runs_out_of_krylov_space_after_a_second_pass(self, solves, normalized):
        # K_1,299 at k = 2: a cap of 75 >= 24 (1 + 2) iterations, but the
        # spectrum off the kernel has two values ({1, 300}, normalized
        # {1, 2}), so the third vector cancels to roundoff, is orthogonalised
        # again and beta vanishes
        g = WeightedGraph(300, [(0, b, 1.0) for b in range(1, 300)])
        X = spectral_embedding(g, 2, normalized)
        assert solves == {"eigh": [(300, 300)], "cholesky": []}
        assert same_bits(X, eigh_embedding(g, 2, normalized))

    @pytest.mark.parametrize("normalized", [False, True])
    def test_double_eigenvalue_fails_the_certificate(self, solves, normalized):
        g = rotation_symmetric_graph(np.random.default_rng(13), 100)
        L = normalized_laplacian(g) if normalized else laplacian(g)
        lam = np.linalg.eigvalsh(L)
        np.testing.assert_allclose(lam[1], lam[2], rtol=1e-10)
        solves["eigh"].clear()
        X = spectral_embedding(g, 2, normalized)
        # Lanczos finds one vector of the double eigenvalue; the Cholesky
        # then sees a second eigenvalue below sigma and fails
        assert solves["cholesky"] == [(300, 300)] and solves["eigh"][-1] == (300, 300)
        assert same_bits(X, eigh_embedding(g, 2, normalized))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_weight_scale_keeps_eigh(self, solves, scale):
        # Lanczos' dot products would overflow (or underflow) at these
        # scales, where eigh scales the block itself; the CLI raises on
        # overflow, so such a block skips Lanczos
        g = planted_components(np.random.default_rng(11), [(150, 150, 150)], 0.5, 0.05, weights=(0.1 * scale, 3 * scale))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            X = spectral_embedding(g, 3)
        assert solves == {"eigh": [(450, 450)], "cholesky": []}
        assert same_bits(X, eigh_embedding(g, 3))

    @pytest.mark.parametrize("normalized", [False, True])
    def test_cap_reached(self, solves, monkeypatch, normalized):
        # at k = 8 the cut lies inside the flat bulk of the spectrum, where
        # 7 pairs need far more than 40 iterations
        monkeypatch.setattr(cluster, "_lanczos_cap", lambda n, kept: 40)
        g = planted_components(np.random.default_rng(12), **ER_DENSE_LIKE)
        X = spectral_embedding(g, 8, normalized)
        assert solves["cholesky"] == [] and solves["eigh"][-2:] == [(40, 40), (800, 800)]
        assert same_bits(X, eigh_embedding(g, 8, normalized))

    @pytest.mark.parametrize("normalized", [False, True])
    def test_er_dense_like_k8_takes_eigh_directly(self, solves, normalized):
        # 7 pairs need a cap of 24 (7 + 2) = 216 iterations; an 800-vertex
        # block's cap is 200, so no Lanczos iteration runs
        g = planted_components(np.random.default_rng(12), **ER_DENSE_LIKE)
        X = spectral_embedding(g, 8, normalized)
        assert solves == {"eigh": [(800, 800)], "cholesky": []}
        assert same_bits(X, eigh_embedding(g, 8, normalized))


def split_rotation_graph(split):
    """`rotation_symmetric_graph` on 3 x 100 vertices with one joining edge
    made heavier by the factor 1 + split: no longer symmetric, its double
    eigenvalue splits into two close ones."""
    edges = list(rotation_symmetric_graph(np.random.default_rng(13), 100).edges)
    i = next(j for j, (u, v, _) in enumerate(edges) if v - u >= 100)  # the first join
    u, v, w = edges[i]
    edges[i] = (u, v, w * (1 + split))
    return WeightedGraph(300, edges)


class TestSmallGapAtTheCut:
    """At k = 2 the cut lies between the two eigenvalues of the split pair."""

    @pytest.mark.parametrize("normalized", [False, True])
    def test_certified_columns_match_eigh(self, solves, normalized):
        # the pair lies about 1.4e-5 ||L||_1 apart: certified, and the
        # column is well within 1e-10 of eigh's
        g = split_rotation_graph(0.1)
        X = spectral_embedding(g, 2, normalized)
        assert solves["cholesky"] == [(300, 300)] and (300, 300) not in solves["eigh"]
        np.testing.assert_allclose(X, eigh_embedding(g, 2, normalized), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("normalized", [False, True])
    def test_too_close_a_pair_is_left_to_eigh(self, solves, normalized):
        # about 1.4e-7 ||L||_1 apart: no residual bound reaches 1e-10 of
        # that gap, so Lanczos runs to its cap and eigh decides
        g = split_rotation_graph(1e-3)
        X = spectral_embedding(g, 2, normalized)
        assert solves["cholesky"] == [] and solves["eigh"][-2:] == [(75, 75), (300, 300)]
        assert same_bits(X, eigh_embedding(g, 2, normalized))


def test_lanczos_gate():
    # a cap of |S| / 4 iterations, and Lanczos only where it is at least
    # 24 (kept + 2): no block below 288 vertices (every golden graph, and
    # the 65- and 130-vertex pins of tests/test_blocks.py) tries it
    assert [cluster._lanczos_cap(n, 1) for n in (287, 288)] == [0, 72]
    assert [cluster._lanczos_cap(800, kept) for kept in (2, 6, 7)] == [200, 200, 0]
    assert max(cluster._lanczos_cap(n, kept) for n in range(2, 288) for kept in range(1, n)) == 0


class TestKmeans:
    def test_k_equals_n(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(5, 2)) * 10
        a = kmeans(pts, 5, seed=0)
        assert sorted(a.labels) == [0, 1, 2, 3, 4]

    def test_separated_clouds(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(50, 0.1, (20, 2))])
        truth = ClusterAssignment(tuple([0] * 20 + [1] * 20), 2)
        for seed in range(10):
            a = kmeans(pts, 2, seed=seed)
            assert adjusted_rand_index(a, truth) == 1.0

    def test_identical_points_terminate(self):
        pts = np.ones((6, 2))
        a = kmeans(pts, 2, seed=3)
        assert a.k == 2 and len(a.labels) == 6
        assert set(a.labels) == {0, 1}

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((2, 2)), 3, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 3))
        assert kmeans(pts, 4, seed=9) == kmeans(pts, 4, seed=9)

    def test_one_dimensional_points(self):
        assert kmeans([0.0, 0.1, 5.0, 5.1], 2, seed=0).labels == (1, 1, 0, 0)

    def test_empty_cluster_takes_a_point_from_a_shared_cluster(self):
        # the farthest point sits alone in its cluster, so an empty cluster
        # takes a point of the largest one instead
        a = kmeans([1.0, 0, 0, 0, 0, 0], 5, seed=0)
        assert a.k == 5 and len(a.labels) == 6 and set(a.labels) == set(range(5))


class TestSpectralClustering:
    def test_disjoint_triangles_recovered(self):
        g = two_triangles()
        truth = ClusterAssignment((0, 0, 0, 1, 1, 1), 2)
        for seed in range(20):
            a = spectral_clustering(g, 2, seed=seed)
            assert adjusted_rand_index(a, truth) == 1.0

    def test_planted_blocks_recovered(self):
        rng = np.random.default_rng(7)
        g, labels = planted_three_block_graph(rng)
        truth = ClusterAssignment(tuple(labels), 3)
        good = sum(
            adjusted_rand_index(spectral_clustering(g, 3, seed=s), truth) >= 0.9
            for s in range(20)
        )
        assert good >= 20

    def test_k1_single_cluster(self):
        a = spectral_clustering(two_triangles(), 1, seed=0)
        assert set(a.labels) == {0}


class TestMulticutWeight:
    def test_single_cluster_zero(self):
        g = two_triangles()
        a = ClusterAssignment((0,) * 6, 1)
        assert multicut_weight(g, a) == 0.0

    def test_single_edge_cut(self):
        g = WeightedGraph(2, ((0, 1, 3.0),))
        a = ClusterAssignment((0, 1), 2)
        assert multicut_weight(g, a) == 3.0

    def test_component_split_zero(self):
        g = two_triangles()
        a = ClusterAssignment((0, 0, 0, 1, 1, 1), 2)
        assert multicut_weight(g, a) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multicut_weight(two_triangles(), ClusterAssignment((0, 1), 2))


@pytest.mark.parametrize(
    "labels, detail",
    [((0, 2), "labels outside [0, 2)"), ((0, 0), "every cluster id must be used at least once")],
)
def test_cluster_assignment_refusals(labels, detail):
    with pytest.raises(ValueError) as exc:
        ClusterAssignment(labels, 2)
    assert str(exc.value) == detail


def brute_force_ari(a, b):
    n = len(a.labels)
    pairs = list(itertools.combinations(range(n), 2))
    same_a = [a.labels[i] == a.labels[j] for i, j in pairs]
    same_b = [b.labels[i] == b.labels[j] for i, j in pairs]
    n11 = sum(x and y for x, y in zip(same_a, same_b))
    n00 = sum((not x) and (not y) for x, y in zip(same_a, same_b))
    n10 = sum(x and not y for x, y in zip(same_a, same_b))
    n01 = sum(y and not x for x, y in zip(same_a, same_b))
    num = 2 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


class TestAdjustedRandIndex:
    def test_identity(self):
        a = ClusterAssignment((0, 0, 1, 1), 2)
        assert adjusted_rand_index(a, a) == 1.0

    def test_relabeling_invariant(self):
        a = ClusterAssignment((0, 0, 1, 1), 2)
        b = ClusterAssignment((1, 1, 0, 0), 2)
        assert adjusted_rand_index(a, b) == 1.0

    def test_crossed_split_matches_brute_force(self):
        a = ClusterAssignment((0, 0, 1, 1), 2)
        b = ClusterAssignment((0, 1, 0, 1), 2)
        assert adjusted_rand_index(a, b) == pytest.approx(brute_force_ari(a, b))

    def test_random_against_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            la = rng.integers(0, 3, size=n)
            lb = rng.integers(0, 3, size=n)
            la[: 3] = [0, 1, 2]
            lb[: 3] = [0, 1, 2]
            a = ClusterAssignment(tuple(int(x) for x in la), 3)
            b = ClusterAssignment(tuple(int(x) for x in lb), 3)
            assert adjusted_rand_index(a, b) == pytest.approx(brute_force_ari(a, b))

    def test_symmetric(self):
        a = ClusterAssignment((0, 0, 1, 2), 3)
        b = ClusterAssignment((0, 1, 1, 0), 2)
        assert adjusted_rand_index(a, b) == pytest.approx(adjusted_rand_index(b, a))
