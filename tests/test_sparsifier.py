import math

import numpy as np
import pytest

from distsparse import (
    DimensionMismatch,
    EdgeFamily,
    SparsifierResult,
    WeightedGraph,
    connected_components,
    effective_resistances,
    epsilon_prime,
    induced_subgraph,
    laplacian,
    sparsify_er,
    union_sparsifiers,
    verify_epsilon,
)
from conftest import random_covering_family, random_graph


def scaled(g, alpha):
    return WeightedGraph(g.n, tuple((u, v, alpha * w) for u, v, w in g.edges))


def complete_graph(n, w=1.0):
    return WeightedGraph(n, tuple((u, v, w) for u in range(n) for v in range(u + 1, n)))


# two components whose weights differ by 11 orders of magnitude
SPLIT = WeightedGraph(4, ((0, 1, 1e8), (2, 3, 1e-3)))


def reference_pinv(g):
    """Oracle for the resistances: the pseudoinverse of L_G from a dense
    `eigh` of every component's block. Each block's kernel is its constant
    vector (the smallest eigenpair), so no global cutoff is involved."""
    L, Lp = laplacian(g).matrix, np.zeros((g.n, g.n))
    for c in connected_components(g):
        evals, U = np.linalg.eigh(L[np.ix_(c, c)])
        Lp[np.ix_(c, c)] = (U[:, 1:] / evals[1:]) @ U[:, 1:].T
    return Lp


def reference_epsilon(g, h):
    """Oracle for the verifier from the same per-component `eigh`: +inf when
    an H edge crosses components of G, else the extreme eigenvalues of L_H
    relative to L_G off the kernel."""
    comps = connected_components(g)
    comp_of = {x: i for i, c in enumerate(comps) for x in c}
    if any(comp_of[u] != comp_of[v] for u, v, _ in h.edges):
        return math.inf
    Lg, Lh = laplacian(g).matrix, laplacian(h).matrix
    mu = [1.0]
    for c in comps:
        evals, U = np.linalg.eigh(Lg[np.ix_(c, c)])
        A = U[:, 1:] / np.sqrt(evals[1:])
        mu.extend(np.linalg.eigvalsh(A.T @ Lh[np.ix_(c, c)] @ A))
    return max(1 - min(mu), max(mu) - 1)


def random_split_pair(rng):
    """G: 1-4 connected components of 1-6 vertices (size 1 = isolated), each
    at its own weight scale in [1e-3, 1e8], vertices shuffled. H: G's edges
    reweighted, some dropped, and sometimes one edge across components."""
    sizes = rng.integers(1, 7, size=int(rng.integers(1, 5)))
    perm = rng.permutation(int(sizes.sum()))
    edges, start = {}, 0
    for size in sizes:
        scale = 10.0 ** rng.uniform(-3, 8)
        for x in range(1, size):  # random spanning tree, then extra edges
            edges[(start + int(rng.integers(x)), start + x)] = scale * rng.uniform(0.5, 2)
        for a in range(size):
            for b in range(a + 1, size):
                if rng.random() < 0.3:
                    edges[(start + a, start + b)] = scale * rng.uniform(0.5, 2)
        start += size
    g = WeightedGraph(start, tuple((perm[a], perm[b], w) for (a, b), w in edges.items()))
    h_edges = [(u, v, w * rng.uniform(0.3, 3)) for u, v, w in g.edges if rng.random() < 0.8]
    if len(sizes) > 1 and rng.random() < 0.3:
        a, b = rng.choice(len(sizes), size=2, replace=False)
        h_edges.append((perm[int(sizes[:a].sum())], perm[int(sizes[:b].sum())], 1.0))
    return g, WeightedGraph(g.n, tuple(h_edges))


class TestEffectiveResistances:
    def test_single_edge(self):
        g = WeightedGraph(2, ((0, 1, 4.0),))
        assert effective_resistances(g)[(0, 1)] == pytest.approx(0.25)

    def test_triangle_series_parallel(self):
        g = complete_graph(3)
        r = effective_resistances(g)
        for e in g.pairs():
            assert r[e] == pytest.approx(2 / 3)

    def test_bridge_edge(self):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        assert effective_resistances(g)[(0, 1)] == pytest.approx(1.0)

    def test_disconnected_components_handled(self):
        g = WeightedGraph(4, ((0, 1, 2.0), (2, 3, 1.0)))
        r = effective_resistances(g)
        assert r[(0, 1)] == pytest.approx(0.5)
        assert r[(2, 3)] == pytest.approx(1.0)

    def test_components_at_distant_scales(self):
        r = effective_resistances(SPLIT)
        assert r[(0, 1)] == pytest.approx(1e-8, rel=1e-9)
        assert r[(2, 3)] == pytest.approx(1000.0, rel=1e-9)

    def test_matches_per_component_reference(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            g, _ = random_split_pair(rng)
            Lp = reference_pinv(g)
            r = effective_resistances(g)
            assert list(r) == [(u, v) for u, v, _ in g.edges]
            for (u, v), got in r.items():
                assert got == pytest.approx(Lp[u, u] + Lp[v, v] - 2 * Lp[u, v], rel=1e-9)


class TestVerifyEpsilon:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 15)))
            assert verify_epsilon(g, g) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 1.5, 2.0])
    def test_uniform_scaling(self, alpha):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 12)
        assert verify_epsilon(g, scaled(g, alpha)) == pytest.approx(abs(alpha - 1), abs=1e-9)

    def test_doubling_gives_one(self):
        g = complete_graph(5)
        assert verify_epsilon(g, scaled(g, 2.0)) == pytest.approx(1.0, abs=1e-9)

    def test_dropped_parallel_path_vs_random_rayleigh(self):
        # triangle 0-2-1 plus direct edge (0,1); drop one edge and compare
        # the eigensolve answer against random Rayleigh quotients
        g = WeightedGraph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        h = induced_subgraph(g, [(0, 1), (0, 2)])
        eps = verify_epsilon(g, h)
        rng = np.random.default_rng(42)
        X = rng.normal(size=(100_000, 3))
        Lg, Lh = laplacian(g).matrix, laplacian(h).matrix
        num = np.einsum("ij,jk,ik->i", X, Lh, X)
        den = np.einsum("ij,jk,ik->i", X, Lg, X)
        mask = den > 1e-12
        ratio = num[mask] / den[mask]
        sampled = max(1 - ratio.min(), ratio.max() - 1)
        assert eps >= sampled - 1e-9

    def test_kernel_violation_sentinel(self):
        # "sparsifier" with an edge the source graph's kernel does not allow
        g = WeightedGraph(3, ((0, 1, 1.0),))
        h = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        assert math.isinf(verify_epsilon(g, h))

    def test_disconnecting_subgraph_is_finite(self):
        g = complete_graph(4)
        h = induced_subgraph(g, [(0, 1)])
        eps = verify_epsilon(g, h)
        assert math.isfinite(eps) and eps >= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_epsilon(complete_graph(3), complete_graph(4))

    def test_light_component_dropped_is_not_kernel(self):
        # a global kernel cutoff at 1e-10 * lambda_max once took the light
        # component's spectrum for kernel and certified ~1e-16 here
        h = WeightedGraph(4, ((0, 1, 1e8),))
        assert verify_epsilon(SPLIT, h) == pytest.approx(1.0, rel=1e-9)

    def test_light_component_reweighted_is_finite(self):
        # the same cutoff once returned +inf here
        h = WeightedGraph(4, ((0, 1, 1e8), (2, 3, 1.0)))
        assert verify_epsilon(SPLIT, h) == pytest.approx(999.0, rel=1e-9)

    def test_edgeless_graphs(self):
        empty = WeightedGraph(3, ())
        assert verify_epsilon(empty, empty) == 0.0
        assert math.isinf(verify_epsilon(empty, WeightedGraph(3, ((0, 2, 1.0),))))

    def test_matches_per_component_reference(self):
        rng = np.random.default_rng(2025)
        crossing = 0
        for _ in range(300):
            g, h = random_split_pair(rng)
            expected = reference_epsilon(g, h)
            crossing += math.isinf(expected)
            assert verify_epsilon(g, h) == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert 30 <= crossing <= 270

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 10)
        h = induced_subgraph(g, sorted(g.pairs())[: g.m - 2])
        perm = rng.permutation(10)
        gp = WeightedGraph(10, tuple((perm[u], perm[v], w) for u, v, w in g.edges))
        hp = WeightedGraph(10, tuple((perm[u], perm[v], w) for u, v, w in h.edges))
        assert verify_epsilon(gp, hp) == pytest.approx(verify_epsilon(g, h), abs=1e-9)


class TestSparsifyEr:
    def test_small_graph_returned_verbatim(self):
        g = WeightedGraph(2, ((0, 1, 1.0),))
        res = sparsify_er(g, 0.5, seed=0)
        assert res.h == g and res.epsilon_certified == 0.0

    def test_epsilon_out_of_range(self):
        g = complete_graph(4)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                sparsify_er(g, bad, seed=0)

    def test_edgeless_rejected(self):
        g = induced_subgraph(complete_graph(3), [])
        with pytest.raises(ValueError):
            sparsify_er(g, 0.5, seed=0)

    def test_deterministic_given_seed(self):
        g = complete_graph(30)
        a = sparsify_er(g, 0.3, seed=7)
        b = sparsify_er(g, 0.3, seed=7)
        assert a == b

    def test_k40_quality_sample(self):
        # small pre-check of the acceptance criterion (full run in acceptance)
        g = complete_graph(40)
        ok = 0
        for seed in range(10):
            res = sparsify_er(g, 0.5, seed=seed)
            if res.epsilon_certified <= 0.5:
                ok += 1
            assert res.h.m <= math.ceil(9 * 40 * math.log(40) / 0.25)
        assert ok >= 9

    def test_disjoint_triangles_stay_connected(self):
        g = WeightedGraph(
            6,
            (
                (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
            ),
        )
        from distsparse import connected_components

        ok = 0
        for seed in range(20):
            res = sparsify_er(g, 0.5, seed=seed)
            if len(connected_components(res.h)) == 2:
                ok += 1
        assert ok >= 19


class TestEpsilonPrime:
    def test_paper_formula(self):
        assert epsilon_prime(0.1, 1, 2) == pytest.approx(0.55)

    def test_degenerate_single_cardinality(self):
        assert epsilon_prime(0.37, 1, 1) == pytest.approx(0.37)
        assert epsilon_prime(0.5, 1, 1) == pytest.approx(0.5)

    def test_exact_parts_duplicated(self):
        assert epsilon_prime(0.0, 2, 2) == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            epsilon_prime(-0.1, 1, 2)
        with pytest.raises(ValueError):
            epsilon_prime(0.1, 2, 1)
        with pytest.raises(ValueError):
            epsilon_prime(0.1, 0, 1)


def exact_parts(f):
    return [
        SparsifierResult(h=induced_subgraph(f.base, s), epsilon_target=0.0, epsilon_certified=0.0)
        for s in f.sets
    ]


class TestUnionSparsifiers:
    def test_single_set_is_identity(self):
        g = complete_graph(5)
        f = EdgeFamily(g, (g.pairs(),))
        u = union_sparsifiers(exact_parts(f), f)
        assert u.h == g
        assert u.c1 == u.ck == 1
        assert u.epsilon_prime == 0.0

    def test_duplicated_family_tight_bound(self):
        g = complete_graph(6)
        f = EdgeFamily(g, (g.pairs(), g.pairs()))
        u = union_sparsifiers(exact_parts(f), f)
        assert u.c1 == u.ck == 2
        for u_, v_, w in u.h.edges:
            assert w == pytest.approx(g.weights()[(u_, v_)] / 2)
        assert verify_epsilon(g, u.h) == pytest.approx(0.5, abs=1e-9)
        assert u.epsilon_prime == pytest.approx(0.5)

    def test_theorem_bound_random_exact_parts(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            g = random_graph(rng, 30, p=0.2)
            f = random_covering_family(rng, g, 4)
            u = union_sparsifiers(exact_parts(f), f)
            assert verify_epsilon(g, u.h) <= u.epsilon_prime + 1e-9

    def test_union_edge_set_and_positive_weights(self):
        rng = np.random.default_rng(22)
        g = random_graph(rng, 15, p=0.4)
        f = random_covering_family(rng, g, 3)
        parts = exact_parts(f)
        u = union_sparsifiers(parts, f)
        expected = frozenset().union(*(p.h.pairs() for p in parts))
        assert u.h.pairs() == expected
        assert all(w > 0 for _, _, w in u.h.edges)

    def test_part_count_mismatch(self):
        g = complete_graph(4)
        f = EdgeFamily(g, (g.pairs(), g.pairs()))
        with pytest.raises(ValueError):
            union_sparsifiers(exact_parts(f)[:1], f)

    def test_empty_parts(self):
        g = complete_graph(4)
        f = EdgeFamily(g, (g.pairs(),))
        with pytest.raises(ValueError):
            union_sparsifiers([], f)

    def test_vertex_mismatch(self):
        g = complete_graph(4)
        f = EdgeFamily(g, (g.pairs(),))
        bad = SparsifierResult(h=complete_graph(5), epsilon_target=0.0, epsilon_certified=0.0)
        with pytest.raises(DimensionMismatch):
            union_sparsifiers([bad], f)
