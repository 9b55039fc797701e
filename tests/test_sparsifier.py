import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsparse import (
    DimensionMismatch,
    EdgeFamily,
    Error,
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
    L, Lp = laplacian(g), np.zeros((g.n, g.n))
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
    Lg, Lh = laplacian(g), laplacian(h)
    mu = [1.0]
    for c in comps:
        evals, U = np.linalg.eigh(Lg[np.ix_(c, c)])
        A = U[:, 1:] / np.sqrt(evals[1:])
        mu.extend(np.linalg.eigvalsh(A.T @ Lh[np.ix_(c, c)] @ A))
    return max(1 - min(mu), max(mu) - 1)


def exact_laplacian(g):
    """L_G in exact rationals: each float weight is converted exactly."""
    L = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v, w in g.edges:
        w = Fraction(w)
        L[u][u] += w
        L[v][v] += w
        L[u][v] -= w
        L[v][u] -= w
    return L


def is_psd_exact(M):
    """Whether a symmetric rational matrix is positive semidefinite, by an
    exact LDL^T elimination: a negative pivot refutes it, and a zero pivot
    is allowed only with a zero row, which is then skipped."""
    M = [row[:] for row in M]
    n = len(M)
    for k in range(n):
        d = M[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(M[k][i] != 0 for i in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = M[i][k] / d
            for j in range(k + 1, n):
                M[i][j] -= f * M[k][j]
    return True


def exactly_valid(g, h, eps):
    """Whether (1-eps) L_G <= L_H <= (1+eps) L_G holds exactly, eps a
    Fraction: both (1+eps) L_G - L_H and L_H - (1-eps) L_G are PSD."""
    Lg, Lh = exact_laplacian(g), exact_laplacian(h)
    upper = [[(1 + eps) * a - b for a, b in zip(ra, rb)] for ra, rb in zip(Lg, Lh)]
    lower = [[b - (1 - eps) * a for a, b in zip(ra, rb)] for ra, rb in zip(Lg, Lh)]
    return is_psd_exact(upper) and is_psd_exact(lower)


@st.composite
def graph_and_candidate(draw):
    """A graph on n <= 6 vertices with weights in the benchmark's range
    [0.1, 3], and a candidate that drops some of its edges, keeps some and
    rescales the others by 0.5-2."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    weights = st.floats(0.1, 3.0)
    g = WeightedGraph(n, tuple((u, v, draw(weights)) for u, v in sorted(chosen)))
    change = st.one_of(st.none(), st.just(1.0), st.floats(0.5, 2.0))
    candidate = []
    for u, v, w in g.edges:
        factor = draw(change)
        if factor is not None:
            candidate.append((u, v, w * factor))
    return g, WeightedGraph(n, tuple(candidate))


# an ill-conditioned pair whose weight spread, 4e11, is below 1/eps_mach: the
# exact factor is 1 (x = e_0 gives the ratio 2), but forming C^-1 L_H C^-T
# with an explicit inverse loses about eps_mach times the condition number
# of the grounded block
ILL_G = WeightedGraph(
    4, ((0, 1, 0.0013710380709953812), (1, 3, 0.8806486895247286), (1, 2, 0.8407493119117172), (2, 3, 585699198.1201286))
)
ILL_H = WeightedGraph(
    4, ((0, 1, 0.0027420761419907624), (1, 3, 1.320973034287093), (1, 2, 0.8407493119117172), (2, 3, 292849599.0600643))
)


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
        Lg, Lh = laplacian(g), laplacian(h)
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

    def test_identical_graphs_are_exactly_zero(self):
        # equal graphs, also as distinct objects and with several components,
        # certify exactly 0 and build no factor
        rng = np.random.default_rng(12)
        for _ in range(50):
            g = random_split_pair(rng)[0] if rng.random() < 0.5 else random_graph(rng, int(rng.integers(2, 15)))
            copy = WeightedGraph(g.n, g.records)
            assert verify_epsilon(g, g) == 0.0
            assert verify_epsilon(g, copy) == 0.0
            assert "factor" not in g.__dict__ and "factor" not in copy.__dict__


class TestExactOracle:
    """The verifier against an exact-rational PSD check of its certificate."""

    def test_oracle_on_known_factors(self):
        g = complete_graph(4)
        assert exactly_valid(g, scaled(g, 2.0), Fraction(1))
        assert not exactly_valid(g, scaled(g, 2.0), Fraction(999999, 10**6))
        assert exactly_valid(g, g, Fraction(0))
        assert not exactly_valid(g, g, Fraction(-1, 10**9))

    @given(graph_and_candidate())
    @settings(max_examples=200, deadline=None)
    def test_certificate_is_tight(self, pair):
        g, h = pair
        cert = Fraction(verify_epsilon(g, h))
        slack = Fraction(1, 10**9)
        assert exactly_valid(g, h, cert + slack)
        assert not exactly_valid(g, h, cert - slack)

    def test_ill_conditioned_pair_truth_is_one(self):
        assert exactly_valid(ILL_G, ILL_H, Fraction(1))
        assert not exactly_valid(ILL_G, ILL_H, Fraction(999999, 10**6))

    @pytest.mark.xfail(
        strict=True,
        reason="the explicit inverse of the grounded factor loses about eps_mach times its condition number",
    )
    def test_ill_conditioned_pair_is_certified_or_refused(self):
        try:
            cert = verify_epsilon(ILL_G, ILL_H)
        except (ValueError, Error):  # a worded refusal
            return
        assert cert == pytest.approx(1.0, abs=1e-9)


class TestComponentFactor:
    def test_one_block_per_component(self):
        # components {0, 3, 5} and {1, 4, 6}; 2 and 7 are isolated
        g = WeightedGraph(8, ((0, 3, 1.0), (3, 5, 2.0), (1, 4, 1.0), (4, 6, 3.0), (1, 6, 0.5)))
        component, blocks = g.factor
        assert [free.tolist() for free, _ in blocks] == [[3, 5], [4, 6]]
        assert component.tolist() == [0, 1, 2, 0, 1, 0, 1, 3]
        L = laplacian(g)
        for free, cinv in blocks:
            assert cinv.shape == (len(free), len(free))
            C = np.linalg.inv(cinv)
            assert np.allclose(C @ C.T, L[np.ix_(free, free)])

    def test_edgeless_graph_has_no_blocks(self):
        component, blocks = WeightedGraph(3, ()).factor
        assert component.tolist() == [0, 1, 2] and blocks == ()

    def test_interleaved_components(self):
        # evens and odds form two components, one at weight 1e8 and one at
        # 1e-3, their vertices interleaved
        rng = np.random.default_rng(5)
        n = 40
        edges = {}
        for parity, scale in ((0, 1e8), (1, 1e-3)):
            members = list(range(parity, n, 2))
            for x in range(1, len(members)):  # spanning path, then chords
                edges[(members[x - 1], members[x])] = scale * rng.uniform(0.5, 2)
            for a, b in rng.choice(members, size=(15, 2)):
                if a != b:
                    edges[(min(a, b), max(a, b))] = scale * rng.uniform(0.5, 2)
        g = WeightedGraph(n, tuple((a, b, w) for (a, b), w in edges.items()))
        _, blocks = g.factor
        assert [free.tolist() for free, _ in blocks] == [list(range(2, n, 2)), list(range(3, n, 2))]
        Lp = reference_pinv(g)
        u, v = g.u, g.v
        np.testing.assert_allclose(g.resistances, Lp[u, u] + Lp[v, v] - 2 * Lp[u, v], rtol=1e-9)
        for keep in (0.6, 1.0):
            kept = [(a, b, w * rng.uniform(0.3, 3)) for a, b, w in g.edges if rng.random() < keep]
            h = WeightedGraph(n, tuple(kept))
            assert verify_epsilon(g, h) == pytest.approx(reference_epsilon(g, h), rel=1e-9)
        crossing = WeightedGraph(n, g.edges + ((0, 1, 1.0),))
        assert math.isinf(verify_epsilon(g, crossing))

    def test_many_two_vertex_components(self):
        # 300 disjoint edges, then 100 isolated vertices
        rng = np.random.default_rng(6)
        w = 10.0 ** rng.uniform(-3, 8, size=300)
        g = WeightedGraph(700, tuple((2 * i, 2 * i + 1, float(w[i])) for i in range(300)))
        _, blocks = g.factor
        assert [free.tolist() for free, _ in blocks] == [[2 * i + 1] for i in range(300)]
        np.testing.assert_allclose(g.resistances, 1 / w, rtol=1e-12)
        ratio = rng.uniform(0.5, 1.8, size=300)
        h = WeightedGraph(700, tuple((2 * i, 2 * i + 1, float(w[i] * ratio[i])) for i in range(300)))
        expected = max(1 - ratio.min(), ratio.max() - 1)
        assert verify_epsilon(g, h) == pytest.approx(expected, rel=1e-9)
        assert verify_epsilon(g, h) == pytest.approx(reference_epsilon(g, h), rel=1e-9)

    def test_connected_graph_is_the_whole_grounded_matrix(self):
        # one component: resistances and certificate are bitwise those of
        # one Cholesky factor of L_G with vertex 0 grounded
        rng = np.random.default_rng(7)
        g = random_graph(rng, 30, p=0.3)
        assert len(connected_components(g)) == 1
        h = WeightedGraph(g.n, tuple((u, v, w * rng.uniform(0.5, 2)) for u, v, w in g.edges))
        Lg, Lh = laplacian(g), laplacian(h)
        cinv = np.linalg.inv(np.linalg.cholesky(Lg[1:, 1:]))
        X = np.zeros((g.n, g.n))
        X[1:, 1:] = cinv.T @ cinv
        u, v = g.u, g.v
        assert np.array_equal(g.resistances, X[u, u] + X[v, v] - 2.0 * X[u, v])
        mu = np.linalg.eigvalsh(cinv @ Lh[1:, 1:] @ cinv.T)
        assert verify_epsilon(g, h) == max(1.0 - mu.min(initial=1.0), mu.max(initial=1.0) - 1.0)


def random_component(rng, size, scale):
    """Edges of a connected graph on 0..size-1: a random spanning tree, then
    chords with probability 0.1, weights `scale` times uniform in [0.5, 2)."""
    edges = {(int(rng.integers(x)), x): scale * rng.uniform(0.5, 2) for x in range(1, size)}
    for a, b in zip(*np.nonzero(np.triu(rng.random((size, size)) < 0.1, 1))):
        edges[(int(a), int(b))] = scale * rng.uniform(0.5, 2)
    return edges


def components_graph(rng, sizes, scales):
    """Disjoint random components of the given sizes and weight scales, their
    vertices shuffled over 0..sum(sizes)-1."""
    perm = rng.permutation(sum(sizes))
    edges, start = [], 0
    for size, scale in zip(sizes, scales):
        edges += [(perm[start + a], perm[start + b], w) for (a, b), w in random_component(rng, size, scale).items()]
        start += size
    return WeightedGraph(start, tuple(edges))


class TestTriangularInverse:
    """Blocks of more than 64 rows (`graph._LEAF_ROWS`) are inverted by the
    blocked triangular recursion, smaller ones by one `np.linalg.inv`."""

    # an isolated vertex (no block), then blocks of 1, 63, 64, 65, 128, 129 and 299 rows
    SIZES = (1, 2, 64, 65, 66, 129, 130, 300)

    def test_blocks_are_the_inverse_triangle(self):
        rng = np.random.default_rng(13)
        g = components_graph(rng, self.SIZES, [1.0] * len(self.SIZES))
        L = laplacian(g)
        _, blocks = g.factor
        assert sorted(len(free) for free, _ in blocks) == [s - 1 for s in self.SIZES if s > 1]
        for free, cinv in blocks:
            expected = np.linalg.inv(np.linalg.cholesky(L[np.ix_(free, free)]))
            assert not np.triu(cinv, 1).any()
            assert np.linalg.norm(cinv - expected) <= 1e-12 * np.linalg.norm(expected)
            if len(free) <= 64:
                assert np.array_equal(cinv, expected)

    def test_components_at_distant_scales_match_reference(self):
        # one block above the leaf and one below, each at its own weight
        # scale, next to an isolated vertex
        rng = np.random.default_rng(14)
        g = components_graph(rng, (150, 40, 1), (1e3, 1e-3, 1.0))
        assert sorted(len(free) for free, _ in g.factor[1]) == [39, 149]
        Lp = reference_pinv(g)
        u, v = g.u, g.v
        np.testing.assert_allclose(g.resistances, Lp[u, u] + Lp[v, v] - 2 * Lp[u, v], rtol=1e-9)
        for keep in (0.6, 1.0):
            kept = [(a, b, w * rng.uniform(0.3, 3)) for a, b, w in g.edges if rng.random() < keep]
            h = WeightedGraph(g.n, tuple(kept))
            assert verify_epsilon(g, h) == pytest.approx(reference_epsilon(g, h), rel=1e-9)


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

    @pytest.mark.parametrize(
        "constant, detail",
        [
            (-1.0, "constant must be finite and positive"),
            (0.0, "constant must be finite and positive"),
            (math.inf, "constant must be finite and positive"),
            (math.nan, "constant must be finite and positive"),
            # finite, but q overflows the sampler's int64 count
            (1e300, "at most 9223372036854775807 can be drawn"),
        ],
    )
    def test_constant_out_of_range(self, constant, detail):
        with pytest.raises(ValueError, match=detail):
            sparsify_er(complete_graph(4), 0.5, seed=0, constant=constant)

    def test_epsilon_whose_square_underflows(self):
        with pytest.raises(ValueError, match="inf samples"):
            sparsify_er(complete_graph(4), 1e-200, seed=0)

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
        SparsifierResult(h=induced_subgraph(f.base, s), epsilon_certified=0.0)
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

    def test_copies_summed_part_after_part(self):
        # each pair's copies are added in part order, one Python float at a
        # time, then scaled once; up to six parts give pairs with 3+ copies
        rng = np.random.default_rng(23)
        most = 0
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(4, 14)), p=0.5)
            f = random_covering_family(rng, g, int(rng.integers(2, 7)))
            parts = []
            for edges in f.sets:
                sub = induced_subgraph(f.base, edges)
                reweighted = tuple((u, v, w * float(rng.uniform(0.5, 2.0))) for u, v, w in sub.edges)
                parts.append(SparsifierResult(h=WeightedGraph(g.n, reweighted), epsilon_certified=0.0))
            u = union_sparsifiers(parts, f)
            sums = {}
            for p in parts:
                for a, b, w in p.h.edges:
                    sums[(a, b)] = sums.get((a, b), 0.0) + w
            scale = 1.0 / (u.c1 * u.ck)
            assert u.h.edges == tuple((a, b, sums[(a, b)] * scale) for a, b in sorted(sums))
            most = max(most, u.ck)
        assert most >= 3

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
        bad = SparsifierResult(h=complete_graph(5), epsilon_certified=0.0)
        with pytest.raises(DimensionMismatch):
            union_sparsifiers([bad], f)
