import math
import warnings
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
    spectral_bounds,
    union_sparsifiers,
    verify_epsilon,
)
from distsparse.sparsify import _pcg64_states, _sparsify_each
from conftest import edge_pairs, random_covering_family, random_graph, same_bits


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


def free_vertices(g):
    """The free vertices of each block of `g.factor`, in block order: every
    component of at least two vertices less its smallest member."""
    return [comp[1:] for comp in connected_components(g) if len(comp) > 1]


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
        for e in edge_pairs(g):
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
        h = induced_subgraph(g, sorted(edge_pairs(g))[: g.m - 2])
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


def edge_form(g, x):
    """x'L_G x as the sum of w (x_u - x_v)^2 over G's edges: no cancellation."""
    return float(np.sum(g.w * (x[g.u] - x[g.v]) ** 2))


def overflow_pair(tiny, huge):
    """G: a triangle at weight `tiny`. H: two of its edges at weight `huge`,
    so no H edge joins two components of G."""
    g = WeightedGraph(3, ((0, 1, tiny), (0, 2, tiny), (1, 2, tiny)))
    return g, WeightedGraph(3, ((0, 1, huge), (1, 2, huge)))


class TestSpectralBounds:
    """`spectral_bounds`, the pencil the verifier reads."""

    def test_equal_graphs_are_one_with_no_factor(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_split_pair(rng)[0]
            copy = WeightedGraph(g.n, g.records)
            assert spectral_bounds(g, g) == (1.0, 1.0) and spectral_bounds(g, copy) == (1.0, 1.0)
            assert "factor" not in g.__dict__ and "factor" not in copy.__dict__

    def test_crossing_edge_has_no_eigensolve(self, monkeypatch):
        def no_eigensolve(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        g = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5)))
        h = WeightedGraph(5, ((0, 1, 1.0), (2, 3, 1.0)))
        assert spectral_bounds(g, h) == (0.0, math.inf)
        assert spectral_bounds(WeightedGraph(3, ()), WeightedGraph(3, ((0, 2, 1.0),))) == (0.0, math.inf)

    @given(graph_and_candidate(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bounds_bracket_rayleigh_quotients(self, pair, seed):
        g, h = pair
        mu_min, mu_max = spectral_bounds(g, h)
        assert mu_min <= mu_max
        for x in np.random.default_rng(seed).normal(size=(50, g.n)):
            den = edge_form(g, x)
            if den > 0:
                ratio = edge_form(h, x) / den
                assert mu_min - 1e-9 <= ratio <= mu_max + 1e-9

    def test_uniform_scaling_is_the_scale(self):
        g = random_graph(np.random.default_rng(14), 12)
        assert spectral_bounds(g, scaled(g, 2.0)) == pytest.approx((2.0, 2.0), abs=1e-9)

    def test_verify_epsilon_is_the_bounds_bitwise(self):
        rng = np.random.default_rng(15)
        pairs = [random_split_pair(rng) for _ in range(200)]
        pairs += [(ILL_G, ILL_H), (SPLIT, WeightedGraph(4, ((0, 1, 1e8),))), (SPLIT, SPLIT)]
        for g, h in pairs:
            mu_min, mu_max = spectral_bounds(g, h)
            assert same_bits(verify_epsilon(g, h), max(1.0 - mu_min, mu_max - 1.0))

    @pytest.mark.parametrize(
        "tiny, huge, bounds, eps",
        [(1e-5, 1e306, (-math.inf, math.inf), math.inf), (1e-300, 1e300, (math.nan, math.nan), math.nan)],
    )
    def test_overflow_with_no_crossing_edge(self, tiny, huge, bounds, eps):
        # under numpy's default error state the products overflow to inf or
        # NaN; with overflow raising, as the CLI runs, they are an error
        g, h = overflow_pair(tiny, huge)
        with np.errstate(over="warn", invalid="warn"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = spectral_bounds(g, h)
            got_eps = verify_epsilon(g, h)
        assert any("overflow" in str(w.message) for w in caught)
        # NaN equals NaN here, whatever its sign bit
        np.testing.assert_array_equal((*got, got_eps), (*bounds, eps))
        with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError, match="overflow"):
            verify_epsilon(g, h)


class TestComponentFactor:
    def test_one_block_per_component(self):
        # components {0, 3, 5} and {1, 4, 6}; 2 and 7 are isolated
        g = WeightedGraph(8, ((0, 3, 1.0), (3, 5, 2.0), (1, 4, 1.0), (4, 6, 3.0), (1, 6, 0.5)))
        blocks = g.factor
        assert free_vertices(g) == [[3, 5], [4, 6]] and len(blocks) == 2
        assert g._components[2].tolist() == [0, 1, 2, 0, 1, 0, 1, 3]
        L = laplacian(g)
        for free, cinv in zip(free_vertices(g), blocks):
            assert cinv.shape == (len(free), len(free))
            C = np.linalg.inv(cinv)
            assert np.allclose(C @ C.T, L[np.ix_(free, free)])

    def test_edgeless_graph_has_no_blocks(self):
        g = WeightedGraph(3, ())
        assert g._components[2].tolist() == [0, 1, 2] and g.factor == ()

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
        assert free_vertices(g) == [list(range(2, n, 2)), list(range(3, n, 2))] and len(g.factor) == 2
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
        assert free_vertices(g) == [[2 * i + 1] for i in range(300)] and len(g.factor) == 300
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
        blocks = g.factor
        assert sorted(map(len, blocks)) == [s - 1 for s in self.SIZES if s > 1]
        for free, cinv in zip(free_vertices(g), blocks):
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
        assert sorted(map(len, g.factor)) == [39, 149]
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


class TestSeedStates:
    """`_pcg64_states` computes, in one pass, the states that
    `np.random.default_rng(seed)` starts from; the exchange's site draws are
    bitwise a fresh generator's only while these agree."""

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_states_are_default_rng_states(self, seeds):
        seeds += [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
        assert _pcg64_states(seeds) == [np.random.default_rng(seed).bit_generator.state for seed in seeds]

    @pytest.mark.parametrize("bad", [-1, 2**64])
    @pytest.mark.parametrize("at", [0, 1])
    def test_seed_outside_64_bits_among_several_is_refused(self, bad, at):
        seeds = [5, 7]
        seeds[at] = bad
        with pytest.raises(ValueError, match=r"seeds must lie in \[0, 2\*\*64\), got " + str(bad)):
            _sparsify_each(complete_graph(4), 0.5, seeds)

    def test_many_seeds_are_one_seed_each(self):
        # C = 1 draws 43 edges from K6's 15: some seeds cover every edge,
        # the rest are reweighted and certified one after another
        g = WeightedGraph(6, tuple((u, v, 1.0 + 0.1 * u) for u in range(6) for v in range(u + 1, 6)))
        seeds = list(range(16))
        each = _sparsify_each(g, 0.5, seeds, constant=1.0)
        whole = [part for part in each if part.h is g]
        assert 0 < len(whole) < len(seeds)
        assert all(part is whole[0] for part in whole) and whole[0].epsilon_certified == 0.0
        for part, seed in zip(each, seeds):
            alone = sparsify_er(g, 0.5, seed, constant=1.0)
            assert same_bits(part.h.records, alone.h.records) and part.h.n == alone.h.n
            assert same_bits(part.epsilon_certified, alone.epsilon_certified)


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
        for s in edge_pairs(f)
    ]


class TestUnionSparsifiers:
    def test_single_set_is_identity(self):
        g = complete_graph(5)
        f = EdgeFamily.from_pairs(g, (edge_pairs(g),))
        u = union_sparsifiers(exact_parts(f), f)
        assert u.h == g
        assert u.c1 == u.ck == 1
        assert u.epsilon_prime == 0.0

    def test_duplicated_family_tight_bound(self):
        g = complete_graph(6)
        f = EdgeFamily.from_pairs(g, (edge_pairs(g), edge_pairs(g)))
        u = union_sparsifiers(exact_parts(f), f)
        assert u.c1 == u.ck == 2
        weights = {(u_, v_): w for u_, v_, w in g.edges}
        for u_, v_, w in u.h.edges:
            assert w == pytest.approx(weights[(u_, v_)] / 2)
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
        expected = frozenset().union(*(edge_pairs(p.h) for p in parts))
        assert edge_pairs(u.h) == expected
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
            for edges in edge_pairs(f):
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
        f = EdgeFamily.from_pairs(g, (edge_pairs(g), edge_pairs(g)))
        with pytest.raises(ValueError):
            union_sparsifiers(exact_parts(f)[:1], f)

    def test_empty_parts(self):
        g = complete_graph(4)
        f = EdgeFamily.from_pairs(g, (edge_pairs(g),))
        with pytest.raises(ValueError):
            union_sparsifiers([], f)

    def test_vertex_mismatch(self):
        g = complete_graph(4)
        f = EdgeFamily.from_pairs(g, (edge_pairs(g),))
        bad = SparsifierResult(h=complete_graph(5), epsilon_certified=0.0)
        with pytest.raises(DimensionMismatch):
            union_sparsifiers([bad], f)
