"""Component-local Laplacian blocks.

Every dense path builds the block L[S, S] of each connected component S from
S's own edges (`graph._laplacian_blocks`) instead of slicing an n x n
Laplacian. These tests pin that each block is bitwise the slice it replaces,
that the factor, the resistances, the sampler's draw, the verifier and the
spectral embedding are bitwise those of the n x n computation, and that
none of them allocates an n x n array. The resistances, read a chunk of
edges at a time, are bitwise those read in one pass, and hold no more than
one component's X beside one chunk. The sampler frees its per-edge arrays
before its certificate's blocks exist.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distsparse import (
    WeightedGraph,
    connected_components,
    laplacian,
    normalized_laplacian,
    sparsify_er,
    spectral_embedding,
    verify_epsilon,
)
from distsparse import cluster, graph
from conftest import dense_random_graph, planted_components, rotation_symmetric_graph, same_bits

# --- the n x n computation the blocks replace ----------------------------


def nxn_normalized(g):
    L = laplacian(g)
    d = L.diagonal()
    inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return L * inv_sqrt[:, None] * inv_sqrt[None, :]


def nxn_factor(g):
    L = laplacian(g)
    component = np.empty(g.n, dtype=np.intp)
    blocks = []
    for i, comp in enumerate(connected_components(g)):
        component[comp] = i
        if len(comp) > 1:
            free = np.array(comp[1:])
            blocks.append((free, graph._tril_inv(np.linalg.cholesky(L[np.ix_(free, free)]))))
    return component, tuple(blocks)


def nxn_resistances(g):
    X = np.zeros((g.n, g.n))
    for free, cinv in nxn_factor(g)[1]:
        X[np.ix_(free, free)] = cinv.T @ cinv
    u, v = g.u, g.v
    return X[u, u] + X[v, v] - 2.0 * X[u, v]


def unchunked_resistances(g):
    """`WeightedGraph.resistances` as it read each component's edges in one
    pass, before it read them a chunk at a time."""
    local = g._components[3]
    r = np.empty(g.m)
    for cinv, (comp, e) in zip(g.factor, graph._edges_by_component(g, g)):
        X = np.zeros((len(comp), len(comp)))
        np.matmul(cinv.T, cinv, out=X[1:, 1:])
        u, v = local[g.u[e]], local[g.v[e]]
        r[e] = X[u, u] + X[v, v] - 2.0 * X[u, v]
    return r


def nxn_sampling_probs(g):
    scores = g.w * np.maximum(nxn_resistances(g), 0.0)
    return scores / scores.sum()


def nxn_verify(g, h):
    if h == g:
        return 0.0
    component, blocks = nxn_factor(g)
    if np.any(component[h.u] != component[h.v]):
        return math.inf
    Lh = laplacian(h)
    mu = [np.linalg.eigvalsh(cinv @ Lh[np.ix_(free, free)] @ cinv.T) for free, cinv in blocks]
    mu = np.concatenate([[1.0], *mu])
    return max(1.0 - float(mu.min()), float(mu.max()) - 1.0)


def nxn_embedding(g, k, normalized):
    comps = connected_components(g)
    X = np.zeros((g.n, k))
    d = g.degrees() if normalized else None
    for col, comp in enumerate(comps[:k]):
        mass = d[comp] if normalized and len(comp) > 1 else np.ones(len(comp))
        X[comp, col] = np.sqrt(mass / mass.sum())
    rest = k - len(comps)
    if rest <= 0:
        return X
    L = nxn_normalized(g) if normalized else laplacian(g)
    values, vectors = [], []
    for comp in comps:
        if len(comp) > 1:
            lam, vecs = np.linalg.eigh(L[np.ix_(comp, comp)])
            kept = min(rest, len(comp) - 1)
            values.append(lam[1 : kept + 1])
            vectors += [(comp, vecs[:, j]) for j in range(1, kept + 1)]
    order = np.argsort(np.concatenate(values), kind="stable")[:rest]
    for col, (comp, vec) in enumerate((vectors[i] for i in order), start=len(comps)):
        nz = np.nonzero(np.abs(vec) > 1e-12)[0]
        X[comp, col] = -vec if nz.size and vec[nz[0]] < 0 else vec
    return X


# --- graphs of many components -------------------------------------------


def components_graph(rng, sizes, chord_p=0.1):
    """Disjoint random connected components of the given sizes (a spanning
    tree, then chords), their vertices shuffled over 0..sum(sizes)-1, weights
    uniform in [0.1, 3)."""
    perm = rng.permutation(sum(sizes))
    edges, start = {}, 0
    for size in sizes:
        members = perm[start : start + size]
        start += size
        for x in range(1, size):
            edges[graph.norm_pair(int(members[rng.integers(x)]), int(members[x]))] = rng.uniform(0.1, 3)
        for a, b in zip(*np.nonzero(np.triu(rng.random((size, size)) < chord_p, 1))):
            edges[graph.norm_pair(int(members[a]), int(members[b]))] = rng.uniform(0.1, 3)
    return WeightedGraph(start, tuple((a, b, float(w)) for (a, b), w in edges.items()))


_weights = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def split_graphs(draw):
    """A graph of several components: isolated vertices, 2-vertex components
    and larger ones, their vertices shuffled, so vertex 0 is isolated in some
    draws and in a component of any size in others."""
    sizes = draw(st.lists(st.sampled_from([1, 1, 2, 2, 3, 4, 7, 12]), min_size=1, max_size=7))
    perm = draw(st.permutations(range(sum(sizes))))
    edges, start = {}, 0
    for size in sizes:
        members = perm[start : start + size]
        start += size
        for x in range(1, size):
            edges[graph.norm_pair(members[draw(st.integers(0, x - 1))], members[x])] = draw(_weights)
        for a, b in draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=size)):
            if a != b:
                edges[graph.norm_pair(members[a], members[b])] = draw(_weights)
    return WeightedGraph(start, tuple((a, b, w) for (a, b), w in edges.items()))


@st.composite
def graph_and_candidate(draw):
    """A split graph and a candidate: some of its edges, reweighted by up to
    a factor of 4 either way, and now and then one edge joining two of its
    components."""
    g = draw(split_graphs())
    edges = [(u, v, w * draw(st.floats(0.25, 4.0))) for u, v, w in g.edges if draw(st.booleans())]
    comps = connected_components(g)
    if len(comps) > 1 and draw(st.integers(0, 4)) == 0:
        a, b = draw(st.lists(st.sampled_from(range(len(comps))), min_size=2, max_size=2, unique=True))
        edges.append((*graph.norm_pair(comps[a][0], comps[b][0]), 1.0))
    return g, WeightedGraph(g.n, tuple(edges))


def check_blocks(g, h):
    L, N, Lh = laplacian(g), nxn_normalized(g), laplacian(h)
    assert same_bits(normalized_laplacian(g), N)
    comps = [c for c in connected_components(g) if len(c) > 1]
    for normalized, whole in ((False, L), (True, N)):
        blocks = list(graph._laplacian_blocks(g, g, normalized))
        assert [comp.tolist() for comp, _ in blocks] == comps
        for comp, build in blocks:
            assert same_bits(build(), whole[np.ix_(comp, comp)])
    if not math.isinf(nxn_verify(g, h)):
        # H's blocks on G's components, as the verifier builds them
        for comp, build in graph._laplacian_blocks(h, g):
            assert same_bits(build(), Lh[np.ix_(comp, comp)])


def check_dense_paths(g, h):
    blocks = g.factor
    members, starts, component, _ = g._components
    old_component, old_blocks = nxn_factor(g)
    assert same_bits(component, old_component)
    # each block's free vertices: its component in the index, less the first
    frees = [members[a + 1 : b] for a, b in zip(starts, starts[1:]) if b - a > 1]
    assert len(blocks) == len(frees) == len(old_blocks)
    for free, cinv, (old_free, old_cinv) in zip(frees, blocks, old_blocks):
        assert same_bits(free, old_free) and same_bits(cinv, old_cinv)
    assert same_bits(g.resistances, nxn_resistances(g))
    if g.m:
        check_draws(g)
    assert same_bits(verify_epsilon(g, h), nxn_verify(g, h))
    c = len(connected_components(g))
    for k in sorted({1, c, min(c + 2, g.n), g.n}):
        for normalized in (False, True):
            assert same_bits(spectral_embedding(g, k, normalized), nxn_embedding(g, k, normalized))


def check_draws(g):
    """`sparsify_er` at a few seeds is the sparsifier built by hand from one
    multinomial draw on the n x n distribution, with weights count w / (q p),
    or g itself when every edge is drawn. At C = 9 a small graph draws
    every edge; at C = 0.1 and eps = 0.9 it seldom does."""
    p = nxn_sampling_probs(g)
    for eps, constant in ((0.5, 9.0), (0.9, 0.1)):
        q = max(math.ceil(constant * g.n * math.log(g.n) / eps**2), 1)
        for seed in (0, 1, 7):
            counts = np.random.default_rng(seed).multinomial(q, p)
            res = sparsify_er(g, eps, seed, constant)
            if np.count_nonzero(counts) == g.m:
                assert res.h is g and res.epsilon_certified == 0.0
                continue
            kept = np.flatnonzero(counts)
            assert same_bits(res.h.u, g.u[kept]) and same_bits(res.h.v, g.v[kept])
            assert same_bits(res.h.w, counts[kept] * g.w[kept] / (q * p[kept]))
            assert same_bits(res.epsilon_certified, nxn_verify(g, res.h))


class TestBlocksAreTheSlices:
    @given(graph_and_candidate())
    @settings(max_examples=150, deadline=None)
    def test_split_graphs(self, pair):
        check_blocks(*pair)

    def test_whole_graph_is_one_block(self):
        g = components_graph(np.random.default_rng(1), (30,), chord_p=0.3)
        ((comp, build),) = graph._laplacian_blocks(g, g)
        assert comp.tolist() == list(range(30)) and same_bits(build(), laplacian(g))

    def test_edgeless_and_single_vertex_graphs_have_no_blocks(self):
        for g in (WeightedGraph(1, ()), WeightedGraph(4, ())):
            assert list(graph._laplacian_blocks(g, g)) == []


class TestDensePathsAreTheNxNComputation:
    @given(graph_and_candidate())
    @settings(max_examples=150, deadline=None)
    def test_split_graphs(self, pair):
        check_dense_paths(*pair)

    def test_blocks_beyond_the_triangular_leaf(self):
        # an isolated vertex and blocks of 2, 65 and 130 vertices, the last
        # two inverted by `_tril_inv`'s recursion
        rng = np.random.default_rng(2)
        g = components_graph(rng, (1, 65, 2, 130))
        h = WeightedGraph(g.n, tuple((u, v, w * rng.uniform(0.5, 2)) for u, v, w in g.edges if rng.random() < 0.7))
        check_blocks(g, h)
        check_dense_paths(g, h)


class TestNoNxNArray:
    """n = 3000 in 30 components of 100 vertices: one n x n float64 array
    would take 72 MB, every block 80 kB."""

    LIMIT = 8 * 2**20

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_dense_paths_peak_below_8_mb(self):
        rng = np.random.default_rng(3)
        g = components_graph(rng, (100,) * 30)
        h = WeightedGraph(g.n, tuple((u, v, w * rng.uniform(0.5, 2)) for u, v, w in g.edges if rng.random() < 0.7))
        paths = {
            "factor": lambda g: g.factor,
            "resistances": lambda g: g.resistances,
            "verify_epsilon": lambda g: verify_epsilon(g, h),
            "spectral_embedding": lambda g: spectral_embedding(g, 32),
        }
        for name, path in paths.items():
            fresh = WeightedGraph(g.n, g.records)  # no factor cached yet
            assert self.peak(lambda: path(fresh)) < self.LIMIT, name


class TestClusteringBlockPeak:
    """One 600-vertex component: a block is 2.88 MB. `_DENSE_ARRAYS` counts
    4 blocks for clustering; LAPACK's working copy (eigh's or the
    Cholesky's) is allocated outside tracemalloc's view, so the traced peak
    is the block, one array of its size (eigh's eigenvectors, the
    certificate's outer product or the Cholesky factor) and the (cap + 1)
    x 600 Lanczos basis, a quarter block, below 3 blocks, on every path."""

    LIMIT = 3 * 8 * 600 * 600

    def test_every_path_peaks_below_three_blocks(self, monkeypatch):
        planted = planted_components(np.random.default_rng(6), [(200, 200, 200)], 0.5, 0.05)
        cases = {
            "certified": (planted, 3, False),
            "a full basis": (planted, 12, True),
            "too many pairs for the cap": (planted, 12, False),
            "certificate failed": (rotation_symmetric_graph(np.random.default_rng(6), 200), 2, False),
        }
        real_cap = cluster._lanczos_cap
        for name, (g, k, full_cap) in cases.items():
            # a cap of 150 iterations whatever the kept count: 11 pairs run
            # to it (plain, then certified) or past it (normalized), so the
            # largest basis is filled
            monkeypatch.setattr(cluster, "_lanczos_cap", (lambda n, kept: n // 4) if full_cap else real_cap)
            for normalized in (False, True):
                assert TestNoNxNArray.peak(lambda: spectral_embedding(g, k, normalized)) < self.LIMIT, (name, normalized)


class TestResistancesInChunks:
    def test_bitwise_one_pass(self):
        # components of 150 and 200 vertices hold about 5 600 and 10 000
        # edges, more than one chunk each; an isolated vertex and an edge
        rng = np.random.default_rng(4)
        g = components_graph(rng, (150, 1, 200, 2), chord_p=0.5)
        assert g.m > 3 * graph._CHUNK_ROWS
        assert same_bits(g.resistances, unchunked_resistances(g))

    def test_peak_is_x_and_one_chunk(self):
        # n = 800, m about 200 000 in one component: the 5 MB X beside the
        # result, the edge order (8 bytes an edge each) and one chunk's arrays
        g = dense_random_graph(np.random.default_rng(5), 800, 0.625)
        g.factor
        peak = TestNoNxNArray.peak(lambda: g.resistances)
        assert peak < 8 * 800 * 800 + 2 * 8 * g.m + 2**20
        assert same_bits(g.resistances, unchunked_resistances(g))


class TestSamplerPeak:
    def test_certificate_holds_no_sampler_array(self):
        # n = 800, m about 200 000 in one component, q < m: the draw's
        # scores, distribution, counts, support and reweighted copy are
        # freed before the pencil, whose two 801 x 801 blocks (H's block
        # and its product, or eigvalsh's copy) sit beside h's records and
        # edge order, together less than 24 bytes an edge of g
        g = dense_random_graph(np.random.default_rng(5), 800, 0.625)
        g.factor, g.resistances
        res = []
        peak = TestNoNxNArray.peak(lambda: res.append(sparsify_er(g, 0.5, 1)))
        assert 0 < res[0].h.m < g.m
        assert peak < 2 * 8 * 801 * 801 + 24 * g.m + 2**20
        assert same_bits(res[0].epsilon_certified, verify_epsilon(WeightedGraph(g.n, g.records), res[0].h))
