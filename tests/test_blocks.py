"""Component-local Laplacian blocks.

Every dense path builds the block L[S, S] of each connected component S from
S's own edges (`graph._laplacian_blocks`) instead of slicing an n x n
Laplacian. These tests pin that each block is bitwise the slice it replaces,
that the factor, the resistances, the sampling distribution, the verifier and
the spectral embedding are bitwise those of the n x n computation, and that
none of them allocates an n x n array.
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
    spectral_embedding,
    verify_epsilon,
)
from distsparse import graph

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


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
        assert [comp for comp, _ in blocks] == comps
        for comp, block in blocks:
            assert same_bits(block, whole[np.ix_(comp, comp)])
    if not math.isinf(nxn_verify(g, h)):
        # H's blocks on G's components, as the verifier builds them
        for comp, block in graph._laplacian_blocks(h, g):
            assert same_bits(block, Lh[np.ix_(comp, comp)])


def check_dense_paths(g, h):
    component, blocks = g.factor
    old_component, old_blocks = nxn_factor(g)
    assert same_bits(component, old_component)
    assert len(blocks) == len(old_blocks)
    for (free, cinv), (old_free, old_cinv) in zip(blocks, old_blocks):
        assert same_bits(free, old_free) and same_bits(cinv, old_cinv)
    assert same_bits(g.resistances, nxn_resistances(g))
    if g.m:
        assert same_bits(g.sampling_probs, nxn_sampling_probs(g))
    assert same_bits(verify_epsilon(g, h), nxn_verify(g, h))
    c = len(connected_components(g))
    for k in sorted({1, c, min(c + 2, g.n), g.n}):
        for normalized in (False, True):
            assert same_bits(spectral_embedding(g, k, normalized), nxn_embedding(g, k, normalized))


class TestBlocksAreTheSlices:
    @given(graph_and_candidate())
    @settings(max_examples=150, deadline=None)
    def test_split_graphs(self, pair):
        check_blocks(*pair)

    def test_whole_graph_is_one_block(self):
        g = components_graph(np.random.default_rng(1), (30,), chord_p=0.3)
        ((comp, block),) = graph._laplacian_blocks(g, g)
        assert comp == list(range(30)) and same_bits(block, laplacian(g))

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
