"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

from collections import Counter
from itertools import chain

import numpy as np
import pytest

from distsparse import EdgeFamily, WeightedGraph, induced_subgraph, sparsify_er, union_sparsifiers
from distsparse.graph import EDGE_DTYPE

# --- element-indexed families -------------------------------------------
# Set-system examples use abstract elements 1..N; we realize element e as
# the path edge (e, e+1) so families can live over a concrete graph.

EXAMPLE1_SETS = [
    {1, 2, 3},
    {2, 3, 4},
    {4, 5, 1},
    {3, 2, 6},
    {4, 7, 1},
    {2, 3},
    {5, 6, 7},
    {1, 3, 5},
    {2, 4},
]


def elem_edge(e: int) -> tuple[int, int]:
    return (e, e + 1)


def edge_pairs(x, ids=None):
    """Edge sets as frozensets of (u, v) pairs, the form the reference
    checks read: a graph's edges (with `ids`, only those at these indices
    into its records, such as a family's base-edge ids), or a family's sets,
    one frozenset each, in order."""
    if isinstance(x, EdgeFamily):
        return tuple(edge_pairs(x.base, x.set_ids(i)) for i in range(x.t))
    records = x.records if ids is None else x.records[sorted(ids)]
    return frozenset(zip(records["u"].tolist(), records["v"].tolist()))


def family_from_index_sets(index_sets) -> EdgeFamily:
    """Realize abstract element sets as path edges over a base graph whose
    edge set is exactly the union."""
    union = sorted(set().union(*index_sets))
    n = max(union) + 2
    base = WeightedGraph(n, tuple((e, e + 1, 1.0) for e in union))
    sets = tuple(frozenset(elem_edge(e) for e in s) for s in index_sets)
    return EdgeFamily.from_pairs(base, sets)


@pytest.fixture
def example1_family() -> EdgeFamily:
    return family_from_index_sets(EXAMPLE1_SETS)


def reference_partition(base: WeightedGraph, sets) -> dict:
    """The `partition` report of a family document's `sets` over `base`,
    computed the way the family was once held, as frozensets of canonical
    (u, v) pairs counted by a `Counter`; or the `ValueError` whose message
    the command reports as its parse error."""
    base_pairs = edge_pairs(base)
    canonical = []
    for i, s in enumerate(sets):
        pairs = frozenset((u, v) if u < v else (v, u) for u, v in s)
        if not pairs:
            raise ValueError(f"set {i} is empty")
        if not pairs <= base_pairs:
            raise ValueError(f"set {i} contains edges not in the base graph: {sorted(pairs - base_pairs)}")
        canonical.append(pairs)
    counts = Counter(chain.from_iterable(canonical))
    if counts.keys() != base_pairs:
        raise ValueError(f"family does not cover the base edge set; missing {sorted(base_pairs - counts.keys())}")
    cards = sorted(set(counts.values()))
    return {
        "schema": 1,
        "cardinalities": cards,
        "classes": [{"cardinality": c, "edges": sorted(p for p in counts if counts[p] == c)} for c in cards],
    }


# --- random graphs and coverings ----------------------------------------


def random_graph(rng, n, p=0.4, max_weight=3.0) -> WeightedGraph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, float(rng.uniform(0.1, max_weight))))
    if not edges:
        u, v = sorted(rng.choice(n, size=2, replace=False))
        edges.append((int(u), int(v), 1.0))
    return WeightedGraph(n, tuple(edges))


def dense_random_graph(rng, n, p) -> WeightedGraph:
    """G(n, p) with weights uniform in [0.1, 3), built as one records array:
    at n = 800 and p = 0.625 about 200 000 edges, like the benchmark's
    er-dense graph."""
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < p
    records = np.empty(int(keep.sum()), EDGE_DTYPE)
    records["u"], records["v"], records["w"] = u[keep], v[keep], rng.uniform(0.1, 3, len(records))
    return WeightedGraph(n, records)


def random_covering_family(rng, g: WeightedGraph, t: int) -> EdgeFamily:
    """Random family of t nonempty subsets whose union is E(g)."""
    pairs = sorted(edge_pairs(g))
    members = [set() for _ in range(t)]
    for p in pairs:
        home = int(rng.integers(t))
        members[home].add(p)
        for i in range(t):
            if i != home and rng.random() < 0.3:
                members[i].add(p)
    for i, s in enumerate(members):
        if not s:
            s.add(pairs[int(rng.integers(len(pairs)))])
    return EdgeFamily.from_pairs(g, tuple(frozenset(s) for s in members))


# --- sunflower-shaped families ------------------------------------------


def delta_system_index_sets(rng, s, kernel_size, petal_sizes=None):
    """Index sets forming a sunflower: shared kernel plus disjoint petals."""
    if petal_sizes is None:
        petal_sizes = [int(rng.integers(1, 4)) for _ in range(s)]
    kernel = list(range(1, kernel_size + 1))
    nxt = kernel_size + 1
    sets = []
    for size in petal_sizes:
        petal = list(range(nxt, nxt + size))
        nxt += size
        sets.append(set(kernel) | set(petal))
    return sets


def random_delta_family(rng, s, kernel_size=None) -> EdgeFamily:
    if kernel_size is None:
        kernel_size = int(rng.integers(0, 3))
    sets = delta_system_index_sets(rng, s, kernel_size)
    return family_from_index_sets(sets)


def uniform_star_index_sets(s, ell, lam):
    """Sunflower with kernel size lam and uniform set size ell."""
    assert 0 <= lam < ell or (lam == ell)
    kernel = list(range(1, lam + 1))
    sets = []
    nxt = lam + 1
    for _ in range(s):
        petal = list(range(nxt, nxt + (ell - lam)))
        nxt += ell - lam
        sets.append(set(kernel) | set(petal))
    return sets


def near_sunflower_index_sets(s, ell, lam):
    """One deviant pair: E_1 and E_2 share an extra element beyond the
    common kernel, all other pairwise intersections equal the kernel."""
    sets = uniform_star_index_sets(s, ell, lam)
    extra = max(max(x) for x in sets) + 1
    # swap one private petal element of sets 0 and 1 for a shared one
    for i in (0, 1):
        private = sorted(sets[i] - set(range(1, lam + 1)))[0]
        sets[i].discard(private)
        sets[i].add(extra)
    return sets


def same_bits(a, b) -> bool:
    """Equal shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- planted block graphs -----------------------------------------------


def planted_three_block_graph(rng, n=30, p_in=0.9, p_out=0.05) -> tuple[WeightedGraph, list[int]]:
    """Three equal blocks, dense inside, sparse across; returns the graph
    and the planted labels."""
    assert n % 3 == 0
    size = n // 3
    labels = [i // size for i in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if labels[u] == labels[v] else p_out
            if rng.random() < p:
                edges.append((u, v, 1.0))
    return WeightedGraph(n, tuple(edges)), labels


def planted_components(rng, components, p_in, p_out, weights=(0.1, 3.0)) -> WeightedGraph:
    """Disjoint planted-partition components, built as one records array.
    `components` lists each component's block sizes: a pair inside a block
    is an edge with probability p_in, a pair across two blocks of one
    component with p_out, and no edge joins two components. The vertices
    are shuffled and the weights uniform in `weights`."""
    sizes = [size for blocks in components for size in blocks]
    block = np.repeat(np.arange(len(sizes)), sizes)
    comp = np.repeat(np.arange(len(components)), [sum(blocks) for blocks in components])
    u, v = np.triu_indices(len(block), 1)
    keep = (rng.random(len(u)) < np.where(block[u] == block[v], p_in, p_out)) & (comp[u] == comp[v])
    perm = rng.permutation(len(block))
    a, b = perm[u[keep]], perm[v[keep]]
    records = np.empty(len(a), EDGE_DTYPE)
    records["u"], records["v"], records["w"] = np.minimum(a, b), np.maximum(a, b), rng.uniform(*weights, len(a))
    return WeightedGraph(len(block), np.sort(records, order=["u", "v"]))


def rotation_symmetric_graph(rng, size):
    """Three copies of one random graph on `size` vertices (p = 0.3),
    copy i joined to copy i + 1 (mod 3) by five unit edges between like
    vertices. Rotating the copies is an automorphism, so the smallest
    nonzero eigenvalue, whose eigenvectors separate the copies, is double."""
    u, v = np.triu_indices(size, 1)
    keep = rng.random(len(u)) < 0.3
    u, v, w = u[keep], v[keep], rng.uniform(0.1, 3, int(keep.sum()))
    edges = [(i * size + a, i * size + b, x) for i in range(3) for a, b, x in zip(u.tolist(), v.tolist(), w.tolist())]
    joins = [tuple(sorted((i * size + j, (i + 1) % 3 * size + j))) for i in range(3) for j in range(5)]
    return WeightedGraph(3 * size, edges + [(a, b, 1.0) for a, b in joins])


def star_family_over_graph(g: WeightedGraph) -> EdgeFamily:
    """Allocate a graph's edges as a sunflower with kernel one edge and one
    private petal edge per site (set size 2, s = m - 1 sites)."""
    pairs = sorted(edge_pairs(g))
    kernel = pairs[0]
    petals = pairs[1:]
    sets = tuple(frozenset({kernel, p}) for p in petals)
    return EdgeFamily.from_pairs(g, sets)


def block_star_family(rng, n=30, s=9, ell=3) -> tuple[EdgeFamily, list[int]]:
    """Sunflower allocation with |E_k| = ell over a sparse three-block
    graph: one kernel edge plus (ell-1) private intra-block edges per site."""
    assert n % 3 == 0
    size = n // 3
    labels = [i // size for i in range(n)]
    need = s * (ell - 1)  # petal edges
    blocks = [list(range(b * size, (b + 1) * size)) for b in range(3)]
    chosen: set[tuple[int, int]] = set()
    kernel = (0, 1)
    chosen.add(kernel)
    petals = []
    b = 0
    while len(petals) < need:
        block = blocks[b % 3]
        u, v = sorted(rng.choice(block, size=2, replace=False))
        e = (int(u), int(v))
        if e not in chosen:
            chosen.add(e)
            petals.append(e)
        b += 1
    g = WeightedGraph(n, tuple((u, v, 1.0) for u, v in sorted(chosen)))
    sets = []
    for i in range(s):
        mine = petals[i * (ell - 1) : (i + 1) * (ell - 1)]
        sets.append(frozenset({kernel, *mine}))
    return EdgeFamily.from_pairs(g, tuple(sets)), labels


@pytest.fixture
def planted_blocks():
    rng = np.random.default_rng(7)
    return planted_three_block_graph(rng)


# --- unshared references for the broadcast and exchange protocols -------


def _view_petals(f: EdgeFamily, j: int) -> frozenset:
    """Union minus intersection of the sets site j sees: its petal union
    when that view is a sunflower."""
    view = [s for k, s in enumerate(edge_pairs(f), 1) if k != j]
    return frozenset.union(*view) - frozenset.intersection(*view)


def reference_broadcast(f: EdgeFamily, j: int) -> dict[int, frozenset]:
    """Every site's broadcast reconstruction, each set built on its own:
    site i != j joins the petals site j writes, the kernel and the union
    less the edges only E_i holds; site j joins the petals, the kernel and
    E_j."""
    sets = edge_pairs(f)
    known = _view_petals(f, j) | frozenset.intersection(*sets)
    union = frozenset.union(*sets)
    recon = {}
    for i, own in enumerate(sets, 1):
        others = [s for k, s in enumerate(sets, 1) if k != i]
        recon[i] = known | own if i == j else known | (union - (own - frozenset.union(*others)))
    return recon


def reference_exchange(f: EdgeFamily, j: int, epsilon: float, seed: int) -> dict:
    """Every site's exchange union, each formed on its own: site j's
    sparsifier of its petal union (left out when that is empty) with the
    site's own sparsifier of (V, E_j), drawn from the seeds the protocol
    draws (site j first, then the others in order); site j takes the part
    of the lowest-numbered other site."""
    delta_j, e_j = _view_petals(f, j), edge_pairs(f)[j - 1]
    others = [i for i in range(1, f.t + 1) if i != j]
    rng = np.random.default_rng(seed)
    seeds = {i: int(rng.integers(2**63)) for i in [j, *others]}
    two_part = EdgeFamily.from_pairs(f.base, (delta_j, e_j) if delta_j else (e_j,))
    shared = [sparsify_er(induced_subgraph(f.base, delta_j), epsilon, seeds[j])] if delta_j else []
    results = {}
    for i in [*others, j]:
        local = sparsify_er(induced_subgraph(f.base, e_j), epsilon, seeds[others[0] if i == j else i])
        results[i] = union_sparsifiers([*shared, local], two_part)
    return results
