"""Weighted undirected graphs, Laplacians and quadratic forms.

The graph type is the substrate for everything else: immutable, dense-matrix
oriented, intended for desk scale (n up to a couple thousand vertices).

A graph is stored as one structured array of (u, v, w) records
(`EDGE_DTYPE`), u < v, sorted by (u, v) and validated once in vectorised
form; every operation here reads that array, and `edges` is a tuple view of
it built on first use. An edge list in plain ASCII is parsed by one
`np.loadtxt` pass. A file's bytes are read once and checked for plain text.
A file below `_BY_PATH_BYTES` (16 KiB) is parsed from those bytes; a larger
one is read again by numpy's C reader itself, in chunks, which is the
faster of the two for large files, and its bytes are dropped first, so they
are not held beside the graph being built. Any other text, and any file
that pass or the graph's validation rejects, is decoded and read by the
line-by-line rules, which word every parse error with its line number.
`dump_graph` writes the format back, a chunk of edges at a time, each chunk
one `orjson.dumps` of its rows. The float rule has one home,
`weighted_rows`, which the CLI's reports use too: a weight outside
[1e-4, 1e16), where orjson's float text parts from `repr`'s, goes in as
its `repr` string.

The spectral core lives here too. L is block-diagonal on the connected
components, and its kernel is spanned by their indicators, so grounding one
vertex of every component S (`_grounded`) leaves a positive definite block.
`WeightedGraph.factor` keeps one inverse Cholesky factor C_S^-1 of each
grounded block, and the effective resistances (`WeightedGraph.resistances`)
and the verifier's pencil (`spectral_bounds`, the extreme generalized
eigenvalues of (L_H, L_G)) read it block by block. No sampler policy lives
here: the distribution the resistances feed is sparsify.py's.
"""

from __future__ import annotations

import lzma
import math
import os
import re
import warnings
from dataclasses import FrozenInstanceError
from functools import cached_property, partial
from itertools import chain

import numpy as np
import orjson

from .errors import DimensionMismatch, ParseError

Edge = tuple[int, int]

EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])

# rows of the largest triangular block `_tril_inv` hands to `np.linalg.inv`
_LEAF_ROWS = 64
# edges per chunk of the passes that read or write every edge a chunk at a
# time (`WeightedGraph.resistances`, `dump_graph`)
_CHUNK_ROWS = 4096


def norm_pair(u: int, v: int) -> Edge:
    """Canonical unordered-pair form (smaller id first)."""
    return (u, v) if u < v else (v, u)


def _ids(col) -> np.ndarray:
    """Vertex ids as int64, or as Python ints (object array) when one does
    not fit in 64 bits."""
    try:
        return np.array(col, dtype=np.int64)
    except OverflowError:
        return np.array(list(map(int, col)), dtype=object)


def _columns(edges):
    """(u, v, w) arrays, in input order, of an EDGE_DTYPE array or of
    (u, v, w) triples. A vertex id in a triple that is not an integer (a
    bool, a float, a string) is refused, not coerced; the first in input
    order is named."""
    if isinstance(edges, np.ndarray) and edges.dtype == EDGE_DTYPE:
        return edges["u"], edges["v"], edges["w"]
    us, vs, ws = zip(*edges) if len(edges) else ((), (), ())
    bad = {t for t in set(map(type, chain(us, vs))) if t is bool or not issubclass(t, (int, np.integer))}
    if bad:
        first = next(x for x in chain.from_iterable(zip(us, vs)) if type(x) in bad)
        raise ValueError(f"vertex id {first!r} is not an integer")
    return _ids(us), _ids(vs), np.array(ws, dtype=np.float64)


class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1.

    `edges` is an iterable of (u, v, w) triples or an `EDGE_DTYPE` array.
    The graph keeps them as `records`, a read-only `EDGE_DTYPE` array with
    u < v, sorted, no self-loops, no duplicates, strictly positive finite
    weights.
    Graphs are immutable and compare and hash by content.
    """

    def __init__(self, n: int, edges):
        if not hasattr(edges, "__len__"):
            edges = tuple(edges)
        object.__setattr__(self, "n", n)
        self.__dict__["edges"] = edges
        self.__post_init__()

    def __post_init__(self):
        """Validate and store the input. The first offending edge in input
        order is reported, checked for a self-loop, then its range, then its
        weight, then whether an earlier edge has the same pair. Every
        construction but `_trusted` runs this hook, which perfbench's tracer
        times as the graph's validation, reading `len(self.edges)`, the
        input until this hook takes it, on entry."""
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        u, v, w = _columns(self.__dict__.pop("edges"))
        # the ends go straight into the new records, smaller first, and are
        # checked and sorted there; an id past int64 (an object column) keeps
        # them Python ints until it is refused below
        ends = np.result_type(u, v)
        records = np.empty(len(w), dtype=[("u", ends), ("v", ends), ("w", np.float64)])
        lo, hi = records["u"], records["v"]
        np.minimum(u, v, out=lo)
        np.maximum(u, v, out=hi)
        records["w"] = w
        # one input-order mask, grown in place: a self-loop, an end out of
        # range, a weight not positive or not finite; the first offending
        # edge's reason is read from its own ends and weight below
        bad = lo == hi
        bad |= lo < 0
        bad |= hi >= self.n
        bad |= ~(w > 0)
        bad |= np.isinf(w)
        ordered = lo[1:] == lo[:-1]
        ordered &= hi[1:] > hi[:-1]
        ordered |= lo[1:] > lo[:-1]
        if not ordered.all():
            # stable: a pair's first edge comes first. The key lo * n + hi
            # orders in-range pairs as (lo, hi) does, and is exact for them
            # while n * n fits in int64; only an out-of-range edge can wrap
            # or collide, and the first one in input order is reported
            # before any duplicate it could fake. Beyond that n, lexsort.
            if self.n * self.n <= np.iinfo(np.int64).max:
                order = np.argsort(lo * self.n + hi, kind="stable")
            else:
                order = np.lexsort((hi, lo))
            records = records.take(order)  # `take`: fancy indexing copies structured records about 8x slower
            lo, hi = records["u"], records["v"]
            bad[order[1:][(lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])]] = True  # a duplicate
        if bad.any():
            i = int(np.argmax(bad))
            a, b = int(u[i]), int(v[i])
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"vertex id out of range: ({a}, {b}) with n={self.n}")
            if not w[i] > 0:
                raise ValueError(f"non-positive weight {float(w[i])} on edge ({a}, {b})")
            if np.isinf(w[i]):
                raise ValueError(f"non-finite weight {float(w[i])} on edge ({a}, {b})")
            raise ValueError(f"duplicate edge {norm_pair(a, b)}")
        if u.dtype == object or v.dtype == object:
            raise ValueError(f"vertex id {max(u.max(), v.max())} does not fit in 64 bits")
        records.flags.writeable = False
        object.__setattr__(self, "records", records)

    @classmethod
    def _trusted(cls, n: int, records: np.ndarray) -> WeightedGraph:
        """A graph on records already in the stored form, such as a masked
        selection of another graph's records: stored read-only, not
        validated again."""
        g = object.__new__(cls)
        records.flags.writeable = False
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "records", records)
        return g

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self.records, other.records)

    def __hash__(self):
        return hash((self.n, self.records.tobytes()))

    def __repr__(self):
        return f"WeightedGraph(n={self.n!r}, edges={self.edges!r})"

    @property
    def u(self) -> np.ndarray:
        return self.records["u"]

    @property
    def v(self) -> np.ndarray:
        return self.records["v"]

    @property
    def w(self) -> np.ndarray:
        return self.records["w"]

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as sorted (u, v, w) tuples, built on first use. While
        the constructor validates, this is its input as given."""
        return tuple(self.records.tolist())

    @property
    def m(self) -> int:
        return len(self.records)

    def pairs(self) -> frozenset[Edge]:
        """The edges as a frozenset of (u, v) pairs, for perfbench's checks."""
        return frozenset(zip(self.u.tolist(), self.v.tolist()))

    def degrees(self) -> np.ndarray:
        """Weighted degrees. Every vertex x sums its edges' weights in edge
        order, as a per-edge loop would: in (u, v) order each edge (a, x)
        comes before each (x, b), so all v ends are counted before all u
        ends. Every dense path reads them, so a degree that overflows
        float64 (finite weights can sum to inf, which `np.bincount` does not
        report as an overflow) is refused here, naming the first such
        vertex."""
        both = np.concatenate([self.v, self.u])
        # astype: bincount of no edges is an integer array
        d = np.bincount(both, np.concatenate([self.w, self.w]), self.n).astype(float)
        overflow = np.flatnonzero(~np.isfinite(d))
        if len(overflow):
            raise ValueError(f"the weighted degree of vertex {overflow[0]} overflows float64")
        return d

    @cached_property
    def _components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The component index, computed once per graph: (the vertices
        grouped by component, ascending, the groups ordered by smallest
        member; each group's start, then n; every vertex's component; every
        vertex's index within its component). Pointer jumping hooks the
        larger root of every edge whose ends have different roots onto the
        smaller until every vertex points at the smallest vertex of its
        component, its root; it stops as soon as vertex 0 is every vertex's
        root, with no confirming pass over the edges. A vertex count whose
        arrays (`_VERTEX_BYTES` a vertex) would not fit in physical memory
        fails first."""
        n = self.n
        _check_memory(_VERTEX_BYTES * n, f"n={n}", f"its components at {_VERTEX_BYTES} bytes a vertex")
        root = np.arange(n)
        while True:
            ru, rv = root[self.u], root[self.v]
            if np.array_equal(ru, rv):
                break
            np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
            while not np.array_equal(root[root], root):
                root = root[root]
            if not root.any():  # one component, rooted at vertex 0: no edge left to hook
                break
        component = (np.cumsum(root == np.arange(n)) - 1)[root]  # the roots, ascending, number them
        del root
        members = np.argsort(component, kind="stable")
        sizes = np.bincount(component)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        local = np.empty(n, dtype=np.intp)
        local[members] = np.arange(n) - np.repeat(starts[:-1], sizes)
        return members, starts, component, local

    @cached_property
    def factor(self) -> tuple[np.ndarray, ...]:
        """C_S^-1 for every component S of at least two vertices, in
        component order, computed once per graph. L is block-diagonal on the
        components and its kernel is spanned by their indicators, so
        grounding (deleting) one vertex of every S (`_grounded`) leaves a
        positive definite block L[S', S'] = C_S C_S^T on the rest S' of S: one
        Cholesky factor per component, inverted as a triangle (`_tril_inv`),
        about |S|^3 flops in all. Each block L[S, S] is built from S's own
        edges by the block walk (`_laplacian_blocks`), which refuses blocks
        that would not fit in memory before any exists; no n x n array is made."""
        blocks = []
        for comp, build in _laplacian_blocks(self, self):
            L = build()
            try:
                C = np.linalg.cholesky(_grounded(L))
            except np.linalg.LinAlgError:
                # the block is positive definite in exact arithmetic, so
                # only roundoff can make the factorisation fail
                raise ValueError(
                    f"the component of vertex {comp[0]} has a weight range beyond what float64 can factor"
                ) from None
            del L  # before the inverse's arrays exist
            blocks.append(_tril_inv(C))
        return tuple(blocks)

    @cached_property
    def resistances(self) -> np.ndarray:
        """Effective resistance of every edge, in edge order, computed once
        per graph: R(u, v) = X_uu + X_vv - 2 X_uv, with X the inverse of the
        grounded Laplacian, filled one component S at a time as an |S| x |S|
        block (X[S', S'] = C_S^-T C_S^-1 on the free vertices S' of S,
        `factor`, and zero on the grounded vertex) and read at S's edges,
        `_CHUNK_ROWS` edges at a time, its diagonal copied out once."""
        local, r = self._components[3], np.empty(self.m)
        # the factor first: it checks the size before any block exists
        for cinv, (comp, e) in zip(self.factor, _edges_by_component(self, self)):
            X = np.zeros((len(comp), len(comp)))
            np.matmul(cinv.T, cinv, out=_grounded(X))
            diag = X.diagonal().copy()
            for start in range(0, len(e), _CHUNK_ROWS):
                chunk = e[start : start + _CHUNK_ROWS]
                u, v = local[self.u[chunk]], local[self.v[chunk]]
                r[chunk] = diag[u] + diag[v] - 2.0 * X[u, v]
        r.flags.writeable = False
        return r


def _grounded(block: np.ndarray) -> np.ndarray:
    """The view of a component's |S| x |S| block left when its ground
    vertex's row and column are deleted. The ground is the component's
    local index 0, its smallest vertex. `WeightedGraph.factor`,
    `WeightedGraph.resistances` and `spectral_bounds` all ground here."""
    return block[1:, 1:]


def _tril_inv(C: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular C, itself lower-triangular
    with exact zeros above the diagonal. With C = [[A, 0], [B, D]],
    C^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]]; A^-1 and D^-1 come from the
    same recursion, and blocks of at most `_LEAF_ROWS` rows from
    `np.linalg.inv`, so such a block's inverse is bitwise LAPACK's. The
    products cost about 2/3 |C|^3 flops, against about 8/3 |C|^3 for
    `np.linalg.inv` of the whole of C (an LU solve against the identity)."""
    n = len(C)
    if n <= _LEAF_ROWS:
        return np.linalg.inv(C)
    h = n // 2
    inv = np.zeros_like(C)
    inv[:h, :h] = _tril_inv(C[:h, :h])
    inv[h:, h:] = _tril_inv(C[h:, h:])
    inv[h:, :h] = -(inv[h:, h:] @ (C[h:, :h] @ inv[:h, :h]))
    return inv


# a bound on the |S| x |S| float64 arrays a dense path holds at once for
# one component S, next to one block of every component that it keeps (the
# cached C^-1, the clustering's eigenvectors). While factoring: L[S, S],
# LAPACK's copy of its grounded block and the Cholesky factor, then the
# factor, its inverse and the inverse's products; while verifying: L_H[S, S]
# with C^-1 L_H C^-T written over it, the product C^-1 L_H and eigvalsh's
# copy; while clustering: L[S, S], eigh's copy and its eigenvectors, or L[S, S]
# overwritten by the Lanczos certificate matrix, the Cholesky's copy and its
# factor, after the (cap + 1) x |S| Lanczos basis, at most a quarter block
# (`cluster._kept_pairs`). Per-edge arrays are not counted: the sampler's
# (scores, distribution, counts, support and the reweighted records) are
# all freed before its certificate's blocks exist (`sparsify._sparsify_each`)
_DENSE_ARRAYS = 4
# a bound on the bytes per vertex that building the component index
# (`WeightedGraph._components`) holds: at most eight 8-byte arrays, the
# index's four, the component sizes and three temporaries for the local
# array; the list view `connected_components` builds is not counted
_VERTEX_BYTES = 72


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(need: int, subject: str, purpose: str) -> None:
    """Refuse, with a `MemoryError` that names the subject, the bytes and
    their purpose, a need beyond physical memory."""
    have = _physical_memory()
    if need > have:
        raise MemoryError(f"{subject} needs {need} bytes for {purpose}; physical memory is {have} bytes")


def _check_dense_size(n: int) -> None:
    """Refuse a vertex count whose `_DENSE_ARRAYS` n x n float64 arrays would
    not fit in physical memory. The Laplacians, which return an n x n
    array, call this before making it."""
    _check_memory(_DENSE_ARRAYS * 8 * n * n, f"n={n}", f"{_DENSE_ARRAYS} dense n x n float64 arrays")


def _check_block_size(g: WeightedGraph) -> None:
    """Refuse a graph whose dense blocks would not fit in physical memory:
    `_DENSE_ARRAYS` blocks of its largest component beside one block of
    every component of at least two vertices, their squared sizes summed as
    Python ints (no int64 overflow). The block walk (`_laplacian_blocks`),
    which the factor, the verifier and the clustering eigensolve all take,
    calls this before its first block."""
    members, starts = g._components[:2]
    sizes = np.diff(starts)
    s = int(sizes.max())
    if s > 1:
        _check_memory(
            8 * (_DENSE_ARRAYS * s * s + sum(x * x for x in sizes[sizes > 1].tolist())),
            f"the component of vertex {members[starts[np.argmax(sizes)]]} ({s} vertices)",  # the first largest
            f"{_DENSE_ARRAYS} dense {s} x {s} float64 blocks beside one block per component",
        )


def _laplacian_block(
    d: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray, normalized: bool = False
) -> np.ndarray:
    """The dense Laplacian of len(d) vertices with weighted degrees d and
    edges (u, v, w), u and v indices into d: the degrees on the diagonal,
    -w at (u, v) and (v, u). Normalized, D^-1/2 L D^-1/2, with a zero row
    and column at a vertex of degree 0. Built on a component's own edges
    and degrees, it is bitwise the block L[S, S] of the whole graph's
    Laplacian (`laplacian`, `normalized_laplacian`), which is this builder
    on all n vertices."""
    L = np.zeros((len(d), len(d)))
    L[u, v] = -w
    L[v, u] = -w
    np.fill_diagonal(L, d)
    if normalized:
        inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
        L *= inv_sqrt[:, None]
        L *= inv_sqrt[None, :]
    return L


def _edges_by_component(g: WeightedGraph, parts: WeightedGraph):
    """For every component S of the graph `parts` with at least two
    vertices, in component order: (S's vertices ascending, the indices of
    the edges of g inside S in edge order). g is on the same vertices, and
    each of its edges lies inside one component of `parts`. Only the edge
    order is held between components; smaller components are not visited."""
    members, starts, component, _ = parts._components
    big = np.flatnonzero(np.diff(starts) > 1)
    c = component[g.u]
    order = np.argsort(c, kind="stable")
    lo, hi = np.searchsorted(c[order], [big, big + 1]).tolist()
    del c
    for i, a, b in zip(big.tolist(), lo, hi):
        yield members[starts[i] : starts[i + 1]], order[a:b]


def _laplacian_blocks(g: WeightedGraph, parts: WeightedGraph, normalized: bool = False):
    """(S, build) for every component S of `parts` with at least two
    vertices (`_edges_by_component`), once `parts`' blocks are known to fit
    in memory (`_check_block_size`): build() makes the block L[S, S] of g's
    Laplacian by `_laplacian_block` from S's edges and the degrees d[S] of
    g, a new array on every call. `build` holds only S and its edge indices;
    the block's edge ends and weights exist while it is built."""
    _check_block_size(parts)
    d, local = g.degrees(), parts._components[3]

    def build(comp, e):
        return _laplacian_block(d[comp], local[g.u[e]], local[g.v[e]], g.w[e], normalized)

    for comp, e in _edges_by_component(g, parts):
        yield comp, partial(build, comp, e)


def laplacian(g: WeightedGraph) -> np.ndarray:
    """Combinatorial Laplacian, the dense n x n array of the degree matrix
    minus the weighted adjacency (`_laplacian_block` on all n vertices).

    A vertex count whose dense arrays would not fit in physical memory is
    refused with a `MemoryError` before any n x n allocation
    (`_check_dense_size`), and then a weighted degree that overflows float64
    (`WeightedGraph.degrees`)."""
    _check_dense_size(g.n)
    return _laplacian_block(g.degrees(), g.u, g.v, g.w)


def normalized_laplacian(g: WeightedGraph) -> np.ndarray:
    """Degree-normalized Laplacian, a dense n x n array; isolated vertices
    get zero rows/columns. Refused as `laplacian` refuses."""
    _check_dense_size(g.n)
    return _laplacian_block(g.degrees(), g.u, g.v, g.w, normalized=True)


def quadratic_form(L: np.ndarray, x) -> float:
    """x^T L x for an n x n Laplacian L. For an unnormalized Laplacian this
    is the weighted edge sum of squared endpoint differences."""
    x = np.asarray(x, dtype=float)
    if x.shape != (len(L),):
        raise DimensionMismatch(f"vector length {x.shape} does not match n={len(L)}")
    return float(x @ L @ x)


def spectral_bounds(g: WeightedGraph, h: WeightedGraph) -> tuple[float, float]:
    """(mu_min, mu_max): the extreme generalized eigenvalues of the pencil
    (L_H, L_G), so that mu_min x'L_G x <= x'L_H x <= mu_max x'L_G x for all x.

    The kernel of L_G is spanned by the indicators 1_S of G's components S,
    and 1_S' L_H 1_S is the H weight crossing S, so an H edge that joins two
    components of G gives (0.0, inf) with no eigensolve. Otherwise L_H,
    grounded as L_G is (`_grounded`), is block-diagonal on G's components,
    and the bounds are the extreme eigenvalues mu of C_S^-1 L_H[S', S']
    C_S^-T over every block (grounded L_G[S', S'] = C_S C_S^T,
    `WeightedGraph.factor`). Each block L_H[S, S] is built from H's edges
    inside S, as G's are, so no n x n array is made. An H equal to G gives
    exactly (1.0, 1.0) before any factor or eigensolve.

    The bounds are exact up to roundoff of about eps_mach times the
    condition number of the grounded block L_G[S', S']. Weights whose
    products leave float64 range can also make them inf or NaN with no edge
    crossing, under numpy's default error state: H's edges 0-1 and 1-2 at
    1e306 against G's triangle at 1e-5 give (-inf, inf), and at 1e300
    against 1e-300 (NaN, NaN). With overflow raising, as the CLI runs, such
    weights are a `FloatingPointError` instead. A NaN is never dropped.

    The vertex counts are checked first, then G's factor is built, so a
    graph too large for its blocks is a `MemoryError` before H is read."""
    if g.n != h.n:
        raise DimensionMismatch(f"vertex counts differ: {g.n} vs {h.n}")
    if h == g:
        return 1.0, 1.0
    blocks, component = g.factor, g._components[2]
    if np.any(component[h.u] != component[h.v]):
        return 0.0, math.inf
    mu = []
    for cinv, (_, build) in zip(blocks, _laplacian_blocks(h, g)):
        M = _grounded(build())
        np.matmul(cinv @ M, cinv.T, out=M)  # written over L_H's block, which is read first
        mu.append(np.linalg.eigvalsh(M))
    mu = np.concatenate(mu)  # a NaN from overflowing weights stays NaN
    return float(mu.min()), float(mu.max())


def edge_ids(g: WeightedGraph, pairs: list) -> np.ndarray:
    """The index in `g.records` of each pair in `pairs`, either way round, or
    -1 for a pair that is no edge (`end_ids` of the pairs' ends)."""
    return end_ids(g, list(chain.from_iterable(pairs)))


def end_ids(g: WeightedGraph, ends: list) -> np.ndarray:
    """The index in `g.records` of each pair (ends[2k], ends[2k + 1]) of a
    flat list of integer ends, either way round, or -1 for a pair that is no
    edge: one `searchsorted` of the keys lo * n + hi on those of the sorted
    records, exact while n * n fits in int64; beyond that n, ids are first
    ranked among g's own vertices."""
    uv = _ids(ends)
    if uv.dtype == object:  # an id past int64 is no vertex of g
        uv = np.where((uv >= 0) & (uv < g.n), uv, -1).astype(np.int64)
    ends, n, top = [uv[0::2], uv[1::2], g.u, g.v], g.n, np.iinfo(np.int64).max
    if n * n > top:  # top closes the vertices, so every id has a place among them
        vertices = np.unique(np.concatenate((*ends[2:], [top])))
        at = [np.searchsorted(vertices, x) for x in ends]
        ends, n = [np.where(vertices[i] == x, i, -1) for i, x in zip(at, ends)], len(vertices)
    a, b, bu, bv = ends
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    inside = (lo >= 0) & (hi < n)
    key = np.where(inside, lo * n + hi, -1)  # a product out of range may wrap; it is discarded
    keys = np.append(bu * n + bv, top)  # top: a last key, above every pair's
    at = np.searchsorted(keys, key)
    return np.where(inside & (keys[at] == key), at, -1)


def induced_subgraph(g: WeightedGraph, pairs) -> WeightedGraph:
    """Subgraph on the full vertex set with edges `pairs`, either way round."""
    pairs = list(pairs)
    ids = edge_ids(g, pairs)
    if (ids < 0).any():
        missing = {norm_pair(*p) for p, i in zip(pairs, ids) if i < 0}
        raise ValueError(f"edges not present in graph: {sorted(missing)}")
    return WeightedGraph._trusted(g.n, g.records[np.unique(ids)])


def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest
    member: a list view of the component index (`WeightedGraph._components`)."""
    members, starts = g._components[:2]
    flat, bounds = members.tolist(), starts.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


# size from which a plain file is read again by path, by numpy's chunked C
# reader; below it, parsing the lines of the bytes already read is faster
# (they cross between 16 and 30 KB with numpy 2.4 on a 2-vCPU x86 host)
_BY_PATH_BYTES = 16 * 1024
# tab, newline and printable ASCII: the only text `np.loadtxt` reads here
_PLAIN = bytes([9, 10, *range(32, 127)])
_DATA_LINE = re.compile(rb"^[ \t]*([^ \t\n#].*)$", re.MULTILINE)
_TRAILING_COMMENT = re.compile(rb"^[ \t]*[^ \t\n#][^\n#]*#", re.MULTILINE)


def load_graph(text: str | bytes, *, path=None) -> WeightedGraph:
    """Parse the edge-list format: one `u v w` per line, `#` comments,
    optional leading `n <count>` header fixing the vertex count.

    `text` is the edge list as a str or as bytes, parsed from memory;
    `path`, the file it was read from, is only named in errors. Bytes are
    decoded, as UTF-8, only for the line rules. Bytes that are not UTF-8
    are a `ParseError`."""
    if text.isascii():
        data = text.encode() if isinstance(text, str) else text
        header = _plain_header(data)
        if header is not None:
            g = _load_plain(data.decode("ascii").splitlines(), *header)
            if g is not None:
                return g
    return _load_text(text, path)


def _plain_header(data: bytes) -> tuple[int | None, int] | None:
    """(the vertex count of the `n <count>` header or None, the lines
    before the first edge) of an edge list that the plain pass reads, or
    None for one only the line rules read.

    The plain gate: only `_PLAIN` characters, no comment after data on a
    line, and a well-formed header, which `skiprows` skips with every line
    before it."""
    if not data.isascii() or data.translate(None, _PLAIN):
        return None
    # np.loadtxt drops a comment after data; the line rules reject it
    if b"#" in data and _TRAILING_COMMENT.search(data):
        return None
    first = _DATA_LINE.search(data)
    if first is None or first.group(1).split()[0] != b"n":
        return None, 0
    parts = first.group(1).split()
    if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
        return None
    return int(parts[1]), data.count(b"\n", 0, first.end()) + 1


def _load_plain(source, n: int | None, skip: int) -> WeightedGraph | None:
    """The graph that one `np.loadtxt` pass reads from `source` (the lines
    of an edge list, or the absolute path of its file, which numpy reads in
    chunks with its C reader) past its first `skip` lines, with `n`
    vertices or, for None, one more than its largest id; None for text that
    pass or the graph rejects."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # "input contained no data" included
        try:
            records = np.loadtxt(source, dtype=EDGE_DTYPE, comments="#", ndmin=1, skiprows=skip, encoding="ascii")
        # OSError, LZMAError: numpy decompresses a path ending in .gz, .bz2,
        # .xz or .lzma, and plain text under such a name fails to; a file
        # gone since its bytes were read fails to open
        except (ValueError, OverflowError, Warning, OSError, lzma.LZMAError):
            return None
    if n is None:
        n = int(max(records["u"].max(), records["v"].max())) + 1
    try:
        return WeightedGraph(n, records)
    except ValueError:
        return None


def _load_text(text: str | bytes, path) -> WeightedGraph:
    """The line rules' reading of an edge list, bytes decoded as UTF-8 first."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid edge list{'' if path is None else f' in {path}'}: {exc}") from None
    return _load_lines(text)


def _load_lines(text: str) -> WeightedGraph:
    """The line-by-line reading of an edge list, which words every error."""
    n_header = None
    triples: list[tuple[int, int, float]] = []
    seen: dict[Edge, int] = {}
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
        p = norm_pair(u, v)
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
    return WeightedGraph(n, tuple(triples))


def load_graph_file(path) -> WeightedGraph:
    """The graph in an edge-list file. Its bytes are read once for the
    plain gate. A plain file below `_BY_PATH_BYTES` is parsed from those
    bytes (`load_graph`); for a larger one the bytes are dropped and numpy's
    chunked C reader reads the file again by path, so they are not held
    beside the arrays it builds. A file rewritten between the two reads can
    only give a graph that passes `WeightedGraph`'s full validation. The
    line rules read what the plain pass does not; a file that passed the
    gate is read a third time for them, to word its error. Text that is not
    UTF-8 is a `ParseError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _BY_PATH_BYTES:
        return load_graph(data, path=path)
    header = _plain_header(data)
    if header is not None:
        del data
        # absolute: numpy would fetch a str with a scheme and a host as a URL
        g = _load_plain(os.path.abspath(path), *header)
        if g is not None:
            return g
        with open(path, "rb") as fh:
            data = fh.read()
    return _load_text(data, path)


def dump_graph(g: WeightedGraph, fh) -> None:
    """Write g to the text stream `fh` as an edge list that `load_graph`
    reads back as g: the header `n <count>`, then one `u v w` line per edge
    in stored (u, v) order, w in Python's shortest `repr` (the text of
    `"{} {} {!r}".format(u, v, w)`), each line ending in a newline.

    The edges go out in chunks of `_CHUNK_ROWS`, one `fh.write` each, so the
    text held at once is one chunk's. A chunk's rows are rendered by
    `weighted_rows`, the one home of the float rule, and two `bytes.replace`
    calls turn them into lines."""
    fh.write(f"n {g.n}\n")
    for start in range(0, g.m, _CHUNK_ROWS):
        rows = weighted_rows(g.records[start : start + _CHUNK_ROWS])
        fh.write(rows[2:-2].replace(b"],[", b"\n").replace(b",", b" ").decode("ascii") + "\n")


def weighted_rows(records: np.ndarray) -> bytes:
    """`EDGE_DTYPE` records as the compact JSON `[[u,v,w],...]`, each w in
    Python's shortest `repr` text, by one `orjson.dumps` of their rows.
    orjson's shortest round-trip floats are `repr`'s text for
    1e-4 <= w < 1e16; a weight outside that range (`repr`'s `1e-05` and
    `1e+16` against orjson's `0.00001` and `1e16`) goes in as its `repr`
    string, whose quotes are then dropped. The edge-list writer
    (`dump_graph`) and the CLI's report renderer both write weights
    through this rule."""
    rows, w = records.tolist(), records["w"]
    for i in np.flatnonzero((w < 1e-4) | (w >= 1e16)).tolist():
        u, v, x = rows[i]
        rows[i] = u, v, repr(x)
    return orjson.dumps(rows).replace(b'"', b"")
