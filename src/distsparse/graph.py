"""Weighted undirected graphs, Laplacians and quadratic forms.

The graph type is the substrate for everything else: immutable, dense-matrix
oriented, intended for desk scale (n up to a couple thousand vertices).

A graph is stored as one structured array of (u, v, w) records
(`EDGE_DTYPE`), u < v, sorted by (u, v) and validated once in vectorised
form; every operation here reads that array, and `edges` is a tuple view of
it built on first use. An edge list in plain ASCII is parsed by one
`np.loadtxt` pass. A file's bytes are read once and checked for plain text;
numpy's C reader then reads the file again itself, in chunks. Any other
text, and any file that pass or the graph's validation rejects, is decoded
and read again by the line-by-line rules, which word every parse error with
its line number.
"""

from __future__ import annotations

import io
import lzma
import math
import os
import re
import warnings
from dataclasses import FrozenInstanceError
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, ParseError

Edge = tuple[int, int]

EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])

# rows of the largest triangular block `_tril_inv` hands to `np.linalg.inv`
_LEAF_ROWS = 64


def norm_pair(u: int, v: int) -> Edge:
    """Canonical unordered-pair form (smaller id first)."""
    return (u, v) if u < v else (v, u)


def norm_pairs(pairs) -> frozenset[Edge]:
    """The canonical forms (`norm_pair`) of some unordered pairs, each any
    2-element iterable, as one frozenset. A frozenset of canonical pairs
    comes back as the same object."""
    if isinstance(pairs, frozenset) and not any(u > v for u, v in pairs):
        return pairs
    return frozenset((u, v) if u < v else (v, u) for u, v in pairs)


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
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        dup = np.zeros(len(w), dtype=bool)
        ordered = ((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))).all()
        if not ordered:
            # stable: a pair's first edge comes first. The key lo * n + hi
            # orders in-range pairs as (lo, hi) does, and is exact for them
            # while n * n fits in int64; only an out-of-range edge can wrap
            # or collide, and the first one in input order is reported
            # before any duplicate it could fake. Beyond that n, lexsort.
            if self.n * self.n <= np.iinfo(np.int64).max:
                order = np.argsort(lo * self.n + hi, kind="stable")
            else:
                order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            same = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
            dup[order[1:][same]] = True
        loop = u == v
        out_of_range = (u < 0) | (u >= self.n) | (v < 0) | (v >= self.n)
        bad = loop | out_of_range | ~(w > 0) | np.isinf(w) | dup
        if bad.any():
            i = int(np.argmax(bad))
            a, b = int(u[i]), int(v[i])
            if loop[i]:
                raise ValueError(f"self-loop at vertex {a}")
            if out_of_range[i]:
                raise ValueError(f"vertex id out of range: ({a}, {b}) with n={self.n}")
            if not w[i] > 0:
                raise ValueError(f"non-positive weight {float(w[i])} on edge ({a}, {b})")
            if np.isinf(w[i]):
                raise ValueError(f"non-finite weight {float(w[i])} on edge ({a}, {b})")
            raise ValueError(f"duplicate edge {norm_pair(a, b)}")
        if u.dtype == object or v.dtype == object:
            raise ValueError(f"vertex id {max(u.max(), v.max())} does not fit in 64 bits")
        records = np.empty(len(w), dtype=EDGE_DTYPE)
        records["u"], records["v"] = lo, hi
        records["w"] = w if ordered else w[order]
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
        """The edges as (u, v) pairs, built on first use: every call
        returns the same frozenset."""
        if "_pairs" not in self.__dict__:
            self.__dict__["_pairs"] = frozenset(zip(self.u.tolist(), self.v.tolist()))
        return self.__dict__["_pairs"]

    def weights(self) -> dict[Edge, float]:
        return dict(zip(zip(self.u.tolist(), self.v.tolist()), self.w.tolist()))

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
    def _components(self) -> tuple[list[list[int]], np.ndarray, np.ndarray]:
        """(`connected_components`, the component index of every vertex, the
        index of every vertex within its component), computed once per
        graph."""
        comps = connected_components(self)
        component = np.empty(self.n, dtype=np.intp)
        local = np.empty(self.n, dtype=np.intp)
        for i, comp in enumerate(comps):
            component[comp] = i
            local[comp] = np.arange(len(comp))
        return comps, component, local

    @cached_property
    def factor(self) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
        """(component id of every vertex, blocks), computed once per graph.
        The Laplacian's kernel is spanned by the component indicators and L
        is block-diagonal on the components, so grounding (deleting) the
        smallest vertex of every component S leaves one positive definite
        block per component: `blocks` holds a (free vertices of S ascending,
        C_S^-1) pair with L[free, free] = C_S C_S^T for every S with at least
        two vertices, ordered by smallest member; one Cholesky factor per
        component, inverted as a triangle (`_tril_inv`), about |S|^3 flops in
        all. Each block L[S, S] is built from S's own edges
        (`_laplacian_blocks`) and grounded by dropping its first row and
        column; no n x n array is made. A vertex count no dense n x n matrix
        could hold still fails before any per-vertex work
        (`_check_dense_size`)."""
        _check_dense_size(self.n)
        blocks = []
        for comp, L in _laplacian_blocks(self, self):
            try:
                C = np.linalg.cholesky(L[1:, 1:])
            except np.linalg.LinAlgError:
                # the block is positive definite in exact arithmetic, so
                # only roundoff can make the factorisation fail
                raise ValueError(
                    f"the component of vertex {comp[0]} has a weight range beyond what float64 can factor"
                ) from None
            del L  # before the inverse's arrays exist
            blocks.append((np.array(comp[1:]), _tril_inv(C)))
        return self._components[1], tuple(blocks)

    @cached_property
    def resistances(self) -> np.ndarray:
        """Effective resistance of every edge, in edge order, computed once
        per graph: R(u, v) = X_uu + X_vv - 2 X_uv, with X the inverse of the
        grounded Laplacian, filled one component S at a time as an |S| x |S|
        block (X[S', S'] = C_S^-T C_S^-1 on the free vertices S' of S,
        `factor`, and zero on the grounded vertex) and read at S's edges."""
        blocks = self.factor[1]  # first: it checks the size before any block exists
        local = self._components[2]
        r = np.empty(self.m)
        for (_, cinv), (comp, e) in zip(blocks, _edges_by_component(self, self)):
            X = np.zeros((len(comp), len(comp)))
            np.matmul(cinv.T, cinv, out=X[1:, 1:])
            u, v = local[self.u[e]], local[self.v[e]]
            r[e] = X[u, u] + X[v, v] - 2.0 * X[u, v]
        r.flags.writeable = False
        return r

    @cached_property
    def sampling_probs(self) -> np.ndarray:
        """Effective-resistance sampling distribution, in edge order,
        computed once per graph: p_e proportional to w_e R_e (`resistances`,
        roundoff below 0 clipped), summing to 1. Only the draw from it
        depends on the seed (`sparsify_er`). Scores that do not sum to a
        positive finite number can only come from roundoff in the factor,
        and are refused."""
        scores = self.w * np.maximum(self.resistances, 0.0)
        total = scores.sum()
        if self.m and not 0.0 < total < math.inf:
            raise ValueError(
                f"the graph has a weight range beyond what float64 can sample: its scores w_e R_e sum to {total}"
            )
        probs = scores / total
        probs.flags.writeable = False
        return probs


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


# a bound on the n x n float64 arrays a dense path holds at once. They hold
# |S| x |S| blocks of one component S at a time, next to the cached C^-1 of
# every component, which together take no more than one n x n array. While
# factoring: L[S, S], LAPACK's copy of its grounded block and the Cholesky
# factor, then the factor, its inverse and the inverse's products; while
# verifying: the cached C^-1, L_H[S, S] with C^-1 L_H C^-T written over it,
# the product C^-1 L_H and eigvalsh's copy
_DENSE_ARRAYS = 4


def _physical_memory() -> int:
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_dense_size(n: int) -> None:
    """Refuse, with a `MemoryError`, a vertex count whose `_DENSE_ARRAYS`
    n x n float64 arrays would not fit in physical memory. Every dense path
    (the Laplacians, the factor and with it the resistances and the
    verifier, the clustering eigensolve) calls this before its blocks."""
    need = _DENSE_ARRAYS * 8 * n * n
    have = _physical_memory()
    if need > have:
        raise MemoryError(
            f"n={n} needs {need} bytes for {_DENSE_ARRAYS} dense n x n float64 arrays; "
            f"physical memory is {have} bytes"
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
    vertices, in component order: (S, the indices of the edges of g inside
    S in edge order). g is on the same vertices, and each of its edges lies
    inside one component of `parts`; `parts._components` maps their ends to
    indices into S. Only the edge order is held between components."""
    comps, component, _ = parts._components
    c = component[g.u]
    order = np.argsort(c, kind="stable")
    ends = np.searchsorted(c[order], np.arange(1, len(comps) + 1)).tolist()
    del c
    start = 0
    for comp, end in zip(comps, ends):
        if len(comp) > 1:
            yield comp, order[start:end]
        start = end


def _laplacian_blocks(g: WeightedGraph, parts: WeightedGraph, normalized: bool = False):
    """(S, the block L[S, S] of g's Laplacian) for every component S of
    `parts` with at least two vertices (`_edges_by_component`), each built
    by `_laplacian_block` from S's edges and the degrees d[S] of g."""
    d, local = g.degrees(), parts._components[2]
    for comp, e in _edges_by_component(g, parts):
        yield comp, _laplacian_block(d[comp], local[g.u[e]], local[g.v[e]], g.w[e], normalized)


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


def induced_subgraph(g: WeightedGraph, pairs) -> WeightedGraph:
    """Subgraph on the full vertex set with edge set restricted to `pairs`."""
    wanted = norm_pairs(pairs)
    keep = np.fromiter(map(wanted.__contains__, zip(g.u.tolist(), g.v.tolist())), dtype=bool, count=g.m)
    if keep.sum() < len(wanted):
        raise ValueError(f"edges not present in graph: {sorted(wanted - g.pairs())}")
    return WeightedGraph._trusted(g.n, g.records[keep])


def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest member.

    Every vertex points at a smaller one or at itself. Each round hooks the
    larger root of every edge whose ends have different roots onto the
    smaller, then jumps pointers until each vertex points at its root, so
    every root ends as the smallest vertex of its component."""
    root = np.arange(g.n)
    while True:
        ru, rv = root[g.u], root[g.v]
        if np.array_equal(ru, rv):
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(root[root], root):
            root = root[root]
    order = np.argsort(root, kind="stable")
    cuts = np.flatnonzero(np.diff(root[order])) + 1
    return [comp.tolist() for comp in np.split(order, cuts)]


# tab, newline and printable ASCII: the only text `np.loadtxt` reads here
_PLAIN = bytes([9, 10, *range(32, 127)])
_DATA_LINE = re.compile(rb"^[ \t]*([^ \t\n#].*)$", re.MULTILINE)
_TRAILING_COMMENT = re.compile(rb"^[ \t]*[^ \t\n#][^\n#]*#", re.MULTILINE)


def load_graph(text: str | bytes, *, path=None) -> WeightedGraph:
    """Parse the edge-list format: one `u v w` per line, `#` comments,
    optional leading `n <count>` header fixing the vertex count.

    `text` is the edge list as a str or as bytes; with `path`, it holds the
    bytes of that file (`load_graph_file`), and numpy reads the file itself.
    Bytes are decoded, as UTF-8, only for the line rules. Bytes that are not
    UTF-8 are a `ParseError`."""
    g = _load_plain(text, path)
    if g is not None:
        return g
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid edge list{'' if path is None else f' in {path}'}: {exc}") from None
    return _load_lines(text)


def _load_plain(text: str | bytes, path) -> WeightedGraph | None:
    """The graph of a valid edge list in plain ASCII, read by one
    `np.loadtxt` pass; None for text that pass or the graph rejects.

    The plain gate runs on the bytes: only `_PLAIN` characters, no comment
    after data on a line, and a well-formed `n <count>` header, which
    `skiprows` skips with every line before it. Given `path`, whose bytes
    `text` then holds, numpy reads the file itself, in chunks, with its C
    reader; otherwise it reads the text through a `StringIO`, one line at a
    time."""
    if not text.isascii():
        return None
    data = text.encode() if isinstance(text, str) else text
    if data.translate(None, _PLAIN):
        return None
    # np.loadtxt drops a comment after data; the line rules reject it
    if b"#" in data and _TRAILING_COMMENT.search(data):
        return None
    n, skip = None, 0
    first = _DATA_LINE.search(data)
    if first is not None and first.group(1).split()[0] == b"n":
        parts = first.group(1).split()
        if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
            return None
        n, skip = int(parts[1]), data.count(b"\n", 0, first.end()) + 1
    # absolute: numpy would fetch a str with a scheme and a host as a URL
    source = os.path.abspath(path) if path is not None else io.StringIO(data.decode("ascii"))
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
    plain gate and, should the line rules read it, for decoding; a plain
    file is then read again, by path, by numpy's chunked C reader
    (`load_graph`). A file rewritten between the two reads can only give a
    graph that passes `WeightedGraph`'s full validation. Text that is not
    UTF-8 is a `ParseError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    return load_graph(data, path=path)


def dump_graph(g: WeightedGraph) -> str:
    lines = [f"n {g.n}", *map("{} {} {!r}".format, g.u.tolist(), g.v.tolist(), g.w.tolist())]
    return "\n".join(lines) + "\n"
