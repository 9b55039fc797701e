"""Weighted undirected graphs, Laplacians and quadratic forms.

The graph type is the substrate for everything else: immutable, dense-matrix
oriented, intended for desk scale (n up to a couple thousand vertices).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, ParseError

Edge = tuple[int, int]


def norm_pair(u: int, v: int) -> Edge:
    """Canonical unordered-pair form (smaller id first)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1.

    Edges are stored as canonically ordered (u, v, w) triples with u < v,
    sorted, no self-loops, no duplicates, strictly positive weights.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        seen = set()
        norm = []
        for u, v, w in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"vertex id out of range: ({u}, {v}) with n={self.n}")
            w = float(w)
            if not w > 0:
                raise ValueError(f"non-positive weight {w} on edge ({u}, {v})")
            p = norm_pair(u, v)
            if p in seen:
                raise ValueError(f"duplicate edge {p}")
            seen.add(p)
            norm.append((p[0], p[1], w))
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def pairs(self) -> frozenset[Edge]:
        return frozenset((u, v) for u, v, _ in self.edges)

    def weights(self) -> dict[Edge, float]:
        return {(u, v): w for u, v, w in self.edges}

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n)
        for u, v, w in self.edges:
            d[u] += w
            d[v] += w
        return d

    @cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(component id of every vertex, the free vertices ascending, C^-1),
        computed once per graph. The Laplacian's kernel is spanned by the
        component indicators, so grounding (deleting) the smallest vertex of
        every component leaves a positive definite L[free, free] = C C^T."""
        comps = connected_components(self)
        component = np.empty(self.n, dtype=np.intp)
        for i, comp in enumerate(comps):
            component[comp] = i
        free = np.setdiff1d(np.arange(self.n), [comp[0] for comp in comps])
        L = laplacian(self).matrix[np.ix_(free, free)]
        return component, free, np.linalg.inv(np.linalg.cholesky(L))


@dataclass(frozen=True)
class LaplacianMatrix:
    """Dense symmetric Laplacian, optionally degree-normalized."""

    matrix: np.ndarray
    normalized: bool = False

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def laplacian(g: WeightedGraph) -> LaplacianMatrix:
    """Combinatorial Laplacian: degree matrix minus weighted adjacency."""
    L = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        L[u, v] -= w
        L[v, u] -= w
        L[u, u] += w
        L[v, v] += w
    return LaplacianMatrix(L, normalized=False)


def normalized_laplacian(g: WeightedGraph) -> LaplacianMatrix:
    """Degree-normalized Laplacian; isolated vertices get zero rows/columns."""
    L = laplacian(g).matrix
    d = g.degrees()
    inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    N = L * inv_sqrt[:, None] * inv_sqrt[None, :]
    return LaplacianMatrix(N, normalized=True)


def quadratic_form(L: LaplacianMatrix, x) -> float:
    """x^T L x. For an unnormalized Laplacian this is the weighted edge sum
    of squared endpoint differences."""
    x = np.asarray(x, dtype=float)
    if x.shape != (L.n,):
        raise DimensionMismatch(f"vector length {x.shape} does not match n={L.n}")
    return float(x @ L.matrix @ x)


def induced_subgraph(g: WeightedGraph, pairs) -> WeightedGraph:
    """Subgraph on the full vertex set with edge set restricted to `pairs`."""
    wanted = {norm_pair(u, v) for u, v in pairs}
    have = g.pairs()
    missing = wanted - have
    if missing:
        raise ValueError(f"edges not present in graph: {sorted(missing)}")
    edges = tuple(e for e in g.edges if (e[0], e[1]) in wanted)
    return WeightedGraph(g.n, edges)


def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest member."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def load_graph(text: str) -> WeightedGraph:
    """Parse the edge-list format: one `u v w` per line, `#` comments,
    optional leading `n <count>` header fixing the vertex count."""
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
    with open(path, encoding="utf-8") as fh:
        return load_graph(fh.read())


def dump_graph(g: WeightedGraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v} {w!r}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"
