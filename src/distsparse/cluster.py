"""Spectral clustering: eigenvector embedding, seeded k-means, cut weights,
and the adjusted Rand index used to compare labelings."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DimensionMismatch
from .graph import WeightedGraph, _check_block_size, _check_memory, _laplacian_blocks

_MAX_KMEANS_ITERS = 100


@dataclass(frozen=True)
class ClusterAssignment:
    labels: tuple[int, ...]
    k: int

    def __post_init__(self):
        used = set(self.labels)
        if not used <= set(range(self.k)):
            raise ValueError(f"labels outside [0, {self.k})")
        if used != set(range(self.k)):
            raise ValueError("every cluster id must be used at least once")


def _check_k(g: WeightedGraph, k: int) -> None:
    if not (1 <= k <= g.n):
        raise ValueError(f"k must lie in [1, {g.n}], got {k}")


def spectral_embedding(g: WeightedGraph, k: int, normalized: bool = False) -> np.ndarray:
    """Columns are orthonormal eigenvectors for the k smallest eigenvalues
    of the Laplacian (or the normalized Laplacian), eigenvalues ascending.

    The Laplacian is block-diagonal on the connected components, and its
    kernel is spanned by one unit vector per component S: the indicator
    1_S/sqrt|S|, or D^1/2 1_S/||D^1/2 1_S|| for the normalized Laplacian
    (e_v for an isolated vertex, whose normalized row is zero). The first
    min(c, k) columns are these kernel vectors of the first components in
    component order (by smallest member), so a graph with c >= k components
    needs no eigensolve, and the basis of the degenerate kernel is fixed by
    definition rather than chosen by LAPACK. When c < k, each component of
    at least two vertices takes one `np.linalg.eigh` of its block L[S, S],
    built from its own edges (no n x n array is made);
    its eigenpairs 1, 2, ... (pair 0 is its kernel vector) are merged across
    components by (eigenvalue, component order), and the k - c smallest fill
    the remaining columns, each made positive at its first nonzero entry.
    Only the kept columns of each component's eigenvectors are held (a
    copy), so each |S| x |S| matrix is dropped after its eigensolve."""
    _check_k(g, k)
    members, starts, component, _ = g._components
    c, sizes = len(starts) - 1, np.diff(starts)
    X = np.zeros((g.n, k))
    lead = members[: starts[min(c, k)]]  # the first min(c, k) components' vertices
    X[lead, component[lead]] = np.sqrt(1.0 / sizes[component[lead]])
    if normalized:
        d = g.degrees()
        for col in np.flatnonzero(sizes[:k] > 1).tolist():
            comp = members[starts[col] : starts[col + 1]]
            X[comp, col] = np.sqrt(d[comp] / d[comp].sum())
    if c >= k:
        return X
    _check_block_size(g)
    values, vectors = [], []  # nonzero spectra, in component order
    for comp, L in _laplacian_blocks(g, g, normalized):
        lam, vecs = np.linalg.eigh(L)
        kept = min(k - c, len(comp) - 1)
        values.append(lam[1 : kept + 1])
        cols = vecs[:, 1 : kept + 1].copy()
        vectors += [(comp, cols[:, j]) for j in range(kept)]
    order = np.argsort(np.concatenate(values), kind="stable")[: k - c]
    for col, (comp, vec) in enumerate((vectors[i] for i in order), start=c):
        nz = np.nonzero(np.abs(vec) > 1e-12)[0]
        X[comp, col] = -vec if nz.size and vec[nz[0]] < 0 else vec
    return X


def _kmeans_pp_init(points: np.ndarray, k: int, rng) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    idx = int(rng.integers(n))
    centroids[0] = points[idx]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[c]) ** 2, axis=1))
    return centroids


def kmeans(points, k: int, seed: int) -> ClusterAssignment:
    """Lloyd iterations from k-means++ seeding; stops at an assignment
    fixpoint or after 100 iterations. Nearest-centroid ties go to the lowest
    cluster index. Clusters left empty at the end are given the point
    farthest from its assigned centroid."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    labels = None
    prev_obj = np.inf
    for _ in range(_MAX_KMEANS_ITERS):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        obj = float(d2[np.arange(n), new_labels].sum())
        if not obj <= prev_obj + 1e-9:
            raise RuntimeError("k-means objective increased")
        prev_obj = obj
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)

    # keep the assignment total: hand each empty cluster a far-away point
    for c in range(k):
        if not np.any(labels == c):
            d2 = np.sum((points - centroids[labels]) ** 2, axis=1)
            victim = int(np.argmax(d2))
            if np.sum(labels == labels[victim]) <= 1:
                victim = int(np.argmax(np.bincount(labels, minlength=k)[labels]))
            labels[victim] = c
            centroids[c] = points[victim]
    return ClusterAssignment(labels=tuple(int(x) for x in labels), k=k)


def spectral_clustering(
    g: WeightedGraph, k: int, seed: int, normalized: bool = False
) -> ClusterAssignment:
    """`kmeans` of the k-column `spectral_embedding`. k-means holds an
    n x k x k float64 array of point-centroid differences, larger than the
    n x k embedding, so that is checked against physical memory (after the
    range of k) before the embedding is built."""
    _check_k(g, k)
    n = g.n
    _check_memory(8 * n * k * k, f"k={k} clusters of n={n} vertices", f"k-means' {n} x {k} x {k} float64 differences")
    return kmeans(spectral_embedding(g, k, normalized), k, seed)


def multicut_weight(g: WeightedGraph, a: ClusterAssignment) -> float:
    """Total weight of edges whose endpoints land in different clusters."""
    if len(a.labels) != g.n:
        raise DimensionMismatch(f"{len(a.labels)} labels for n={g.n}")
    labels = np.asarray(a.labels)
    return float(sum(g.w[labels[g.u] != labels[g.v]].tolist()))


def adjusted_rand_index(a: ClusterAssignment, b: ClusterAssignment) -> float:
    """Chance-corrected pair-counting agreement between two labelings."""
    if len(a.labels) != len(b.labels):
        raise DimensionMismatch("labelings have different lengths")
    sum_cells = sum(comb(c, 2) for c in Counter(zip(a.labels, b.labels)).values())
    sum_rows = sum(comb(c, 2) for c in Counter(a.labels).values())
    sum_cols = sum(comb(c, 2) for c in Counter(b.labels).values())
    pairs = comb(len(a.labels), 2)
    if pairs == 0:
        return 1.0
    expected = sum_rows * sum_cols / pairs
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)
