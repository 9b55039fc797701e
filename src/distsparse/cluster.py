"""Spectral clustering: eigenvector embedding, seeded k-means, cut weights,
and the adjusted Rand index used to compare labelings."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DimensionMismatch
from .graph import WeightedGraph, laplacian, normalized_laplacian

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


def spectral_embedding(g: WeightedGraph, k: int, normalized: bool = False) -> np.ndarray:
    """Columns are eigenvectors for the k smallest Laplacian eigenvalues,
    eigenvalues ascending, each column's first nonzero entry made positive."""
    if not (1 <= k <= g.n):
        raise ValueError(f"k must lie in [1, {g.n}], got {k}")
    L = (normalized_laplacian(g) if normalized else laplacian(g)).matrix
    _, vecs = np.linalg.eigh(L)
    X = vecs[:, :k].copy()
    for col in range(k):
        nz = np.nonzero(np.abs(X[:, col]) > 1e-12)[0]
        if nz.size and X[nz[0], col] < 0:
            X[:, col] = -X[:, col]
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
    labels = np.asarray(labels)

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
    n = len(a.labels)
    cont: dict[tuple[int, int], int] = {}
    for la, lb in zip(a.labels, b.labels):
        cont[(la, lb)] = cont.get((la, lb), 0) + 1
    sum_cells = sum(comb(c, 2) for c in cont.values())
    row = {}
    col = {}
    for (la, lb), c in cont.items():
        row[la] = row.get(la, 0) + c
        col[lb] = col.get(lb, 0) + c
    sum_rows = sum(comb(c, 2) for c in row.values())
    sum_cols = sum(comb(c, 2) for c in col.values())
    pairs = comb(n, 2)
    if pairs == 0:
        return 1.0
    expected = sum_rows * sum_cols / pairs
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)
