"""Spectral clustering: eigenvector embedding, seeded k-means, cut weights,
and the adjusted Rand index used to compare labelings."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DimensionMismatch
from .graph import WeightedGraph, _check_memory, _laplacian_blocks

_MAX_KMEANS_ITERS = 100
# `_lanczos` stops once every kept Ritz pair's residual bound r is at most
# `_LANCZOS_TOL` ||L||_1 and r + eps ||L||_1 is at most `_LANCZOS_SEP` times
# its gap to the rest of the spectrum; it checks every `_LANCZOS_CHECK`
# iterations, then every m / `_LANCZOS_GROWTH` at iteration m
_LANCZOS_TOL = 1e-12
_LANCZOS_SEP = 1e-10
_LANCZOS_CHECK = 4
_LANCZOS_GROWTH = 4


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
    at least two vertices yields the kept = min(k - c, |S| - 1) smallest
    nonzero eigenpairs of its block L[S, S], built from its own edges (no
    n x n array is made), by `_kept_pairs`: certified Lanczos on a block
    large enough for its iteration cap to cover kept, one `np.linalg.eigh`
    otherwise or when Lanczos cannot certify its pairs, where the embedding
    is bitwise the per-block eigh one. The pairs are merged across
    components by (eigenvalue, component order), and the k - c smallest
    fill the remaining columns, each made positive at its first nonzero
    entry. Only the kept columns of each component are held, so each
    |S| x |S| matrix is dropped after its eigensolve."""
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
    values, vectors = [], []  # nonzero spectra, in component order
    for comp, block in _laplacian_blocks(g, g, normalized):
        # c < k, so each component's kernel vector is its own column of X
        lam, cols = _kept_pairs(block, X[comp, component[comp[0]]], min(k - c, len(comp) - 1))
        values.append(lam)
        vectors += [(comp, cols[:, j]) for j in range(len(lam))]
    order = np.argsort(np.concatenate(values), kind="stable")[: k - c]
    for col, (comp, vec) in enumerate((vectors[i] for i in order), start=c):
        nz = np.nonzero(np.abs(vec) > 1e-12)[0]
        X[comp, col] = -vec if nz.size and vec[nz[0]] < 0 else vec
    return X


def _lanczos_cap(n: int, kept: int) -> int:
    """The Lanczos iteration cap for the `kept` smallest pairs of an n x n
    block, or 0 where the block takes eigh directly.

    Measured on a 2-vCPU host, a run of m iterations that does not converge
    plus the certificate costs as much as one eigh at m = 0.21 n to 0.35 n
    (n = 100 to 1200), so the cap is n / 4. Lanczos is tried only when the
    cap is at least 24 (kept + 2), set from a sweep of planted blocks
    (n = 120 to 1200, kept = 1 to 12, a clear gap at the cut or a cut in
    the bulk of the spectrum): 16 (kept + 2) and 20 (kept + 2) let in
    blocks that ran to the cap, 24 (kept + 2) none. Every block of fewer
    than 288 vertices takes eigh."""
    cap = n // 4
    return cap if cap >= 24 * (kept + 2) else 0


def _kept_pairs(build, kernel: np.ndarray, kept: int) -> tuple[np.ndarray, np.ndarray]:
    """The `kept` smallest eigenvalues above the kernel of the Laplacian
    block L = build() and their unit eigenvectors as columns; `kernel` is
    the block's unit kernel vector, and kept < |S|.

    A block with a nonzero `_lanczos_cap`, and ||L||_1 between 1e-100 and
    1e100 (so that no dot product overflows or underflows), takes
    `_lanczos`. Its pairs are certified by Sylvester's law of inertia: L
    is overwritten with M = L - sigma I + gamma (kernel kernel^T + X X^T),
    X the Ritz vectors, sigma midway between the last kept Ritz value and
    the next one and gamma = 2 ||L||_1. If `np.linalg.cholesky` finds M
    positive definite, L - sigma I, a rank-(kept + 1) negative update of
    M, has at most kept + 1 negative eigenvalues: the kernel's 0 and one
    within its residual of each Ritz value, so those are the kept
    smallest, and every other eigenvalue lies at or above sigma. With
    `_lanczos`' stopping rule each column is then within about 1e-10 of
    the true eigenvector. When the iteration cap is reached, the Krylov
    space runs out (as on a complete graph) or the Cholesky fails (as for
    a kept eigenvalue that is double), the pairs are eigh's, on the
    untouched or a rebuilt block, bitwise as for a block without a cap."""
    L = build()
    cap = _lanczos_cap(len(L), kept)
    # the off-diagonal entries are <= 0, so column j's absolute sum is 2 L_jj - sum_i L_ij
    norm1 = float(np.max(2.0 * L.diagonal() - L.sum(axis=0))) if cap else 0.0
    if 1e-100 <= norm1 <= 1e100:
        found = _lanczos(L, kernel, kept, cap, norm1)
        if found is not None:
            theta, vecs, sigma = found
            np.fill_diagonal(L, L.diagonal() - sigma)
            Y = np.column_stack([kernel, vecs])
            L += (2.0 * norm1 * Y) @ Y.T
            try:
                np.linalg.cholesky(L)
                return theta, vecs
            except np.linalg.LinAlgError:
                del L
                L = build()
    lam, vecs = np.linalg.eigh(L)
    return lam[1 : kept + 1], vecs[:, 1 : kept + 1].copy()


def _lanczos(L: np.ndarray, kernel: np.ndarray, kept: int, cap: int, norm1: float):
    """(Ritz values, Ritz vectors as columns, sigma) for the `kept` smallest
    pairs of the symmetric L on the complement of the unit vector
    `kernel`, or None when `cap` iterations pass or the Krylov space runs
    out (beta <= tol) first; norm1 is ||L||_1.

    The start vector is fixed. Each new vector is the three-term step
    orthogonalised against `kernel` and every earlier vector, and again
    if that cancels more than 30 % of its norm; the basis holds cap + 1
    rows of len(L). At a check the pairs are accepted once every kept
    pair's residual bound r = |beta_m s_{m,i}| is at most tol and
    r + eps ||L||_1, which also covers rounding, is at most 1e-10 of the
    pair's gap: to its kept neighbours, and for the last pair to sigma,
    midway to the next Ritz value. A pair closer than about 2e-6 ||L||_1
    to sigma or to a kept neighbour is thus never accepted, and eigh
    decides such a block."""
    tol = _LANCZOS_TOL * norm1
    floor = np.finfo(float).eps * norm1
    Q = np.empty((cap + 1, len(L)))
    Q[0] = kernel
    q = np.random.default_rng(0).standard_normal(len(L))
    q -= kernel * (kernel @ q)
    Q[1] = q / np.linalg.norm(q)
    alpha, beta = np.empty(cap), np.empty(cap)
    check = kept + 1
    for m in range(1, cap + 1):
        w = L @ Q[m]
        alpha[m - 1] = Q[m] @ w
        w -= alpha[m - 1] * Q[m] + (beta[m - 2] * Q[m - 1] if m > 1 else 0.0)
        before = np.linalg.norm(w)
        w -= Q[: m + 1].T @ (Q[: m + 1] @ w)
        beta[m - 1] = np.linalg.norm(w)
        if beta[m - 1] < 0.7 * before:  # cancellation: orthogonalise again
            w -= Q[: m + 1].T @ (Q[: m + 1] @ w)
            beta[m - 1] = np.linalg.norm(w)
        if beta[m - 1] <= tol:
            return None
        if m == check or m == cap:
            check = m + max(_LANCZOS_CHECK, m // _LANCZOS_GROWTH)
            T = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
            theta, S = np.linalg.eigh(T)
            # each kept Ritz value's distance to its neighbours, the last
            # one's to sigma, midway to the next Ritz value
            gaps = np.diff(theta[: kept + 1])
            gaps[-1] /= 2
            delta = np.minimum(gaps, np.append(np.inf, gaps[:-1]))
            r = np.abs(beta[m - 1] * S[-1, :kept])
            if np.all((r <= tol) & (r + floor <= _LANCZOS_SEP * delta)):
                return theta[:kept], Q[1 : m + 1].T @ S[:, :kept], theta[kept - 1] + gaps[-1]
        if m < cap:
            Q[m + 1] = w / beta[m - 1]
    return None


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
