"""Spectral sparsifiers: construction, exact verification, and unions.

The base construction samples edges by effective resistance; the verifier
computes the exact approximation factor, so nothing downstream relies on the
sampler's theory. Both read one Cholesky factor per graph, taken with a
vertex per connected component grounded (`WeightedGraph.factor`). Unions of
per-set sparsifiers are combined with explicit weights and an approximation
factor driven by the extreme overlapping cardinalities of the allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .graph import Edge, WeightedGraph, laplacian
from .overlap import EdgeFamily, overlapping_cardinality_partition


@dataclass(frozen=True)
class SparsifierResult:
    h: WeightedGraph
    epsilon_target: float
    epsilon_certified: float
    seed: int | None = None


@dataclass(frozen=True)
class UnionSparsifier:
    h: WeightedGraph
    epsilon_prime: float
    c1: int
    ck: int


def effective_resistances(g: WeightedGraph) -> dict[Edge, float]:
    """Per-edge effective resistance R(u, v), keyed by edge in edge order:
    `WeightedGraph.resistances`, computed once per graph from its grounded
    factor."""
    return dict(zip(zip(g.u.tolist(), g.v.tolist()), g.resistances.tolist()))


def sparsify_er(
    g: WeightedGraph, epsilon: float, seed: int, constant: float = 9.0
) -> SparsifierResult:
    """Effective-resistance sampling sparsifier.

    Draws q = ceil(C * n * ln(n) / eps^2) edges with replacement, with
    probability proportional to weight times effective resistance, and
    accumulates w(e) / (q * p_e) per sampled copy. If the sampled support
    covers every original edge the input graph is returned verbatim with a
    certified factor of 0.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if g.m == 0:
        raise ValueError("cannot sparsify an edgeless graph")
    q = math.ceil(constant * g.n * math.log(g.n) / epsilon**2) if g.n > 1 else 1
    q = max(q, 1)

    scores = g.w * np.maximum(g.resistances, 0.0)
    probs = scores / scores.sum()

    rng = np.random.default_rng(seed)
    counts = rng.multinomial(q, probs)
    support = counts > 0
    if int(support.sum()) >= g.m:
        return SparsifierResult(h=g, epsilon_target=epsilon, epsilon_certified=0.0, seed=seed)

    kept = g.records[support]
    kept["w"] = counts[support] * kept["w"] / (q * probs[support])
    h = WeightedGraph(g.n, kept)
    cert = verify_epsilon(g, h)
    return SparsifierResult(h=h, epsilon_target=epsilon, epsilon_certified=cert, seed=seed)


def verify_epsilon(g: WeightedGraph, h: WeightedGraph) -> float:
    """Smallest eps with (1-eps) x'L_G x <= x'L_H x <= (1+eps) x'L_G x for all x.

    Exact for any positive weights. The kernel of L_G is spanned by the
    indicators 1_S of G's components S, and 1_S' L_H 1_S is the H weight
    crossing S: +inf exactly when an H edge joins two components of G.
    Otherwise max(1 - mu_min, mu_max - 1, 0) over the eigenvalues mu of
    C^-1 L_H C^-T, both Laplacians grounded as in `WeightedGraph.factor`
    (grounded L_G = C C').
    """
    if g.n != h.n:
        raise DimensionMismatch(f"vertex counts differ: {g.n} vs {h.n}")
    component, free, cinv = g.factor
    Lh = laplacian(h).matrix
    if np.any(Lh, where=component[:, None] != component):
        return math.inf
    mu = np.linalg.eigvalsh(cinv @ Lh[np.ix_(free, free)] @ cinv.T)
    return max(1.0 - float(mu.min(initial=1.0)), float(mu.max(initial=1.0)) - 1.0)


def epsilon_prime(epsilon: float, c1: int, ck: int) -> float:
    """Approximation factor for a union of eps-sparsifiers whose allocation
    has extreme overlapping cardinalities c1 <= ck.

    Smallest eps' making both one-sided bounds hold:
    max(1 - (1-eps)/ck, (1+eps)/c1 - 1, eps). Accepts eps = 0 (exact parts).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if not (1 <= c1 <= ck):
        raise ValueError(f"need 1 <= c1 <= ck, got c1={c1}, ck={ck}")
    return max(1.0 - (1.0 - epsilon) / ck, (1.0 + epsilon) / c1 - 1.0, epsilon)


def union_sparsifiers(parts, f: EdgeFamily) -> UnionSparsifier:
    """Union of per-set sparsifiers with weights summed and rescaled by
    1/(c1*ck); the certified part factors feed the union's factor."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty parts list")
    if len(parts) != f.t:
        raise ValueError(f"got {len(parts)} parts for a family of {f.t} sets")
    n = f.base.n
    for i, p in enumerate(parts):
        if p.h.n != n:
            raise DimensionMismatch(f"part {i} has n={p.h.n}, base has n={n}")

    partition = overlapping_cardinality_partition(f)
    cards = partition.cardinalities
    c1, ck = cards[0], cards[-1]

    # a stable sort keeps each pair's copies part after part, each part in
    # edge order, and np.add.at adds them in that order
    records = np.concatenate([p.h.records for p in parts])
    records = records[np.lexsort((records["v"], records["u"]))]
    u, v = records["u"], records["v"]
    first = np.ones(len(records), dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    acc = np.zeros(np.count_nonzero(first))
    np.add.at(acc, np.cumsum(first) - 1, records["w"])
    records = records[first]
    records["w"] = acc * (1.0 / (c1 * ck))
    h = WeightedGraph(n, records)

    eps = max(p.epsilon_certified for p in parts)
    return UnionSparsifier(h=h, epsilon_prime=epsilon_prime(eps, c1, ck), c1=c1, ck=ck)
