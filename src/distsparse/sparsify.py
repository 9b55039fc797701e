"""Spectral sparsifiers: construction, verification, and unions.

The base construction samples edges by effective resistance; the verifier
computes the approximation factor, exact up to roundoff of about eps_mach
times the condition number of the grounded block, so nothing downstream
relies on the sampler's theory. Both read one Cholesky factor per connected
component, taken with the component's smallest vertex grounded and inverted
as a triangle by blocks (`WeightedGraph.factor`), so their cost is the sum
of the cubed component sizes. Unions of per-set sparsifiers are combined with
explicit weights and an approximation factor driven by the extreme
overlapping cardinalities of the allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .graph import Edge, WeightedGraph, _laplacian_blocks
from .overlap import EdgeFamily

# the most samples `Generator.multinomial` can draw (its count is an int64)
_MAX_DRAWS = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SparsifierResult:
    """A sparsifier `h` and its exact factor against its source graph."""

    h: WeightedGraph
    epsilon_certified: float


@dataclass(frozen=True)
class UnionSparsifier:
    h: WeightedGraph
    epsilon_prime: float
    c1: int
    ck: int


def effective_resistances(g: WeightedGraph) -> dict[Edge, float]:
    """Per-edge effective resistance R(u, v), keyed by edge in edge order:
    `WeightedGraph.resistances`, computed once per graph from its grounded
    per-component factors."""
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
    if not (0.0 < constant < math.inf):
        raise ValueError(f"constant must be finite and positive, got {constant}")
    if g.m == 0:
        raise ValueError("cannot sparsify an edgeless graph")

    probs = g.sampling_probs

    try:
        draws = constant * g.n * math.log(g.n) / epsilon**2
    except ZeroDivisionError:  # epsilon**2 underflows to 0
        draws = math.inf
    if not draws <= _MAX_DRAWS:
        raise ValueError(
            f"C n ln(n) / eps^2 = {draws:.3g} samples with C={constant}, eps={epsilon}; "
            f"at most {_MAX_DRAWS} can be drawn"
        )
    q = max(math.ceil(draws), 1)

    rng = np.random.default_rng(seed)
    counts = rng.multinomial(q, probs)
    support = counts > 0
    if int(support.sum()) >= g.m:
        return SparsifierResult(h=g, epsilon_certified=0.0)

    kept = g.records[support]
    kept["w"] = counts[support] * kept["w"] / (q * probs[support])
    h = WeightedGraph(g.n, kept)
    return SparsifierResult(h=h, epsilon_certified=verify_epsilon(g, h))


def verify_epsilon(g: WeightedGraph, h: WeightedGraph) -> float:
    """Smallest eps with (1-eps) x'L_G x <= x'L_H x <= (1+eps) x'L_G x for all x.

    Exact up to roundoff of about eps_mach times the condition number of the
    grounded block L_G[S', S']: negligible for weights of similar scale, but
    on a 4-vertex pair with a weight spread of 4e11 it gives 0.99983 where
    the exact factor is 1. The kernel of L_G is spanned by the indicators
    1_S of G's components S, and 1_S' L_H 1_S is the H weight crossing S:
    +inf exactly when an H edge joins two components of G.
    Otherwise L_H, grounded as in `WeightedGraph.factor`, is block-diagonal
    on G's components, and the answer is max(1 - mu_min, mu_max - 1, 0) over
    the eigenvalues mu of C_S^-1 L_H[S', S'] C_S^-T of every block (grounded
    L_G[S', S'] = C_S C_S'), one Cholesky factor per component. Each block
    L_H[S, S] is built from H's edges inside S, as G's are, so no n x n
    array is made. An H equal to G gives exactly 0.0 before any factor or
    eigensolve, as `sparsify_er` certifies the graph it returns verbatim.
    """
    if g.n != h.n:
        raise DimensionMismatch(f"vertex counts differ: {g.n} vs {h.n}")
    if h == g:
        return 0.0
    component, blocks = g.factor
    if np.any(component[h.u] != component[h.v]):
        return math.inf
    mu = [[1.0]]
    for (_, cinv), (_, Lh) in zip(blocks, _laplacian_blocks(h, g)):
        M = Lh[1:, 1:]
        np.matmul(cinv @ M, cinv.T, out=M)  # written over L_H's block, which is read first
        mu.append(np.linalg.eigvalsh(M))
    mu = np.concatenate(mu)  # a NaN from overflowing weights stays NaN
    return max(1.0 - float(mu.min()), float(mu.max()) - 1.0)


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
    1/(c1*ck), c1 and ck the smallest and largest occurrence numbers of the
    family; the certified part factors feed the union's factor."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty parts list")
    if len(parts) != f.t:
        raise ValueError(f"got {len(parts)} parts for a family of {f.t} sets")
    n = f.base.n
    for i, p in enumerate(parts):
        if p.h.n != n:
            raise DimensionMismatch(f"part {i} has n={p.h.n}, base has n={n}")

    counts = f.occurrences.values()
    c1, ck = min(counts), max(counts)

    # a stable sort keeps each pair's copies part after part, each part in
    # edge order, and np.bincount adds them in that order
    records = np.concatenate([p.h.records for p in parts])
    records = records[np.lexsort((records["v"], records["u"]))]
    u, v = records["u"], records["v"]
    first = np.ones(len(records), dtype=bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    acc = np.bincount(np.cumsum(first) - 1, records["w"])
    records = records[first]
    records["w"] = acc * (1.0 / (c1 * ck))
    h = WeightedGraph(n, records)

    eps = max(p.epsilon_certified for p in parts)
    return UnionSparsifier(h=h, epsilon_prime=epsilon_prime(eps, c1, ck), c1=c1, ck=ck)
