"""Spectral sparsifiers: sampling, the union factor eps', and unions.

The base construction samples edges with replacement, in proportion to
weight times effective resistance (`WeightedGraph.resistances`), one
seeded multinomial draw per sparsifier, and certifies each result by its
exact factor (`verify_epsilon`, the extreme eigenvalues of the pencil that
`graph.spectral_bounds` computes), so nothing downstream relies on the
sampler's theory. The sampler's distribution, eps range (which the NOF
exchange checks too) and default C (which the CLI reads) live here once.
Unions of per-set sparsifiers are combined with explicit weights and an
approximation factor eps' driven by the extreme overlapping cardinalities
of the allocation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .graph import Edge, WeightedGraph, spectral_bounds
from .overlap import EdgeFamily

DEFAULT_CONSTANT = 9.0  # the oversampling constant C in q = ceil(C n ln(n) / eps^2)

# the most samples `Generator.multinomial` can draw (its count is an int64)
_MAX_DRAWS = np.iinfo(np.int64).max

# NumPy's `SeedSequence` hash and PCG64's 128-bit LCG multiplier, fixed by
# its stream-compatibility policy (NEP 19). Each hash call XORs with one
# constant and multiplies by the next, the constants running through
# INIT * MULT**t mod 2**32; the pool's 16 calls run on the A sequence, its
# output's 8 calls on the B sequence.
_HASH_A = np.array([0x43B0D7E5 * pow(0x931E8875, t, 2**32) % 2**32 for t in range(17)], dtype=np.uint32)[:, None]
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, t, 2**32) % 2**32 for t in range(9)], dtype=np.uint32)[:, None]
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


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


def _check_epsilon(epsilon: float) -> None:
    """The sampler's eps range, (0, 1): anything else, NaN too, is a ValueError."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def sparsify_er(
    g: WeightedGraph, epsilon: float, seed: int, constant: float = DEFAULT_CONSTANT
) -> SparsifierResult:
    """Effective-resistance sampling sparsifier.

    Draws q = ceil(C * n * ln(n) / eps^2) edges with replacement, with
    probability proportional to weight times effective resistance, and
    accumulates w(e) / (q * p_e) per sampled copy. If the sampled support
    covers every original edge the input graph is returned verbatim with a
    certified factor of 0. This is `_sparsify_each` with one seed: the
    checks, the distribution and q are set up once per call, and the draw
    is `np.random.default_rng(seed).multinomial(q, p)` itself: one seed
    computes no generator state ahead.
    """
    return _sparsify_each(g, epsilon, (seed,), constant)[0]


def _sparsify_each(g: WeightedGraph, epsilon: float, seeds, constant: float = DEFAULT_CONSTANT) -> list[SparsifierResult]:
    """`sparsify_er(g, epsilon, seed, constant)` for every seed, in order,
    with the per-graph setup done once: the checks on eps, C and the edge
    count, the distribution (p_e proportional to w_e R_e, roundoff below 0
    clipped; scores that do not sum to a positive finite number can only
    come from roundoff in the factor, and are refused) and q. Each seed pays
    only its own draw, and, when its support misses an edge, its reweighting
    and certificate; the draws that cover every edge share one result
    object, `whole` (g itself certified 0.0), so the NOF exchange, which
    shares unions by part object, forms one union for all of them.

    The sampler's arrays are the scores w_e R_e, divided in place into the
    distribution, and each draw's counts, their support and the reweighted
    copy of g's records that h is validated from (`_draw`). None of them
    survives into a certificate: a draw's arrays are freed when h is built,
    and the distribution after the last draw, so each `verify_epsilon` holds
    only G's records, factor and resistances, h and the pencil's arrays, and
    many seeds hold one uncertified sample at a time.

    The draws share one generator, `np.random.default_rng(seeds[0])`; before
    each later draw it is set to the state `default_rng(seed)` would start
    from, all of them computed in one pass (`_pcg64_states`), so every draw
    is bitwise the one a fresh generator makes. With more than one seed,
    every seed must lie in [0, 2**64)."""
    _check_epsilon(epsilon)
    if not (0.0 < constant < math.inf):
        raise ValueError(f"constant must be finite and positive, got {constant}")
    if g.m == 0:
        raise ValueError("cannot sparsify an edgeless graph")

    probs = g.w * np.maximum(g.resistances, 0.0)  # the scores, made the distribution in place
    total = probs.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(
            f"the graph has a weight range beyond what float64 can sample: its scores w_e R_e sum to {total}"
        )
    probs /= total

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

    seeds = list(seeds)
    states = _pcg64_states(seeds) if len(seeds) > 1 else None
    whole = SparsifierResult(h=g, epsilon_certified=0.0)
    out = []
    for i, seed in enumerate(seeds):
        if i == 0:
            # through the module attribute, so a stand-in generator is honoured
            rng = np.random.default_rng(seed)
        else:
            rng.bit_generator.state = states[i]
        h = _draw(g, rng, q, probs)
        if i == len(seeds) - 1:
            del probs  # the last draw is made: the certificate runs beside none of the sampler's arrays
        out.append(whole if h is None else SparsifierResult(h=h, epsilon_certified=verify_epsilon(g, h)))
    return out


def _draw(g: WeightedGraph, rng: np.random.Generator, q: int, probs: np.ndarray) -> WeightedGraph | None:
    """One draw of q edges from `probs` by `rng`, reweighted into a graph,
    or None when it covers every edge of g. Its arrays (the draw's counts,
    their support and the reweighted copy of g's records that the graph is
    validated from) are freed when it returns."""
    counts = rng.multinomial(q, probs)
    if np.count_nonzero(counts) >= g.m:
        return None
    support = np.flatnonzero(counts)
    kept = g.records[support]
    kept["w"] = counts[support] * kept["w"] / (q * probs[support])
    return WeightedGraph(g.n, kept)


def _pcg64_states(seeds) -> list[dict]:
    """`np.random.default_rng(seed).bit_generator.state` for every seed in
    [0, 2**64), computed in one pass over all seeds instead of one
    `SeedSequence` and one `PCG64` each.

    `SeedSequence(seed)` hashes the seed's 32-bit words, low first, into a
    4-word pool; a word the seed lacks is hashed as 0, so every seed is taken
    as 4 words, and each hash step is one uint32 array operation over all
    seeds. The pool gives 4 uint64 words (s_hi, s_lo, i_hi, i_lo), as
    `generate_state(4, np.uint64)` does, and PCG64 seeds its 128-bit LCG
    from s and i in two steps, done on Python ints. A seed outside
    [0, 2**64) is a ValueError.
    """
    seeds = [operator.index(seed) for seed in seeds]
    bad = [seed for seed in seeds if not 0 <= seed < 2**64]
    if bad:
        raise ValueError(f"seeds must lie in [0, 2**64), got {bad[0]}")
    words = np.zeros((4, len(seeds)), dtype=np.uint32)
    words[:2] = np.array(seeds, dtype=np.uint64).astype("<u8").view("<u4").reshape(-1, 2).T
    pool = _hashmix(words, _HASH_A[:5])
    # every word mixes into each other word; the source word stays fixed
    # while it does, so its three mixes are one step
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _HASH_A[4 + 3 * src : 8 + 3 * src])
        pool[dst] = mixed ^ (mixed >> 16)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B)
    states = []
    for s_hi, s_lo, i_hi, i_lo in np.ascontiguousarray(out.T).astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """`SeedSequence`'s hash by the calls whose constants are `consts`, one
    call per row: row i XORs with consts[i] and multiplies by consts[i + 1].
    One row of values is hashed by every call."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> 16)


def verify_epsilon(g: WeightedGraph, h: WeightedGraph) -> float:
    """Smallest eps with (1-eps) x'L_G x <= x'L_H x <= (1+eps) x'L_G x for all x:
    max(1 - mu_min, mu_max - 1) over the extreme eigenvalues of the pencil
    (L_H, L_G) (`graph.spectral_bounds`, which grounds and factors G).

    Exact up to roundoff of about eps_mach times the condition number of the
    grounded block L_G[S', S']: negligible for weights of similar scale, but
    on a 4-vertex pair with a weight spread of 4e11 it gives 0.99983 where
    the exact factor is 1. An H edge that joins two components of G gives
    +inf, and an H equal to G exactly 0.0 with no factor built, as
    `sparsify_er` certifies the graph it returns verbatim. Under numpy's
    default error state, weights whose products overflow can also give +inf
    or NaN with no edge crossing (`spectral_bounds`); with overflow raising,
    as the CLI runs, they are a `FloatingPointError`.
    """
    mu_min, mu_max = spectral_bounds(g, h)
    return max(1.0 - mu_min, mu_max - 1.0)


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

    c1, ck = int(f.occurrences.min()), int(f.occurrences.max())

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
