"""Deterministic simulator of Number-On-Forehead blackboard protocols.

Each site sees every input set except its own. Protocols append writes to a
shared transcript with exact bit and edge cost accounting. The three
protocols: sunflower verification (one bit per site), whole-graph broadcast
exploiting the sunflower kernel, and a two-round sparsifier exchange that
leaves every site with a spectral sparsifier of the full graph.

Every edge-set write is one `_edge_write(site, round, h)` of a graph h, an
induced subgraph or a sparsifier, at `bits_per_edge(h.n)` bits per edge,
2 ceil(log2 n) + 64. Its payload is h itself, held as `WeightedEdges(h)`,
which a report lists as h's sorted [u, v, w] rows; a graph a report holds
bare is listed as its (u, v) pairs. A bit write's payload is the bit, the
int 0 or 1. A write is a named tuple.

A family's sets are base-edge ids (`EdgeFamily`), and every decision here
reads its one occurrence-count array: whether each site's view is a
sunflower, for all s sites in a few array passes (`_view_is_sunflower`),
and the split of a sunflower at site j (`_star_split`) into E_j and its
petal union δ_j, every base edge outside E_j. The lemma functions see a
view as frozensets of ids (`site_view`), classified by set algebra alone
(`is_delta_system`).

The simulator does once what is the same at every site: each site pays
one seeded draw (`_sparsify_each`), each distinct local part is unioned
with the shared part once, and every broadcast site holds the base graph
itself, rendered once. Transcripts, bit and edge costs, per-site results
and reports are those of computing every site on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .graph import WeightedGraph
from .overlap import EdgeFamily
from .sparsify import UnionSparsifier, _check_epsilon, _sparsify_each, sparsify_er, union_sparsifiers

BIT = "bit"
WEIGHTED_EDGE_SET = "weighted-edge-set"


@dataclass(frozen=True)
class WeightedEdges:
    """The payload of a weighted edge-set write: the written graph, which a
    report lists as its sorted [u, v, w] rows. Payloads compare by graph."""

    graph: WeightedGraph


class Write(NamedTuple):
    site: int
    round: int
    kind: str
    payload: WeightedEdges | int
    bit_cost: int
    edge_cost: int


@dataclass(frozen=True)
class Transcript:
    writes: tuple[Write, ...]

    @property
    def bit_cost(self) -> int:
        return sum(w.bit_cost for w in self.writes)

    @property
    def edge_cost(self) -> int:
        return sum(w.edge_cost for w in self.writes)

    @property
    def num_rounds(self) -> int:
        return max((w.round for w in self.writes), default=0)

    def round_edge_cost(self, r: int) -> int:
        return sum(w.edge_cost for w in self.writes if w.round == r)

    def to_dict(self) -> dict:
        """The writes grouped by round, rounds 1 to `num_rounds` listed, an
        empty one too, and the bit and edge costs: one loop over the writes."""
        rounds, bits, edges = [], 0, 0
        for site, r, kind, payload, bit_cost, edge_cost in self.writes:
            while len(rounds) < r:
                rounds.append({"round": len(rounds) + 1, "writes": []})
            rounds[r - 1]["writes"].append(
                {"site": site, "kind": kind, "payload": payload, "bit_cost": bit_cost, "edge_cost": edge_cost}
            )
            bits += bit_cost
            edges += edge_cost
        return {"rounds": rounds, "bit_cost": bits, "edge_cost": edges}


@dataclass(frozen=True)
class DeltaSystemReport:
    is_delta: bool
    kernel: frozenset | None
    is_weak_delta: bool
    lam: int | None
    ell: int


def bits_per_edge(n: int) -> int:
    """Encoding cost of one weighted edge write: two vertex ids at
    ceil(log2 n) bits each, plus a fixed 64 bits for the weight."""
    if n < 2:
        raise ValueError("need at least two vertices to encode an edge")
    return 2 * (n - 1).bit_length() + 64


def _edge_write(site: int, round: int, h: WeightedGraph) -> Write:
    """A weighted edge-set write of the sorted (u, v, w) edges of `h`:
    `bits_per_edge(h.n)` bits and one unit of edge cost per edge."""
    return Write(site, round, WEIGHTED_EDGE_SET, WeightedEdges(h), h.m * bits_per_edge(h.n), h.m)


def _check_site(f: EdgeFamily, j: int) -> None:
    if f.t < 2:
        raise PreconditionError("the NOF model needs at least two sites")
    if not (1 <= j <= f.t):
        raise PreconditionError(f"site id {j} out of range 1..{f.t}")


def _id_sets(f: EdgeFamily) -> list[frozenset[int]]:
    """The family's sets as frozensets of base-edge ids, in order."""
    flat, bounds = f.ids.tolist(), f.offsets.tolist()
    return [frozenset(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def site_view(f: EdgeFamily, j: int) -> tuple[frozenset[int], ...]:
    """All input sets except site j's own (sites are 1-based), in family
    order, each a frozenset of base-edge ids."""
    _check_site(f, j)
    return tuple(s for i, s in enumerate(_id_sets(f), 1) if i != j)


def _is_sunflower(f: EdgeFamily) -> bool:
    """Whether every base edge occurs in one set or in all t: a sunflower."""
    counts = f.occurrences
    return bool(((counts == 1) | (counts == f.t)).all())


def is_delta_system(sets) -> DeltaSystemReport:
    """Classify a family: sunflower (all pairwise intersections equal the
    global one), weak sunflower (all pairwise intersection sizes equal),
    neither.

    A sunflower, whose t sets' sizes sum to |union| + (t-1)|kernel|, is
    weak with lam = |kernel|, so pairs are intersected only for the other
    families, and only until two intersection sizes differ.
    """
    sets = [frozenset(s) for s in sets]
    if len(sets) < 2:
        raise PreconditionError("delta-system check needs at least two sets")
    ell = max(len(s) for s in sets)
    kernel = frozenset.intersection(*sets)
    if sum(map(len, sets)) == len(frozenset.union(*sets)) + (len(sets) - 1) * len(kernel):
        return DeltaSystemReport(is_delta=True, kernel=kernel, is_weak_delta=True, lam=len(kernel), ell=ell)
    sizes = set()
    for a, b in combinations(sets, 2):
        sizes.add(len(a & b))
        if len(sizes) > 1:
            break
    is_weak = len(sizes) == 1
    return DeltaSystemReport(
        is_delta=False,
        kernel=None,
        is_weak_delta=is_weak,
        lam=sizes.pop() if is_weak else None,
        ell=ell,
    )


def _view_is_sunflower(f: EdgeFamily) -> np.ndarray:
    """Whether each site's view is a sunflower (site j at index j-1), from
    the family's one occurrence count in a few array passes.

    Site j sees every set but E_j, so element x occurs count(x) - [x in E_j]
    times in its s-1 sets, and the view is a sunflower exactly when that is
    0, 1 or s-1 for every x: E_j holds every element whose count is neither
    1 nor s-1, and no element of E_j has a count outside {1, 2, s}.
    These verdicts are the verification protocol's bits and Lemma 3's
    premise; a view's kernel is `is_delta_system(site_view(f, j)).kernel`.
    """
    s, counts = f.t, f.occurrences
    if s < 3:
        raise PreconditionError("delta-system check needs at least two sets")
    c = counts[f.ids]  # every entry's count, set after set
    site = np.repeat(np.arange(s), np.diff(f.offsets))
    need = np.count_nonzero((counts != 1) & (counts != s - 1))
    held = np.bincount(site[(c != 1) & (c != s - 1)], minlength=s)
    stray = np.bincount(site[(c != 1) & (c != 2) & (c != s)], minlength=s)
    return (held == need) & (stray == 0)


def deza_threshold(ell: int) -> int:
    """Family size at which a weak sunflower of max set size ell is forced
    to be a sunflower."""
    if ell < 1:
        raise ValueError("ell must be positive")
    return ell * ell - ell + 2


def symmetric_difference_on_site(f: EdgeFamily, j: int) -> frozenset[int]:
    """Petal union of the sets visible to site j: union minus kernel.

    Requires the visible family to be a sunflower; matches the accounting
    |union| = |petals| + kernel size. The petals are base-edge ids.
    """
    view = site_view(f, j)
    report = is_delta_system(view)
    if not report.is_delta:
        raise PreconditionError(f"the sets visible to site {j} are not a delta-system")
    return frozenset.union(*view) - report.kernel


def lemma2_check(f: EdgeFamily) -> bool:
    """With >= 3 sunflower-allocated sites, every site's view is a sunflower
    with the same kernel."""
    if f.t < 3:
        raise PreconditionError("need at least three sites")
    if not _is_sunflower(f):
        raise PreconditionError("family is not a delta-system")
    kernel = frozenset(np.flatnonzero(f.occurrences == f.t).tolist())
    return all(is_delta_system(site_view(f, j)).kernel == kernel for j in range(1, f.t + 1))


def lemma3_check(f: EdgeFamily) -> bool:
    """With >= 4 sites: if every site's view is a sunflower then so is the
    whole family. Evaluates the implication concretely."""
    if f.t < 4:
        raise PreconditionError("need at least four sites")
    return not _view_is_sunflower(f).all() or _is_sunflower(f)


def protocol_verify_sunflower(f: EdgeFamily) -> tuple[Transcript, bool]:
    """Sites 1..s-1 each write one bit saying whether their view is a
    sunflower; the family is a sunflower iff all bits are 1. Cost s-1 bits."""
    if f.t < 4:
        raise PreconditionError("need at least four sites")
    bits = _view_is_sunflower(f)[:-1].astype(int).tolist()  # Python ints: JSON 0 and 1
    # `tuple.__new__` of each write's fields, as `Write._make` builds one
    fields = zip(range(1, f.t), repeat(1), repeat(BIT), bits, repeat(1), repeat(0))
    writes = tuple(map(tuple.__new__, repeat(Write), fields))
    return Transcript(writes), all(bits)


def overlapping_coefficient(f: EdgeFamily, j: int) -> float:
    """|intersection| / |union| over the sets visible to site j. The union
    is never empty, as no set of a family is."""
    view = site_view(f, j)
    return len(frozenset.intersection(*view)) / len(frozenset.union(*view))


def greatest_overlapping_coefficient(f: EdgeFamily) -> float:
    return max(overlapping_coefficient(f, j) for j in range(1, f.t + 1))


def _star_split(f: EdgeFamily, j: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The base-edge ids of site j's petal union δ_j and of E_j, both
    ascending, and the site that writes in round 2, the lowest-numbered
    site other than j; once the broadcast and exchange preconditions hold,
    checked in this order: at least two sites and j in range, uniform set
    sizes, a weak delta-system past the Deza threshold.

    Sunflowers are recognised first, from the occurrence counts; sets are
    intersected only to word the error for a family that is not one. By
    Deza's theorem a uniform weak delta-system past the threshold is a
    sunflower, so a weak non-sunflower always fails the size check. In a
    sunflower every edge lies in one set or in all, so E_j is site j's
    private edges plus the kernel, and δ_j is every base edge outside E_j.
    """
    _check_site(f, j)
    sizes = np.diff(f.offsets)
    ell = int(sizes[0])
    if (sizes != ell).any():
        raise PreconditionError(f"set sizes are not uniform: {np.unique(sizes).tolist()}")
    sunflower = _is_sunflower(f)
    if not sunflower and not is_delta_system(_id_sets(f)).is_weak_delta:
        raise PreconditionError("family is not a weak delta-system")
    need = deza_threshold(ell) + 1
    if not sunflower or f.t < need:
        raise PreconditionError(f"need at least {need} sites for set size {ell}, got {f.t}")
    e_j = f.set_ids(j - 1)
    return np.delete(np.arange(f.base.m), e_j), e_j, 2 if j == 1 else 1


def protocol_broadcast_graph(f: EdgeFamily, j: int) -> tuple[Transcript, dict[int, WeightedGraph]]:
    """Two-round broadcast: site j writes its petal union, everyone else
    reconstructs the full edge set from it plus the kernel and their own
    view; then the lowest-numbered other site writes E_j so site j can
    finish too."""
    delta, e_j, writer = _star_split(f, j)
    # in a sunflower every edge outside the kernel lies in exactly one set,
    # so site i's private edges E_i - kernel lie in delta_j for every i != j,
    # and site j's are E_j: every site rebuilds the whole union, the base
    reconstructions = dict.fromkeys(range(1, f.t + 1), f.base)
    writes = (_edge_write(j, 1, f.subgraph(delta)), _edge_write(writer, 2, f.subgraph(e_j)))
    return Transcript(writes), reconstructions


def protocol_sparsifier_exchange(
    f: EdgeFamily, j: int, epsilon: float, seed: int
) -> tuple[Transcript, dict[int, UnionSparsifier]]:
    """Two-round exchange after which every site holds a sparsifier of the
    full graph.

    Round 1: site j sparsifies the subgraph on its petal union and writes
    the weighted result. Every other site sparsifies (V, E_j) locally and
    unions the two parts. Round 2: the lowest-numbered other site writes its
    local sparsifier of (V, E_j) so site j can union as well. An empty petal
    union drops out: site j writes no edge, and each site's union has the
    one part E_j.
    """
    _check_epsilon(epsilon)  # the sampler's rule, reported before the star's
    delta, e_j, writer = _star_split(f, j)
    g_delta, g_ej = f.subgraph(delta), f.subgraph(e_j)
    others = [i for i in range(1, f.t + 1) if i != j]
    # site j's seed, then the others' in order: bitwise the draws of one
    # scalar `integers(2**63)` per site
    seeds = np.random.default_rng(seed).integers(2**63, size=f.t).tolist()

    # the two-part allocation the union theorem is applied to
    bounds = [0, len(delta), f.base.m] if len(delta) else [0, f.base.m]
    two_part = EdgeFamily(f.base, np.concatenate((delta, e_j)), np.array(bounds))
    shared = [sparsify_er(g_delta, epsilon, seeds[0])] if g_delta.m else []
    local = dict(zip(others, _sparsify_each(g_ej, epsilon, seeds[1:])))
    local[j] = local[writer]

    writes = (_edge_write(j, 1, shared[0].h if shared else g_delta), _edge_write(writer, 2, local[writer].h))
    # sites holding one local part object hold one union, formed once
    parts = {id(part): part for part in local.values()}
    unions = {key: union_sparsifiers([*shared, part], two_part) for key, part in parts.items()}
    return Transcript(writes), {i: unions[id(part)] for i, part in local.items()}
