"""Deterministic simulator of Number-On-Forehead blackboard protocols.

Each site sees every input set except its own. Protocols append writes to a
shared transcript with exact bit and edge cost accounting. The three
protocols: sunflower verification (one bit per site), whole-graph broadcast
exploiting the sunflower kernel, and a two-round sparsifier exchange that
leaves every site with a spectral sparsifier of the full graph.

Every edge-set write is one `_edge_write(site, round, h)` of a graph h, an
induced subgraph or a sparsifier: its sorted (u, v, w) edges, at
`bits_per_edge(h.n)` = 2 ceil(log2 n) + 64 bits per edge. A bit write's
payload is the bit, the int 0 or 1. A write is a named tuple.

Whether each site's view is a sunflower is decided for all s sites at once
(`_view_is_sunflower`), in a few array passes over the family's one
occurrence count; the verification protocol's bits and Lemma 3's check read
these verdicts. A view's kernel comes from classifying that view
(`is_delta_system(site_view(f, j))`), as the petal union and Lemma 2's
check do.

Broadcast and exchange split the family at site j the same way
(`_star_split`): in a sunflower E_j is site j's private edges plus the
kernel, so its petal union is δ_j = union - E_j. The same split names the
one site that writes in round 2, the lowest-numbered site other than j.

The simulator does once what is the same at every site. Each site's draw
of its local sparsifier stays its own, from its own seed, but the
sampler's setup for (V, E_j) (its checks, the distribution
`WeightedGraph.sampling_probs` and the draw count q) is done once for all
sites, so each site pays one seeded draw. The s site seeds come from one
vector draw, bitwise the s scalar draws of one per site. The site draws
share one generator, reset before each draw to the state
`np.random.default_rng(seed)` would start from; these states are computed
for all sites in one array pass, so each draw is bitwise a fresh
generator's. Each distinct local part object is unioned with the shared
part once: every draw that keeps all of E_j returns the one result holding
(V, E_j) itself, so those sites share one union. In the broadcast every
site rebuilds the whole union (the family is a sunflower), so all sites
hold the family's one union object, which the CLI's emit path renders once
however many sites the report lists.
Transcripts, bit and edge costs, per-site results and reports are those
of computing every site on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .graph import Edge, WeightedGraph, induced_subgraph
from .overlap import EdgeFamily, occurrence_counts
from .sparsify import UnionSparsifier, _sparsify_each, sparsify_er, union_sparsifiers

BIT = "bit"
WEIGHTED_EDGE_SET = "weighted-edge-set"


class Write(NamedTuple):
    site: int
    round: int
    kind: str
    payload: tuple | int
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
        rounds = []
        for r in range(1, self.num_rounds + 1):
            rounds.append(
                {
                    "round": r,
                    "writes": [
                        {
                            "site": w.site,
                            "kind": w.kind,
                            "payload": w.payload,
                            "bit_cost": w.bit_cost,
                            "edge_cost": w.edge_cost,
                        }
                        for w in self.writes
                        if w.round == r
                    ],
                }
            )
        return {"rounds": rounds, "bit_cost": self.bit_cost, "edge_cost": self.edge_cost}


@dataclass(frozen=True)
class DeltaSystemReport:
    is_delta: bool
    kernel: frozenset[Edge] | None
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
    return Write(site, round, WEIGHTED_EDGE_SET, h.edges, h.m * bits_per_edge(h.n), h.m)


def _check_site(f: EdgeFamily, j: int) -> None:
    s = f.t
    if s < 2:
        raise PreconditionError("the NOF model needs at least two sites")
    if not (1 <= j <= s):
        raise PreconditionError(f"site id {j} out of range 1..{s}")


def site_view(f: EdgeFamily, j: int) -> tuple[frozenset[Edge], ...]:
    """All input sets except site j's own (sites are 1-based), in family
    order."""
    _check_site(f, j)
    return f.sets[: j - 1] + f.sets[j:]


def _sunflower_kernel(counts, t: int) -> frozenset | None:
    """Kernel of a family of t >= 2 sets with these occurrence counts, or
    None when the family is not a sunflower.

    A family is a sunflower exactly when every element occurs in one set or
    in all t; its kernel is then the elements that occur in all t.
    """
    if any(c != 1 and c != t for c in counts.values()):
        return None
    return frozenset(x for x, c in counts.items() if c == t)


def is_delta_system(sets) -> DeltaSystemReport:
    """Classify a family: sunflower (all pairwise intersections equal the
    global one), weak sunflower (all pairwise intersection sizes equal),
    neither.

    Sunflowers are recognised from occurrence counts; a sunflower is weak
    with lam = |kernel|, so pairs are intersected only for the other
    families, and only until two intersection sizes differ.
    """
    sets = [frozenset(s) for s in sets]
    if len(sets) < 2:
        raise PreconditionError("delta-system check needs at least two sets")
    ell = max(len(s) for s in sets)
    kernel = _sunflower_kernel(occurrence_counts(sets), len(sets))
    if kernel is not None:
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
    sizes = np.fromiter(map(len, f.sets), dtype=np.intp, count=s)
    # every entry's count, grouped by site
    c = np.fromiter(map(counts.__getitem__, chain.from_iterable(f.sets)), dtype=np.int64, count=int(sizes.sum()))
    site = np.repeat(np.arange(s), sizes)
    every = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    need = np.count_nonzero((every != 1) & (every != s - 1))
    held = np.bincount(site[(c != 1) & (c != s - 1)], minlength=s)
    stray = np.bincount(site[(c != 1) & (c != 2) & (c != s)], minlength=s)
    return (held == need) & (stray == 0)


def deza_threshold(ell: int) -> int:
    """Family size at which a weak sunflower of max set size ell is forced
    to be a sunflower."""
    if ell < 1:
        raise ValueError("ell must be positive")
    return ell * ell - ell + 2


def symmetric_difference_on_site(f: EdgeFamily, j: int) -> frozenset[Edge]:
    """Petal union of the sets visible to site j: union minus kernel.

    Requires the visible family to be a sunflower; matches the accounting
    |union| = |petals| + kernel size.
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
    kernel = _sunflower_kernel(f.occurrences, f.t)
    if kernel is None:
        raise PreconditionError("family is not a delta-system")
    return all(is_delta_system(site_view(f, j)).kernel == kernel for j in range(1, f.t + 1))


def lemma3_check(f: EdgeFamily) -> bool:
    """With >= 4 sites: if every site's view is a sunflower then so is the
    whole family. Evaluates the implication concretely."""
    if f.t < 4:
        raise PreconditionError("need at least four sites")
    if not _view_is_sunflower(f).all():
        return True
    return _sunflower_kernel(f.occurrences, f.t) is not None


def protocol_verify_sunflower(f: EdgeFamily) -> tuple[Transcript, bool]:
    """Sites 1..s-1 each write one bit saying whether their view is a
    sunflower; the family is a sunflower iff all bits are 1. Cost s-1 bits."""
    if f.t < 4:
        raise PreconditionError("need at least four sites")
    bits = _view_is_sunflower(f)[:-1].astype(int).tolist()  # Python ints: JSON 0 and 1
    writes = tuple(map(Write, range(1, f.t), repeat(1), repeat(BIT), bits, repeat(1), repeat(0)))
    return Transcript(writes), all(bits)


def overlapping_coefficient(f: EdgeFamily, j: int) -> float:
    """|intersection| / |union| over the sets visible to site j. The union
    is never empty, as no set of a family is."""
    view = site_view(f, j)
    return len(frozenset.intersection(*view)) / len(frozenset.union(*view))


def greatest_overlapping_coefficient(f: EdgeFamily) -> float:
    return max(overlapping_coefficient(f, j) for j in range(1, f.t + 1))


def _star_split(f: EdgeFamily, j: int) -> tuple[WeightedGraph, WeightedGraph, int]:
    """The subgraph (V, δ_j) on site j's petal union, the subgraph
    (V, E_j), and the site that writes in round 2, the lowest-numbered
    site other than j; once the broadcast and exchange preconditions hold,
    checked in this order: at least two sites and j in range, uniform set
    sizes, a weak delta-system past the Deza threshold.

    Sunflowers are recognised first, from the occurrence counts; pairs are
    intersected only to word the error for a family that is not one. By
    Deza's theorem a uniform weak delta-system past the threshold is a
    sunflower, so a weak non-sunflower always fails the size check. In a
    sunflower every edge lies in one set or in all, so E_j is site j's
    private edges plus the kernel, and δ_j = union - E_j.
    """
    _check_site(f, j)
    sizes = {len(s) for s in f.sets}
    if len(sizes) != 1:
        raise PreconditionError(f"set sizes are not uniform: {sorted(sizes)}")
    ell = sizes.pop()
    sunflower = _sunflower_kernel(f.occurrences, f.t) is not None
    if not sunflower and not is_delta_system(f.sets).is_weak_delta:
        raise PreconditionError("family is not a weak delta-system")
    need = deza_threshold(ell) + 1
    if not sunflower or f.t < need:
        raise PreconditionError(f"need at least {need} sites for set size {ell}, got {f.t}")
    e_j = f.sets[j - 1]
    return induced_subgraph(f.base, f.union() - e_j), induced_subgraph(f.base, e_j), 2 if j == 1 else 1


def protocol_broadcast_graph(f: EdgeFamily, j: int) -> tuple[Transcript, dict[int, frozenset[Edge]]]:
    """Two-round broadcast: site j writes its petal union, everyone else
    reconstructs the full edge set from it plus the kernel and their own
    view; then the lowest-numbered other site writes E_j so site j can
    finish too."""
    g_delta, g_ej, writer = _star_split(f, j)
    # in a sunflower every edge outside the kernel lies in exactly one set,
    # so site i's private edges E_i - kernel lie in delta_j for every i != j,
    # and site j's are E_j: every site rebuilds the whole union
    reconstructions = dict.fromkeys(range(1, f.t + 1), f.union())
    writes = (_edge_write(j, 1, g_delta), _edge_write(writer, 2, g_ej))
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
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    g_delta, g_ej, writer = _star_split(f, j)
    others = [i for i in range(1, f.t + 1) if i != j]
    # site j's seed, then the others' in order: bitwise the draws of one
    # scalar `integers(2**63)` per site
    seeds = np.random.default_rng(seed).integers(2**63, size=f.t).tolist()

    # the two-part allocation the union theorem is applied to
    two_part = EdgeFamily(f.base, (g_delta.pairs(), g_ej.pairs()) if g_delta.m else (g_ej.pairs(),))
    shared = [sparsify_er(g_delta, epsilon, seeds[0])] if g_delta.m else []
    local = dict(zip(others, _sparsify_each(g_ej, epsilon, seeds[1:])))
    local[j] = local[writer]

    writes = (_edge_write(j, 1, shared[0].h if shared else g_delta), _edge_write(writer, 2, local[writer].h))
    # sites holding one local part object hold one union, formed once
    parts = {id(part): part for part in local.values()}
    unions = {key: union_sparsifiers([*shared, part], two_part) for key, part in parts.items()}
    return Transcript(writes), {i: unions[id(part)] for i, part in local.items()}
