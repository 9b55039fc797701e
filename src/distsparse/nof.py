"""Deterministic simulator of Number-On-Forehead blackboard protocols.

Each site sees every input set except its own. Protocols append writes to a
shared transcript with exact bit and edge cost accounting. The three
protocols: sunflower verification (one bit per site), whole-graph broadcast
exploiting the sunflower kernel, and a two-round sparsifier exchange that
leaves every site with a spectral sparsifier of the full graph.

Every edge-set write is one `_edge_write`: the sorted (u, v, w) edges of an
induced subgraph or of a sparsifier, at `bits_per_edge(n)` =
2 ceil(log2 n) + 64 bits per edge.

Broadcast and exchange split the family at site j the same way
(`_star_split`): in a sunflower E_j is site j's private edges plus the
kernel, so its petal union is δ_j = union - E_j. The same split names the
one site that writes in round 2, the lowest-numbered site other than j.

The simulator does once what is the same at every site. Each site's draw
of its local sparsifier stays its own, from its own seed; the sampling
distribution of a graph is computed once (`WeightedGraph.sampling_probs`),
and each distinct local part is unioned with the shared part once. In the
broadcast every site rebuilds the whole union (the family is a sunflower),
so all sites hold the family's one union object, which the CLI's emit
path renders once however many sites the report lists. Transcripts, bit
and edge costs, per-site results and reports are those of computing every
site on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import PreconditionError
from .graph import Edge, WeightedGraph, induced_subgraph
from .overlap import EdgeFamily, occurrence_counts
from .sparsify import UnionSparsifier, sparsify_er, union_sparsifiers

BIT = "bit"
WEIGHTED_EDGE_SET = "weighted-edge-set"


@dataclass(frozen=True)
class Write:
    site: int
    round: int
    kind: str
    payload: tuple
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
                            "payload": w.payload[0] if w.kind == BIT else w.payload,
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


def _edge_write(site: int, round: int, edges: tuple, n: int) -> Write:
    """A weighted edge-set write of (u, v, w) edges, in the order given:
    `bits_per_edge(n)` bits and one unit of edge cost per edge."""
    return Write(site, round, WEIGHTED_EDGE_SET, edges, len(edges) * bits_per_edge(n), len(edges))


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


def _view_kernels(f: EdgeFamily) -> list[frozenset[Edge] | None]:
    """Kernel of every site's view (site j at index j-1), None where that
    view is not a sunflower.

    Site j sees every set but E_j, so element x occurs count(x) - [x in E_j]
    times in its s-1 sets, and the view is a sunflower exactly when that is
    0, 1 or s-1 for every x: every element outside E_j occurs once or s-1
    times, and every element of E_j once, twice or s times.
    """
    s, counts = f.t, f.occurrences
    if s < 3:
        raise PreconditionError("delta-system check needs at least two sets")
    # the elements that occur neither once nor s-1 times: a sunflower view
    # leaves out a set that holds them all
    outside = frozenset(x for x, c in counts.items() if c != 1 and c != s - 1)
    full_elsewhere = frozenset(x for x, c in counts.items() if c == s - 1)
    kernels = []
    for own in f.sets:
        if outside <= own and all(counts[x] in (1, 2, s) for x in own):
            kernels.append(frozenset(x for x in own if counts[x] == s) | (full_elsewhere - own))
        else:
            kernels.append(None)
    return kernels


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
    _check_site(f, j)
    kernel = _view_kernels(f)[j - 1]
    if kernel is None:
        raise PreconditionError(f"the sets visible to site {j} are not a delta-system")
    return f.union() - {x for x in f.sets[j - 1] if f.occurrences[x] == 1} - kernel


def lemma2_check(f: EdgeFamily) -> bool:
    """With >= 3 sunflower-allocated sites, every site's view is a sunflower
    with the same kernel."""
    if f.t < 3:
        raise PreconditionError("need at least three sites")
    kernel = _sunflower_kernel(f.occurrences, f.t)
    if kernel is None:
        raise PreconditionError("family is not a delta-system")
    return all(k == kernel for k in _view_kernels(f))


def lemma3_check(f: EdgeFamily) -> bool:
    """With >= 4 sites: if every site's view is a sunflower then so is the
    whole family. Evaluates the implication concretely."""
    if f.t < 4:
        raise PreconditionError("need at least four sites")
    if any(k is None for k in _view_kernels(f)):
        return True
    return _sunflower_kernel(f.occurrences, f.t) is not None


def protocol_verify_sunflower(f: EdgeFamily) -> tuple[Transcript, bool]:
    """Sites 1..s-1 each write one bit saying whether their view is a
    sunflower; the family is a sunflower iff all bits are 1. Cost s-1 bits."""
    if f.t < 4:
        raise PreconditionError("need at least four sites")
    bits = [int(k is not None) for k in _view_kernels(f)[:-1]]
    writes = tuple(Write(site=j, round=1, kind=BIT, payload=(b,), bit_cost=1, edge_cost=0) for j, b in enumerate(bits, 1))
    return Transcript(writes), all(bits)


def overlapping_coefficient(f: EdgeFamily, j: int) -> float:
    """|intersection| / |union| over the sets visible to site j. The union
    is never empty, as no set of a family is."""
    view = site_view(f, j)
    return len(frozenset.intersection(*view)) / len(frozenset.union(*view))


def greatest_overlapping_coefficient(f: EdgeFamily) -> float:
    return max(overlapping_coefficient(f, j) for j in range(1, f.t + 1))


def _star_split(
    f: EdgeFamily, j: int
) -> tuple[tuple[frozenset[Edge], WeightedGraph], tuple[frozenset[Edge], WeightedGraph], int]:
    """Site j's petal union δ_j with its subgraph (V, δ_j), then E_j with
    (V, E_j), then the site that writes in round 2, the lowest-numbered
    site other than j; once the broadcast and exchange preconditions hold:
    uniform set sizes, a weak delta-system past the Deza threshold, a site
    in range.

    Sunflowers are recognised first, from the occurrence counts; pairs are
    intersected only to word the error for a family that is not one. By
    Deza's theorem a uniform weak delta-system past the threshold is a
    sunflower, so a weak non-sunflower always fails the size check. In a
    sunflower every edge lies in one set or in all, so E_j is site j's
    private edges plus the kernel, and δ_j = union - E_j.
    """
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
    _check_site(f, j)
    e_j = f.sets[j - 1]
    delta, own = ((edges, induced_subgraph(f.base, edges)) for edges in (f.union() - e_j, e_j))
    return delta, own, 2 if j == 1 else 1


def protocol_broadcast_graph(f: EdgeFamily, j: int) -> tuple[Transcript, dict[int, frozenset[Edge]]]:
    """Two-round broadcast: site j writes its petal union, everyone else
    reconstructs the full edge set from it plus the kernel and their own
    view; then the lowest-numbered other site writes E_j so site j can
    finish too."""
    (_, g_delta), (_, g_ej), writer = _star_split(f, j)
    # in a sunflower every edge outside the kernel lies in exactly one set,
    # so site i's private edges E_i - kernel lie in delta_j for every i != j,
    # and site j's are E_j: every site rebuilds the whole union
    reconstructions = dict.fromkeys(range(1, f.t + 1), f.union())
    writes = (
        _edge_write(j, 1, g_delta.edges, f.base.n),
        _edge_write(writer, 2, g_ej.edges, f.base.n),
    )
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
    (delta_j, g_delta), (e_j, g_ej), writer = _star_split(f, j)
    others = [i for i in range(1, f.t + 1) if i != j]
    rng = np.random.default_rng(seed)
    seeds = {i: int(rng.integers(2**63)) for i in [j, *others]}

    # the two-part allocation the union theorem is applied to
    two_part = EdgeFamily(f.base, (delta_j, e_j) if delta_j else (e_j,))
    shared = [sparsify_er(g_delta, epsilon, seeds[j])] if delta_j else []
    local = {i: sparsify_er(g_ej, epsilon, seeds[i]) for i in others}
    local[j] = local[writer]

    writes = (
        _edge_write(j, 1, shared[0].h.edges if shared else (), f.base.n),
        _edge_write(writer, 2, local[writer].h.edges, f.base.n),
    )
    # every local part is drawn from g_ej and certified against it, so its
    # graph fixes its certificate too: sites whose local parts have equal
    # graphs hold one union, formed once
    unions = {}
    results = {}
    for i, part in local.items():
        if part.h not in unions:
            unions[part.h] = union_sparsifiers([*shared, part], two_part)
        results[i] = unions[part.h]
    return Transcript(writes), results
