"""Occurrence numbers, overlapping cardinalities and the partition they induce.

A family of edge subsets over a shared base graph is grouped by how many
sets each edge appears in; the resulting partition lets the sum of the
per-set Laplacians be rewritten as an integer combination of the partition
classes' Laplacians (checked numerically by `combined_laplacian_residual`).
A family's sets are base-edge ids, mapped from the pairs' flat ends by one
lookup (`end_ids`); its cover check, occurrence numbers, cardinalities and the
partition (of subgraphs of the base) read one occurrence-count array.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ParseError
from .graph import WeightedGraph, edge_ids, end_ids, laplacian, load_graph_file, norm_pair


@dataclass(frozen=True, eq=False)
class EdgeFamily:
    """Ordered collection of nonempty edge subsets covering E(base): set i
    is the base edges at `ids[offsets[i]:offsets[i + 1]]`, ascending, and
    `occurrences[e]` counts the sets that hold base edge e."""

    base: WeightedGraph
    ids: np.ndarray
    offsets: np.ndarray
    occurrences: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = np.bincount(self.ids, minlength=self.base.m)
        missing = np.flatnonzero(counts == 0)
        if len(missing):
            pairs = list(zip(self.base.u[missing].tolist(), self.base.v[missing].tolist()))
            raise ValueError(f"family does not cover the base edge set; missing {pairs}")
        counts.flags.writeable = False
        object.__setattr__(self, "occurrences", counts)

    @classmethod
    def from_pairs(cls, base: WeightedGraph, sets) -> EdgeFamily:
        """The family of these sets of [u, v] pairs over `base`, either way
        round, a repeat counted once; the first set that is empty or holds a
        pair that is no base edge is refused. One sort orders every set."""
        return cls._from_ends(base, list(chain.from_iterable(chain.from_iterable(sets))), list(map(len, sets)))

    @classmethod
    def _from_ends(cls, base: WeightedGraph, ends: list, sizes: list) -> EdgeFamily:
        """`from_pairs` of the sets whose pairs, set after set, are the flat
        integer `ends` two at a time, set i holding `sizes[i]` pairs."""
        t, m = len(sizes), base.m
        ids, which = end_ids(base, ends), np.repeat(np.arange(t), sizes)
        bad = np.flatnonzero((np.bincount(which, minlength=t) == 0) | (np.bincount(which[ids < 0], minlength=t) > 0))
        if len(bad):
            i = int(bad[0])
            if not sizes[i]:
                raise ValueError(f"set {i} is empty")
            at = np.flatnonzero((which == i) & (ids < 0)).tolist()
            outside = {norm_pair(ends[2 * k], ends[2 * k + 1]) for k in at}
            raise ValueError(f"set {i} contains edges not in the base graph: {sorted(outside)}")
        key = np.sort(which * m + ids)  # set i's ids as i * m + id
        key = key[np.diff(key, prepend=-1) != 0]
        return cls(base, key % max(m, 1), np.searchsorted(key, np.arange(t + 1) * m))

    @property
    def t(self) -> int:
        return len(self.offsets) - 1

    def set_ids(self, i: int) -> np.ndarray:
        """The base-edge ids of set i (0-based)."""
        return self.ids[self.offsets[i] : self.offsets[i + 1]]

    def subgraph(self, ids) -> WeightedGraph:
        """The base's subgraph on the edges at these ascending ids, or a mask."""
        return WeightedGraph._trusted(self.base.n, self.base.records[ids])


def occurrence_number(f: EdgeFamily, edge) -> int:
    """Number of family sets containing the edge (0 if in none)."""
    i = int(edge_ids(f.base, [edge])[0])
    return int(f.occurrences[i]) if i >= 0 else 0


def overlapping_cardinality(f: EdgeFamily, subset) -> int:
    """Common occurrence number of the subset's edges, or 0 if they differ.

    Undefined (and rejected) for the empty set.
    """
    pairs = list(subset)
    if not pairs:
        raise ValueError("overlapping cardinality is undefined for the empty set")
    ids = edge_ids(f.base, pairs)
    if (ids < 0).any():
        outside = [norm_pair(u, v) for (u, v), i in zip(pairs, ids.tolist()) if i < 0]
        raise ValueError(f"edges outside the family union: {sorted(outside)}")
    counts = np.unique(f.occurrences[ids])
    return int(counts[0]) if len(counts) == 1 else 0


def overlapping_cardinality_partition(f: EdgeFamily) -> tuple[tuple[int, WeightedGraph], ...]:
    """The (cardinality, edge set) classes of edges grouped by occurrence
    number, in increasing order of cardinality; each edge set is the base's
    subgraph on the class. A stable sort by count keeps each class's ids
    ascending, so its edges stay in (u, v) order."""
    order = np.argsort(f.occurrences, kind="stable")
    counts = f.occurrences[order]
    bounds = [*np.flatnonzero(np.diff(counts, prepend=-1)).tolist(), len(order)]
    return tuple((int(counts[a]), f.subgraph(order[a:b])) for a, b in zip(bounds, bounds[1:]))


def combined_laplacian_residual(f: EdgeFamily) -> float:
    """Max-absolute-entry difference between the sum of per-set Laplacians
    and the cardinality-weighted sum over the partition classes.

    Zero (up to roundoff) for every valid family.
    """
    lhs = np.zeros((f.base.n, f.base.n))
    for i in range(f.t):
        lhs += laplacian(f.subgraph(f.set_ids(i)))
    rhs = np.zeros_like(lhs)
    for c, cls in overlapping_cardinality_partition(f):
        rhs += c * laplacian(cls)
    return float(np.max(np.abs(lhs - rhs)))


def family_from_dict(doc: dict, base_dir=".") -> EdgeFamily:
    """Build a family from the JSON document format
    `{"graph": <path>, "sets": [[[u, v], ...], ...]}`.

    The graph path is a string resolved relative to `base_dir`; every edge
    is a [u, v] pair of JSON integers (bool excluded). The document is
    checked before the graph file is opened; its edges are flattened once
    and their ends once, and that flat list of ends is the id lookup's input.
    """
    if not isinstance(doc, dict) or "graph" not in doc or "sets" not in doc:
        raise ParseError("family document must have 'graph' and 'sets' keys")
    if not isinstance(doc["graph"], str):
        raise ParseError(f"'graph' must be a path string, got {type(doc['graph']).__name__}")
    sets = doc["sets"]
    if not (isinstance(sets, list) and set(map(type, sets)) <= {list}):
        raise ParseError("'sets' must be a list of edge lists")
    # sets of types over the whole document, not a loop per edge or per set;
    # the per-edge lengths are checked, as [[0, 1, 2], [3]] has 2 ends an edge
    malformed = "malformed 'sets' entry: every edge must be a [u, v] pair of integers"
    edges = list(chain.from_iterable(sets))
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}):
        raise ParseError(malformed)
    ends = list(chain.from_iterable(edges))
    if not set(map(type, ends)) <= {int}:
        raise ParseError(malformed)
    base = load_graph_file(os.path.join(base_dir, doc["graph"]))
    try:
        return EdgeFamily._from_ends(base, ends, list(map(len, sets)))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_json(path):
    """The JSON document in a file. Text that is not UTF-8, not JSON, holds
    an integer past Python's digit limit or nests too deeply is a
    `ParseError`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
            raise ParseError(f"invalid JSON in {path}: {exc}") from None
        except RecursionError:
            raise ParseError(f"invalid JSON in {path}: nested too deeply") from None


def load_family(path) -> EdgeFamily:
    doc = load_json(path)
    return family_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))
