"""Occurrence numbers, overlapping cardinalities and the partition they induce.

A family of edge subsets over a shared base graph is grouped by how many
sets each edge appears in; the resulting partition lets the sum of the
per-set Laplacians be rewritten as an integer combination of the partition
classes' Laplacians (checked numerically by `combined_laplacian_residual`).
The family's cover check, occurrence numbers, cardinalities and the
partition all read one occurrence count per family, taken once when the
family is built (`EdgeFamily.occurrences`).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ParseError
from .graph import Edge, WeightedGraph, induced_subgraph, laplacian, load_graph_file, norm_pair, norm_pairs


@dataclass(frozen=True)
class EdgeFamily:
    """Ordered collection of nonempty edge subsets covering E(base)."""

    base: WeightedGraph
    sets: tuple[frozenset[Edge], ...]

    def __post_init__(self):
        base_pairs = self.base.pairs()
        norm_sets = []
        for i, s in enumerate(self.sets):
            pairs = norm_pairs(s)
            if not pairs:
                raise ValueError(f"set {i} is empty")
            if not pairs <= base_pairs:
                raise ValueError(f"set {i} contains edges not in the base graph: {sorted(pairs - base_pairs)}")
            norm_sets.append(pairs)
        object.__setattr__(self, "sets", tuple(norm_sets))
        if self.occurrences.keys() != base_pairs:
            missing = sorted(base_pairs.difference(self.occurrences))
            raise ValueError(f"family does not cover the base edge set; missing {missing}")

    @property
    def t(self) -> int:
        return len(self.sets)

    def union(self) -> frozenset[Edge]:
        return self.base.pairs()

    @cached_property
    def occurrences(self) -> Counter[Edge]:
        """Occurrence number of every edge of the union, counted once; the
        cover check reads it first, as the family is built."""
        return occurrence_counts(self.sets)


def occurrence_counts(sets) -> Counter:
    """How many of the sets contain each element of their union."""
    return Counter(chain.from_iterable(sets))


def occurrence_number(f: EdgeFamily, edge) -> int:
    """Number of family sets containing the edge (0 if in none)."""
    return f.occurrences.get(norm_pair(*edge), 0)


def overlapping_cardinality(f: EdgeFamily, subset) -> int:
    """Common occurrence number of the subset's edges, or 0 if they differ.

    Undefined (and rejected) for the empty set.
    """
    pairs = [norm_pair(u, v) for u, v in subset]
    if not pairs:
        raise ValueError("overlapping cardinality is undefined for the empty set")
    counts = f.occurrences
    outside = [p for p in pairs if p not in counts]
    if outside:
        raise ValueError(f"edges outside the family union: {sorted(outside)}")
    values = {counts[p] for p in pairs}
    if len(values) == 1:
        return values.pop()
    return 0


def overlapping_cardinality_partition(f: EdgeFamily) -> tuple[tuple[int, frozenset[Edge]], ...]:
    """The (cardinality, edge set) classes of edges grouped by occurrence
    number, in increasing order of cardinality."""
    by_count: dict[int, set[Edge]] = {}
    for p, c in f.occurrences.items():
        by_count.setdefault(c, set()).add(p)
    return tuple((c, frozenset(by_count[c])) for c in sorted(by_count))


def combined_laplacian_residual(f: EdgeFamily) -> float:
    """Max-absolute-entry difference between the sum of per-set Laplacians
    and the cardinality-weighted sum over the partition classes.

    Zero (up to roundoff) for every valid family.
    """
    lhs = np.zeros((f.base.n, f.base.n))
    for s in f.sets:
        lhs += laplacian(induced_subgraph(f.base, s))
    rhs = np.zeros_like(lhs)
    for c, cls in overlapping_cardinality_partition(f):
        rhs += c * laplacian(induced_subgraph(f.base, cls))
    return float(np.max(np.abs(lhs - rhs)))


def family_from_dict(doc: dict, base_dir=".") -> EdgeFamily:
    """Build a family from the JSON document format
    `{"graph": <path>, "sets": [[[u, v], ...], ...]}`.

    The graph path is a string resolved relative to `base_dir`; every edge
    is a [u, v] pair of JSON integers (bool excluded).
    """
    if not isinstance(doc, dict) or "graph" not in doc or "sets" not in doc:
        raise ParseError("family document must have 'graph' and 'sets' keys")
    if not isinstance(doc["graph"], str):
        raise ParseError(f"'graph' must be a path string, got {type(doc['graph']).__name__}")
    sets = doc["sets"]
    if not (isinstance(sets, list) and set(map(type, sets)) <= {list}):
        raise ParseError("'sets' must be a list of edge lists")
    # sets of types over the whole document, not a loop per edge or per set
    edges = list(chain.from_iterable(sets))
    if not (
        set(map(type, edges)) <= {list}
        and set(map(len, edges)) <= {2}
        and set(map(type, chain.from_iterable(edges))) <= {int}
    ):
        raise ParseError("malformed 'sets' entry: every edge must be a [u, v] pair of integers")
    base = load_graph_file(os.path.join(base_dir, doc["graph"]))
    try:
        return EdgeFamily(base, tuple(sets))
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
