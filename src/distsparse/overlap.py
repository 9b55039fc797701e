"""Occurrence numbers, overlapping cardinalities and the partition they induce.

A family of edge subsets over a shared base graph is grouped by how many
sets each edge appears in; the resulting partition lets the sum of the
per-set Laplacians be rewritten as an integer combination of the partition
classes' Laplacians (checked numerically by `combined_laplacian_residual`).
A family's sets are base-edge ids, mapped from the pairs' flat ends by one
lookup (`end_ids`); its cover check, occurrence numbers, cardinalities and the
partition (of subgraphs of the base) read one occurrence-count array.
A family document is read by orjson, and decided again by `json` whenever
orjson or the document's checks refuse it (`read_json`).
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import orjson

from .errors import ParseError
from .graph import WeightedGraph, edge_ids, end_ids, laplacian, load_graph_file, norm_pair

# orjson keeps the buffer its first parse of a nonempty document takes (8 MB
# in orjson 3.8) for the life of the process. Taken at import, before numpy
# has allocated and freed large arrays, it added under 1 MB to perfbench's
# er-split `peak_rss_mb` (79.6 to 80.3 MB, medians of 10 runs); taken by the
# first document read after a large command in the same process, it kept
# about its size of freed memory resident (87.7 MB), most likely as malloc
# then places it on the heap.
orjson.loads(b"[0]")


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
        ids = end_ids(base, ends)
        if 0 in sizes or (ids < 0).any():
            which = np.repeat(np.arange(t), sizes)
            misses = np.bincount(which[ids < 0], minlength=t)  # each set's pairs that are no base edge
            i = next(k for k, size in enumerate(sizes) if not size or misses[k])
            if not sizes[i]:
                raise ValueError(f"set {i} is empty")
            at = np.flatnonzero((which == i) & (ids < 0)).tolist()
            outside = {norm_pair(ends[2 * k], ends[2 * k + 1]) for k in at}
            raise ValueError(f"set {i} contains edges not in the base graph: {sorted(outside)}")
        key = np.repeat(np.arange(t) * m, sizes) + ids  # set i's ids as i * m + id
        key.sort()
        if (key[1:] == key[:-1]).any():  # a pair repeated in a set counts once
            key = np.unique(key)
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
    checked (`_family_document`) before the graph file is opened, and the
    flat list of its pairs' ends is the id lookup's input."""
    return _family(*_family_document(doc), base_dir)


def _family_document(doc) -> tuple[str, list, list]:
    """The graph path of a family document, the flat ends of its pairs, set
    after set, and each set's number of pairs; a document of any other
    shape is a `ParseError`. The checks take sets of types over the whole
    document, not a loop per edge or per set: every edge has length 2 and
    the edges' ends, flattened once, are all int, which only a [u, v] pair
    of integers gives (a string or an object of length 2 flattens into
    strings); the lengths are checked, as [[0, 1, 2], [3]] has 2 ends an
    edge."""
    if not isinstance(doc, dict) or "graph" not in doc or "sets" not in doc:
        raise ParseError("family document must have 'graph' and 'sets' keys")
    graph, sets = doc["graph"], doc["sets"]
    if not isinstance(graph, str):
        raise ParseError(f"'graph' must be a path string, got {type(graph).__name__}")
    if not (isinstance(sets, list) and set(map(type, sets)) <= {list}):
        raise ParseError("'sets' must be a list of edge lists")
    edges = list(chain.from_iterable(sets))
    try:
        pairs = set(map(len, edges)) <= {2}
    except TypeError:  # a number, a bool or null has no length
        pairs = False
    ends = list(chain.from_iterable(edges)) if pairs else []
    if not (pairs and set(map(type, ends)) <= {int}):
        raise ParseError("malformed 'sets' entry: every edge must be a [u, v] pair of integers")
    return graph, ends, list(map(len, sets))


def _family(graph: str, ends: list, sizes: list, base_dir) -> EdgeFamily:
    """The family of a checked document (`_family_document`) over the graph
    at `graph`, resolved relative to `base_dir`."""
    base = load_graph_file(os.path.join(base_dir, graph))
    try:
        return EdgeFamily._from_ends(base, ends, sizes)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def read_json(path, take, keys: set):
    """`take(doc)` of the JSON document `doc` in a file, as `json` reads it
    (`load_json`), where `take` checks `doc` and raises `ParseError` on one
    of a shape it refuses.

    orjson reads the file's bytes first. Its document is taken when it is a
    list or an object of no keys but `keys`, whose values `take` checks in
    full, and `take` accepts it: on such a document orjson and `json`
    agree. Any other is decided by `take` of `json`'s document of the same
    bytes, so every document taken and every error is `json`'s. orjson
    refuses what `json` reads (1e400, NaN, a lone surrogate, an integer of
    more digits than a double spans) and reads as a float an integer past
    64 bits, which `take` refuses; and a key `take` never reads may hold
    what `json` refuses (a value nested past its limit)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:
        doc = None
    if isinstance(doc, list) or isinstance(doc, dict) and doc.keys() <= keys:
        try:
            return take(doc)
        except ParseError:
            pass
    return take(load_json(path, data))


def load_json(path, data: bytes):
    """The JSON document in the bytes `data` of the file at `path`, as
    `json` reads it from that file opened with `encoding="utf-8"`. Text
    that is not UTF-8, not JSON, holds an integer past Python's digit limit
    or nests too deeply is a `ParseError`."""
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON in {path}: nested too deeply") from None


def load_family(path) -> EdgeFamily:
    """The family in a family document file (`family_from_dict`), read by
    `read_json`."""
    parts = read_json(path, _family_document, {"graph", "sets"})
    return _family(*parts, os.path.dirname(os.path.abspath(path)))
