import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distsparse import (
    EdgeFamily,
    ParseError,
    WeightedGraph,
    combined_laplacian_residual,
    dump_graph,
    load_family,
    occurrence_number,
    overlapping_cardinality,
    overlapping_cardinality_partition,
)
from conftest import (
    edge_pairs,
    EXAMPLE1_SETS,
    elem_edge,
    family_from_index_sets,
    random_covering_family,
    random_graph,
    reference_partition,
)
from distsparse.cli import main


class TestOccurrenceNumber:
    @pytest.mark.parametrize(
        "elem,expected", [(1, 4), (2, 5), (3, 5), (4, 4), (5, 3), (6, 2), (7, 2)]
    )
    def test_worked_example(self, example1_family, elem, expected):
        assert occurrence_number(example1_family, elem_edge(elem)) == expected

    def test_absent_edge_is_zero(self, example1_family):
        assert occurrence_number(example1_family, (0, 100)) == 0

    def test_agrees_with_naive_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(3, 12)))
            f = random_covering_family(rng, g, int(rng.integers(1, 5)))
            for p in edge_pairs(g):
                naive = sum(1 for s in edge_pairs(f) if p in s)
                assert occurrence_number(f, p) == naive


class TestOverlappingCardinality:
    def test_uniform_subset(self, example1_family):
        assert overlapping_cardinality(example1_family, [elem_edge(1), elem_edge(4)]) == 4

    def test_mixed_subset_is_zero(self, example1_family):
        s = [elem_edge(1), elem_edge(2), elem_edge(3)]
        assert overlapping_cardinality(example1_family, s) == 0

    def test_singleton_equals_occurrence_number(self, example1_family):
        for e in range(1, 8):
            assert overlapping_cardinality(example1_family, [elem_edge(e)]) == occurrence_number(
                example1_family, elem_edge(e)
            )

    def test_empty_rejected(self, example1_family):
        with pytest.raises(ValueError, match="empty"):
            overlapping_cardinality(example1_family, [])

    def test_edge_outside_union_rejected(self, example1_family):
        with pytest.raises(ValueError, match=r"outside the family union: \[\(0, 100\)\]"):
            overlapping_cardinality(example1_family, [elem_edge(1), (100, 0)])

    def test_pair_order_ignored(self, example1_family):
        assert overlapping_cardinality(example1_family, [(5, 4), (2, 1)]) == 4


class TestPartition:
    def test_worked_example(self, example1_family):
        part = overlapping_cardinality_partition(example1_family)
        assert [c for c, _ in part] == [2, 3, 4, 5]
        by_card = {c: edge_pairs(cls) for c, cls in part}
        assert by_card[2] == frozenset({elem_edge(6), elem_edge(7)})
        assert by_card[3] == frozenset({elem_edge(5)})
        assert by_card[4] == frozenset({elem_edge(1), elem_edge(4)})
        assert by_card[5] == frozenset({elem_edge(2), elem_edge(3)})

    def test_single_set_family(self):
        f = family_from_index_sets([{1, 2, 3}])
        assert [(c, edge_pairs(cls)) for c, cls in overlapping_cardinality_partition(f)] == [(1, edge_pairs(f.base))]

    def test_two_identical_sets(self):
        f = family_from_index_sets([{1, 2}, {1, 2}])
        assert [c for c, _ in overlapping_cardinality_partition(f)] == [2]

    def test_classes_partition_union(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = random_graph(rng, int(rng.integers(3, 20)))
            f = random_covering_family(rng, g, int(rng.integers(1, 8)))
            part = overlapping_cardinality_partition(f)
            all_edges = [e for _, cls in part for e in edge_pairs(cls)]
            assert len(all_edges) == len(set(all_edges))
            assert set(all_edges) == set(edge_pairs(f.base))
            cards = [c for c, _ in part]
            assert cards[0] >= 1 and cards[-1] <= f.t
            assert cards == sorted(set(cards))


class TestLemma1Residual:
    def test_single_set(self):
        f = family_from_index_sets([{1, 2, 3}])
        assert combined_laplacian_residual(f) == 0.0

    def test_worked_example(self, example1_family):
        assert combined_laplacian_residual(example1_family) < 1e-9

    def test_random_families(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            g = random_graph(rng, 20, p=0.3)
            f = random_covering_family(rng, g, 5)
            assert combined_laplacian_residual(f) < 1e-9


class TestEdgeFamilyValidation:
    def test_rejects_empty_set(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        with pytest.raises(ValueError, match="empty"):
            EdgeFamily.from_pairs(g, (frozenset(),))

    def test_rejects_non_subset(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        with pytest.raises(ValueError, match="not in the base"):
            EdgeFamily.from_pairs(g, (frozenset({(0, 2)}),))

    def test_rejects_non_covering(self):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(ValueError, match="cover"):
            EdgeFamily.from_pairs(g, (frozenset({(0, 1)}),))

    def test_pair_order_normalized(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        f = EdgeFamily.from_pairs(g, (frozenset({(1, 0)}),))
        assert edge_pairs(f)[0] == frozenset({(0, 1)})


class TestFamilyFile:
    def test_round_trip(self, tmp_path, example1_family):
        from distsparse import dump_graph

        with open(tmp_path / "g.el", "w", encoding="utf-8") as fh:
            dump_graph(example1_family.base, fh)
        doc = {
            "graph": "g.el",
            "sets": [[list(e) for e in sorted(s)] for s in edge_pairs(example1_family)],
        }
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps(doc))
        f = load_family(fpath)
        assert edge_pairs(f) == edge_pairs(example1_family)
        assert f.base == example1_family.base

    def test_missing_keys(self, tmp_path):
        p = tmp_path / "fam.json"
        p.write_text(json.dumps({"sets": []}))
        with pytest.raises(ParseError):
            load_family(p)

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "fam.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_family(p)


# --- family documents: the id lookup against the frozenset reference ------

BASE = WeightedGraph(6, ((0, 1, 1.0), (0, 2, 0.5), (1, 2, 2.0), (2, 3, 1.0), (3, 4, 1.5), (4, 5, 0.25)))
BASE_PAIRS = [[0, 1], [0, 2], [1, 2], [2, 3], [3, 4], [4, 5]]
_base_pair = st.sampled_from(BASE_PAIRS).flatmap(lambda p: st.sampled_from([p, p[::-1]]))
_any_pair = st.lists(st.integers(-2, 7) | st.sampled_from([2**63 - 1, 2**63, 2**64, -(2**63) - 1]), min_size=2, max_size=2)


@st.composite
def family_sets(draw):
    """Up to five sets of pairs, most of them base edges either way round,
    some repeated, some anything; often with one more set that covers the
    base in a random order, so that most documents are families."""
    sets = draw(st.lists(st.lists(st.one_of(_base_pair, _base_pair, _any_pair), max_size=6), max_size=5))
    if draw(st.booleans()):
        cover = [draw(st.sampled_from([p, p[::-1]])) for p in BASE_PAIRS]
        sets.insert(draw(st.integers(0, len(sets))), draw(st.permutations(cover)))
    return sets


class TestFamilyDocuments:
    @given(sets=family_sets())
    @settings(max_examples=300, deadline=None)
    @example(sets=[[p[::-1] for p in BASE_PAIRS]])  # every pair written [v, u]
    @example(sets=[[[0, 1], *BASE_PAIRS, [1, 0]], [[2, 3], [3, 2], [2, 3]]])  # repeated, as itself and reversed
    @example(sets=[BASE_PAIRS, [[0, 1], [0, 3]]])  # a pair outside the base
    @example(sets=[BASE_PAIRS, [[-1, 2], [1, 2]]])  # a negative id
    @example(sets=[BASE_PAIRS, [[2**64, 1], [1, 2]]])  # an id past int64
    @example(sets=[[[2**64, -(2**64)]], BASE_PAIRS])
    @example(sets=[BASE_PAIRS, []])  # an empty set
    @example(sets=[[[0, 1], [1, 2]], [[2, 0], [3, 2], [3, 4]]])  # an uncovered base edge
    @example(sets=[])
    def test_partition_matches_frozenset_reference(self, tmp_path_factory, sets):
        d = tmp_path_factory.mktemp("fam")
        with open(d / "g.el", "w", encoding="utf-8") as fh:
            dump_graph(BASE, fh)
        (d / "fam.json").write_text(json.dumps({"graph": "g.el", "sets": sets}))
        try:
            expected = reference_partition(BASE, sets)
        except ValueError as exc:
            expected = {"error": "parse", "detail": str(exc)}
        result = CliRunner().invoke(main, ["partition", "--family", str(d / "fam.json")])
        assert (result.exit_code, result.output) == (1 if "error" in expected else 0, json.dumps(expected) + "\n")
