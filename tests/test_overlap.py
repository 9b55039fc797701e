import json

import numpy as np
import pytest

from distsparse import (
    EdgeFamily,
    ParseError,
    WeightedGraph,
    combined_laplacian_residual,
    load_family,
    occurrence_number,
    overlapping_cardinality,
    overlapping_cardinality_partition,
)
from conftest import (
    EXAMPLE1_SETS,
    elem_edge,
    family_from_index_sets,
    random_covering_family,
    random_graph,
)


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
            for p in g.pairs():
                naive = sum(1 for s in f.sets if p in s)
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
        by_card = dict(part)
        assert by_card[2] == frozenset({elem_edge(6), elem_edge(7)})
        assert by_card[3] == frozenset({elem_edge(5)})
        assert by_card[4] == frozenset({elem_edge(1), elem_edge(4)})
        assert by_card[5] == frozenset({elem_edge(2), elem_edge(3)})

    def test_single_set_family(self):
        f = family_from_index_sets([{1, 2, 3}])
        assert overlapping_cardinality_partition(f) == ((1, f.union()),)

    def test_two_identical_sets(self):
        f = family_from_index_sets([{1, 2}, {1, 2}])
        assert [c for c, _ in overlapping_cardinality_partition(f)] == [2]

    def test_classes_partition_union(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = random_graph(rng, int(rng.integers(3, 20)))
            f = random_covering_family(rng, g, int(rng.integers(1, 8)))
            part = overlapping_cardinality_partition(f)
            all_edges = [e for _, cls in part for e in cls]
            assert len(all_edges) == len(set(all_edges))
            assert set(all_edges) == set(f.union())
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
            EdgeFamily(g, (frozenset(),))

    def test_rejects_non_subset(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        with pytest.raises(ValueError, match="not in the base"):
            EdgeFamily(g, (frozenset({(0, 2)}),))

    def test_rejects_non_covering(self):
        g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(ValueError, match="cover"):
            EdgeFamily(g, (frozenset({(0, 1)}),))

    def test_pair_order_normalized(self):
        g = WeightedGraph(3, ((0, 1, 1.0),))
        f = EdgeFamily(g, (frozenset({(1, 0)}),))
        assert f.sets[0] == frozenset({(0, 1)})


class TestFamilyFile:
    def test_round_trip(self, tmp_path, example1_family):
        gpath = tmp_path / "g.el"
        from distsparse import dump_graph

        gpath.write_text(dump_graph(example1_family.base))
        doc = {
            "graph": "g.el",
            "sets": [[list(e) for e in sorted(s)] for s in example1_family.sets],
        }
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps(doc))
        f = load_family(fpath)
        assert f.sets == example1_family.sets
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
