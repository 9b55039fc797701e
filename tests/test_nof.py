import json
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distsparse.nof as nof_mod
from distsparse import (
    EdgeFamily,
    PreconditionError,
    WeightedGraph,
    deza_threshold,
    greatest_overlapping_coefficient,
    induced_subgraph,
    is_delta_system,
    lemma2_check,
    lemma3_check,
    load_family,
    occurrence_number,
    overlapping_cardinality_partition,
    overlapping_coefficient,
    protocol_broadcast_graph,
    protocol_sparsifier_exchange,
    protocol_verify_sunflower,
    site_view,
    sparsify_er,
    symmetric_difference_on_site,
    verify_epsilon,
)
from distsparse.nof import BIT, WEIGHTED_EDGE_SET, Transcript, Write, _view_is_sunflower, bits_per_edge
from distsparse.sparsify import _sparsify_each, union_sparsifiers
from conftest import (
    edge_pairs,
    elem_edge,
    family_from_index_sets,
    near_sunflower_index_sets,
    random_delta_family,
    reference_exchange,
    uniform_star_index_sets,
)


def edges_of(elems):
    return frozenset(elem_edge(e) for e in elems)


def reference_delta(sets):
    """The pairwise definition: a sunflower has every pairwise intersection
    equal to the global one, a weak sunflower every intersection size equal.
    Returns (is_delta, kernel, is_weak_delta, lam, ell)."""
    sets = [frozenset(s) for s in sets]
    kernel = frozenset.intersection(*sets)
    inters = [a & b for a, b in combinations(sets, 2)]
    is_delta = all(x == kernel for x in inters)
    sizes = {len(x) for x in inters}
    is_weak = len(sizes) == 1
    return (
        is_delta,
        kernel if is_delta else None,
        is_weak,
        sizes.pop() if is_weak else None,
        max(len(s) for s in sets),
    )


small_sets = st.frozensets(st.integers(1, 6), min_size=1, max_size=4)


@st.composite
def index_families(draw):
    """Small families of 2..8 nonempty index sets: random ones (duplicates
    arise often over six elements), all-identical ones, and sunflowers with
    an optional extra element that may break them."""
    s = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(("random", "identical", "sunflower")))
    if kind == "random":
        return draw(st.lists(small_sets, min_size=s, max_size=s))
    if kind == "identical":
        return [draw(small_sets)] * s
    kernel = set(range(100, 100 + draw(st.integers(0, 2))))
    sets, nxt = [], 1
    for _ in range(s):
        k = draw(st.integers(0 if kernel else 1, 2))
        sets.append(kernel | set(range(nxt, nxt + k)))
        nxt += k
    if draw(st.booleans()):
        union = sorted(set().union(*sets))
        sets[draw(st.integers(0, s - 1))].add(draw(st.sampled_from(union)))
    return sets


@st.composite
def view_families(draw):
    """Families of 3..9 nonempty index sets built to give elements every
    count the view decision tells apart: random ones; near-sunflower twins;
    and sunflowers (counts 1 and s) with new elements put in 1, 2, s-1, s
    or any number of the sets, and optionally an existing element added to
    one more set."""
    s = draw(st.integers(3, 9))
    kind = draw(st.sampled_from(("random", "twin", "sunflower")))
    if kind == "random":
        return draw(st.lists(small_sets, min_size=s, max_size=s))
    if kind == "twin":
        ell = draw(st.integers(1, 3))
        return near_sunflower_index_sets(s, ell, draw(st.integers(0, ell - 1)))
    kernel = set(range(100, 100 + draw(st.integers(0, 2))))
    sets, nxt = [], 1
    for _ in range(s):
        k = draw(st.integers(0 if kernel else 1, 2))
        sets.append(kernel | set(range(nxt, nxt + k)))
        nxt += k
    for x in range(200, 200 + draw(st.integers(0, 3))):
        count = draw(st.sampled_from((1, 2, s - 1, s)) | st.integers(1, s))
        for i in draw(st.permutations(range(s)))[:count]:
            sets[i].add(x)
    if draw(st.booleans()):
        union = sorted(set().union(*sets))
        sets[draw(st.integers(0, s - 1))].add(draw(st.sampled_from(union)))
    return sets


class TestViewDecision:
    @given(view_families())
    @settings(max_examples=500, deadline=None)
    def test_bits_and_kernels_match_each_view(self, sets):
        f = family_from_index_sets(sets)
        bits = _view_is_sunflower(f)
        assert bits.dtype == bool and bits.shape == (f.t,)
        reports = [is_delta_system(site_view(f, j)) for j in range(1, f.t + 1)]
        assert bits.tolist() == [r.is_delta for r in reports]

    @pytest.mark.parametrize(
        "s, extra, expected",
        [
            # a star: kernel {0}, count s, and private petals, count 1
            (5, [], [True] * 5),
            # 9 in all sets but the last, count s-1: only the last site sees
            # it in all of its sets; every other site holds it
            (5, [1, 2, 3, 4], [False, False, False, False, True]),
            # 9 in two sets, count 2: a petal to each of the two that hold it
            (5, [1, 2], [True, True, False, False, False]),
            # count 2 is s-1 at s = 3, and every view of two sets is a sunflower
            (3, [1, 2], [True, True, True]),
        ],
        ids=["star", "count-s-minus-1", "count-2", "count-2-is-s-minus-1"],
    )
    def test_counts_one_two_s_minus_one_and_s(self, s, extra, expected):
        sets = [{0, i} | ({9} if i in extra else set()) for i in range(1, s + 1)]
        f = family_from_index_sets(sets)
        assert _view_is_sunflower(f).tolist() == expected
        assert expected == [is_delta_system(site_view(f, j)).is_delta for j in range(1, s + 1)]

    def test_two_sites_refused(self):
        f = family_from_index_sets([{1, 2}, {1, 3}])
        with pytest.raises(PreconditionError, match="delta-system check needs at least two sets"):
            _view_is_sunflower(f)


class TestSiteView:
    def test_middle_site(self):
        f = family_from_index_sets([{1}, {2}, {3}])
        view = site_view(f, 2)
        assert tuple(edge_pairs(f.base, s) for s in view) == (edges_of({1}), edges_of({3}))

    def test_first_site(self):
        f = family_from_index_sets([{1}, {2}, {3}, {4}])
        view = site_view(f, 1)
        assert len(view) == 3
        assert edges_of({1}) not in [edge_pairs(f.base, s) for s in view]

    def test_single_site_rejected(self):
        f = family_from_index_sets([{1, 2}])
        with pytest.raises(PreconditionError):
            site_view(f, 1)

    def test_out_of_range(self):
        f = family_from_index_sets([{1}, {2}])
        with pytest.raises(PreconditionError):
            site_view(f, 3)


class TestDeltaSystem:
    def test_star_family(self):
        rep = is_delta_system([{1, 2}, {1, 3}, {1, 4}])
        assert rep.is_delta and rep.kernel == {1}
        assert rep.is_weak_delta and rep.lam == 1
        assert rep.ell == 2

    def test_weak_but_not_delta(self):
        rep = is_delta_system([{1, 2}, {2, 3}, {1, 3}])
        assert not rep.is_delta
        assert rep.is_weak_delta and rep.lam == 1

    def test_pairwise_disjoint(self):
        rep = is_delta_system([{1}, {2}, {3}])
        assert rep.is_delta and rep.kernel == frozenset()
        assert rep.lam == 0

    def test_delta_implies_weak_with_kernel_size(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = random_delta_family(rng, int(rng.integers(2, 8)))
            rep = is_delta_system(edge_pairs(f))
            assert rep.is_delta
            assert rep.is_weak_delta and rep.lam == len(rep.kernel)

    def test_too_few_sets(self):
        with pytest.raises(PreconditionError):
            is_delta_system([{1}])


class TestOccurrenceCountsAgainstPairwiseReference:
    @given(index_families())
    @settings(max_examples=300, deadline=None)
    def test_is_delta_system(self, sets):
        rep = is_delta_system(sets)
        assert (rep.is_delta, rep.kernel, rep.is_weak_delta, rep.lam, rep.ell) == reference_delta(sets)

    @given(index_families())
    @settings(max_examples=300, deadline=None)
    def test_site_views(self, sets):
        f = family_from_index_sets(sets)
        views = [[edge_pairs(f.base, s) for s in site_view(f, j)] for j in range(1, f.t + 1)]
        if f.t >= 3:
            for j, visible in enumerate(views, start=1):
                is_delta, kernel, *_ = reference_delta(visible)
                if is_delta:
                    petals = symmetric_difference_on_site(f, j)
                    assert edge_pairs(f.base, petals) == frozenset.union(*visible) - kernel
                else:
                    with pytest.raises(PreconditionError, match="not a delta-system"):
                        symmetric_difference_on_site(f, j)
            is_delta, kernel, *_ = reference_delta(edge_pairs(f))
            if is_delta:
                # Lemma 2: every view is a sunflower with the family's kernel
                assert lemma2_check(f) is all(reference_delta(v)[:2] == (True, kernel) for v in views) is True
            else:
                with pytest.raises(PreconditionError, match="family is not a delta-system"):
                    lemma2_check(f)
        if f.t >= 4:
            transcript, verdict = protocol_verify_sunflower(f)
            bits = [w.payload for w in transcript.writes]
            assert bits == [int(reference_delta(v)[0]) for v in views[:-1]]
            assert verdict == reference_delta(edge_pairs(f))[0]
            all_views = all(reference_delta(v)[0] for v in views)
            assert lemma3_check(f) == (not all_views or reference_delta(edge_pairs(f))[0])

    @given(index_families())
    @settings(max_examples=300, deadline=None)
    def test_partition_and_occurrence_numbers(self, sets):
        f = family_from_index_sets(sets)
        naive = {p: sum(p in s for s in edge_pairs(f)) for p in edge_pairs(f.base)}
        by_count = {}
        for p, c in naive.items():
            by_count.setdefault(c, set()).add(p)
        expected = tuple((c, frozenset(by_count[c])) for c in sorted(by_count))
        assert tuple((c, edge_pairs(cls)) for c, cls in overlapping_cardinality_partition(f)) == expected
        assert all(occurrence_number(f, p) == c for p, c in naive.items())


class TestDezaThreshold:
    @pytest.mark.parametrize("ell,expected", [(1, 2), (3, 8), (4, 14)])
    def test_values(self, ell, expected):
        assert deza_threshold(ell) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            deza_threshold(0)


class TestSymmetricDifference:
    def test_star(self):
        f = family_from_index_sets([{1, 2}, {1, 3}, {1, 4}, {1, 5}])
        # view of site 4 is the star {1,2},{1,3},{1,4}
        assert edge_pairs(f.base, symmetric_difference_on_site(f, 4)) == edges_of({2, 3, 4})

    def test_pairwise_disjoint(self):
        f = family_from_index_sets([{1}, {2}, {3}])
        assert edge_pairs(f.base, symmetric_difference_on_site(f, 3)) == edges_of({1, 2})

    def test_all_identical(self):
        f = family_from_index_sets([{1, 2}] * 4)
        assert symmetric_difference_on_site(f, 1) == frozenset()

    def test_non_delta_view_refused(self):
        f = family_from_index_sets([{1, 2}, {2, 3}, {1, 3}, {9}])
        with pytest.raises(PreconditionError):
            symmetric_difference_on_site(f, 4)

    def test_two_sites_refused(self):
        # each site of a 2-site family sees one set, too few to be a delta-system
        f = family_from_index_sets([{1, 2}, {1, 3}])
        with pytest.raises(PreconditionError, match="delta-system check needs at least two sets"):
            symmetric_difference_on_site(f, 1)


class TestLemmas:
    def test_lemma2_star(self):
        f = family_from_index_sets(uniform_star_index_sets(5, 3, 1))
        assert lemma2_check(f) is True

    def test_lemma2_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            f = random_delta_family(rng, int(rng.integers(3, 10)))
            assert lemma2_check(f) is True

    def test_lemma2_precondition(self):
        f = family_from_index_sets([{1, 2}, {2, 3}, {1, 3}])
        with pytest.raises(PreconditionError):
            lemma2_check(f)

    def test_lemma2_needs_three_sites(self):
        f = family_from_index_sets([{1, 2}, {1, 3}])
        with pytest.raises(PreconditionError, match="need at least three sites"):
            lemma2_check(f)

    def test_lemma3_holds_for_delta_families(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = random_delta_family(rng, int(rng.integers(4, 9)))
            assert lemma3_check(f) is True

    def test_lemma3_vacuous_for_non_delta_views(self):
        f = family_from_index_sets(near_sunflower_index_sets(5, 3, 1))
        assert lemma3_check(f) is True

    def test_lemma3_needs_four_sites(self):
        # the classic 3-set family: every 2-set view is trivially a
        # delta-system but the family itself is not
        sets = [{1, 2}, {2, 3}, {1, 3}]
        f = family_from_index_sets(sets)
        assert all(
            is_delta_system(site_view(f, j)).is_delta for j in range(1, 4)
        )
        assert not is_delta_system(edge_pairs(f)).is_delta
        with pytest.raises(PreconditionError):
            lemma3_check(f)


class TestVerifySunflowerProtocol:
    def test_star_family_cost_and_verdict(self):
        f = family_from_index_sets(uniform_star_index_sets(5, 3, 1))
        transcript, verdict = protocol_verify_sunflower(f)
        assert verdict is True
        assert transcript.bit_cost == 4
        assert transcript.edge_cost == 0

    def test_near_sunflower_detected(self):
        f = family_from_index_sets(near_sunflower_index_sets(4, 3, 1))
        transcript, verdict = protocol_verify_sunflower(f)
        assert verdict is False
        assert transcript.bit_cost == 3

    def test_verdict_matches_direct_check(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            s = int(rng.integers(4, 9))
            if rng.random() < 0.5:
                f = random_delta_family(rng, s)
            else:
                f = family_from_index_sets(near_sunflower_index_sets(s, 3, 1))
            transcript, verdict = protocol_verify_sunflower(f)
            assert verdict == is_delta_system(edge_pairs(f)).is_delta
            assert transcript.bit_cost == f.t - 1

    def test_too_few_sites(self):
        f = family_from_index_sets([{1}, {2}, {3}])
        with pytest.raises(PreconditionError):
            protocol_verify_sunflower(f)

    def test_bit_payloads_are_json_integers(self):
        f = family_from_index_sets(near_sunflower_index_sets(6, 3, 1))
        transcript, verdict = protocol_verify_sunflower(f)
        payloads = [w.payload for w in transcript.writes]
        assert verdict is False
        assert set(map(type, payloads)) == {int} and set(payloads) == {0, 1}
        text = json.dumps(transcript.to_dict())
        assert '"payload": 0' in text and '"payload": 1' in text
        assert "true" not in text and "false" not in text


def test_write_is_an_immutable_record_of_six_fields():
    assert Write._fields == ("site", "round", "kind", "payload", "bit_cost", "edge_cost")
    w = Write(3, 1, "bit", 1, 1, 0)
    assert tuple(w) == (3, 1, "bit", 1, 1, 0)
    assert (w.site, w.round, w.kind, w.payload, w.bit_cost, w.edge_cost) == (3, 1, "bit", 1, 1, 0)
    with pytest.raises(AttributeError):
        w.payload = 0
    with pytest.raises(AttributeError):
        del w.site


class TestOverlappingCoefficient:
    def test_identical_sets(self):
        f = family_from_index_sets([{1, 2}] * 3)
        assert overlapping_coefficient(f, 1) == 1.0

    def test_disjoint_sets(self):
        f = family_from_index_sets([{1}, {2}, {3}])
        assert overlapping_coefficient(f, 1) == 0.0

    def test_star_view(self):
        f = family_from_index_sets([{1, 2}, {1, 3}, {1, 4}, {1, 5}])
        # view of site 4: {1,2},{1,3},{1,4} -> 1/4
        assert overlapping_coefficient(f, 4) == pytest.approx(0.25)

    def test_greatest(self):
        f = family_from_index_sets([{1, 2}, {1, 3}, {1, 4}, {1, 5}])
        assert greatest_overlapping_coefficient(f) == pytest.approx(0.25)


class TestBroadcastProtocol:
    def star9(self):
        return family_from_index_sets(uniform_star_index_sets(9, 3, 1))

    def test_cost_formula(self):
        f = self.star9()
        j = 1
        transcript, recon = protocol_broadcast_graph(f, j)
        union = frozenset.union(*site_view(f, j))
        delta = overlapping_coefficient(f, j)
        assert len(union) == 17
        assert transcript.round_edge_cost(1) == 16
        assert transcript.round_edge_cost(1) == pytest.approx(len(union) * (1 - delta))
        assert transcript.edge_cost == 19

    def test_identical_sets_zero_round1(self):
        f = family_from_index_sets([{1, 2, 3}] * 9)
        transcript, recon = protocol_broadcast_graph(f, 2)
        assert transcript.round_edge_cost(1) == 0
        assert transcript.edge_cost == 3

    def test_all_sites_reconstruct_exactly(self):
        f = self.star9()
        for j in (1, 5, 9):
            _, recon = protocol_broadcast_graph(f, j)
            for i, edges in recon.items():
                assert edge_pairs(edges) == edge_pairs(f.base), f"site {i} reconstruction wrong"

    def test_threshold_precondition(self):
        f = family_from_index_sets(uniform_star_index_sets(8, 3, 1))
        with pytest.raises(PreconditionError, match="at least 9"):
            protocol_broadcast_graph(f, 1)

    def test_size_mismatch_precondition(self):
        sets = uniform_star_index_sets(9, 3, 1)
        sets[0].add(999)
        f = family_from_index_sets(sets)
        with pytest.raises(PreconditionError, match="uniform"):
            protocol_broadcast_graph(f, 1)

    def test_not_weak_precondition(self):
        # uniform, but E_1 and E_2 meet in two elements and the rest in one
        f = family_from_index_sets(near_sunflower_index_sets(9, 3, 1))
        with pytest.raises(PreconditionError, match="not a weak delta-system"):
            protocol_broadcast_graph(f, 1)
        with pytest.raises(PreconditionError, match="not a weak delta-system"):
            protocol_sparsifier_exchange(f, 1, epsilon=0.3, seed=0)

    def test_weak_non_sunflower_fails_size_check(self):
        # the triangle family is a uniform weak delta-system (lam = 1) but not
        # a sunflower; Deza allows that only below the size threshold
        f = family_from_index_sets([{1, 2}, {2, 3}, {1, 3}])
        with pytest.raises(PreconditionError, match="at least 5 sites for set size 2, got 3"):
            protocol_broadcast_graph(f, 1)

    def test_two_rounds(self):
        transcript, _ = protocol_broadcast_graph(self.star9(), 3)
        assert transcript.num_rounds == 2


class TestExchangeProtocol:
    def star9(self):
        return family_from_index_sets(uniform_star_index_sets(9, 3, 1))

    def test_two_rounds_and_bound(self):
        f = self.star9()
        transcript, results = protocol_sparsifier_exchange(f, 1, epsilon=0.3, seed=0)
        assert transcript.num_rounds == 2
        for i, u in results.items():
            assert verify_epsilon(f.base, u.h) <= u.epsilon_prime + 1e-9

    def test_identical_sets_round1_empty(self):
        f = family_from_index_sets([{1, 2, 3}] * 9)
        transcript, results = protocol_sparsifier_exchange(f, 1, epsilon=0.3, seed=1)
        assert transcript.round_edge_cost(1) == 0
        assert transcript.round_edge_cost(2) > 0
        assert transcript.num_rounds == 2
        for u in results.values():
            assert verify_epsilon(f.base, u.h) <= u.epsilon_prime + 1e-9

    @pytest.mark.parametrize("s", [2, 9, 197])
    @pytest.mark.parametrize("seed", [0, 1, 3, 12345, 2**40 + 7])
    def test_site_seeds_in_one_draw_are_the_scalar_draws(self, s, seed):
        # the exchange draws its s site seeds as one vector; its reports are
        # those of s scalar draws only while numpy keeps these bitwise equal
        rng = np.random.default_rng(seed)
        scalar = [int(rng.integers(2**63)) for _ in range(s)]
        assert np.random.default_rng(seed).integers(2**63, size=s).tolist() == scalar

    def test_deterministic_transcripts(self):
        f = self.star9()
        t1, r1 = protocol_sparsifier_exchange(f, 2, epsilon=0.4, seed=5)
        t2, r2 = protocol_sparsifier_exchange(f, 2, epsilon=0.4, seed=5)
        assert t1 == t2 and r1 == r2

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            protocol_sparsifier_exchange(self.star9(), 1, epsilon=1.5, seed=0)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")])
    def test_epsilon_rule_is_the_samplers(self, epsilon):
        # one rule, worded once: the exchange refuses what the sampler does
        f = self.star9()
        with pytest.raises(ValueError) as sampler:
            sparsify_er(f.base, epsilon, seed=0)
        with pytest.raises(ValueError) as exchange:
            protocol_sparsifier_exchange(f, 1, epsilon=epsilon, seed=0)
        assert str(exchange.value) == str(sampler.value) == f"epsilon must lie in (0, 1), got {epsilon}"

    def nine_triangles(self):
        """Nine disjoint triangles on n = 27, one per set, each weighted
        (1, 1, 1e-6): the sampler keeps the light edge so rarely that every
        site's local sparsifier of (V, E_j) reweights the two heavy edges by
        its own draw, and no two draws give the same local part."""
        edges = [e for k in range(0, 27, 3) for e in ((k, k + 1, 1.0), (k + 1, k + 2, 1.0), (k, k + 2, 1e-6))]
        sets = tuple(frozenset({(k, k + 1), (k + 1, k + 2), (k, k + 2)}) for k in range(0, 27, 3))
        return EdgeFamily.from_pairs(WeightedGraph(27, edges), sets)

    @pytest.mark.parametrize("j, seed", [(1, 0), (5, 3), (9, 11)])
    def test_distinct_local_parts_match_reference(self, j, seed):
        f = self.nine_triangles()
        _, results = protocol_sparsifier_exchange(f, j, epsilon=0.3, seed=seed)
        assert results == reference_exchange(f, j, 0.3, seed)
        # site j holds the union of the lowest-numbered other site
        assert len({r.h for r in results.values()}) == 8

    @pytest.mark.parametrize("seeds", [[0, 3, 11, 2**62 + 7, 2**64 - 1], list(range(20))])
    def test_site_draws_are_fresh_generator_draws(self, seeds):
        # `_sparsify_each` resets one generator to each seed's state; on
        # (V, E_j) of the triangles the draws miss edges, so each result is
        # its seed's own reweighting and certificate
        f = self.nine_triangles()
        for e_j in edge_pairs(f):
            g_ej = induced_subgraph(f.base, e_j)
            each = _sparsify_each(g_ej, 0.3, seeds)
            assert len(each) == len(seeds)
            for part, seed in zip(each, seeds):
                alone = sparsify_er(g_ej, 0.3, seed)
                assert part.h == alone.h and part.epsilon_certified == alone.epsilon_certified

    def test_stand_in_generator_makes_every_draw(self, monkeypatch):
        # perfbench's tracer swaps `np.random.default_rng` for a generator
        # that counts each `multinomial` draw; one generator serves all seeds
        class Counting(np.random.Generator):
            draws = 0

            def multinomial(self, n, pvals, size=None):
                Counting.draws += 1
                return super().multinomial(n, pvals, size)

        f = self.nine_triangles()
        g_ej = induced_subgraph(f.base, edge_pairs(f)[0])
        seeds = [0, 3, 11, 2**62 + 7]
        expected = _sparsify_each(g_ej, 0.3, seeds)
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: Counting(np.random.PCG64(seed)))
        assert _sparsify_each(g_ej, 0.3, seeds) == expected
        assert Counting.draws == len(seeds)

    @pytest.mark.parametrize("s, ell, lam", [(9, 3, 1), (15, 4, 2), (5, 2, 0), (9, 3, 3)])
    def test_coinciding_local_parts_match_reference(self, s, ell, lam):
        f = family_from_index_sets(uniform_star_index_sets(s, ell, lam))
        for j in (1, 2, s):
            _, results = protocol_sparsifier_exchange(f, j, epsilon=0.3, seed=j)
            assert results == reference_exchange(f, j, 0.3, j)
            # q >> |E_j|: every local part is E_j verbatim
            assert len({r.h for r in results.values()}) == 1

    def test_bit_accounting(self):
        f = self.star9()
        transcript, _ = protocol_sparsifier_exchange(f, 1, epsilon=0.3, seed=0)
        n = f.base.n
        per_edge = 2 * (n - 1).bit_length() + 64
        for w in transcript.writes:
            assert w.bit_cost == w.edge_cost * per_edge

    def test_an_edge_needs_two_vertices(self):
        assert bits_per_edge(2) == 66
        with pytest.raises(ValueError, match="need at least two vertices to encode an edge"):
            bits_per_edge(1)


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize(
    "family, j, epsilon, unions",
    [
        ("star", 5, 0.3, 1),
        ("same", 1, 0.3, 1),
        ("star-sparse", 5, 0.3, 1),
        ("triangles", 5, 0.3, 8),
        ("triangles", 5, 0.05, 6),
        ("triangles-sparse", 5, 0.05, 4),
    ],
)
def test_exchange_forms_one_union_per_distinct_part(monkeypatch, family, j, epsilon, unions):
    """The exchange shares a union among the sites holding one local part
    object. Every draw that keeps all of E_j is the one `whole` result of
    `_sparsify_each`, so on the golden exchanges (seed 3) the unions formed
    are as many as the distinct part graphs."""
    f = load_family(GOLDEN / f"{family}.fam.json")
    e_j = edge_pairs(f)[j - 1]
    g_ej = induced_subgraph(f.base, e_j)
    parts = _sparsify_each(g_ej, epsilon, np.random.default_rng(3).integers(2**63, size=f.t).tolist()[1:])
    whole = [p for p in parts if p.h.m == len(e_j)]
    assert all(p is whole[0] and p.h is g_ej and p.epsilon_certified == 0.0 for p in whole)
    assert len({id(p) for p in parts}) == len({p.h for p in parts}) == unions

    formed = []

    def counting(parts, two_part):
        formed.append(parts)
        return union_sparsifiers(parts, two_part)

    monkeypatch.setattr(nof_mod, "union_sparsifiers", counting)
    _, results = protocol_sparsifier_exchange(f, j, epsilon=epsilon, seed=3)
    assert len(formed) == len({id(u) for u in results.values()}) == unions


def test_one_occurrence_count_per_family(monkeypatch):
    """Building a family counts its occurrences once, in its constructor,
    into one array; the partition, the sunflower verification and the
    broadcast each read that one array object. The exchange builds one more
    family, its two-part allocation, counted once too."""
    built, read = [], []
    post_init = EdgeFamily.__post_init__

    def building(f):
        built.append(f)
        post_init(f)

    def reading(f):
        read.append(f.__dict__["occurrences"])
        return read[-1]

    def storing(f, counts):
        f.__dict__["occurrences"] = counts

    monkeypatch.setattr(EdgeFamily, "__post_init__", building)
    monkeypatch.setattr(EdgeFamily, "occurrences", property(reading, storing), raising=False)
    f = load_family(GOLDEN / "star.fam.json")
    assert len(built) == 1
    for op in (overlapping_cardinality_partition, protocol_verify_sunflower, lambda f: protocol_broadcast_graph(f, 5)):
        before = len(read)
        op(f)
        assert len(read) > before
    assert all(counts is f.__dict__["occurrences"] for counts in read)
    assert len(built) == 1
    protocol_sparsifier_exchange(f, 5, epsilon=0.3, seed=1)
    assert len(built) == 2 and built[0] is f


class TestTranscript:
    def test_json_shape(self):
        f = family_from_index_sets(uniform_star_index_sets(9, 3, 1))
        transcript, _ = protocol_verify_sunflower(f)
        doc = transcript.to_dict()
        assert doc["bit_cost"] == 8
        assert doc["rounds"][0]["round"] == 1
        assert all(w["kind"] == "bit" for w in doc["rounds"][0]["writes"])

    def test_a_round_without_writes_is_listed_and_the_costs_summed(self):
        # writes only in rounds 3 and 1, out of order: round 2 is listed empty
        edges = ((0, 1, 2.0), (1, 2, 0.5))
        writes = (Write(2, 3, BIT, 1, 1, 0), Write(1, 1, WEIGHTED_EDGE_SET, edges, 132, 2), Write(4, 3, BIT, 0, 1, 0))
        transcript = Transcript(writes)
        assert transcript.to_dict() == {
            "rounds": [
                {
                    "round": 1,
                    "writes": [{"site": 1, "kind": WEIGHTED_EDGE_SET, "payload": edges, "bit_cost": 132, "edge_cost": 2}],
                },
                {"round": 2, "writes": []},
                {
                    "round": 3,
                    "writes": [
                        {"site": 2, "kind": BIT, "payload": 1, "bit_cost": 1, "edge_cost": 0},
                        {"site": 4, "kind": BIT, "payload": 0, "bit_cost": 1, "edge_cost": 0},
                    ],
                },
            ],
            "bit_cost": 134,
            "edge_cost": 2,
        }
        assert (transcript.bit_cost, transcript.edge_cost, transcript.num_rounds) == (134, 2, 3)

    def test_no_writes(self):
        assert Transcript(()).to_dict() == {"rounds": [], "bit_cost": 0, "edge_cost": 0}

    def test_bit_writes_are_write_records(self):
        transcript, _ = protocol_verify_sunflower(family_from_index_sets(uniform_star_index_sets(9, 3, 1)))
        assert all(type(w) is Write and w == Write(w.site, 1, BIT, 1, 1, 0) for w in transcript.writes)
        assert [w.site for w in transcript.writes] == list(range(1, 9))
