"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math

import numpy as np
import pytest

from distsparse import (
    ClusterAssignment,
    SparsifierResult,
    WeightedGraph,
    adjusted_rand_index,
    combined_laplacian_residual,
    connected_components,
    induced_subgraph,
    is_delta_system,
    laplacian,
    lemma2_check,
    lemma3_check,
    occurrence_number,
    overlapping_cardinality,
    overlapping_cardinality_partition,
    overlapping_coefficient,
    protocol_broadcast_graph,
    protocol_sparsifier_exchange,
    protocol_verify_sunflower,
    site_view,
    sparsify_er,
    spectral_clustering,
    union_sparsifiers,
    verify_epsilon,
    epsilon_prime,
)
from distsparse.errors import PreconditionError
from conftest import (
    edge_pairs,
    EXAMPLE1_SETS,
    block_star_family,
    elem_edge,
    family_from_index_sets,
    near_sunflower_index_sets,
    planted_three_block_graph,
    random_covering_family,
    random_delta_family,
    random_graph,
    star_family_over_graph,
    uniform_star_index_sets,
)


def report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def exact_parts(f):
    return [
        SparsifierResult(h=induced_subgraph(f.base, s), epsilon_certified=0.0)
        for s in edge_pairs(f)
    ]


def test_criterion_1_worked_examples():
    f = family_from_index_sets(EXAMPLE1_SETS)
    expected_occ = {1: 4, 2: 5, 3: 5, 5: 3, 6: 2, 7: 2}
    for elem, occ in expected_occ.items():
        assert occurrence_number(f, elem_edge(elem)) == occ
    assert overlapping_cardinality(f, [elem_edge(1), elem_edge(4)]) == 4
    assert overlapping_cardinality(f, [elem_edge(e) for e in (1, 2, 3)]) == 0
    part = overlapping_cardinality_partition(f)
    assert [c for c, _ in part] == [2, 3, 4, 5]
    expected_classes = {
        2: frozenset({elem_edge(6), elem_edge(7)}),
        3: frozenset({elem_edge(5)}),
        4: frozenset({elem_edge(1), elem_edge(4)}),
        5: frozenset({elem_edge(2), elem_edge(3)}),
    }
    assert {c: edge_pairs(cls) for c, cls in part} == expected_classes
    report(1, "worked examples")


def test_criterion_2_laplacian_decomposition_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        g = random_graph(rng, n, p=float(rng.uniform(0.05, 0.5)))
        f = random_covering_family(rng, g, int(rng.integers(1, 9)))
        worst = max(worst, combined_laplacian_residual(f))
    assert worst <= 1e-9, f"worst residual {worst}"
    report(2, "Laplacian decomposition identity")


def test_criterion_3_union_bound_soundness():
    rng = np.random.default_rng(31)
    for trial in range(200):
        n = int(rng.integers(4, 31))
        g = random_graph(rng, n, p=float(rng.uniform(0.2, 0.7)))
        t = int(rng.integers(1, 6))
        f = random_covering_family(rng, g, t)

        u = union_sparsifiers(exact_parts(f), f)
        assert verify_epsilon(g, u.h) <= u.epsilon_prime + 1e-9, f"exact trial {trial}"

        er_parts = [
            sparsify_er(induced_subgraph(g, s), 0.5, seed=int(rng.integers(2**31)))
            for s in edge_pairs(f)
        ]
        u2 = union_sparsifiers(er_parts, f)
        assert verify_epsilon(g, u2.h) <= u2.epsilon_prime + 1e-9, f"sampled trial {trial}"

    # tightness witness: duplicated allocation with exact parts
    g = random_graph(np.random.default_rng(5), 12, p=0.5)
    from distsparse import EdgeFamily

    f = EdgeFamily.from_pairs(g, (edge_pairs(g), edge_pairs(g)))
    u = union_sparsifiers(exact_parts(f), f)
    assert abs(verify_epsilon(g, u.h) - 0.5) <= 1e-9
    assert abs(u.epsilon_prime - epsilon_prime(0.0, 2, 2)) <= 1e-9
    assert abs(u.epsilon_prime - 0.5) <= 1e-9
    report(3, "union sparsifier bound")


def test_criterion_4_verifier_exactness():
    rng = np.random.default_rng(44)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(3, 16)), p=0.5)
        for alpha in (0.5, 0.9, 1.5, 2.0):
            h = WeightedGraph(g.n, tuple((u, v, alpha * w) for u, v, w in g.edges))
            assert abs(verify_epsilon(g, h) - abs(alpha - 1)) <= 1e-9

    for _ in range(20):
        g = random_graph(rng, int(rng.integers(4, 16)), p=0.6)
        pairs = sorted(edge_pairs(g))
        keep = [p for p in pairs if rng.random() < 0.8] or pairs[:1]
        h = induced_subgraph(g, keep)
        eps = verify_epsilon(g, h)
        X = rng.normal(size=(100_000, g.n))
        Lg, Lh = laplacian(g), laplacian(h)
        num = np.einsum("ij,jk,ik->i", X, Lh, X)
        den = np.einsum("ij,jk,ik->i", X, Lg, X)
        mask = den > 1e-12
        ratio = num[mask] / den[mask]
        sampled = max(1 - ratio.min(), ratio.max() - 1, 0.0)
        assert eps >= sampled - 1e-9
    report(4, "verifier exactness")


def test_criterion_5_er_sparsification_quality():
    n = 40
    g = WeightedGraph(n, tuple((u, v, 1.0) for u in range(n) for v in range(u + 1, n)))
    budget = math.ceil(9 * n * math.log(n) / 0.25)
    good = 0
    for seed in range(100):
        res = sparsify_er(g, 0.5, seed=seed)
        assert res.h.m <= budget
        if res.epsilon_certified <= 0.5:
            good += 1
    assert good >= 95, f"only {good}/100 seeds met the target"
    report(5, f"ER sparsification quality ({good}/100 seeds)")


def test_criterion_6_sunflower_verification_protocol():
    rng = np.random.default_rng(66)
    for trial in range(500):
        s = int(rng.integers(4, 11))
        kind = trial % 3
        if kind == 0:
            f = random_delta_family(rng, s)
        elif kind == 1:
            ell = int(rng.integers(2, 5))
            lam = int(rng.integers(0, ell))
            f = family_from_index_sets(near_sunflower_index_sets(s, ell, lam))
        else:
            sets = [
                set(int(x) for x in rng.choice(15, size=int(rng.integers(1, 6)), replace=False))
                for _ in range(s)
            ]
            f = family_from_index_sets([{e + 1 for e in st} for st in sets])
        transcript, verdict = protocol_verify_sunflower(f)
        assert transcript.bit_cost == f.t - 1
        assert verdict == is_delta_system(edge_pairs(f)).is_delta, f"trial {trial}"
    report(6, "sunflower verification protocol")


def test_criterion_7_broadcast_cost_formula():
    rng = np.random.default_rng(77)
    for trial in range(100):
        ell = int(rng.integers(2, 4))
        lam = int(rng.integers(0, ell + 1))
        s = ell * ell - ell + 3 + int(rng.integers(0, 4))
        f = family_from_index_sets(uniform_star_index_sets(s, ell, lam))
        j = int(rng.integers(1, s + 1))
        transcript, recon = protocol_broadcast_graph(f, j)
        union = frozenset.union(*site_view(f, j))
        delta = overlapping_coefficient(f, j)
        r1 = transcript.round_edge_cost(1)
        assert r1 == len(union) - lam
        assert abs(r1 - len(union) * (1 - delta)) < 1e-9
        assert transcript.edge_cost == r1 + ell
        for i, edges in recon.items():
            assert edge_pairs(edges) == edge_pairs(f.base), f"site {i} reconstruction, trial {trial}"
    report(7, "broadcast cost formula")


def test_criterion_8_two_round_exchange():
    rng = np.random.default_rng(88)
    f, _labels = block_star_family(rng, n=30, s=9, ell=3)
    g = f.base
    for seed in range(20):
        transcript, results = protocol_sparsifier_exchange(f, 1, epsilon=0.3, seed=seed)
        assert transcript.num_rounds == 2
        for i, u in results.items():
            assert (
                verify_epsilon(g, u.h) <= u.epsilon_prime + 1e-9
            ), f"site {i} seed {seed}"
    report(8, "two-round sparsifier exchange")


def test_criterion_9_clustering_application():
    rng = np.random.default_rng(7)
    g, _labels = planted_three_block_graph(rng)
    f = star_family_over_graph(g)
    good = 0
    for seed in range(20):
        _, results = protocol_sparsifier_exchange(f, 1, epsilon=0.3, seed=seed)
        h = results[2].h  # any site other than the round-1 writer
        a = spectral_clustering(g, 3, seed=seed)
        b = spectral_clustering(h, 3, seed=seed)
        if adjusted_rand_index(a, b) >= 0.9:
            good += 1
    assert good >= 18, f"only {good}/20 seeds agreed"

    triangles = WeightedGraph(
        6,
        (
            (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
            (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
        ),
    )
    truth = ClusterAssignment((0, 0, 0, 1, 1, 1), 2)
    for seed in range(20):
        a = spectral_clustering(triangles, 2, seed=seed)
        assert adjusted_rand_index(a, truth) == 1.0
    report(9, f"clustering application ({good}/20 seeds)")


def test_criterion_10_lemma_property_suites():
    rng = np.random.default_rng(110)
    for _ in range(1000):
        f = random_delta_family(rng, int(rng.integers(3, 11)))
        assert lemma2_check(f) is True

    for trial in range(1000):
        s = int(rng.integers(4, 11))
        if trial % 2 == 0:
            f = random_delta_family(rng, s)
        else:
            sets = [
                {int(x) + 1 for x in rng.choice(12, size=int(rng.integers(1, 5)), replace=False)}
                for _ in range(s)
            ]
            f = family_from_index_sets(sets)
        assert lemma3_check(f) is True

    # why four sites are required: with s = 3 every view is trivially a
    # sunflower but the family {1,2},{2,3},{1,3} is not
    f3 = family_from_index_sets([{1, 2}, {2, 3}, {1, 3}])
    assert all(is_delta_system(site_view(f3, j)).is_delta for j in (1, 2, 3))
    assert not is_delta_system(edge_pairs(f3)).is_delta
    with pytest.raises(PreconditionError):
        lemma3_check(f3)
    report(10, "sunflower lemma property suites")
