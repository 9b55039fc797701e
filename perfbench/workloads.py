"""Seeded inputs, the fixed command pass and the per-op output checks.

Everything here is benchmark code: the program under test only ever sees
the edge-list and family files written by `build_inputs`.

Each workload has a graph (for sparsify, verify, cluster) and a star family
with its near-sunflower twin (for the nof commands), so that every pass runs
all seven commands and every end-to-end metric is measured on every
workload; BENCHMARK.json says which layer each workload stresses.
Edge counts are drawn exactly (fixed m per block pair) rather than per pair,
so a different seed changes which edges exist but not how many: the
workload size, and with it the run time, is the same for every seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WEIGHT_LOW, WEIGHT_HIGH = 0.1, 3.0
SPARSIFY_EPS = 0.5
EXCHANGE_EPS = 0.3
K = 3

# name -> graph spec, family spec and reps. A graph spec is (block sizes,
# p_in, p_out); the family spec is the planted 3-block graph the star family
# covers. reps = how often a pass repeats (sparsify, verify, cluster), the
# two verify-sunflower runs, and (broadcast, exchange): the light commands
# repeat so that they, too, get enough samples in a run.
WORKLOADS = {
    # graph commands: one dense weighted component, m ~ 208k, q ~ 192k < m;
    # nof commands: a small star family (s = 83)
    "er-dense": {"graph": ((267, 267, 266), 0.95, 0.5), "family": ((8, 8, 8), 0.9, 0.05), "reps": (1, 4, 4)},
    # graph commands: three disconnected G(n_i, 0.06) blocks, n = 1500,
    # m ~ 30k; nof commands: the star family over the planted 3-block graph
    # at n = 36 (s = 197)
    "er-split": {"graph": ((900, 400, 200), 0.06, 0.0), "family": ((12, 12, 12), 0.9, 0.05), "reps": (2, 2, 6)},
}

# structural promises, asserted on every generated input
PROMISES = {
    "er-dense": {"components": 1, "s": 83},
    "er-split": {"components": 3, "s": 197},
}


@dataclass(frozen=True)
class Inputs:
    """Paths of the generated files plus what the checks need to know."""

    graph: str
    n: int
    m: int
    labels: tuple[int, ...]
    star: str
    twin: str
    star_n: int
    star_pairs: frozenset
    kernel: tuple[int, int]
    petals: tuple[tuple[int, int], ...]
    star_weights: dict

    @property
    def s(self) -> int:
        return len(self.petals)


def planted_graph(rng, sizes, p_in, p_out):
    """Weighted planted-block graph with exactly round(p * pairs) edges
    inside each block and between each pair of blocks."""
    starts = np.cumsum((0,) + tuple(sizes))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    us, vs = [], []
    for a in range(len(sizes)):
        for b in range(a, len(sizes)):
            p = p_in if a == b else p_out
            if a == b:
                iu, iv = np.triu_indices(sizes[a], k=1)
            else:
                iu, iv = np.divmod(np.arange(sizes[a] * sizes[b]), sizes[b])
            pairs = len(iu)
            take = int(round(p * pairs))
            if take == 0:
                continue
            pick = np.sort(rng.choice(pairs, size=take, replace=False))
            us.append(iu[pick] + starts[a])
            vs.append(iv[pick] + starts[b])
    u = np.concatenate(us)
    v = np.concatenate(vs)
    w = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=len(u))
    return int(starts[-1]), u, v, w, labels


def component_count(n, u, v) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return sum(1 for x in range(n) if find(x) == x)


def write_edge_list(path, n, triples):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {n}\n")
        fh.write("".join(f"{a} {b} {c!r}\n" for a, b, c in triples))


def build_inputs(name: str, seed: int, workdir: str) -> Inputs:
    """Write the workload's files under `workdir` and assert their shape."""
    spec, promise = WORKLOADS[name], PROMISES[name]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))

    n, u, v, w, labels = planted_graph(rng, *spec["graph"])
    if component_count(n, u, v) != promise["components"]:
        raise AssertionError(f"{name}: expected {promise['components']} component(s)")
    graph = os.path.join(workdir, "g.el")
    write_edge_list(graph, n, zip(u.tolist(), v.tolist(), w.tolist()))

    # star family: kernel = first edge, one private petal edge per site
    sn, su, sv, sw, _ = planted_graph(rng, *spec["family"])
    triples = sorted(zip(su.tolist(), sv.tolist(), sw.tolist()))
    pairs = [(a, b) for a, b, _ in triples]
    kernel, petals = pairs[0], tuple(pairs[1:])
    if len(petals) != promise["s"]:
        raise AssertionError(f"{name}: expected s={promise['s']} sites, got {len(petals)}")
    write_edge_list(os.path.join(workdir, "star.el"), sn, triples)
    star_sets = [[kernel, p] for p in petals]
    with open(os.path.join(workdir, "star.json"), "w", encoding="utf-8") as fh:
        json.dump({"graph": "star.el", "sets": star_sets}, fh)

    # near-sunflower twin: sites 1 and 2 swap their private petal for one
    # shared new edge, so exactly one pair meets beyond the kernel
    present = set(pairs)
    extra = next((a, b) for a in range(sn) for b in range(a + 1, sn) if (a, b) not in present)
    dropped = {petals[0], petals[1]}
    twin_triples = sorted([t for t in triples if (t[0], t[1]) not in dropped] + [(*extra, 1.0)])
    write_edge_list(os.path.join(workdir, "twin.el"), sn, twin_triples)
    twin_sets = [[kernel, extra], [kernel, extra]] + star_sets[2:]
    with open(os.path.join(workdir, "twin.json"), "w", encoding="utf-8") as fh:
        json.dump({"graph": "twin.el", "sets": twin_sets}, fh)

    return Inputs(
        graph=graph,
        n=n,
        m=len(u),
        labels=tuple(labels.tolist()),
        star=os.path.join(workdir, "star.json"),
        twin=os.path.join(workdir, "twin.json"),
        star_n=sn,
        star_pairs=frozenset(pairs),
        kernel=kernel,
        petals=petals,
        star_weights={(a, b): c for a, b, c in triples},
    )


def op_seed(seed: int, k: int, rep: int) -> int:
    """The `--seed` of repetition `rep` in pass k, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k, rep]).generate_state(1)[0])


def pass_ops(inp: Inputs, seed: int, k: int, workdir: str, reps=(1, 1, 1)):
    """The fixed command pass k: (kind, argv) in the order they run."""
    h = os.path.join(workdir, "h.el")
    ops = []
    for rep in range(reps[0]):
        ps = str(op_seed(seed, k, rep))
        ops += [
            ("sparsify", ["sparsify", "--graph", inp.graph, "--epsilon", str(SPARSIFY_EPS), "--seed", ps, "--output", h]),
            ("verify", ["verify", "--graph", inp.graph, "--sparsifier", h]),
            ("cluster", ["cluster", "--graph", h, "--k", str(K), "--seed", ps]),
        ]
    for _ in range(reps[1]):
        ops += [
            ("sunflower", ["nof", "verify-sunflower", "--family", inp.star]),
            ("nonsunflower", ["nof", "verify-sunflower", "--family", inp.twin]),
        ]
    for rep in range(reps[2]):
        ps = op_seed(seed, k, rep)
        site = str(1 + ps % inp.s)
        ops += [
            ("broadcast", ["nof", "broadcast", "--family", inp.star, "--site", site]),
            ("exchange", ["nof", "exchange", "--family", inp.star, "--site", site, "--epsilon", str(EXCHANGE_EPS), "--seed", str(ps)]),
        ]
    return ops


class Checker:
    """Per-op output checks. Each returns an error string or None; state
    carried between ops of one pass (the sparsifier's certificate) lives
    here."""

    def __init__(self, inp: Inputs):
        self.inp = inp
        self.certified = None

    def __call__(self, kind: str, argv, doc: dict) -> str | None:
        if "error" in doc:
            return f"{kind}: error report {doc}"
        return getattr(self, "_" + kind)(argv, doc)

    def _sparsify(self, argv, doc):
        self.certified = doc["epsilon_certified"]
        if self.certified is None or not math.isfinite(self.certified) or self.certified < 0:
            return f"sparsify: bad certificate {self.certified}"
        if not 0 < doc["edges"] <= self.inp.m:
            return f"sparsify: {doc['edges']} edges for m={self.inp.m}"
        return None

    def _verify(self, argv, doc):
        eps = doc["epsilon_certified"]
        if self.certified is None or eps is None:
            return f"verify: certificate {eps} against sparsify's {self.certified}"
        if not math.isclose(eps, self.certified, rel_tol=1e-9, abs_tol=1e-12):
            return f"verify: {eps!r} != sparsify's {self.certified!r}"
        return None

    def _cluster(self, argv, doc):
        labels = doc["labels"]
        if doc["k"] != K or len(labels) != self.inp.n or set(labels) != set(range(K)):
            return f"cluster: {len(labels)} labels over ids {sorted(set(labels))[:10]}"
        return None

    def _sunflower_verdict(self, doc, expected):
        if doc["verdict"] is not expected:
            return f"verify-sunflower: verdict {doc['verdict']}, expected {expected}"
        if doc["bit_cost"] != self.inp.s - 1:
            return f"verify-sunflower: bit_cost {doc['bit_cost']} != s-1 = {self.inp.s - 1}"
        return None

    def _sunflower(self, argv, doc):
        return self._sunflower_verdict(doc, True)

    def _nonsunflower(self, argv, doc):
        return self._sunflower_verdict(doc, False)

    def _site_parts(self, argv):
        j = int(argv[argv.index("--site") + 1])
        e_j = {self.inp.kernel, self.inp.petals[j - 1]}
        delta_j = set(self.inp.petals) - e_j
        return j, delta_j, e_j

    def _broadcast(self, argv, doc):
        j, delta_j, e_j = self._site_parts(argv)
        full = sorted(self.inp.star_pairs)
        recon = doc["reconstructions"]
        if [r["site"] for r in recon] != list(range(1, self.inp.s + 1)):
            return "broadcast: not one reconstruction per site"
        for r in recon:
            if [tuple(e) for e in r["edges"]] != full:
                return f"broadcast: site {r['site']} reconstructs a different edge set"
        if doc["edge_cost"] != len(delta_j) + len(e_j):
            return f"broadcast: edge_cost {doc['edge_cost']} != |delta_j| + |E_j| = {len(delta_j) + len(e_j)}"
        return None

    def _exchange(self, argv, doc):
        import distsparse as ds

        j, delta_j, e_j = self._site_parts(argv)
        sites = {x["site"]: x for x in doc["sites"]}
        if sorted(sites) != list(range(1, self.inp.s + 1)):
            return "exchange: not one graph per site"
        if doc["epsilon_prime"] != max(x["epsilon_prime"] for x in sites.values()):
            return "exchange: epsilon_prime is not the maximum over sites"
        # both written parts, certified independently against their source
        writes = {r["round"]: r["writes"][0]["payload"] for r in doc["rounds"]}
        n, wts = self.inp.star_n, self.inp.star_weights
        eps_parts, m_parts = [], []
        for part, payload in ((delta_j, writes[1]), (e_j, writes[2])):
            src = ds.WeightedGraph(n, tuple((a, b, wts[(a, b)]) for a, b in sorted(part)))
            h = ds.WeightedGraph(n, tuple((a, b, w) for a, b, w in payload))
            if not h.pairs() <= src.pairs():
                return "exchange: a written part has edges outside its source"
            eps_parts.append(ds.verify_epsilon(src, h))
            m_parts.append(h.m)
        # delta_j and E_j are disjoint, so every edge occurs once: c1 = ck = 1
        expected_j = ds.epsilon_prime(max(eps_parts), 1, 1)
        if not math.isclose(sites[j]["epsilon_prime"], expected_j, rel_tol=1e-9, abs_tol=1e-12):
            return f"exchange: site {j} holds eps' {sites[j]['epsilon_prime']}, parts give {expected_j}"
        if sites[j]["edges"] != sum(m_parts):
            return f"exchange: site {j} holds {sites[j]['edges']} edges, parts give {sum(m_parts)}"
        floor = ds.epsilon_prime(eps_parts[0], 1, 1)
        for i, x in sites.items():
            if x["epsilon_prime"] < floor - 1e-12 or not m_parts[0] < x["edges"] <= m_parts[0] + len(e_j):
                return f"exchange: site {i} holds eps' {x['epsilon_prime']} over {x['edges']} edges"
        return None
