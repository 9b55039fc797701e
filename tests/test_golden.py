"""Fixed-seed reports stay byte-identical.

`data/golden/g.el` is a planted 3-block graph (n=60, 20 vertices per block,
p_in=0.5, p_out=0.05, weights uniform in [0.1, 3), numpy seed 7). The other
`.el` and report files for it are what the commands below wrote for it with
the per-edge implementation that preceded the array-backed graph: the
sparsifier edge list `h.el` and the `sparsify`, `verify` and `cluster`
reports.

The three families realise element e as the path edge (e, e+1), weighted
`default_rng(11).uniform(0.1, 3, 21)[e]`: `star` is a uniform sunflower
(s=9, set size 3, kernel 1), `twin` its near-sunflower twin, and `same` nine
copies of one 3-edge set, on which the exchange's petal union is empty.
Their `partition` and `nof` reports were written by the implementation in
which the broadcast and exchange protocols built each edge-set write by
hand.

`triangles.el` is nine disjoint triangles on n = 27, each weighted
(1, 1, 1e-6), and `triangles.fam.json` makes each triangle one set: a
sunflower with an empty kernel. Every site's local sparsifier of (V, E_j)
reweights the two heavy edges by its own draw, and keeps the light edge
only at times. Its two `exchange` reports (site 5, seed 3) were written by
the implementation that built a fresh generator for each site's draw. At
eps 0.3 only the round-2 writer's local part shows in the report (every
site's factor is the shared part's); at eps 0.05 about one local draw in
four keeps a light edge, so the per-site edge counts show every site's draw.

`star-sparse` and `triangles-sparse` are `star` and `triangles` with
every vertex id x relabelled 997 x and 739 x, and with the header `n 20000`,
so all but a few dozen vertices are isolated; in `triangles-sparse.el` the
light edges weigh 1e-9, so at eps 0.05 some sites' local draws miss one,
and their certificates run the verifier. Their two `exchange` reports (site
5, seed 3) were written by the implementation that kept every graph's
components as lists of Python ints, filled into its index arrays by a loop
over every component.

`cycle.el` is the 4-cycle 0-1-2-3 and `cycle.fam.json` splits it into the
sets {01, 12} and {23, 03}. `cycle-p1.el` and `cycle-p2.el` are those sets'
exact subgraphs; `cycle-join.el` holds the edge 2-3 alone, which joins two
components of the first set's subgraph (a kernel violation). `loop.el` is a
self-loop, and the `labels-*.json` files are two six-vertex labelings and a
three-vertex one. Their reports (the `laplacian`, `cluster --normalized`,
`union`, `verify` and `cluster compare` rows and the four error objects,
none of whose details holds a file path) were written by the implementation
in which every command built and emitted its own report envelope.

The four multi-component `cluster` rows (`cycle-join.el`, whose components
are {0}, {1} and {2, 3}, at k = 2 and k = 3; `cycle-p1.el`, whose components
are {0, 1, 2} and {3}, at k = 3 plain and normalized) were written by the
implementation whose spectral embedding took one `np.linalg.eigh` of the
whole Laplacian, before the embedding was built per connected component.
The `union` row of the 4-cycle with its exact parts (`union-exact.json`) was
rewritten when `verify_epsilon` began to return exactly 0 for a candidate
equal to its graph: each part certifies 0, so the union's factor is 0.0
rather than eigensolver roundoff. `union-exact.el` is the edge list that
row writes with `--output`: the 4-cycle itself, since c1 = ck = 1 leaves
the parts' weights unscaled, in `dump_graph`'s sorted form.

Each command is rerun here and its output and exit status compared byte for
byte. These runs go through `CliRunner`, which swaps `sys.stdout`; one
report is also written by a fresh `python -m distsparse.cli` process, to a
pipe and to `--out`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from distsparse.cli import main

DATA = Path(__file__).parent / "data" / "golden"
G, H = str(DATA / "g.el"), str(DATA / "h.el")
STAR, TWIN, SAME, CYCLE, TRIANGLES, STAR_SPARSE, TRIANGLES_SPARSE = (
    str(DATA / f"{name}.fam.json")
    for name in ("star", "twin", "same", "cycle", "triangles", "star-sparse", "triangles-sparse")
)
STAR_EL, LOOP, P1, P2, JOIN = (str(DATA / f"{name}.el") for name in ("star", "loop", "cycle-p1", "cycle-p2", "cycle-join"))
LABELS_A, LABELS_B, LABELS_SHORT = (str(DATA / f"labels-{name}.json") for name in ("a", "b", "short"))


def run(args, status=0) -> bytes:
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == status
    return result.stdout_bytes


def test_sparsify_report_and_edge_list(tmp_path):
    out = tmp_path / "h.el"
    report = run(["sparsify", "--graph", G, "--epsilon", "0.5", "--seed", "3", "--constant", "0.5", "--output", str(out)])
    assert report == (DATA / "sparsify.json").read_bytes()
    assert out.read_bytes() == (DATA / "h.el").read_bytes()
    assert (tmp_path / "h.el.json").read_bytes() == (DATA / "sparsify.json").read_bytes()


def test_union_report_and_edge_list(tmp_path):
    out = tmp_path / "u.el"
    report = run(["union", "--family", CYCLE, "--part", P1, "--part", P2, "--output", str(out)])
    assert report == (DATA / "union-exact.json").read_bytes()
    assert out.read_bytes() == (DATA / "union-exact.el").read_bytes()


@pytest.mark.parametrize(
    "name, args",
    [
        ("verify", ["verify", "--graph", G, "--sparsifier", H]),
        ("cluster", ["cluster", "--graph", H, "--k", "3", "--seed", "3"]),
        ("partition-star", ["partition", "--family", STAR]),
        ("partition-twin", ["partition", "--family", TWIN]),
        ("verify-sunflower-star", ["nof", "verify-sunflower", "--family", STAR]),
        ("verify-sunflower-twin", ["nof", "verify-sunflower", "--family", TWIN]),
        ("broadcast-site1", ["nof", "broadcast", "--family", STAR, "--site", "1"]),
        ("broadcast-site5", ["nof", "broadcast", "--family", STAR, "--site", "5"]),
        ("exchange-star", ["nof", "exchange", "--family", STAR, "--site", "5", "--epsilon", "0.3", "--seed", "3"]),
        ("exchange-same", ["nof", "exchange", "--family", SAME, "--site", "1", "--epsilon", "0.3", "--seed", "3"]),
        ("laplacian-star", ["laplacian", "--graph", STAR_EL]),
        ("laplacian-star-normalized", ["laplacian", "--graph", STAR_EL, "--normalized"]),
        ("cluster-normalized", ["cluster", "--graph", H, "--k", "3", "--seed", "3", "--normalized"]),
        ("union-exact", ["union", "--family", CYCLE, "--part", P1, "--part", P2]),
        ("union-kernel-violation", ["union", "--family", CYCLE, "--part", JOIN, "--part", P2]),
        ("verify-kernel-violation", ["verify", "--graph", P1, "--sparsifier", JOIN]),
        ("cluster-compare", ["cluster", "compare", LABELS_A, LABELS_B]),
        ("cluster-join-k2", ["cluster", "--graph", JOIN, "--k", "2", "--seed", "1"]),
        ("cluster-join-k3", ["cluster", "--graph", JOIN, "--k", "3", "--seed", "1"]),
        ("cluster-p1-k3", ["cluster", "--graph", P1, "--k", "3", "--seed", "0"]),
        ("cluster-p1-k3-normalized", ["cluster", "--graph", P1, "--k", "3", "--seed", "0", "--normalized"]),
        ("error-parse", ["laplacian", "--graph", LOOP]),
        ("error-invalid-value", ["sparsify", "--graph", G, "--epsilon", "2.0"]),
        ("error-precondition", ["nof", "broadcast", "--family", TWIN, "--site", "1"]),
        ("error-dimension-mismatch", ["cluster", "compare", LABELS_A, LABELS_SHORT]),
        ("exchange-triangles", ["nof", "exchange", "--family", TRIANGLES, "--site", "5", "--epsilon", "0.3", "--seed", "3"]),
        (
            "exchange-triangles-eps0.05",
            ["nof", "exchange", "--family", TRIANGLES, "--site", "5", "--epsilon", "0.05", "--seed", "3"],
        ),
        ("exchange-star-sparse", ["nof", "exchange", "--family", STAR_SPARSE, "--site", "5", "--epsilon", "0.3", "--seed", "3"]),
        (
            "exchange-triangles-sparse-eps0.05",
            ["nof", "exchange", "--family", TRIANGLES_SPARSE, "--site", "5", "--epsilon", "0.05", "--seed", "3"],
        ),
    ],
)
def test_report(name, args):
    status = 1 if name.startswith("error-") else 0
    assert run(args, status) == (DATA / f"{name}.json").read_bytes()


@pytest.mark.parametrize("to_file", [False, True], ids=["pipe", "out"])
def test_report_from_a_fresh_process(tmp_path, to_file):
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "distsparse.cli", "nof", "broadcast", "--family", STAR, "--site", "5"]
    out = tmp_path / "report.json"
    if to_file:
        args += ["--out", str(out)]
    result = subprocess.run(args, env=env, stdout=subprocess.PIPE, timeout=120)
    assert result.returncode == 0
    written = out.read_bytes() if to_file else result.stdout
    assert written == (DATA / "broadcast-site5.json").read_bytes()
    if to_file:
        assert result.stdout == b""
