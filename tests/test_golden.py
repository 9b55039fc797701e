"""Fixed-seed reports stay byte-identical.

`data/golden/g.el` is a planted 3-block graph (n=60, 20 vertices per block,
p_in=0.5, p_out=0.05, weights uniform in [0.1, 3), numpy seed 7: with
`rng = default_rng(7)`, each pair i < j in order keeps its edge when
`rng.random() < p` and then draws its weight `rng.uniform(0.1, 3)`). The other
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

`planted.el` is the same generator at n=90 (30 vertices per block, the
same p_in, p_out, weights and seed): 20 278 bytes, at least `_BY_PATH_BYTES`,
so numpy reads it by path, where every other golden edge list is parsed
from memory. Its `sparsify` report (eps 0.5, seed 3, C 0.5), whose sample
and certified factor move with any edge or weight the reader gets wrong,
was written by the implementation that shared exchange unions by part
identity.

`star-shuffled.fam.json` is `star.fam.json` with every other pair written
[v, u], each set's pairs rotated (and some reversed in order), the kernel
pair repeated in set 0 as itself and reversed, and one petal pair repeated
in set 4. `outside.fam.json` is over `star.el`; its set 1 holds pairs that
are not base edges ([6, 4], a negative id and an id of 2**64) and a later set
is empty, so the error names set 1. Their `partition`, site-5 `broadcast`
and error reports were written by the implementation that kept every family
set as a frozenset of (u, v) pairs; the first two are byte for byte
`partition-star.json` and `broadcast-site5.json`.

Each command runs in a fresh interpreter through the body of the console
script that `pyproject.toml` declares, `sys.exit(main())` after
`from distsparse.cli import main`, with `src` on `PYTHONPATH`. Its exit
status, its stdout and every file it writes are compared byte for byte with
the golden files, and its stderr must be empty. So a new report is pinned
by one row of `test_report`. One report is also written by
`python -m distsparse.cli`, to a pipe and to `--out`.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DATA = ROOT / "tests" / "data" / "golden"
G, H = str(DATA / "g.el"), str(DATA / "h.el")
STAR, TWIN, SAME, CYCLE, TRIANGLES, STAR_SPARSE, TRIANGLES_SPARSE = (
    str(DATA / f"{name}.fam.json")
    for name in ("star", "twin", "same", "cycle", "triangles", "star-sparse", "triangles-sparse")
)
STAR_SHUFFLED, OUTSIDE = (str(DATA / f"{name}.fam.json") for name in ("star-shuffled", "outside"))
STAR_EL, LOOP, P1, P2, JOIN, PLANTED = (
    str(DATA / f"{name}.el") for name in ("star", "loop", "cycle-p1", "cycle-p2", "cycle-join", "planted")
)
LABELS_A, LABELS_B, LABELS_SHORT = (str(DATA / f"labels-{name}.json") for name in ("a", "b", "short"))

# the body of the console script that pyproject.toml declares
_MODULE, _FUNC = re.search(
    r'^distsparse = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.MULTILINE
).groups()
SCRIPT = f"import sys; from {_MODULE} import {_FUNC}; sys.exit({_FUNC}())"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run(args, golden, status=0, files=()):
    """Run the console script on `args` in a fresh interpreter: it exits
    with `status`, writes the golden report `golden` to stdout and nothing
    to stderr, and each (path, golden) of `files` holds that golden file."""
    result = subprocess.run([sys.executable, "-c", SCRIPT, *args], env=ENV, capture_output=True, timeout=120)
    assert (result.returncode, result.stderr.decode()) == (status, "")
    assert result.stdout == (DATA / golden).read_bytes()
    for path, name in files:
        assert path.read_bytes() == (DATA / name).read_bytes()


def test_sparsify_report_and_edge_list(tmp_path):
    out = tmp_path / "h.el"
    args = ["sparsify", "--graph", G, "--epsilon", "0.5", "--seed", "3", "--constant", "0.5", "--output", str(out)]
    run(args, "sparsify.json", files=[(out, "h.el"), (tmp_path / "h.el.json", "sparsify.json")])


def test_union_report_and_edge_list(tmp_path):
    out = tmp_path / "u.el"
    run(["union", "--family", CYCLE, "--part", P1, "--part", P2, "--output", str(out)], "union-exact.json",
        files=[(out, "union-exact.el")])


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
        ("sparsify-planted", ["sparsify", "--graph", PLANTED, "--epsilon", "0.5", "--seed", "3", "--constant", "0.5"]),
        ("partition-star-shuffled", ["partition", "--family", STAR_SHUFFLED]),
        ("broadcast-star-shuffled-site5", ["nof", "broadcast", "--family", STAR_SHUFFLED, "--site", "5"]),
        ("error-parse-family", ["partition", "--family", OUTSIDE]),
    ],
)
def test_report(name, args):
    run(args, f"{name}.json", status=1 if name.startswith("error-") else 0)


@pytest.mark.parametrize("to_file", [False, True], ids=["pipe", "out"])
def test_report_from_a_fresh_process(tmp_path, to_file):
    args = [sys.executable, "-m", "distsparse.cli", "nof", "broadcast", "--family", STAR, "--site", "5"]
    out = tmp_path / "report.json"
    if to_file:
        args += ["--out", str(out)]
    result = subprocess.run(args, env=ENV, stdout=subprocess.PIPE, timeout=120)
    assert result.returncode == 0
    written = out.read_bytes() if to_file else result.stdout
    assert written == (DATA / "broadcast-site5.json").read_bytes()
    if to_file:
        assert result.stdout == b""
