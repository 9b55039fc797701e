"""Fixed-seed reports stay byte-identical.

`data/golden/g.el` is a planted 3-block graph (n=60, 20 vertices per block,
p_in=0.5, p_out=0.05, weights uniform in [0.1, 3), numpy seed 7). The other
files there are what the commands below wrote for it with the per-edge
implementation that preceded the array-backed graph: the sparsifier edge
list `h.el` and the `sparsify`, `verify` and `cluster` reports. Each
command is rerun here and its output compared byte for byte.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from distsparse.cli import main

DATA = Path(__file__).parent / "data" / "golden"
G, H = str(DATA / "g.el"), str(DATA / "h.el")


def run(args) -> bytes:
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0
    return result.stdout_bytes


def test_sparsify_report_and_edge_list(tmp_path):
    out = tmp_path / "h.el"
    report = run(["sparsify", "--graph", G, "--epsilon", "0.5", "--seed", "3", "--constant", "0.5", "--output", str(out)])
    assert report == (DATA / "sparsify.json").read_bytes()
    assert out.read_bytes() == (DATA / "h.el").read_bytes()
    assert (tmp_path / "h.el.json").read_bytes() == (DATA / "sparsify.json").read_bytes()


@pytest.mark.parametrize(
    "name, args",
    [
        ("verify", ["verify", "--graph", G, "--sparsifier", H]),
        ("cluster", ["cluster", "--graph", H, "--k", "3", "--seed", "3"]),
    ],
)
def test_report(name, args):
    assert run(args) == (DATA / f"{name}.json").read_bytes()
