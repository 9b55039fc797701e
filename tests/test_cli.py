import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distsparse import SparsifierResult, WeightedGraph, deza_threshold, dump_graph
from distsparse import cli, graph, nof
from distsparse.cli import main
from conftest import (
    EXAMPLE1_SETS,
    _view_petals,
    family_from_index_sets,
    reference_broadcast,
    reference_exchange,
    uniform_star_index_sets,
)


@pytest.fixture
def runner():
    return CliRunner()


def write_graph(path, g):
    path.write_text(dump_graph(g))
    return str(path)


def write_family(tmp_path, f, name="fam"):
    gpath = tmp_path / f"{name}.el"
    gpath.write_text(dump_graph(f.base))
    doc = {"graph": f"{name}.el", "sets": [[list(e) for e in sorted(s)] for s in f.sets]}
    fpath = tmp_path / f"{name}.json"
    fpath.write_text(json.dumps(doc))
    return str(fpath)


def base_weighted(f, edges):
    """`edges` as the sorted [u, v, w] lists of their base-graph weights."""
    weight = {(u, v): w for u, v, w in f.base.edges}
    return [[u, v, weight[u, v]] for u, v in sorted(edges)]


def run_json(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result, json.loads(result.output) if result.output else None


TRIANGLE = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))


class TestLaplacianCmd:
    def test_matrix(self, runner, tmp_path):
        gp = write_graph(tmp_path / "g.el", TRIANGLE)
        result, doc = run_json(runner, ["laplacian", "--graph", gp])
        assert result.exit_code == 0
        assert doc["schema"] == 1
        assert doc["matrix"][0] == [2.0, -1.0, -1.0]

    def test_parse_error_object(self, runner, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("0 0 1.0\n")
        result, doc = run_json(runner, ["laplacian", "--graph", str(p)])
        assert result.exit_code == 1
        assert doc["error"] == "parse"
        assert "self-loop" in doc["detail"]

    @pytest.mark.parametrize(
        "text, detail",
        [
            (b"0 1 inf\n", "line 1: weight must be finite, got inf"),
            (b"0 1 1e999\n", "line 1: weight must be finite, got inf"),
            (b"n 3\n0 1 1.0\n1 2 Infinity\n", "line 3: weight must be finite, got inf"),
            (b"0 1 1.0\n1 2 \xff\n", "invalid edge list in {path}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
        ],
    )
    @pytest.mark.parametrize("cmd", [["laplacian"], ["cluster", "--k", "2"], ["sparsify", "--epsilon", "0.5"]])
    def test_edge_list_parse_errors(self, tmp_path, cmd, text, detail):
        p = tmp_path / "bad.el"
        p.write_bytes(text)
        result = invoke([*cmd, "--graph", str(p)])
        check_contract(result)
        assert json.loads(result.stdout) == {"error": "parse", "detail": detail.format(path=p)}

    def test_missing_file_is_io_error(self, runner):
        result, doc = run_json(runner, ["laplacian", "--graph", "/nonexistent.el"])
        assert result.exit_code == 1
        assert doc["error"] == "io"

    def test_oversized_graph_is_memory_error(self, runner, tmp_path):
        # the dense-size check refuses 4 n x n arrays (27.8 EiB) before allocating anything
        p = tmp_path / "big.el"
        p.write_text("n 1000000000\n")
        result, doc = run_json(runner, ["laplacian", "--graph", str(p)])
        assert result.exit_code == 1
        assert doc["error"] == "memory"
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["laplacian"],
            ["laplacian", "--normalized"],
            ["sparsify", "--epsilon", "0.5"],
            ["verify", "--sparsifier", "half.el"],
            ["cluster", "--k", "2"],
        ],
    )
    def test_graph_beyond_physical_memory_is_memory_error(self, runner, tmp_path, monkeypatch, args):
        # four 101 x 101 float64 arrays (326 432 bytes) do not fit in 320 000
        monkeypatch.setattr(graph, "_physical_memory", lambda: 320_000)
        monkeypatch.chdir(tmp_path)
        # the path on 101 vertices: one component, so `cluster` needs the Laplacian
        path = [f"{x} {x + 1} 1.0\n" for x in range(100)]
        (tmp_path / "g.el").write_text("".join(path))
        (tmp_path / "half.el").write_text("".join(["0 1 0.5\n", *path[1:]]))
        result, doc = run_json(runner, [args[0], "--graph", "g.el", *args[1:]])
        assert result.exit_code == 1
        assert doc == {
            "error": "memory",
            "detail": "n=101 needs 326432 bytes for 4 dense n x n float64 arrays; physical memory is 320000 bytes",
        }


class TestPartitionCmd:
    def test_example_fixture(self, runner, tmp_path):
        fam = write_family(tmp_path, family_from_index_sets(EXAMPLE1_SETS))
        result, doc = run_json(runner, ["partition", "--family", fam])
        assert result.exit_code == 0
        assert doc["cardinalities"] == [2, 3, 4, 5]
        assert len(doc["classes"]) == 4

    def test_byte_identical_reports(self, runner, tmp_path):
        fam = write_family(tmp_path, family_from_index_sets(EXAMPLE1_SETS))
        r1 = runner.invoke(main, ["partition", "--family", fam])
        r2 = runner.invoke(main, ["partition", "--family", fam])
        assert r1.output == r2.output

    @pytest.mark.parametrize(
        "text",
        [
            '{"graph": "g.el", "sets": [[[0.9, 1]], [[1, 2]]]}',
            '{"graph": "g.el", "sets": [[[1e400, 1]], [[1, 2]]]}',
            '{"graph": "g.el", "sets": [[[18446744073709551616, 1]], [[0, 1], [1, 2]]]}',
            '{"graph": "g.el", "sets": [[[true, 1]], [[1, 2]]]}',
            '{"graph": "g.el", "sets": [[["0", "1"]], [[1, 2]]]}',
            '{"graph": 5, "sets": [[[0, 1]], [[1, 2]]]}',
            '{"graph": ["g.el"], "sets": [[[0, 1]], [[1, 2]]]}',
            pytest.param("[" * 100000, id="deep-nesting"),
        ],
    )
    @pytest.mark.parametrize("cmd", [["partition"], ["nof", "verify-sunflower"]])
    def test_malformed_family_is_parse_error(self, tmp_path, text, cmd):
        (tmp_path / "g.el").write_text("0 1 1.0\n1 2 1.0\n")
        (tmp_path / "fam.json").write_text(text)
        result = invoke([*cmd, "--family", str(tmp_path / "fam.json")])
        check_contract(result)
        assert json.loads(result.stdout)["error"] == "parse"


class TestSparsifyVerifyCmds:
    def test_sparsify_writes_sidecar(self, runner, tmp_path):
        gp = write_graph(tmp_path / "g.el", TRIANGLE)
        out = tmp_path / "h.el"
        result, doc = run_json(
            runner,
            ["sparsify", "--graph", gp, "--epsilon", "0.5", "--seed", "1", "--output", str(out)],
        )
        assert result.exit_code == 0
        assert doc["epsilon_target"] == 0.5
        assert out.exists()
        sidecar = json.loads((tmp_path / "h.el.json").read_text())
        assert sidecar == doc

    def test_verify_identity(self, runner, tmp_path):
        gp = write_graph(tmp_path / "g.el", TRIANGLE)
        result, doc = run_json(runner, ["verify", "--graph", gp, "--sparsifier", gp])
        assert result.exit_code == 0
        assert doc["epsilon_certified"] <= 1e-9

    @pytest.mark.parametrize(
        "text, error, detail",
        [
            ("0 99999999999999999999 1.0\n", "invalid-value", "vertex id 99999999999999999999 does not fit in 64 bits"),
            # no n x n matrix of this many rows fits: refused before any per-vertex work
            (
                "n 99999999999999999999\n0 1 1.0\n",
                "memory",
                "n=99999999999999999999 needs 319999999999999999993600000000000000000032 bytes "
                "for 4 dense n x n float64 arrays; physical memory is 1073741824 bytes",
            ),
        ],
        ids=["id-beyond-64-bits", "n-beyond-memory"],
    )
    @pytest.mark.parametrize("cmd", ["sparsify", "verify"])
    def test_huge_vertex_ids_fail_at_once(self, runner, tmp_path, monkeypatch, cmd, text, error, detail):
        monkeypatch.setattr(graph, "_physical_memory", lambda: 2**30)
        p, q = tmp_path / "huge.el", tmp_path / "half.el"
        p.write_text(text)
        q.write_text(text.replace("1.0", "0.5"))  # a sparsifier equal to the graph needs no dense work
        if cmd == "sparsify":
            args = ["sparsify", "--graph", str(p), "--epsilon", "0.5"]
        else:
            args = ["verify", "--graph", str(p), "--sparsifier", str(q)]
        result, doc = run_json(runner, args)
        assert result.exit_code == 1
        assert doc == {"error": error, "detail": detail}
        assert result.output.count("\n") == 1

    def test_cli_import_leaves_scipy_out(self):
        # importing scipy takes longer than importing the whole CLI
        code = "import sys, distsparse.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_huge_graph_against_itself_is_zero(self, runner, tmp_path):
        p = tmp_path / "huge.el"
        p.write_text("n 99999999999999999999\n0 1 1.0\n")
        result, doc = run_json(runner, ["verify", "--graph", str(p), "--sparsifier", str(p)])
        assert result.exit_code == 0
        assert doc["epsilon_certified"] == 0.0

    @pytest.mark.parametrize("cmd", ["sparsify", "verify"])
    def test_weight_range_beyond_float64_is_refused(self, runner, tmp_path, cmd):
        # a connected path whose grounded block is positive definite in
        # exact arithmetic, but not after roundoff
        p, q = tmp_path / "g.el", tmp_path / "h.el"
        p.write_text("0 1 1e-12\n1 2 1e6\n")
        q.write_text("0 1 2e-12\n1 2 1e6\n")
        if cmd == "sparsify":
            args = ["sparsify", "--graph", str(p), "--epsilon", "0.5"]
        else:
            args = ["verify", "--graph", str(p), "--sparsifier", str(q)]
        result, doc = run_json(runner, args)
        assert result.exit_code == 1
        assert doc == {
            "error": "invalid-value",
            "detail": "the component of vertex 0 has a weight range beyond what float64 can factor",
        }

    def test_zero_sampling_scores_are_refused(self, tmp_path):
        # the factor holds, but roundoff leaves every score w_e R_e at 0
        p = tmp_path / "g.el"
        p.write_text("0 1 1e-300\n1 2 1e300\n")
        result = invoke(["sparsify", "--graph", str(p), "--epsilon", "0.5"])
        check_contract(result)
        assert json.loads(result.stdout) == {
            "error": "invalid-value",
            "detail": "the graph has a weight range beyond what float64 can sample: its scores w_e R_e sum to 0.0",
        }

    def test_bad_epsilon(self, runner, tmp_path):
        gp = write_graph(tmp_path / "g.el", TRIANGLE)
        result, doc = run_json(runner, ["sparsify", "--graph", gp, "--epsilon", "2.0"])
        assert result.exit_code == 1
        assert doc["error"] == "invalid-value"

    def test_non_finite_report_value_is_invalid_value(self, monkeypatch, tmp_path):
        gp = write_graph(tmp_path / "g.el", TRIANGLE)
        nan = SparsifierResult(h=TRIANGLE, epsilon_target=0.5, epsilon_certified=math.nan)
        monkeypatch.setattr(cli, "verify_epsilon", lambda g, h: math.nan)
        monkeypatch.setattr(cli, "sparsify_er", lambda *args, **kwargs: nan)
        out = tmp_path / "h.el"
        for args in (
            ["verify", "--graph", gp, "--sparsifier", gp],
            ["sparsify", "--graph", gp, "--epsilon", "0.5", "--output", str(out)],
        ):
            result = invoke(args)
            check_contract(result)
            assert json.loads(result.stdout)["error"] == "invalid-value"
        assert not (tmp_path / "h.el.json").exists()

    @pytest.mark.parametrize("constant", ["-1", "0", "inf", "nan", "1e300"])
    def test_bad_constant(self, tmp_path, constant):
        gp = write_graph(tmp_path / "g.el", TRIANGLE)
        result = invoke(["sparsify", "--graph", gp, "--epsilon", "0.5", "--constant", constant])
        check_contract(result)
        assert json.loads(result.stdout)["error"] == "invalid-value"


class TestUnionCmd:
    def test_duplicated_family(self, runner, tmp_path):
        f = family_from_index_sets([{1, 2, 3}, {1, 2, 3}])
        fam = write_family(tmp_path, f)
        part = write_graph(tmp_path / "p.el", f.base)
        result, doc = run_json(
            runner, ["union", "--family", fam, "--part", part, "--part", part]
        )
        assert result.exit_code == 0
        assert doc["c1"] == 2 and doc["ck"] == 2
        assert doc["epsilon_prime"] == pytest.approx(0.5)

    def test_part_count_checked_before_any_part_is_read(self, runner, tmp_path):
        f = family_from_index_sets([{1, 2, 3}, {1, 2, 3}])
        fam = write_family(tmp_path, f)
        part = write_graph(tmp_path / "p.el", f.base)
        missing = str(tmp_path / "missing.el")
        result, doc = run_json(
            runner, ["union", "--family", fam, "--part", part, "--part", part, "--part", missing]
        )
        assert result.exit_code == 1
        assert doc["error"] == "invalid-value"
        assert doc["detail"].startswith("got 3 parts")

    def test_component_joining_part(self, tmp_path):
        # the 4-cycle 0-1-2-3; the first part's edge 2-3 joins the component
        # {0, 1, 2} of its set's subgraph to the isolated vertex 3
        (tmp_path / "g.el").write_text(VALID_GRAPH)
        (tmp_path / "p1.el").write_text("n 4\n2 3 0.5\n")
        (tmp_path / "p2.el").write_text("n 4\n2 3 0.5\n0 3 1.5\n")
        (tmp_path / "fam.json").write_text(json.dumps(CYCLE_FAMILY))
        result = invoke(["union", "--family", str(tmp_path / "fam.json"),
                         "--part", str(tmp_path / "p1.el"), "--part", str(tmp_path / "p2.el")])
        check_contract(result)
        assert result.exit_code == 0
        assert strict_json(result.stdout) == {
            "schema": 1, "c1": 1, "ck": 1, "epsilon_prime": None, "edges": 2, "kernel_violation": True
        }


@st.composite
def _past_deza(draw):
    """(s, ell, lam) of a uniform star family with one to three sites more
    than Deza's threshold, kernel size 0..ell."""
    ell = draw(st.integers(1, 3))
    return deza_threshold(ell) + draw(st.integers(1, 3)), ell, draw(st.integers(0, ell))


class TestNofCmds:
    def test_verify_sunflower_star(self, runner, tmp_path):
        f = family_from_index_sets(uniform_star_index_sets(5, 3, 1))
        fam = write_family(tmp_path, f)
        result, doc = run_json(runner, ["nof", "verify-sunflower", "--family", fam])
        assert result.exit_code == 0
        assert doc["verdict"] is True
        assert doc["bit_cost"] == 4

    def test_broadcast(self, runner, tmp_path):
        f = family_from_index_sets(uniform_star_index_sets(9, 3, 1))
        fam = write_family(tmp_path, f)
        result, doc = run_json(runner, ["nof", "broadcast", "--family", fam, "--site", "1"])
        assert result.exit_code == 0
        assert doc["edge_cost"] == 19
        assert len(doc["rounds"]) == 2

    def test_exchange(self, runner, tmp_path):
        f = family_from_index_sets(uniform_star_index_sets(9, 3, 1))
        fam = write_family(tmp_path, f)
        result, doc = run_json(
            runner,
            ["nof", "exchange", "--family", fam, "--site", "1", "--epsilon", "0.3", "--seed", "0"],
        )
        assert result.exit_code == 0
        assert len(doc["rounds"]) == 2
        assert doc["epsilon_prime"] < 1

    @given(shape=_past_deza(), epsilon=st.sampled_from([0.3, 0.9]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_every_site_matches_unshared_reference(self, tmp_path_factory, shape, epsilon, seed):
        f = family_from_index_sets(uniform_star_index_sets(*shape))
        fam = write_family(tmp_path_factory.mktemp("star"), f)
        runner = CliRunner()
        for j in range(1, f.t + 1):
            _, doc = run_json(runner, ["nof", "broadcast", "--family", fam, "--site", str(j)])
            payloads = [w["payload"] for r in doc["rounds"] for w in r["writes"]]
            assert payloads == [base_weighted(f, _view_petals(f, j)), base_weighted(f, f.sets[j - 1])]
            recon = reference_broadcast(f, j)
            assert doc["reconstructions"] == [{"site": i, "edges": [list(e) for e in sorted(recon[i])]} for i in sorted(recon)]
            args = ["nof", "exchange", "--family", fam, "--site", str(j), "--epsilon", str(epsilon), "--seed", str(seed)]
            _, doc = run_json(runner, args)
            unions = reference_exchange(f, j, epsilon, seed)
            assert doc["sites"] == [{"site": i, "epsilon_prime": unions[i].epsilon_prime, "edges": unions[i].h.m} for i in sorted(unions)]
            assert doc["epsilon_prime"] == max(u.epsilon_prime for u in unions.values())

    def test_large_star_reports_match_expanded_rendering(self, tmp_path):
        # s = 800 sites each rebuild the same 801 edges: the report renders
        # that set once and must equal the plain rendering of every copy
        s, j = 800, 400
        f = family_from_index_sets(uniform_star_index_sets(s, 2, 1))
        fam = write_family(tmp_path, f)
        recon = reference_broadcast(f, j)
        transcript, _ = nof.protocol_broadcast_graph(f, j)
        expected = {
            "schema": 1,
            **transcript.to_dict(),
            "reconstructions": [{"site": i, "edges": sorted(recon[i])} for i in sorted(recon)],
        }
        printed = invoke(["nof", "broadcast", "--family", fam, "--site", str(j)])
        assert printed.stdout == json.dumps(expected, allow_nan=False) + "\n"
        counts = Counter(e for edges in f.sets for e in edges)
        cards = sorted(set(counts.values()))
        expected = {
            "schema": 1,
            "cardinalities": cards,
            "classes": [{"cardinality": c, "edges": sorted(e for e in counts if counts[e] == c)} for c in cards],
        }
        printed = invoke(["partition", "--family", fam])
        assert printed.stdout == json.dumps(expected, allow_nan=False) + "\n"

    def test_precondition_error_object(self, runner, tmp_path):
        f = family_from_index_sets(uniform_star_index_sets(8, 3, 1))
        fam = write_family(tmp_path, f)
        result, doc = run_json(runner, ["nof", "broadcast", "--family", fam, "--site", "1"])
        assert result.exit_code == 1
        assert doc["error"] == "precondition"


class TestClusterCmds:
    def test_cluster_labels(self, runner, tmp_path):
        g = WeightedGraph(
            6,
            (
                (0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0),
            ),
        )
        gp = write_graph(tmp_path / "g.el", g)
        result, doc = run_json(runner, ["cluster", "--graph", gp, "--k", "2", "--seed", "0"])
        assert result.exit_code == 0
        labels = doc["labels"]
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_cluster_compare(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps([0, 0, 1, 1]))
        b.write_text(json.dumps({"labels": [1, 1, 0, 0]}))
        result, doc = run_json(runner, ["cluster", "compare", str(a), str(b)])
        assert result.exit_code == 0
        assert doc["ari"] == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            '{"foo": 1}', "[[0, 1]]", '{"labels": 3}', '["x"]', "{not json", "[0, 1.7, 1]", '["0", true, "1"]',
            pytest.param("[" * 100000, id="deep-nesting"),
        ],
    )
    def test_cluster_compare_malformed_labels(self, runner, tmp_path, bad):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(bad)
        b.write_text(json.dumps([0, 1]))
        result, doc = run_json(runner, ["cluster", "compare", str(a), str(b)])
        assert result.exit_code == 1
        assert doc["error"] == "parse"

    def test_cluster_compare_empty_labelings(self, runner, tmp_path):
        empty, one = tmp_path / "empty.json", tmp_path / "one.json"
        empty.write_text("[]")
        one.write_text("[0]")
        result, doc = run_json(runner, ["cluster", "compare", str(empty), str(empty)])
        assert result.exit_code == 0
        assert doc["ari"] == 1.0
        result, doc = run_json(runner, ["cluster", "compare", str(empty), str(one)])
        assert result.exit_code == 1
        assert doc["error"] == "dimension-mismatch"

    def test_cluster_requires_args(self, runner):
        result = runner.invoke(main, ["cluster"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "group_opts, named",
        [(["--out", "r.json"], "--out"), (["--graph", "g.el", "--seed", "1"], "--graph, --seed")],
    )
    def test_group_options_refused_with_subcommand(self, runner, tmp_path, group_opts, named):
        a = tmp_path / "a.json"
        a.write_text(json.dumps([0, 0, 1, 1]))
        with runner.isolated_filesystem(temp_dir=tmp_path):
            result = runner.invoke(main, ["cluster", *group_opts, "compare", str(a), str(a)])
            assert result.exit_code == 2
            assert f"{named}: only for `cluster` without a subcommand" in result.stderr
            assert "cluster compare --out <path>" in result.stderr
            assert result.stdout == ""
            assert not Path("r.json").exists()

    def test_deterministic_output(self, runner, tmp_path):
        gp = write_graph(tmp_path / "g.el", TRIANGLE)
        r1 = runner.invoke(main, ["cluster", "--graph", gp, "--k", "2", "--seed", "3"])
        r2 = runner.invoke(main, ["cluster", "--graph", gp, "--k", "2", "--seed", "3"])
        assert r1.output == r2.output


class TestUsageErrors:
    def test_unknown_command(self, runner):
        assert runner.invoke(main, ["frobnicate"]).exit_code == 2

    def test_missing_required_option(self, runner):
        assert runner.invoke(main, ["partition"]).exit_code == 2


# --- the error contract: every failure is one JSON line, exit 1, no stderr

CONTRACT = settings(max_examples=60, deadline=None)

VALID_GRAPH = "n 4\n0 1 1.0\n1 2 2.0\n2 3 0.5\n0 3 1.5\n"

_token = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(
        ["n", "#", "0.5", "-0.0", "nan", "inf", "1e400", "1_0", "٣", "+2", "x", "1.0#c", "99999999999999999999"]
    ),
    st.floats().map(repr),
)
_edge_list = st.one_of(
    st.lists(st.lists(_token, max_size=4).map(" ".join), max_size=6).map("\n".join),
    st.text(max_size=30),
)
_json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=12,
)
_edge_id = st.one_of(st.integers(-1, 4), st.floats(), st.booleans())
_sets = st.lists(st.lists(st.lists(_edge_id, max_size=3), max_size=3), max_size=3)
_family_doc = st.one_of(
    _json_value,
    st.fixed_dictionaries(
        {"graph": st.one_of(st.just("g.el"), st.just("missing.el"), _json_value), "sets": _json_value}
    ),
    st.fixed_dictionaries({"graph": st.just("g.el"), "sets": _sets}),
)
_labels_doc = st.one_of(_json_value, st.fixed_dictionaries({"labels": _json_value}))
DEEP = "[" * 100000  # nested past the recursion limit
CYCLE_FAMILY = {"graph": "g.el", "sets": [[[0, 1], [1, 2]], [[2, 3], [0, 3]]]}  # over VALID_GRAPH
FAMILY_COMMANDS = [
    ["partition"],
    ["nof", "verify-sunflower"],
    ["union", "--part", "g.el"],
    ["union", "--part", "g.el", "--part", "g.el"],
    ["nof", "broadcast", "--site", "1"],
    ["nof", "exchange", "--site", "2", "--epsilon", "0.3"],
]


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text):
    """The JSON document in `text`; NaN and +-Infinity are rejected."""
    return json.loads(text, parse_constant=_not_json)


def check_contract(result):
    """A failure is exactly one JSON object with an "error" key on stdout and
    exit status 1; a report is strict JSON; nothing reaches stderr either
    way."""
    assert result.stderr == ""
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    doc = strict_json(result.stdout)
    if result.exit_code != 0:
        assert result.exit_code == 1
        assert result.stdout.count("\n") == 1
        assert isinstance(doc, dict) and "error" in doc


def invoke(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(main, args)
    assert not caught, [str(w.message) for w in caught]  # a warning would reach stderr
    return result


def json_text(doc):
    return doc if isinstance(doc, str) else json.dumps(doc)


class TestErrorContract:
    @CONTRACT
    @given(text=_edge_list, cmd=st.sampled_from(["laplacian", "sparsify", "verify"]))
    @example(text="n 3\n0 1 0.5\n0 1 2\n", cmd="verify")
    @example(text="0 1 1e-300\n1 2 1e300\n", cmd="sparsify")
    def test_edge_lists(self, tmp_path_factory, text, cmd):
        d = tmp_path_factory.mktemp("el")
        g = d / "g.el"
        g.write_text(text, encoding="utf-8")
        args = {
            "laplacian": ["laplacian", "--graph", str(g)],
            "sparsify": ["sparsify", "--graph", str(g), "--epsilon", "0.5", "--output", str(d / "h.el")],
            "verify": ["verify", "--graph", str(g), "--sparsifier", str(g)],
        }[cmd]
        check_contract(invoke(args))

    @CONTRACT
    @given(text=_edge_list)
    def test_sparsifier_files(self, tmp_path_factory, text):
        d = tmp_path_factory.mktemp("h")
        (d / "g.el").write_text(VALID_GRAPH)
        (d / "h.el").write_text(text, encoding="utf-8")
        check_contract(invoke(["verify", "--graph", str(d / "g.el"), "--sparsifier", str(d / "h.el")]))

    @CONTRACT
    @given(doc=_family_doc, cmd=st.sampled_from(FAMILY_COMMANDS))
    @example(doc={"graph": "g.el", "sets": [[[0.9, 1]], [[1, 2], [2, 3], [0, 3]]]}, cmd=["partition"])
    @example(doc='{"graph": "g.el", "sets": [[[1e400, 1]]]}', cmd=["partition"])
    @example(doc={"graph": 5, "sets": [[[0, 1]]]}, cmd=["partition"])
    @example(doc={"graph": ["g.el"], "sets": [[[0, 1]]]}, cmd=["nof", "verify-sunflower"])
    @example(doc={"graph": "g.el", "sets": [[[True, 1]], [[1, 2], [2, 3], [0, 3]]]}, cmd=["partition"])
    @example(doc='{"graph": "g.el", "sets": [[[1' + "0" * 5000 + ', 1]]]}', cmd=["partition"])
    @example(doc=DEEP, cmd=["partition"])
    @example(doc=DEEP, cmd=["nof", "verify-sunflower"])
    @example(doc=CYCLE_FAMILY, cmd=["union", "--part", "g.el", "--part", "g.el"])
    @example(doc='{"graph": "g.el", "sets": [[[18446744073709551616, 1]], [[0, 1], [1, 2]]]}', cmd=["partition"])
    def test_family_documents(self, tmp_path_factory, doc, cmd):
        d = tmp_path_factory.mktemp("fam")
        (d / "g.el").write_text(VALID_GRAPH)
        (d / "fam.json").write_text(json_text(doc))
        args = [str(d / a) if a == "g.el" else a for a in cmd]
        check_contract(invoke([*args, "--family", str(d / "fam.json")]))

    @CONTRACT
    @given(doc=_labels_doc)
    @example(doc=DEEP)
    @example(doc=[0, 1, 1e400])
    def test_label_files(self, tmp_path_factory, doc):
        d = tmp_path_factory.mktemp("labels")
        (d / "a.json").write_text(json_text(doc))
        (d / "b.json").write_text("[0, 1, 1, 0]")
        check_contract(invoke(["cluster", "compare", str(d / "a.json"), str(d / "b.json")]))



# --- the emit path: each distinct edge set is rendered once and spliced in


def expanded(doc):
    """`doc` with every frozenset replaced by its sorted edges."""
    if isinstance(doc, frozenset):
        return sorted(doc)
    if isinstance(doc, dict):
        return {k: expanded(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [expanded(v) for v in doc]
    return doc


SHARED = frozenset({(0, 1), (1, 2), (0, 5), (3, 4)})


class TestJsonLine:
    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(
                {
                    "sites": [{"site": i, "edges": SHARED} for i in range(40)],
                    "more": {"petals": frozenset({(7, 9), (2, 8)}), "nested": [[SHARED, frozenset()], {"again": SHARED}]},
                    "payload": [(0, 1, 0.5)],
                },
                id="shared-and-distinct",
            ),
            pytest.param({"a": SHARED, "b": [frozenset(sorted(SHARED)), SHARED]}, id="equal-distinct-objects"),
            pytest.param({"edges": SHARED, "text": json.dumps(sorted(SHARED))}, id="string-equal-to-fragment"),
            pytest.param({"none": [], "x": 1.5, "s": "\u0000"}, id="no-edge-set"),
        ],
    )
    def test_equals_plain_rendering_of_expanded_doc(self, doc):
        assert cli._json_line(doc) == json.dumps(expanded(doc)) + "\n"

    def test_nan_still_raises_value_error(self):
        with pytest.raises(ValueError):
            cli._json_line({"edges": SHARED, "x": math.nan})

    @pytest.mark.parametrize("value", [object(), {(0, 1)}], ids=["object", "set"])
    def test_unknown_type_still_raises_type_error(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._json_line({"edges": SHARED, "x": value})


# --- --out: every command writes its report there instead of stdout

GOLDEN = Path(__file__).parent / "data" / "golden"
G_EL, STAR_EL, LOOP_EL, P1_EL, P2_EL = (str(GOLDEN / f"{name}.el") for name in ("g", "star", "loop", "cycle-p1", "cycle-p2"))
STAR_FAM, TWIN_FAM, CYCLE_FAM = (str(GOLDEN / f"{name}.fam.json") for name in ("star", "twin", "cycle"))
LABELS_A, LABELS_B, LABELS_SHORT = (str(GOLDEN / f"labels-{name}.json") for name in ("a", "b", "short"))
OUT_COMMANDS = {  # command: (arguments of a report, arguments of a failure)
    "laplacian": (["laplacian", "--graph", STAR_EL], ["laplacian", "--graph", LOOP_EL]),
    "partition": (["partition", "--family", STAR_FAM], ["partition", "--family", LOOP_EL]),
    "sparsify": (["sparsify", "--graph", G_EL, "--epsilon", "0.5"], ["sparsify", "--graph", G_EL, "--epsilon", "2.0"]),
    "verify": (["verify", "--graph", G_EL, "--sparsifier", G_EL], ["verify", "--graph", G_EL, "--sparsifier", LOOP_EL]),
    "union": (
        ["union", "--family", CYCLE_FAM, "--part", P1_EL, "--part", P2_EL],
        ["union", "--family", CYCLE_FAM, "--part", P1_EL],
    ),
    "nof verify-sunflower": (
        ["nof", "verify-sunflower", "--family", TWIN_FAM],
        ["nof", "verify-sunflower", "--family", LOOP_EL],
    ),
    "nof broadcast": (
        ["nof", "broadcast", "--family", STAR_FAM, "--site", "1"],
        ["nof", "broadcast", "--family", TWIN_FAM, "--site", "1"],
    ),
    "nof exchange": (
        ["nof", "exchange", "--family", STAR_FAM, "--site", "2", "--epsilon", "0.3"],
        ["nof", "exchange", "--family", TWIN_FAM, "--site", "2", "--epsilon", "0.3"],
    ),
    "cluster": (["cluster", "--graph", G_EL, "--k", "3"], ["cluster", "--graph", LOOP_EL, "--k", "3"]),
    "cluster compare": (["cluster", "compare", LABELS_A, LABELS_B], ["cluster", "compare", LABELS_A, LABELS_SHORT]),
}


@pytest.mark.parametrize("report, failure", OUT_COMMANDS.values(), ids=OUT_COMMANDS.keys())
def test_out_writes_the_printed_report(tmp_path, report, failure):
    printed = invoke(report)
    assert printed.exit_code == 0
    out = tmp_path / "report.json"
    written = invoke([*report, "--out", str(out)])
    assert (written.exit_code, written.stdout) == (0, "")
    assert out.read_bytes() == printed.stdout_bytes
    failed = invoke([*failure, "--out", str(tmp_path / "failed.json")])
    check_contract(failed)
    assert failed.exit_code == 1
    assert not (tmp_path / "failed.json").exists()
