import json

import pytest
from click.testing import CliRunner

from distsparse import WeightedGraph, dump_graph
from distsparse.cli import main
from conftest import EXAMPLE1_SETS, family_from_index_sets, uniform_star_index_sets


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

    def test_missing_file_is_io_error(self, runner):
        result, doc = run_json(runner, ["laplacian", "--graph", "/nonexistent.el"])
        assert result.exit_code == 1
        assert doc["error"] == "io"

    def test_oversized_graph_is_memory_error(self, runner, tmp_path):
        # numpy refuses the n x n request (6.94 EiB) before allocating anything
        p = tmp_path / "big.el"
        p.write_text("n 1000000000\n")
        result, doc = run_json(runner, ["laplacian", "--graph", str(p)])
        assert result.exit_code == 1
        assert doc["error"] == "memory"
        assert result.output.count("\n") == 1


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
        "text, detail",
        [
            ("0 99999999999999999999 1.0\n", "vertex id 99999999999999999999 does not fit in 64 bits"),
            # no n x n matrix has this many rows: refused before any per-vertex work
            ("n 99999999999999999999\n0 1 1.0\n", "Maximum allowed dimension exceeded"),
        ],
    )
    @pytest.mark.parametrize("cmd", ["sparsify", "verify"])
    def test_huge_vertex_ids_fail_at_once(self, runner, tmp_path, cmd, text, detail):
        p = tmp_path / "huge.el"
        p.write_text(text)
        if cmd == "sparsify":
            args = ["sparsify", "--graph", str(p), "--epsilon", "0.5"]
        else:
            args = ["verify", "--graph", str(p), "--sparsifier", str(p)]
        result, doc = run_json(runner, args)
        assert result.exit_code == 1
        assert doc == {"error": "invalid-value", "detail": detail}
        assert result.output.count("\n") == 1

    def test_bad_epsilon(self, runner, tmp_path):
        gp = write_graph(tmp_path / "g.el", TRIANGLE)
        result, doc = run_json(runner, ["sparsify", "--graph", gp, "--epsilon", "2.0"])
        assert result.exit_code == 1
        assert doc["error"] == "invalid-value"


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
        "bad", ['{"foo": 1}', "[[0, 1]]", '{"labels": 3}', '["x"]', "{not json", "[0, 1.7, 1]", '["0", true, "1"]']
    )
    def test_cluster_compare_malformed_labels(self, runner, tmp_path, bad):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(bad)
        b.write_text(json.dumps([0, 1]))
        result, doc = run_json(runner, ["cluster", "compare", str(a), str(b)])
        assert result.exit_code == 1
        assert doc["error"] == "parse"

    def test_cluster_requires_args(self, runner):
        result = runner.invoke(main, ["cluster"])
        assert result.exit_code == 2

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
