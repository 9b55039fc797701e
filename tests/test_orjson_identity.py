"""orjson reads family and label documents and renders reports, and every
document taken, every report and every error line is the one `json` gives.

Render: `cli._json_line` of any report-shaped value is `json.dumps`'s line,
or the same exception type. Read: each family document below is one that
orjson reads differently from `json` (an integer past 64 bits, 1e400, NaN,
a lone surrogate, a UTF-8 BOM, bytes that are not UTF-8, nesting, duplicate
keys); its pinned report or error line is what the implementation that read
every document with `json.load` printed.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distsparse import EdgeFamily, WeightedGraph, cli, nof
from conftest import edge_pairs

ROOT = Path(__file__).parents[1]
DATA = ROOT / "tests" / "data" / "golden"
# the body of the console script, with `src` on the path
SCRIPT = "import sys; from distsparse.cli import main; sys.exit(main())"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


# --- render ---------------------------------------------------------------


def expanded(doc):
    """`doc` with every graph replaced by its sorted [u, v] pairs, and every
    weighted write's payload by its graph's sorted [u, v, w] rows."""
    if isinstance(doc, WeightedGraph):
        return sorted(edge_pairs(doc))
    if isinstance(doc, nof.WeightedEdges):
        return [list(e) for e in doc.graph.edges]
    if isinstance(doc, dict):
        return {k: expanded(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [expanded(v) for v in doc]
    return doc


def outcome(fn):
    try:
        return "ok", fn()
    except (ValueError, TypeError) as exc:
        return type(exc).__name__


# the floats on both sides of [1e-4, 1e16), where orjson's text is `repr`'s,
# and those it writes as null
FLOATS = [5e-324, float(np.nextafter(1e-4, 0)), 1e-4, 9999999999999998.0, 1e16, 1.7976931348623157e308, -0.0]
FLOATS += [math.nan, math.inf, -math.inf, 1e-05, 1.5e-07, 0.5, 123.25]
# ints on both sides of -2**63, 2**63 and 2**64
INTS = [-(2**64), -(2**63) - 1, -(2**63), 0, 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64]
GRAPH = WeightedGraph(6, ((0, 1, 1.0), (1, 2, 0.5), (0, 5, 2.0), (3, 4, 1.0)))
PAYLOAD = nof.WeightedEdges(WeightedGraph(4, ((0, 1, 1e-05), (1, 2, 0.5), (0, 3, 1e16), (2, 3, 3.0))))
EDGE_SETS = [GRAPH, PAYLOAD, WeightedGraph(3, ()), nof.WeightedEdges(WeightedGraph(2, ((0, 1, 0.25),)))]
NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-", max_size=6)
# strings the program's reports never hold, each of which orjson's bytes
# must reveal: non-ASCII, escaped, or holding a separator
ODD = ["é", " ", 'a","b', "a\\", "x:y", "a,b", ", ", '"', "\t"]
LEAVES = (
    st.none()
    | st.booleans()
    | st.sampled_from(INTS)
    | st.integers()
    | st.sampled_from(FLOATS)
    | st.floats()
    | NAMES
    | st.sampled_from(ODD)
    | st.sampled_from(EDGE_SETS)
)
DOCS = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(NAMES, kids, max_size=4), max_leaves=24
)


class TestRender:
    @given(doc=DOCS)
    # one value for each way orjson's text can part from `json`'s
    @example(doc={"x": 1e-05, "edges": GRAPH})
    @example(doc=[9999999999999998.0, 1e16])
    @example(doc={"x": [math.nan], "payload": PAYLOAD})
    @example(doc={"x": None, "y": math.inf})
    @example(doc={"x": "é"})
    @example(doc=['a","b', GRAPH])
    @example(doc={"x": "x:y", "y": ["a,b"]})
    @example(doc={"seed": 2**64, "edges": [GRAPH, GRAPH]})
    @settings(max_examples=600, deadline=None)
    def test_json_line_is_json_dumps(self, doc):
        got = outcome(lambda: "".join(cli._json_line(doc)))
        assert got == outcome(lambda: json.dumps(expanded(doc), allow_nan=False) + "\n")

    @pytest.mark.parametrize("value", FLOATS + INTS + ODD + [None, True, False], ids=repr)
    def test_every_leaf_beside_an_edge_set(self, value):
        doc = {"edges": GRAPH, "x": [value, {"y": value}], "payload": PAYLOAD}
        got = outcome(lambda: "".join(cli._json_line(doc)))
        assert got == outcome(lambda: json.dumps(expanded(doc), allow_nan=False) + "\n")

    def test_program_reports_take_orjson(self, monkeypatch):
        """The NOF reports of the star family never fall back to `json`."""
        f = EdgeFamily.from_pairs(
            WeightedGraph(21, [(e, e + 1, 1.0 + e / 8) for e in range(1, 20)]),
            [[[1, 2], [2 * j, 2 * j + 1], [2 * j + 1, 2 * j + 2]] for j in range(1, 10)],
        )
        transcript, verdict = nof.protocol_verify_sunflower(f)
        broadcast, recon = nof.protocol_broadcast_graph(f, 5)
        exchange, results = nof.protocol_sparsifier_exchange(f, 5, 0.3, 3)
        reports = [
            {"verdict": verdict, **transcript.to_dict()},
            {**broadcast.to_dict(), "reconstructions": [{"site": i, "edges": recon[i]} for i in sorted(recon)]},
            {**exchange.to_dict(), "sites": [{"site": i, "epsilon_prime": r.epsilon_prime} for i, r in results.items()]},
        ]
        expected = [json.dumps(expanded(cli._report(doc))) + "\n" for doc in reports]

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps rendered a program report")

        monkeypatch.setattr(cli.json, "dumps", refuse)
        assert ["".join(cli._json_line(cli._report(doc))) for doc in reports] == expected


# --- read -----------------------------------------------------------------

STAR_SETS = json.loads((DATA / "star.fam.json").read_text())["sets"]
S = json.dumps(STAR_SETS)
PARTITION_STAR = (DATA / "partition-star.json").read_text()
MALFORMED = '{"error": "parse", "detail": "malformed \'sets\' entry: every edge must be a [u, v] pair of integers"}\n'
TOO_DEEP = '{"error": "parse", "detail": "invalid JSON in {path}: nested too deeply"}\n'


def nest(depth: int) -> str:
    return "[" * depth + "]" * depth


# name -> (the document, the `partition` line printed for it); {path} in a
# line stands for the document's path, {surrogate} for the position of the
# lone surrogate in the graph's path
DOCUMENTS = {
    "end-2-64": (
        '{"graph": "star.el", "sets": [[[1, 2], [2, 18446744073709551616]]]}',
        '{"error": "parse", "detail": "set 0 contains edges not in the base graph: [(2, 18446744073709551616)]"}\n',
    ),
    "end-minus-2-63-1": (
        '{"graph": "star.el", "sets": [[[1, 2]], [[-9223372036854775809, 2]]]}',
        '{"error": "parse", "detail": "set 1 contains edges not in the base graph: [(-9223372036854775809, 2)]"}\n',
    ),
    "graph-2-64": (
        '{"graph": 18446744073709551616, "sets": %s}' % S,
        '{"error": "parse", "detail": "\'graph\' must be a path string, got int"}\n',
    ),
    "end-1e400": ('{"graph": "star.el", "sets": [[[1, 2], [2, 1e400]]]}', MALFORMED),
    "end-nan": ('{"graph": "star.el", "sets": [[[1, 2], [NaN, 3]]]}', MALFORMED),
    "graph-lone-surrogate": (
        '{"graph": "star.el\\ud800", "sets": %s}' % S,
        '{"error": "invalid-value", "detail": "\'utf-8\' codec can\'t encode character \'\\\\ud800\' in position'
        ' {surrogate}: surrogates not allowed"}\n',
    ),
    "bom": (
        '﻿{"graph": "star.el", "sets": %s}' % S,
        '{"error": "parse", "detail": "invalid JSON in {path}: Unexpected UTF-8 BOM (decode using utf-8-sig):'
        ' line 1 column 1 (char 0)"}\n',
    ),
    "not-utf8": (
        b'{"graph": "star.el\xff", "sets": ' + S.encode() + b"}",
        '{"error": "parse", "detail": "invalid JSON in {path}: \'utf-8\' codec can\'t decode byte 0xff in'
        ' position 18: invalid start byte"}\n',
    ),
    "duplicate-sets": ('{"graph": "star.el", "sets": [[[1, 2]]], "sets": %s}' % S, PARTITION_STAR),
    "duplicate-sets-last-empty": (
        '{"graph": "star.el", "sets": %s, "sets": [[[1, 2]], []]}' % S,
        '{"error": "parse", "detail": "set 1 is empty"}\n',
    ),
}
# nesting between orjson's limit and `json`'s, and beyond both, in a key no
# check reads and in the sets: `json` refuses it at its recursion limit,
# which is the interpreter's (the first line), and reads it where that
# limit is higher (the second)
for depth in (1010, 5000):
    DOCUMENTS[f"nested-{depth}-key"] = (
        '{"graph": "star.el", "sets": %s, "x": %s}' % (S, nest(depth)),
        TOO_DEEP,
        PARTITION_STAR,
    )
    DOCUMENTS[f"nested-{depth}-sets"] = ('{"graph": "star.el", "sets": %s}' % nest(depth), TOO_DEEP, MALFORMED)


def console(*args):
    """(status, stdout, stderr) of the console script on `args`."""
    result = subprocess.run([sys.executable, "-c", SCRIPT, *args], env=ENV, capture_output=True, timeout=120)
    return result.returncode, result.stdout.decode(), result.stderr.decode()


def json_refuses(text: str) -> bool:
    """Whether `json` refuses `text` in a fresh interpreter."""
    probe = "import json, sys; json.loads(sys.stdin.read())"
    return subprocess.run([sys.executable, "-c", probe], input=text.encode(), capture_output=True).returncode != 0


class TestRead:
    @pytest.mark.parametrize("name", list(DOCUMENTS))
    def test_family_document(self, tmp_path, name):
        text, refused, *accepted = DOCUMENTS[name]
        shutil.copy(DATA / "star.el", tmp_path / "star.el")
        path = tmp_path / f"{name}.fam.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        expected = refused if not accepted or json_refuses(text) else accepted[0]
        expected = expected.replace("{path}", str(path))
        expected = expected.replace("{surrogate}", str(len(os.path.join(str(tmp_path), "star.el"))))
        status = 0 if expected.startswith('{"schema"') else 1
        assert console("partition", "--family", str(path)) == (status, expected, "")

    def test_label_past_64_bits(self, tmp_path):
        path = tmp_path / "labels.json"
        path.write_text("[0, 0, 1, 1, 18446744073709551616, 18446744073709551616]")
        got = console("cluster", "compare", str(path), str(DATA / "labels-b.json"))
        assert got == (0, '{"schema": 1, "ari": 0.4444444444444444}\n', "")

    @pytest.mark.parametrize(
        "text, refused, accepted",
        [
            (
                '{"labels": [1, 1, 0, 0, 0, 2], "x": %s}' % nest(1010),
                '{"error": "parse", "detail": "invalid JSON in {path}: nested too deeply"}\n',
                '{"schema": 1, "ari": 1.0}\n',
            ),
            ("[0, 1.5]", '{"error": "parse", "detail": "{path}: labels must be JSON integers, got 1.5"}\n', None),
            ('{"labels": [0, true]}', '{"error": "parse", "detail": "{path}: labels must be JSON integers, got true"}\n', None),
        ],
        ids=["nested-key", "float", "bool"],
    )
    def test_label_document(self, tmp_path, text, refused, accepted):
        path = tmp_path / "labels.json"
        path.write_text(text)
        expected = refused.replace("{path}", str(path)) if accepted is None or json_refuses(text) else accepted
        got = console("cluster", "compare", str(path), str(DATA / "labels-b.json"))
        assert got == (0 if expected.startswith('{"schema"') else 1, expected, "")
