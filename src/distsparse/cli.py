"""Command-line entry point.

Every subcommand loads its inputs, computes, and returns its report as a
dict, with the files it writes when it has any; the `_command` decorator is
the one path that emits them. It adds ``--out``, runs the command with
numpy's overflow, divide and invalid-value checks raising instead of
warning, puts ``"schema": 1`` first and renders one line of strict JSON.
An edge set a report holds is a graph, written as its (u, v) pairs, or the
payload of a weighted NOF write, written as its (u, v, w) rows; the emit
path (`_json_line`) renders each such object once through orjson, its
weights by the edge-list writer's float rule, and writes that one string
wherever it appears, piece by piece, never joining the report into one
string. The `laplacian` matrix is rendered a row at a time, and refused
when it and its text would not fit in physical memory. The files (edge
list, sidecar, ``--out``) are written all or none (`_place`), and
``--out`` naming the edge list is refused before any is written. An
infinite top-level value (an edge joins two components of the graph it is
measured against, so no finite factor exists) is reported as null with
``"kernel_violation": true``; any other value that is not finite is an
``invalid-value`` error. A failure is one
``{"error": kind, "detail": ...}`` line on stdout with exit status 1, and
leaves no file; usage errors exit with status 2.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import re
import sys

import click
import numpy as np
import orjson
from click.core import ParameterSource

from . import cluster as cl
from . import nof
from .errors import Error, ParseError
from .graph import (
    WeightedGraph,
    _check_memory,
    dump_graph,
    laplacian,
    load_graph_file,
    normalized_laplacian,
    weighted_rows,
)
from .overlap import load_family, load_json, overlapping_cardinality_partition
from .sparsify import DEFAULT_CONSTANT, SparsifierResult, sparsify_er, union_sparsifiers, verify_epsilon

SCHEMA = 1

# what the `laplacian` report holds beside its n x n matrix: the text of
# each entry, at most the longest float `repr`, "-2.2250738585072014e-308",
# and the ", " after it, and a bound on what each row adds (its string and
# placeholder, and its list of floats while it is rendered)
_ENTRY_TEXT, _ROW_BYTES = 26, 512


# how `_json_line` writes the placeholder of its i-th rendered piece, the
# string NUL, i, NUL; a report that holds one has no other string with a
# NUL, as its strings are the program's own keys and write kinds
_PLACEHOLDER = re.compile(r'"\\u0000(\d+)\\u0000"')


def _edge_set(obj) -> str:
    """An edge set as JSON, by one `orjson.dumps` in stored order: a graph
    as its (u, v) pairs, `[[u, v], ...]`, and a weighted write's payload
    (`nof.WeightedEdges`) as its rows, `[[u, v, w], ...]`, each w by the
    edge-list writer's float rule (`weighted_rows`)."""
    if isinstance(obj, WeightedGraph):
        text = orjson.dumps(np.column_stack((obj.u, obj.v)), option=orjson.OPT_SERIALIZE_NUMPY)
    elif isinstance(obj, nof.WeightedEdges):
        text = weighted_rows(obj.graph.records)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return text.replace(b",", b", ").decode("ascii")


def _json_line(doc: dict) -> list[str]:
    """`doc` as one line of strict JSON, in pieces that join to the line: a
    NaN or infinite value raises `ValueError`, which the command reports as
    `invalid-value`, and a value of any other type JSON lacks raises
    `TypeError`. An edge set (`_edge_set`) is rendered once per object, and
    that one string is the piece wherever the object appears, so a report
    that holds one edge set many times (every site of the NOF broadcast
    holds the base graph) costs one rendering of it and is never held as
    one string. A matrix (a 2-D array, the Laplacian) is rendered a row at
    a time, one piece a row, so the report holds its text and no list of
    its floats."""
    placeholders: dict[int, str | list[str]] = {}  # id of an object -> what it is written as
    rendered: list[str] = []

    def piece(text: str) -> str:
        rendered.append(text)
        return f"\0{len(rendered) - 1}\0"

    def default(obj):
        key = id(obj)  # the object lives in `doc` while it is rendered
        if key not in placeholders:
            if isinstance(obj, np.ndarray) and obj.ndim == 2:
                placeholders[key] = [piece(json.dumps(row.tolist(), allow_nan=False)) for row in obj]
            else:
                placeholders[key] = piece(_edge_set(obj))
        return placeholders[key]

    # a report is a tree the program builds, so no container needs a marker
    text = json.dumps(doc, allow_nan=False, check_circular=False, default=default) + "\n"
    if not rendered:
        return [text]
    pieces = _PLACEHOLDER.split(text)
    pieces[1::2] = [rendered[int(i)] for i in pieces[1::2]]
    return pieces


def _emit(pieces: list[str]):
    """Write the pieces of a report to stdout and flush it. The report is
    ASCII JSON, so it holds nothing for `click.echo` to strip."""
    sys.stdout.writelines(pieces)
    sys.stdout.flush()


def _place(files: list[tuple], pieces: list[str]) -> None:
    """Write every file (path, a graph's edge list, or None, the report) to a
    new temporary beside its target (a link is followed), then move each
    into place; a device or a pipe, which cannot be replaced, is written
    last. Two paths to one file must have one content, written once; two
    contents for one file are a `ValueError` before anything is written.
    Any error removes the temporaries and the files placed."""
    targets = {}  # real path -> (path, content); of two paths to a file, the last
    for path, content in files:
        target = os.path.realpath(path)
        if target in targets and targets[target][1] is not content:
            raise ValueError(f"one file, {path!r}, is named for both the report and an edge list")
        targets[target] = path, content
    streams = [
        targets.pop(t)
        for t, (p, _) in list(targets.items())
        if os.path.exists(p) and not os.path.isfile(p) and not os.path.isdir(p)
    ]
    temps, placed, path = {}, [], None
    try:
        for target, (path, content) in targets.items():
            temp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
            with open(temp, "x", encoding="utf-8") as fh:
                temps[target] = temp
                _write(fh, content, pieces)
        for target, (path, _) in targets.items():
            os.replace(temps[target], target)
            placed.append(target)
        for path, content in streams:
            with open(path, "w", encoding="utf-8") as fh:
                _write(fh, content, pieces)
    except BaseException as exc:
        for name in [*temps.values(), *placed]:  # a temporary already moved is gone
            with contextlib.suppress(OSError):
                os.unlink(name)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _write(fh, content, pieces: list[str]) -> None:
    """Write a file's content: a graph as its edge list, None as the report."""
    if content is None:
        fh.writelines(pieces)
    else:
        dump_graph(content, fh)


def _report(doc: dict) -> dict:
    """`doc` under the schema. An infinite top-level value is reported as
    null plus `"kernel_violation": true`: an edge joins two components of
    the graph it is measured against, so no finite factor exists."""
    report = {"schema": SCHEMA, **doc}
    for key, value in doc.items():
        if isinstance(value, float) and math.isinf(value):
            report[key] = None
            report["kernel_violation"] = True
    return report


def _command(fn):
    """A command with `--out` that emits the report `fn` returns, and the
    files of `_place` when it returns (report, files), or the error object
    of its failure; nothing when it returns None."""

    @click.option("--out", type=click.Path(), default=None, help="Write the JSON report here instead of stdout.")
    @functools.wraps(fn)
    def wrapper(*args, out, **kwargs):
        try:
            # overflow, 0/0 and x/0 raise here instead of printing a warning
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                result = fn(*args, **kwargs)
                if result is not None:
                    doc, files = result if isinstance(result, tuple) else (result, {})
                    pieces = _json_line(_report(doc))
                    _place([*files.items(), (out, None)] if out else files.items(), pieces)
                    if not out:
                        _emit(pieces)
                return
        except Error as exc:
            error = {"error": exc.kind, "detail": str(exc)}
        except ValueError as exc:
            error = {"error": "invalid-value", "detail": str(exc)}
        except FloatingPointError as exc:
            error = {"error": "invalid-value", "detail": f"floating-point {exc}"}
        except OSError as exc:
            error = {"error": "io", "detail": str(exc)}
        except MemoryError as exc:
            error = {"error": "memory", "detail": str(exc)}
        _emit(_json_line(error))
        sys.exit(1)

    return wrapper


@click.group()
def main():
    """Distributed spectral sparsification toolkit."""


@main.command("laplacian")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--normalized", is_flag=True, default=False)
@_command
def laplacian_cmd(graph_path, normalized):
    """Print the (optionally normalized) Laplacian of an edge-list graph."""
    g = load_graph_file(graph_path)
    L = normalized_laplacian(g) if normalized else laplacian(g)
    need = L.nbytes + _ENTRY_TEXT * L.size + _ROW_BYTES * g.n
    _check_memory(need, f"n={g.n}", "an n x n float64 matrix beside its JSON text")
    return {"n": g.n, "normalized": normalized, "matrix": L}


@main.command("partition")
@click.option("--family", "family_path", required=True, type=click.Path())
@_command
def partition_cmd(family_path):
    """Overlapping-cardinality partition of a family file."""
    classes = overlapping_cardinality_partition(load_family(family_path))
    return {"cardinalities": [c for c, _ in classes], "classes": [{"cardinality": c, "edges": g} for c, g in classes]}


@main.command("sparsify")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--epsilon", required=True, type=float)
@click.option("--seed", type=int, default=0)
@click.option("--constant", type=float, default=DEFAULT_CONSTANT, help="Oversampling constant C in q = ceil(C n ln n / eps^2).")
@click.option("--output", type=click.Path(), default=None, help="Write the sparsifier edge list here (JSON sidecar alongside).")
@_command
def sparsify_cmd(graph_path, epsilon, seed, constant, output):
    """Effective-resistance sparsifier of an edge-list graph."""
    g = load_graph_file(graph_path)
    res = sparsify_er(g, epsilon, seed, constant=constant)
    doc = {"epsilon_target": epsilon, "epsilon_certified": res.epsilon_certified, "edges": res.h.m, "seed": seed}
    return doc, {output: res.h, output + ".json": None} if output else {}


@main.command("verify")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--sparsifier", "sparsifier_path", required=True, type=click.Path())
@_command
def verify_cmd(graph_path, sparsifier_path):
    """Exact approximation factor between a graph and a candidate sparsifier."""
    return {"epsilon_certified": verify_epsilon(load_graph_file(graph_path), load_graph_file(sparsifier_path))}


@main.command("union")
@click.option("--family", "family_path", required=True, type=click.Path())
@click.option("--part", "part_paths", multiple=True, required=True, type=click.Path(), help="Per-set sparsifier edge lists, in family order.")
@click.option("--output", type=click.Path(), default=None, help="Write the union graph edge list here.")
@_command
def union_cmd(family_path, part_paths, output):
    """Union of per-set sparsifiers with the certified approximation factor."""
    f = load_family(family_path)
    if len(part_paths) != f.t:
        raise ValueError(f"got {len(part_paths)} parts for a family of {f.t} sets")
    parts = [
        SparsifierResult(h=h, epsilon_certified=verify_epsilon(f.subgraph(f.set_ids(i)), h))
        for i, h in enumerate(map(load_graph_file, part_paths))
    ]
    u = union_sparsifiers(parts, f)
    doc = {"c1": u.c1, "ck": u.ck, "epsilon_prime": u.epsilon_prime, "edges": u.h.m}
    return doc, {output: u.h} if output else {}


@main.group("nof")
def nof_group():
    """Number-On-Forehead protocol simulations."""


@nof_group.command("verify-sunflower")
@click.option("--family", "family_path", required=True, type=click.Path())
@_command
def nof_verify_cmd(family_path):
    transcript, verdict = nof.protocol_verify_sunflower(load_family(family_path))
    return {"verdict": verdict, **transcript.to_dict()}


@nof_group.command("broadcast")
@click.option("--family", "family_path", required=True, type=click.Path())
@click.option("--site", required=True, type=int)
@_command
def nof_broadcast_cmd(family_path, site):
    transcript, recon = nof.protocol_broadcast_graph(load_family(family_path), site)
    return {**transcript.to_dict(), "reconstructions": [{"site": i, "edges": recon[i]} for i in sorted(recon)]}


@nof_group.command("exchange")
@click.option("--family", "family_path", required=True, type=click.Path())
@click.option("--site", required=True, type=int)
@click.option("--epsilon", required=True, type=float)
@click.option("--seed", type=int, default=0)
@_command
def nof_exchange_cmd(family_path, site, epsilon, seed):
    transcript, results = nof.protocol_sparsifier_exchange(load_family(family_path), site, epsilon, seed)
    sites = [{"site": i, "epsilon_prime": results[i].epsilon_prime, "edges": results[i].h.m} for i in sorted(results)]
    return {**transcript.to_dict(), "epsilon_prime": max(r.epsilon_prime for r in results.values()), "sites": sites}


@main.group("cluster", invoke_without_command=True)
@click.option("--graph", "graph_path", type=click.Path(), default=None)
@click.option("--k", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--normalized", is_flag=True, default=False)
@click.pass_context
@_command
def cluster_group(ctx, graph_path, k, seed, normalized):
    """Spectral clustering of an edge-list graph (or `cluster compare`)."""
    if ctx.invoked_subcommand is not None:
        # these options belong to the clustering run, which does not happen
        given = [p.opts[0] for p in ctx.command.params if ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
        if given:
            raise click.UsageError(
                f"{', '.join(given)}: only for `cluster` without a subcommand;"
                " `cluster compare` takes its own: `cluster compare --out <path> LABELS_A LABELS_B`"
            )
        return
    if graph_path is None or k is None:
        raise click.UsageError("cluster requires --graph and --k")
    a = cl.spectral_clustering(load_graph_file(graph_path), k, seed, normalized=normalized)
    return {"k": a.k, "labels": list(a.labels)}


def _load_labels(path):
    doc = load_json(path)
    labels = doc.get("labels") if isinstance(doc, dict) else doc
    if not isinstance(labels, list):
        raise ParseError(f"{path}: expected a list of labels or an object with a 'labels' list")
    bad = [x for x in labels if type(x) is not int]  # bool is not a label
    if bad:
        raise ParseError(f"{path}: labels must be JSON integers, got {json.dumps(bad[0])}")
    # compact ids so sparse labelings still form a valid assignment;
    # the ARI is invariant under relabeling
    remap = {lab: i for i, lab in enumerate(sorted(set(labels)))}
    labels = [remap[x] for x in labels]
    return cl.ClusterAssignment(labels=tuple(labels), k=len(remap))


@cluster_group.command("compare")
@click.argument("labels_a", type=click.Path())
@click.argument("labels_b", type=click.Path())
@_command
def cluster_compare_cmd(labels_a, labels_b):
    """Adjusted Rand index between two label files."""
    return {"ari": cl.adjusted_rand_index(_load_labels(labels_a), _load_labels(labels_b))}


if __name__ == "__main__":
    main()
