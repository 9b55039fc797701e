"""Command-line entry point.

Every subcommand loads its inputs, computes, and returns its report as a
dict; the `_command` decorator is the one path that emits it. It adds
``--out``, runs the command with numpy's overflow, divide and invalid-value
checks raising instead of warning, puts ``"schema": 1`` first and writes one
line of strict JSON to stdout or ``--out``. A report may hold frozensets of
edges, each written as its sorted edges; the emit path (`_json_line`)
renders each distinct set once and writes that one string wherever the set
appears, piece by piece, never joining the report into one string. So the
NOF broadcast's report, which holds the one union s times, costs one
rendering of it. An infinite top-level value (an edge joins two components
of the graph it is measured against, so no finite factor exists) is
reported as null with ``"kernel_violation": true``; any other value that is
not finite is an ``invalid-value`` error. A failure is one
``{"error": kind, "detail": ...}`` line on stdout with exit status 1; usage
errors exit with status 2.

Commands use the library's results as they come: `laplacian` and
`normalized_laplacian` return the n x n array, `nof.site_view` the tuple of
the sets a site sees, `overlapping_cardinality_partition` the tuple of
(cardinality, edge set) classes, and `sparsify_er` a `SparsifierResult`
holding only the sparsifier `h` and its certified factor; a report's target
epsilon and seed are the command's own options.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import cluster as cl
from . import nof
from .errors import Error, ParseError
from .graph import dump_graph, induced_subgraph, laplacian, load_graph_file, normalized_laplacian
from .overlap import load_family, load_json, overlapping_cardinality_partition
from .sparsify import SparsifierResult, sparsify_er, union_sparsifiers, verify_epsilon

SCHEMA = 1


# how `_json_line` writes the placeholder of its i-th edge set, the string
# NUL, i, NUL; a report that holds edge sets has no other string with a NUL,
# as its strings are the program's own keys and write kinds
_PLACEHOLDER = re.compile(r'"\\u0000(\d+)\\u0000"')


def _json_line(doc: dict) -> list[str]:
    """`doc` as one line of strict JSON, in pieces that join to the line: a
    NaN or infinite value raises `ValueError`, which the command reports as
    `invalid-value`, and a value of any other type JSON lacks raises
    `TypeError`. A frozenset of edges is written as its sorted edges. Each
    distinct set is rendered once, and that one string is the piece wherever
    the set appears, so a report that holds one edge set many times (every
    site of the NOF broadcast holds the whole union) costs one rendering of
    it and is never held as one string."""
    index: dict[frozenset, int] = {}  # edge set -> its place in `rendered`
    rendered: list[str] = []

    def edge_set(obj):
        if not isinstance(obj, frozenset):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if obj not in index:
            index[obj] = len(rendered)
            rendered.append(json.dumps(sorted(obj), allow_nan=False))
        return f"\0{index[obj]}\0"

    text = json.dumps(doc, allow_nan=False, default=edge_set) + "\n"
    if not rendered:
        return [text]
    pieces = _PLACEHOLDER.split(text)
    pieces[1::2] = [rendered[int(i)] for i in pieces[1::2]]
    return pieces


def _emit(pieces: list[str], out: str | None):
    """Write the pieces of a report to `out`, or to stdout and flush it. The
    report is ASCII JSON, so it holds nothing for `click.echo` to strip."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()


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
    """A command with `--out` that emits the report `fn` returns (nothing
    when it returns None) or the error object of its failure."""

    @click.option("--out", type=click.Path(), default=None, help="Write the JSON report here instead of stdout.")
    @functools.wraps(fn)
    def wrapper(*args, out, **kwargs):
        try:
            # overflow, 0/0 and x/0 raise here instead of printing a warning
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                doc = fn(*args, **kwargs)
                if doc is not None:
                    _emit(_json_line(_report(doc)), out)
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
        _emit(_json_line(error), None)
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
    return {"n": g.n, "normalized": normalized, "matrix": L.tolist()}


@main.command("partition")
@click.option("--family", "family_path", required=True, type=click.Path())
@_command
def partition_cmd(family_path):
    """Overlapping-cardinality partition of a family file."""
    classes = overlapping_cardinality_partition(load_family(family_path))
    return {
        "cardinalities": [c for c, _ in classes],
        "classes": [{"cardinality": c, "edges": cls} for c, cls in classes],
    }


@main.command("sparsify")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--epsilon", required=True, type=float)
@click.option("--seed", type=int, default=0)
@click.option("--constant", type=float, default=9.0, help="Oversampling constant C in q = ceil(C n ln n / eps^2).")
@click.option("--output", type=click.Path(), default=None, help="Write the sparsifier edge list here (JSON sidecar alongside).")
@_command
def sparsify_cmd(graph_path, epsilon, seed, constant, output):
    """Effective-resistance sparsifier of an edge-list graph."""
    g = load_graph_file(graph_path)
    res = sparsify_er(g, epsilon, seed, constant=constant)
    doc = {
        "epsilon_target": epsilon,
        "epsilon_certified": res.epsilon_certified,
        "edges": res.h.m,
        "seed": seed,
    }
    if output:
        sidecar = _json_line(_report(doc))  # a report that is not JSON writes no file
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(dump_graph(res.h))
        _emit(sidecar, output + ".json")
    return doc


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
    parts = []
    for path, edges in zip(part_paths, f.sets):
        h = load_graph_file(path)
        cert = verify_epsilon(induced_subgraph(f.base, edges), h)
        parts.append(SparsifierResult(h=h, epsilon_certified=cert))
    u = union_sparsifiers(parts, f)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(dump_graph(u.h))
    return {"c1": u.c1, "ck": u.ck, "epsilon_prime": u.epsilon_prime, "edges": u.h.m}


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
    return {
        **transcript.to_dict(),
        "epsilon_prime": max(r.epsilon_prime for r in results.values()),
        "sites": [
            {"site": i, "epsilon_prime": results[i].epsilon_prime, "edges": results[i].h.m} for i in sorted(results)
        ],
    }


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
