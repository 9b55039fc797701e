"""Command-line entry point.

Every subcommand emits one JSON report (schema 1) to stdout or ``--out``.
Failures named in the library's error clauses become structured
``{"error": kind, "detail": ...}`` objects with exit status 1; usage errors
exit with status 2.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click

from . import cluster as cl
from . import nof
from .errors import Error, ParseError
from .graph import dump_graph, induced_subgraph, laplacian, load_graph_file, normalized_laplacian
from .overlap import load_family, overlapping_cardinality_partition
from .sparsify import SparsifierResult, sparsify_er, union_sparsifiers, verify_epsilon

SCHEMA = 1


def _emit(doc: dict, out: str | None):
    text = json.dumps(doc) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _report_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Error as exc:
            _emit({"error": exc.kind, "detail": str(exc)}, None)
            sys.exit(1)
        except ValueError as exc:
            _emit({"error": "invalid-value", "detail": str(exc)}, None)
            sys.exit(1)
        except OSError as exc:
            _emit({"error": "io", "detail": str(exc)}, None)
            sys.exit(1)
        except MemoryError as exc:
            _emit({"error": "memory", "detail": str(exc)}, None)
            sys.exit(1)

    return wrapper


out_option = click.option("--out", type=click.Path(), default=None, help="Write the JSON report here instead of stdout.")


@click.group()
def main():
    """Distributed spectral sparsification toolkit."""


@main.command("laplacian")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--normalized", is_flag=True, default=False)
@out_option
@_report_errors
def laplacian_cmd(graph_path, normalized, out):
    """Print the (optionally normalized) Laplacian of an edge-list graph."""
    g = load_graph_file(graph_path)
    L = normalized_laplacian(g) if normalized else laplacian(g)
    _emit(
        {
            "schema": SCHEMA,
            "n": g.n,
            "normalized": L.normalized,
            "matrix": [[float(x) for x in row] for row in L.matrix],
        },
        out,
    )


@main.command("partition")
@click.option("--family", "family_path", required=True, type=click.Path())
@out_option
@_report_errors
def partition_cmd(family_path, out):
    """Overlapping-cardinality partition of a family file."""
    f = load_family(family_path)
    part = overlapping_cardinality_partition(f)
    _emit(
        {
            "schema": SCHEMA,
            "cardinalities": list(part.cardinalities),
            "classes": [
                {"cardinality": c, "edges": [list(e) for e in sorted(cls)]}
                for c, cls in part.classes
            ],
        },
        out,
    )


@main.command("sparsify")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--epsilon", required=True, type=float)
@click.option("--seed", type=int, default=0)
@click.option("--constant", type=float, default=9.0, help="Oversampling constant C in q = ceil(C n ln n / eps^2).")
@click.option("--output", type=click.Path(), default=None, help="Write the sparsifier edge list here (JSON sidecar alongside).")
@out_option
@_report_errors
def sparsify_cmd(graph_path, epsilon, seed, constant, output, out):
    """Effective-resistance sparsifier of an edge-list graph."""
    g = load_graph_file(graph_path)
    res = sparsify_er(g, epsilon, seed, constant=constant)
    doc = {
        "schema": SCHEMA,
        "epsilon_target": res.epsilon_target,
        "epsilon_certified": res.epsilon_certified,
        "edges": res.h.m,
        "seed": res.seed,
    }
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(dump_graph(res.h))
        with open(output + ".json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
    _emit(doc, out)


@main.command("verify")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--sparsifier", "sparsifier_path", required=True, type=click.Path())
@out_option
@_report_errors
def verify_cmd(graph_path, sparsifier_path, out):
    """Exact approximation factor between a graph and a candidate sparsifier."""
    g = load_graph_file(graph_path)
    h = load_graph_file(sparsifier_path)
    eps = verify_epsilon(g, h)
    doc = {"schema": SCHEMA, "epsilon_certified": None if math.isinf(eps) else eps}
    if math.isinf(eps):
        doc["kernel_violation"] = True
    _emit(doc, out)


@main.command("union")
@click.option("--family", "family_path", required=True, type=click.Path())
@click.option("--part", "part_paths", multiple=True, required=True, type=click.Path(), help="Per-set sparsifier edge lists, in family order.")
@click.option("--output", type=click.Path(), default=None, help="Write the union graph edge list here.")
@out_option
@_report_errors
def union_cmd(family_path, part_paths, output, out):
    """Union of per-set sparsifiers with the certified approximation factor."""
    f = load_family(family_path)
    if len(part_paths) != f.t:
        raise ValueError(f"got {len(part_paths)} parts for a family of {f.t} sets")
    parts = []
    for path, edges in zip(part_paths, f.sets):
        h = load_graph_file(path)
        cert = verify_epsilon(induced_subgraph(f.base, edges), h)
        parts.append(SparsifierResult(h=h, epsilon_target=cert, epsilon_certified=cert))
    u = union_sparsifiers(parts, f)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(dump_graph(u.h))
    _emit(
        {
            "schema": SCHEMA,
            "c1": u.c1,
            "ck": u.ck,
            "epsilon_prime": u.epsilon_prime,
            "edges": u.h.m,
        },
        out,
    )


@main.group("nof")
def nof_group():
    """Number-On-Forehead protocol simulations."""


@nof_group.command("verify-sunflower")
@click.option("--family", "family_path", required=True, type=click.Path())
@out_option
@_report_errors
def nof_verify_cmd(family_path, out):
    f = load_family(family_path)
    transcript, verdict = nof.protocol_verify_sunflower(f)
    doc = transcript.to_dict()
    doc = {"schema": SCHEMA, "verdict": verdict, **doc}
    _emit(doc, out)


@nof_group.command("broadcast")
@click.option("--family", "family_path", required=True, type=click.Path())
@click.option("--site", required=True, type=int)
@out_option
@_report_errors
def nof_broadcast_cmd(family_path, site, out):
    f = load_family(family_path)
    transcript, recon = nof.protocol_broadcast_graph(f, site)
    doc = transcript.to_dict()
    doc = {
        "schema": SCHEMA,
        **doc,
        "reconstructions": [
            {"site": i, "edges": [list(e) for e in sorted(recon[i])]} for i in sorted(recon)
        ],
    }
    _emit(doc, out)


@nof_group.command("exchange")
@click.option("--family", "family_path", required=True, type=click.Path())
@click.option("--site", required=True, type=int)
@click.option("--epsilon", required=True, type=float)
@click.option("--seed", type=int, default=0)
@out_option
@_report_errors
def nof_exchange_cmd(family_path, site, epsilon, seed, out):
    f = load_family(family_path)
    transcript, results = nof.protocol_sparsifier_exchange(f, site, epsilon, seed)
    doc = transcript.to_dict()
    doc = {
        "schema": SCHEMA,
        **doc,
        "epsilon_prime": max(r.epsilon_prime for r in results.values()),
        "sites": [
            {"site": i, "epsilon_prime": results[i].epsilon_prime, "edges": results[i].h.m}
            for i in sorted(results)
        ],
    }
    _emit(doc, out)


@main.group("cluster", invoke_without_command=True)
@click.option("--graph", "graph_path", type=click.Path(), default=None)
@click.option("--k", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--normalized", is_flag=True, default=False)
@out_option
@click.pass_context
@_report_errors
def cluster_group(ctx, graph_path, k, seed, normalized, out):
    """Spectral clustering of an edge-list graph (or `cluster compare`)."""
    if ctx.invoked_subcommand is not None:
        return
    if graph_path is None or k is None:
        raise click.UsageError("cluster requires --graph and --k")
    g = load_graph_file(graph_path)
    a = cl.spectral_clustering(g, k, seed, normalized=normalized)
    _emit({"schema": SCHEMA, "k": a.k, "labels": list(a.labels)}, out)


def _load_labels(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from None
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
    return cl.ClusterAssignment(labels=tuple(labels), k=max(len(remap), 1))


@cluster_group.command("compare")
@click.argument("labels_a", type=click.Path())
@click.argument("labels_b", type=click.Path())
@out_option
@_report_errors
def cluster_compare_cmd(labels_a, labels_b, out):
    """Adjusted Rand index between two label files."""
    a = _load_labels(labels_a)
    b = _load_labels(labels_b)
    _emit({"schema": SCHEMA, "ari": cl.adjusted_rand_index(a, b)}, out)


if __name__ == "__main__":
    main()
