"""Per-layer tracing from outside the program.

`Tracer.installed()` wraps the public functions of every layer for the
duration of one op, replacing each function at *every* import site (the
defining module and every `distsparse` module that bound it by name, such
as `cli` and `nof` binding `sparsify_er`), so no call escapes. Each wrapper
records a span (name, parent, start, end); self time is a span's duration
minus the time its child spans cover. Spans stay in memory; the run
writes them out when it ends.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer module -> public functions that get a span
TIMED = {
    "graph": ("load_graph", "laplacian", "induced_subgraph", "dump_graph"),
    "overlap": ("load_family", "overlapping_cardinality_partition"),
    "sparsify": ("sparsify_er", "effective_resistances", "verify_epsilon", "union_sparsifiers"),
    "nof": ("is_delta_system", "protocol_verify_sunflower", "protocol_broadcast_graph", "protocol_sparsifier_exchange"),
    "cluster": ("spectral_embedding", "kmeans"),
}
# called too often (or too cheaply) for a span: calls are counted only
COUNTED = {
    "graph": ("connected_components",),
    "overlap": ("occurrence_number",),
    "nof": ("site_view",),
}
# validating constructors, traced as spans named after the class
CLASSES = {"graph": "WeightedGraph", "overlap": "EdgeFamily"}
LINALG = ("pinv", "eigh", "eigvalsh")
MODULES = ("distsparse", "distsparse.graph", "distsparse.overlap", "distsparse.sparsify",
           "distsparse.nof", "distsparse.cluster", "distsparse.cli")
SPANNED = (*(f for fs in TIMED.values() for f in fs), *CLASSES.values(), *(f"linalg.{f}" for f in LINALG))
COUNTS = ("graph.edges_validated", "linalg.dense_n3", "linalg.bytes_in", "sparsify.q_drawn",
          "nof.pairs_intersected", "nof.edges_written", "cli.errors")


class _CountingGenerator(np.random.Generator):
    """`default_rng` stand-in that adds every multinomial draw count to q."""

    def multinomial(self, n, pvals, size=None):
        if self.tracer.scope == "sparsify":
            self.tracer.counts["sparsify.q_drawn"] += int(n)
        return super().multinomial(n, pvals, size)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span id, child time] per open span
        # op kind being run; the sampler counts (q drawn, edges kept) are
        # taken from the sparsify command alone, whose sampler sets kept_frac
        self.scope = None

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)
            self.calls[name] += 1
            self.self_s[name] += (end - start) - frame[1]
            if self._stack:
                self._stack[-1][1] += end - start

    def _timed(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _wrappers(self):
        """{original: wrapper} for the traced functions and {class: wrapped
        __post_init__} for the validating constructors."""
        c = self.counts

        def validated(obj):
            c["graph.edges_validated"] += len(obj.edges)

        def pairs(sets, *a, **k):
            t = len(sets)
            c["nof.pairs_intersected"] += t * (t - 1) // 2

        def written(out):
            c["nof.edges_written"] += out[0].edge_cost

        def kept(out):
            if self.scope == "sparsify":
                c["sparsify.kept"] += out.h.m

        def dense(a, *args, **kwargs):
            n = np.shape(a)[0]
            c["linalg.dense_n3"] += n**3
            c["linalg.bytes_in"] += 8 * n * n

        hooks = {"is_delta_system": (pairs, None), "sparsify_er": (None, kept),
                 **{p: (None, written) for p in TIMED["nof"][1:]}}
        out = {}
        for mod, names in TIMED.items():
            m = sys.modules[f"distsparse.{mod}"]
            for name in names:
                fn = getattr(m, name)
                out[fn] = self._timed(name, fn, *hooks.get(name, (None, None)))
        for mod, names in COUNTED.items():
            m = sys.modules[f"distsparse.{mod}"]
            for name in names:
                fn = getattr(m, name)
                out[fn] = self._counted(name, fn)
        for name in LINALG:
            fn = getattr(np.linalg, name)
            out[fn] = self._timed(f"linalg.{name}", fn, before=dense)
        classes = {}
        for mod, cls_name in CLASSES.items():
            cls = getattr(sys.modules[f"distsparse.{mod}"], cls_name)
            before = validated if cls_name == "WeightedGraph" else None
            classes[cls] = self._timed(cls_name, cls.__post_init__, before=before)
        return out, classes

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at every import site for one op."""
        wrappers, classes = self._wrappers()
        saved = []
        for modname in MODULES:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for name in LINALG:
            saved.append((np.linalg, name, getattr(np.linalg, name)))
            setattr(np.linalg, name, wrappers[getattr(np.linalg, name)])
        saved.append((np.random, "default_rng", np.random.default_rng))

        def counting_rng(seed=None):
            rng = _CountingGenerator(np.random.PCG64(seed))
            rng.tracer = self
            return rng

        np.random.default_rng = counting_rng
        for cls, wrapper in classes.items():
            saved.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = wrapper
        try:
            yield
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values of everything traced so far."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out = {}
        for name in SPANNED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["connected_components.calls"] = calls["connected_components"]
        out["site_view.calls"] = calls["site_view"]
        out["overlap.occurrence_lookups"] = calls["occurrence_number"]
        for name in COUNTS:
            out[name] = counts[name]
        q = counts["sparsify.q_drawn"]
        out["sparsify.distinct_per_draw"] = counts["sparsify.kept"] / max(q, 1)
        out["cli.self_s"] = self_s.get("cli", 0.0)
        return out
