"""Closed-loop benchmark of the distsparse CLI.

One client in one process runs a fixed pass of CLI commands, each invoked
in-process through the click entry point (`distsparse.cli.main`,
`standalone_mode=False`, stdout captured), and starts the next command only
after the previous one has returned and its output has been checked. A pass
is: sparsify, verify, cluster, nof verify-sunflower (sunflower family and
its near-sunflower twin), nof broadcast, nof exchange, the light commands
repeated; each repetition gets a fresh `--seed`/`--site` derived from the
workload seed. See README.md for the workloads and metrics.

    python3 perfbench/run.py --workload er-dense --seed 1 --seconds 45 --trace 0

With `--trace 0` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` untraced and traced passes alternate and it
holds the per-layer metrics (see tracing.py), with the spans written to
`.perfbench_out/`. Command timings are scaled to a fixed machine speed
(see Yardstick). The line before the result records the environment, the
yardstick readings and, per command, the sample count and the median in
seconds as measured and as scaled.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
KINDS = ("sparsify", "verify", "cluster", "sunflower", "nonsunflower", "broadcast", "exchange")
NOF_KINDS = KINDS[3:]
IMPORT_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import distsparse.cli; print(time.perf_counter() - t)"
# the yardstick's nominal time: reported timings are seconds at the machine
# speed at which one yardstick call takes this long
YARDSTICK_S = 0.003
YARDSTICK_TUPLES = 15000
# readings this close to an op (s) give its speed
WINDOW_S = 3.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads() -> int:
    """BLAS threads: never more than the CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS")
    return min(int(asked), cpus) if asked else cpus


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # OPENBLAS_NUM_THREADS sets the count only when the BLAS is OpenBLAS
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]) if "openblas" in str(blas.get("name")).lower() else None,
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Median time to import the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


class Yardstick:
    """A fixed piece of benchmark code, timed between ops to read the
    machine's current speed.

    On a shared virtual machine the speed of the whole machine changes over
    seconds to minutes (a pure-Python loop reads 8 ms in one spell and 14 ms
    in the next). The client calls the yardstick three times after every op
    and keeps each reading. An op's time is scaled by YARDSTICK_S over the
    median of the readings taken within WINDOW_S of the op, so a timing
    reads in seconds at one fixed speed; the median keeps a reading held up
    by something else from skewing an op. The yardstick builds a set of
    tuples and intersects it with another, the kind of allocation-heavy
    interpreter work that slows most in a slow spell (more than dict lookups
    or a dense eigensolve do, and about as much as most ops do). It runs
    with the garbage collector off, so no collection over the program's heap
    lands in its time.
    """

    def __init__(self):
        self.other = frozenset((i, 7 * i) for i in range(0, 2 * YARDSTICK_TUPLES, 2))
        for _ in range(3):
            self.once()
        self.readings = []  # (time taken, seconds)

    def once(self) -> float:
        gc.disable()
        try:
            start = time.perf_counter()
            pairs = set()
            for i in range(YARDSTICK_TUPLES):
                pairs.add((i, 7 * i))
            len(frozenset(pairs) & self.other)
            return time.perf_counter() - start
        finally:
            gc.enable()

    def __call__(self) -> None:
        for _ in range(3):
            seconds = self.once()
            self.readings.append((time.perf_counter(), seconds))

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the yardstick's nominal speed."""
        near = [r for t, r in self.readings if start - WINDOW_S <= t <= start + seconds + WINDOW_S]
        return seconds * YARDSTICK_S / statistics.median(near)


def run_op(cli_main, kind, argv, tracer=None):
    """Run one CLI command; return (seconds, report or None, problem)."""
    buf = io.StringIO()
    problem = None
    if tracer:
        tracer.scope = kind
    trace = tracer.installed() if tracer else contextlib.nullcontext()
    span = tracer.span("cli") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf), trace, span:
        start = time.perf_counter()
        try:
            cli_main(argv, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                problem = f"exit status {exc.code}"
        except Exception as exc:  # any crash of the command is a failed op
            problem = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if problem is not None and tracer:
        tracer.counts["cli.errors"] += 1
    try:
        doc = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        return elapsed, None, problem or "output is not one JSON report"
    return elapsed, doc, problem


class Bench:
    """The client: runs passes, checks every report and keeps the samples."""

    def __init__(self, ds, cli_main, workloads, inp, seed, workdir, yardstick):
        self.ds, self.cli_main, self.wl = ds, cli_main, workloads
        self.inp, self.seed, self.workdir = inp, seed, workdir
        self.yardstick = yardstick
        self.planted = ds.ClusterAssignment(labels=inp.labels, k=workloads.K)
        self.attempted = 0
        self.problems = []
        self.quality = {"kept_frac": [], "eps_certified": [], "ari": [], **{kind: [] for kind in NOF_KINDS}}

    def run_pass(self, k, reps, tracer=None, deadline=None):
        """Run pass k, stopping early at `deadline`; return the (kind,
        start, seconds) samples of the ops that passed their checks."""
        check = self.wl.Checker(self.inp)
        samples = []
        self.yardstick()
        for kind, argv in self.wl.pass_ops(self.inp, self.seed, k, self.workdir, reps):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if kind == "sparsify" and os.path.exists(argv[-1]):
                os.remove(argv[-1])
            # a CLI command runs in a fresh process and never pays for the
            # garbage of an earlier one, so that is collected untimed
            gc.collect()
            start = time.perf_counter()
            elapsed, doc, problem = run_op(self.cli_main, kind, argv, tracer)
            self.yardstick()
            self.attempted += 1
            if problem is None:
                try:
                    problem = check(kind, argv, doc)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    problem = f"{kind}: malformed report ({type(exc).__name__}: {exc})"
            if problem is not None:
                self.problems.append(f"pass {k}: {problem}")
                continue
            samples.append((kind, start, elapsed))
            q = self.quality
            if kind == "sparsify":
                q["kept_frac"].append(doc["edges"] / self.inp.m)
                q["eps_certified"].append(doc["epsilon_certified"])
            elif kind == "cluster":
                got = self.ds.ClusterAssignment(labels=tuple(doc["labels"]), k=doc["k"])
                q["ari"].append(self.ds.adjusted_rand_index(got, self.planted))
            elif kind in NOF_KINDS:
                q[kind].append(doc["bit_cost"])
        return samples


def median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distsparse" / "__init__.py").is_file():
        print(f"error: no distsparse package under {SRC}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    sys.path.insert(0, str(SRC))

    import numpy as np

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        inp = workloads.build_inputs(args.workload, args.seed, workdir)

        yardstick = Yardstick()
        yardstick()
        import_start = time.perf_counter()
        setup_import = import_seconds()
        yardstick()
        import distsparse as ds
        from distsparse.cli import main as cli_main

        if Path(ds.__file__).resolve().parent != SRC / "distsparse":
            print(f"error: imported distsparse from {ds.__file__}, not {SRC}", file=sys.stderr)
            return 2
        bench = Bench(ds, cli_main, workloads, inp, args.seed, workdir, yardstick)
        reps = workloads.WORKLOADS[args.workload]["reps"]

        warm = bench.run_pass(0, (1, 1, 1))

        # untraced passes: samples per op; traced passes: one tracer each
        plain, tracers, traced = [], [], []
        deadline = time.perf_counter() + args.seconds
        k = 1
        while k == 1 or time.perf_counter() < deadline or (args.trace and not tracers):
            if args.trace and k % 2 == 0:
                tracer = Tracer()
                traced.append(bench.run_pass(k, reps, tracer))
                tracers.append(tracer)
            else:
                # the first pass and every pass of a traced run are whole;
                # otherwise the run stops at the deadline, mid-pass
                cut = None if args.trace or k == 1 else deadline
                plain.append(bench.run_pass(k, reps, deadline=cut))
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = bench.attempted, len(bench.problems)

    def scaled_sum(samples):
        return sum(yardstick.scaled(t0, t) for _, t0, t in samples)

    ops = [op for samples in plain for op in samples]
    raw = {kind: [t for kd, _, t in ops if kd == kind] for kind in KINDS}
    scaled = {kind: [yardstick.scaled(t0, t) for kd, t0, t in ops if kd == kind] for kind in KINDS}
    ys = [r for _, r in yardstick.readings]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(np),
        "passes": {"warmup": 1, "untraced": len(plain), "traced": len(tracers)},
        "samples": {kind: {"n": len(raw[kind]), "median_s": median_or_nan(raw[kind]),
                           "median_scaled_s": median_or_nan(scaled[kind])} for kind in KINDS},
        "yardstick_ms": {"n": len(ys), "median": 1e3 * statistics.median(ys),
                         "min": 1e3 * min(ys), "max": 1e3 * max(ys)},
        "setup_import_s": setup_import,
        "warmup_scaled_s": {kind: yardstick.scaled(t0, t) for kind, t0, t in warm},
        "s": inp.s,
        "m": inp.m,
        "problems": bench.problems[:10],
    }

    if args.trace:
        plain_s = statistics.median(scaled_sum(samples) for samples in plain)
        first = tracers[0].metrics()
        values = {
            name: (statistics.median(t.metrics()[name] for t in tracers) if name.endswith("self_s") else v)
            for name, v in first.items()
        }
        values["trace.overhead"] = statistics.median(scaled_sum(samples) for samples in traced) / plain_s - 1.0
        values["cli.errors"] = sum(t.counts["cli.errors"] for t in tracers)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "fields": ["id", "parent", "name", "start", "end"],
                       "passes": [t.spans for t in tracers]}, fh)
    else:
        q = bench.quality
        values = {"setup_s": yardstick.scaled(import_start, setup_import) + scaled_sum(warm)}
        values.update({f"{kind}_s": median_or_nan(v) for kind, v in scaled.items()})
        values["ops_per_s"] = len(ops) / scaled_sum(ops)
        values.update({key: median_or_nan(q[key]) for key in ("kept_frac", "eps_certified")})
        values["bits"] = sum(median_or_nan(q[kind]) for kind in NOF_KINDS)
        values["ari"] = median_or_nan(q["ari"])
        values["ok_frac"] = (attempted - failed) / attempted
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
