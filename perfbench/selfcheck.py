"""Harness self-check: the benchmark's computed counts are deterministic.

For each workload, runs one traced pass twice with the same workload seed,
in two fresh processes, and requires every count (calls, Σn³, pairs
intersected, edges validated, occurrence lookups, q drawn, ...) to repeat
exactly. Then runs a pass on a second workload seed and requires every
output check to pass there as well. Exits 1 on any mismatch or failure.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 1


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        detail = json.loads(out.stdout.strip().splitlines()[-2])
        raise SystemExit(f"{workload} seed {seed}: failed checks {detail['problems']}")
    return result["metrics"]


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items() if not k.endswith("self_s") and k != "trace.overhead"}


def main() -> int:
    ok = True
    for w in WORKLOADS:
        first, second = counts(run(w, SEED, 1)), counts(run(w, SEED, 1))
        differ = sorted(k for k in first if first[k] != second.get(k))
        if differ:
            ok = False
            print(f"{w}: counts differ between two runs of seed {SEED}: "
                  + ", ".join(f"{k} {first[k]} vs {second.get(k)}" for k in differ))
        run(w, SEED + 1, 0)
        print(f"{w}: {len(first)} counts repeat exactly; seed {SEED + 1} passes every output check"
              if not differ else f"{w}: seed {SEED + 1} passes every output check")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
