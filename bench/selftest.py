#!/usr/bin/env python3
"""Self-test of the benchmark: everything but time repeats exactly.

    python3 bench/selftest.py [--workload NAME ...] [--seed N]

For each workload, runs ``bench/run.py`` three times with the same seed
(traced, traced, untraced; minimum length) and fails unless

- every run reports ``correct``;
- the counts (select_best calls, subsets, eigvec skips, operations, and the
  span count of every layer) are identical between the two traced runs;
- the counts the untraced run has are identical to the traced runs';
- the output digests of all three runs are identical;
- ``BENCHMARK.json`` names exactly the metrics the benchmark prints.

Each run also checks the same things between its own passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from harness import END_TO_END, PER_LAYER  # noqa: E402


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    out = BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text())


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != names:
            errors.append(f"BENCHMARK.json {key} differs from harness.py: "
                          f"{sorted(set(listed.items()) ^ set(names.items()))}")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=("compare", "select-cap", "path-oracle"))
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    errors = check_benchmark_json()
    for workload in args.workload or ("compare", "select-cap", "path-oracle"):
        runs = [run_once(workload, args.seed, t) for t in (1, 1, 0)]
        traced_a, traced_b, plain = runs
        if not all(r["correct"] for r in runs):
            errors.append(f"{workload}: a run is not correct")
        if traced_a["counts"] != traced_b["counts"]:
            errors.append(f"{workload}: counts differ between traced runs")
        shared = {k: v for k, v in traced_a["counts"].items() if k in plain["counts"]}
        if shared != plain["counts"]:
            errors.append(f"{workload}: counts differ between traced and untraced runs")
        if len({r["digest"] for r in runs}) != 1:
            errors.append(f"{workload}: output digests differ between runs")
        print(f"{workload}: {len(traced_a['counts'])} counts, digest {plain['digest'][:16]}")
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
