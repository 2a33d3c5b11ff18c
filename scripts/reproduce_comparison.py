#!/usr/bin/env python3
"""Reproduce the metric-comparison study at desk scale.

Runs all five benchmark rows (deterministic per seed), prints a compact
table of pooled agreement with the perturbed-Laplacian selection, and
writes the full per-k CSV next to this script.
"""

import argparse
from pathlib import Path

from spectral_kcenter.cli import comparison_csv
from spectral_kcenter.experiments import run_comparison

ROWS = ["path:11", "tree:7", "tree:9", "general:7", "general:9"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=424242)
    ap.add_argument("--out", default=str(Path(__file__).with_name("comparison.csv")))
    args = ap.parse_args()

    report = run_comparison(ROWS, trials=args.trials, seed=args.seed)
    Path(args.out).write_text(comparison_csv(report) + "\n")

    metrics = [a.metric_b.value for a in report.rows[0].agreements]
    print(f"% agreement with mplse, pooled over k=1..3 "
          f"({args.trials} trials, seed {args.seed})")
    print(f"{'row':<12}" + "".join(f"{m:>10}" for m in metrics))
    for row in report.rows:
        cells = "".join(f"{a.pooled:>9.2f}%" for a in row.agreements)
        print(f"{row.row_id:<12}{cells}")
    print(f"\nfull per-k table written to {args.out}")
    violations = report.msup_violations()
    if violations:
        print("note: super-stochastic column below 100% on: "
              + ", ".join(violations))


if __name__ == "__main__":
    main()
