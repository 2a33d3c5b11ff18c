#!/usr/bin/env python3
"""Run the full path-graph oracle suite and the two-copy bridging probe.

Covers the orders 11, 13 and 14 and the k-port cases (9, 3) and (15, 5),
plus the eigenvalue-insensitivity probe for bridged path pairs at n = 5, 7
and 9.
"""

import argparse

from spectral_kcenter.experiments import conjecture_probe, path_theory_checks
from spectral_kcenter.metrics import MetricParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=MetricParams.epsilon)
    args = ap.parse_args()

    failures = 0
    for (n, k) in ((11, None), (13, None), (14, None), (9, 3), (15, 5)):
        label = f"n={n}" + (f", k={k}" if k else "")
        print(f"== path checks {label}")
        for c in path_theory_checks(n, k=k, eps=args.epsilon):
            flag = "ok " if c.passed else "FAIL"
            print(f"  [{flag}] {c.check_id:<28} residual {c.residual:.2e}")
            failures += 0 if c.passed else 1

    print("== bridging probe (two perturbed copies joined by one edge)")
    for n in (5, 7, 9):
        rep = conjecture_probe(n, eps=args.epsilon)
        print(f"  n={n}: max |lambda_min shift| over {rep['edges_checked']} "
              f"bridges = {rep['max_abs_deviation']:.2e} "
              f"(worst edge {rep['worst_edge']})")
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
