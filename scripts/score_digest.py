#!/usr/bin/env python3
"""Digest every selection score on a fixed corpus, one sha256 per metric,
and the path-graph suite's outputs as one more sha256.

For each metric named on the command line, runs
``select_best(g, k, metric, keep_table=True)`` for k = 1..3 on every graph of
the corpus and hashes, in order, each graph's edge list and k, then either
every table score as float64 bytes with the best set and the tie set, or the
type and the message of the error raised. Two commits that print the same
digest for a metric score that metric bit for bit alike on the corpus, and
fail alike where they fail.

The corpus is fixed: the five comparison rows at 10 trials and seed 424242,
drawn as ``run_comparison`` draws them, then path:20, a random tree and a
G(20, 0.4) at the same seed.

The target ``path`` hashes every ``path_theory_checks`` result (id, flag,
residual as float64 bytes and detail) for n = 3..40 and the k-port cases
(9, 3) and (15, 5), then every ``conjecture_probe`` report for odd
n = 5..19, the cases of the path-oracle benchmark.

The target ``cli`` runs each command of CLI_CASES (the README's examples,
``compare`` at 10 trials, and one ``select`` that sets every selection flag)
in a fresh interpreter inside an empty directory, and hashes its exit code,
its stdout bytes and the bytes of every file it wrote there.

    PYTHONPATH=src python3 scripts/score_digest.py are gramian path cli
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import spectral_kcenter
from spectral_kcenter.errors import NumericError
from spectral_kcenter.experiments import (_row_instance, conjecture_probe,
                                          path_theory_checks)
from spectral_kcenter.graphs import path_graph, random_connected_graph, random_tree
from spectral_kcenter.metrics import Metric, select_best

ROWS = ("path:11", "tree:7", "tree:9", "general:7", "general:9")
TRIALS = 10
SEED = 424242
K_LIST = (1, 2, 3)
PATH_CASES = [(n, None) for n in range(3, 41)] + [(9, 3), (15, 5)]
PROBE_ORDERS = range(5, 20, 2)
CLI_CASES = [
    "select --graph path:11 --k 1 --metric mplse --epsilon 0.01",
    "select --graph fig1 --k 2 --metric mplse",
    "select --graph path:14 --k 2 --metric msub",
    "compare --rows path:11,tree:9 --trials 10 --seed 0 --out table.csv",
    "path-theory --n 11",
    "path-theory --n 9 --k 3",
    "lambda-profile --n 11 --grid-step 0.05",
    "convexity --n 15 --k 1,3,5",
    "conjecture --n 5,7,9",
    "select --graph random-graph:7,0.4 --k 2 --metric msub --metric are "
    "--tau 0.1 --rho 1e-4 --seed 13 --keep-table",
]


def corpus():
    graphs = [_row_instance(row, SEED, i, t)
              for i, row in enumerate(ROWS) for t in range(TRIALS)]
    return graphs + [path_graph(20), random_tree(20, SEED),
                     random_connected_graph(20, 0.4, SEED)]


def metric_digest(metric: Metric, graphs) -> tuple[str, int, int]:
    """The digest, the number of scores and the number of errors."""
    h = hashlib.sha256()
    scores = errors = 0
    for g in graphs:
        for k in K_LIST:
            h.update(f"n={g.n} edges={g.sorted_edges()} k={k}\n".encode())
            try:
                res = select_best(g, k, metric, keep_table=True)
            except NumericError as exc:
                errors += 1
                h.update(f"raised {type(exc).__name__}: {exc}\n".encode())
                continue
            values = np.array([v for _, v in res.table], dtype=np.float64)
            scores += len(values)
            h.update(values.tobytes())
            h.update(f"best={res.best} ties={res.ties}\n".encode())
    return h.hexdigest(), scores, errors


def path_digest() -> tuple[str, int, int]:
    """The digest, the number of check results and the number of probes."""
    h = hashlib.sha256()
    checks = 0
    for n, k in PATH_CASES:
        h.update(f"path n={n} k={k}\n".encode())
        for c in path_theory_checks(n, k=k):
            checks += 1
            h.update(f"{c.check_id} passed={c.passed}\n".encode())
            h.update(np.float64(c.residual).tobytes())
            h.update(f"{c.detail}\n".encode())
    for n in PROBE_ORDERS:
        # JSON writes each float by its shortest exact repr
        h.update(f"probe {json.dumps(conjecture_probe(n), sort_keys=True)}\n".encode())
    return h.hexdigest(), checks, len(PROBE_ORDERS)


def cli_digest() -> tuple[str, int]:
    """The digest and the number of commands."""
    h = hashlib.sha256()
    # the child imports the package this script imports
    env = {**os.environ,
           "PYTHONPATH": str(Path(spectral_kcenter.__file__).resolve().parents[1])}
    for case in CLI_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            r = subprocess.run([sys.executable, "-m", "spectral_kcenter.cli",
                                *case.split()], cwd=tmp, env=env, capture_output=True)
            h.update(f"cli {case} exit={r.returncode}\n".encode())
            h.update(r.stdout)
            for f in sorted(Path(tmp).iterdir()):
                h.update(f"file {f.name}\n".encode())
                h.update(f.read_bytes())
    return h.hexdigest(), len(CLI_CASES)


def _target(name: str):
    return name if name in ("path", "cli") else Metric.parse(name)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("targets", nargs="+", type=_target,
                    help="metric names (" + ", ".join(m.value for m in Metric)
                         + "), path or cli")
    args = ap.parse_args()
    graphs = None
    for target in args.targets:
        if target == "path":
            digest, checks, probes = path_digest()
            print(f"path {digest} checks={checks} probes={probes}")
            continue
        if target == "cli":
            digest, commands = cli_digest()
            print(f"cli {digest} commands={commands}")
            continue
        graphs = graphs or corpus()
        digest, scores, errors = metric_digest(target, graphs)
        print(f"{target.value} {digest} scores={scores} errors={errors}")


if __name__ == "__main__":
    main()
