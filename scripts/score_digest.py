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

The target ``select`` hashes, for every metric, graph of the corpus and k,
the best set, the tie set and the score bytes of ``select_best(g, k,
metric)`` without the table: the call that scores every port set of a
small selection outright and, above that size and for ARE at every size,
skips the port sets ruled out by their bound. For mplse, msub, msup and
the Gramian, the corpus reaches the skip on the three n = 20 graphs, and
on path:11 and the n = 9 graphs at k = 2 and 3 (msub on the n = 9 graphs
at k = 3 only). It does so at the default parameters for all six metrics, then
for mplse, msub and msup again at each of SELECT_PARAMS (eps = 1e-4, eps = 1
and tau = 0.05), where the skip scores the most and the fewest sets. A case
where the full-table selection raises is hashed by that error instead, so a
selection that the skip lets succeed where every set used to be solved
leaves the digest unchanged; everywhere else the two commits must select
bit for bit alike. A second line follows the digest line: for each metric
at the default parameters, the port sets that got a bound and the port sets
then solved, summed over the corpus (a selection scored outright counts in
neither).

The target ``path`` hashes every ``path_theory_checks`` result (id, flag,
residual as float64 bytes and detail) for n = 3..40 and the k-port cases
(9, 3) and (15, 5), then every ``conjecture_probe`` report for odd
n = 5..19, the cases of the path-oracle benchmark. A second line follows:
the matrices ``sym_eigen`` solves over the path cases and over the probes,
then the stacks it splits between two threads over each (none on a process
allowed one CPU).

The target ``oracle`` hashes, as float64 bytes, the outputs of the path
oracle's closed forms for n = 2..40 and eps in ORACLE_EPS, at every port
or port pair each function accepts: the path, segment and perturbed
characteristic polynomials, the eigenpairs, the k-port series for one and
two ports, both quadratic forms, both eps-slices with the root series of
each, the convexity gap, the optimal ports and the pseudo-Toeplitz value.
It calls public names only, so it runs against any commit that has them.

The target ``cli`` runs each command of CLI_CASES (the README's examples,
``compare`` at 10 trials, one ``select`` that sets every selection flag, and
one command for each nonzero exit code) in a fresh interpreter inside an
empty directory, and hashes its exit code, its stdout bytes, its stderr
bytes and the bytes of every file it wrote there.

    PYTHONPATH=src python3 scripts/score_digest.py mplse msub msup eigvec are gramian \\
        select path oracle cli
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import spectral_kcenter
from spectral_kcenter import (RootSeries, charpoly_eps_slices_1port,
                              charpoly_eps_slices_2port, end_segment_charpoly,
                              inner_segment_charpoly, lambda_min_quadratic_1port,
                              lambda_min_quadratic_2port, lambda_min_series_kport,
                              optimal_ports, path_charpoly, path_charpoly_lowcoeffs,
                              path_eigenpair, perturbed_charpoly_1port,
                              perturbed_charpoly_2port, pseudo_toeplitz_lambda_min,
                              root_series_double, root_series_single)
from spectral_kcenter.errors import NumericError
from spectral_kcenter.experiments import (_row_instance, conjecture_probe,
                                          path_theory_checks)
from spectral_kcenter.graphs import path_graph, random_connected_graph, random_tree
from spectral_kcenter import experiments, metrics, spectral
from spectral_kcenter.metrics import Metric, MetricParams, select_best
from spectral_kcenter.path_theory import convexity_series_gap

ROWS = ("path:11", "tree:7", "tree:9", "general:7", "general:9")
TRIALS = 10
SEED = 424242
K_LIST = (1, 2, 3)
PATH_CASES = [(n, None) for n in range(3, 41)] + [(9, 3), (15, 5)]
PROBE_ORDERS = range(5, 20, 2)
ORACLE_ORDERS = range(2, 41)
ORACLE_EPS = (1e-4, 0.01, 0.3, 1.0)
SELECT_PARAMS = (MetricParams(epsilon=1e-4), MetricParams(epsilon=1.0), MetricParams(tau=0.05))
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
    "compare --rows general:7 --trials 6 --seed 2",
    "path-theory --n 9 --k 10",
    "select --graph path:7 --k 1 --metric mplse --epsilon 1e200",
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


def select_digest(graphs) -> tuple[str, int, int, dict]:
    """The digest, the number of selections, the number of full-table
    errors, and for each bounded metric at the default parameters the sets
    whose bound was computed and the sets then solved, summed over the
    corpus."""
    h = hashlib.sha256()
    selections = errors = 0
    spectral = (Metric.MPLSE, Metric.MSUB_LE, Metric.MSUP_LE)
    cases = ([(metric, MetricParams()) for metric in Metric]
             + [(metric, params) for params in SELECT_PARAMS for metric in spectral])
    counts = {}
    bound_then_solve = metrics._bound_then_solve

    def counted(subsets, score, bound, chunk, metric):
        kept, scores = bound_then_solve(subsets, score, bound, chunk, metric)
        if default:
            tally = counts.setdefault(metric, [0, 0])
            tally[0] += len(subsets)
            tally[1] += len(kept)
        return kept, scores

    with mock.patch.object(metrics, "_bound_then_solve", counted):
        for metric, params in cases:
            default = params == MetricParams()
            for g in graphs:
                for k in K_LIST:
                    h.update(f"{metric.value} eps={params.epsilon} tau={params.tau} "
                             f"n={g.n} edges={g.sorted_edges()} k={k}\n".encode())
                    try:
                        select_best(g, k, metric, params, keep_table=True)
                    except NumericError as exc:
                        errors += 1
                        h.update(f"raised {type(exc).__name__}: {exc}\n".encode())
                        continue
                    try:
                        res = select_best(g, k, metric, params)
                    except NumericError as exc:
                        h.update(f"plain raised {type(exc).__name__}: {exc}\n".encode())
                        continue
                    selections += 1
                    h.update(np.float64(res.score).tobytes())
                    h.update(f"best={res.best} ties={res.ties}\n".encode())
    return h.hexdigest(), selections, errors, counts


def path_digest() -> tuple[str, int, int, dict, dict]:
    """The digest, the number of check results, the number of probes, and
    the matrices ``sym_eigen`` solves and the stacks it splits, each over
    the path cases and the probes."""
    h = hashlib.sha256()
    checks = 0
    solved = {"cases": 0, "probes": 0}
    split = {"cases": 0, "probes": 0}
    part = "cases"
    sym_eigen = experiments.sym_eigen
    splits = spectral._splits

    def counted(A):
        solved[part] += int(np.prod(np.shape(A)[:-2]))
        return sym_eigen(A)

    def counted_split(A):
        splitting = splits(A)
        split[part] += splitting
        return splitting

    with mock.patch.object(metrics, "sym_eigen", counted), \
            mock.patch.object(experiments, "sym_eigen", counted), \
            mock.patch.object(spectral, "_splits", counted_split):
        for n, k in PATH_CASES:
            h.update(f"path n={n} k={k}\n".encode())
            for c in path_theory_checks(n, k=k):
                checks += 1
                h.update(f"{c.check_id} passed={c.passed}\n".encode())
                h.update(np.float64(c.residual).tobytes())
                h.update(f"{c.detail}\n".encode())
        part = "probes"
        for n in PROBE_ORDERS:
            # JSON writes each float by its shortest exact repr
            h.update(f"probe {json.dumps(conjecture_probe(n), sort_keys=True)}\n".encode())
    return h.hexdigest(), checks, len(PROBE_ORDERS), solved, split


def _floats(value) -> np.ndarray:
    """Every number in a (nested) oracle output, in order, as float64."""
    if isinstance(value, RootSeries):
        value = (value.beta1, value.beta2)
    if isinstance(value, tuple):
        return np.concatenate([np.empty(0)] + [_floats(v) for v in value])
    return np.ravel(np.asarray(value, dtype=np.float64))


def oracle_outputs(n: int):
    """(name, output) for every oracle call on P_n, in a fixed order."""
    ports = range(1, n + 1)
    pairs = [(p1, p2) for p1 in ports for p2 in ports if p1 < p2]
    yield "path_charpoly", path_charpoly(n)
    yield "path_charpoly_lowcoeffs", path_charpoly_lowcoeffs(n)
    yield "end_segment_charpoly", end_segment_charpoly(n)
    yield "inner_segment_charpoly", inner_segment_charpoly(n)
    yield "pseudo_toeplitz_lambda_min", pseudo_toeplitz_lambda_min(n)
    for j in ports:
        yield "path_eigenpair", path_eigenpair(n, j)
    for k in range(1, n):
        if n % k == 0 and (n // k) % 2 == 1:
            yield "optimal_ports", optimal_ports(n, k)
    one_port = n % 2 == 1
    two_port = n % 4 == 2
    halves = [(j1, j2) for j1, j2 in pairs if j1 < n / 2 < j2]
    split = [(p1, p2) for p1, p2 in pairs if 1 < p1 and p2 < n and p2 - p1 >= 2]
    if one_port:
        for j in ports:
            a, b = charpoly_eps_slices_1port(n, j)
            yield "charpoly_eps_slices_1port", (a, b, root_series_single(a, b))
    if two_port:
        for j1, j2 in halves:
            a, b, c = charpoly_eps_slices_2port(n, j1, j2)
            yield "charpoly_eps_slices_2port", (a, b, c, root_series_double(a, b, c))
    for eps in ORACLE_EPS:
        yield "convexity_series_gap", convexity_series_gap(n, eps)
        for p in ports:
            yield "perturbed_charpoly_1port", perturbed_charpoly_1port(n, p, eps)
            yield "lambda_min_series_kport", lambda_min_series_kport(n, (p,), eps)
        for pair in pairs:
            yield "lambda_min_series_kport", lambda_min_series_kport(n, pair, eps)
        if n >= 6:
            for p1, p2 in split:
                yield "perturbed_charpoly_2port", perturbed_charpoly_2port(n, p1, p2, eps)
        if one_port:
            for j in ports:
                yield "lambda_min_quadratic_1port", lambda_min_quadratic_1port(n, j, eps)
        if two_port:
            for j1, j2 in halves:
                yield "lambda_min_quadratic_2port", lambda_min_quadratic_2port(n, j1, j2, eps)


def oracle_digest() -> tuple[str, int]:
    """The digest and the number of oracle outputs."""
    h = hashlib.sha256()
    outputs = 0
    for n in ORACLE_ORDERS:
        for name, value in oracle_outputs(n):
            outputs += 1
            h.update(f"{name} n={n}\n".encode())
            h.update(_floats(value).tobytes())
    return h.hexdigest(), outputs


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
            h.update(b"stderr\n")
            h.update(r.stderr)
            for f in sorted(Path(tmp).iterdir()):
                h.update(f"file {f.name}\n".encode())
                h.update(f.read_bytes())
    return h.hexdigest(), len(CLI_CASES)


def _target(name: str):
    return name if name in ("select", "path", "oracle", "cli") else Metric.parse(name)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("targets", nargs="+", type=_target,
                    help="metric names (" + ", ".join(m.value for m in Metric)
                         + "), select, path, oracle or cli")
    args = ap.parse_args()
    graphs = None
    for target in args.targets:
        if target == "path":
            digest, checks, probes, solved, split = path_digest()
            print(f"path {digest} checks={checks} probes={probes}")
            print("path matrices sym_eigen solves: "
                  + " ".join(f"{part}={count}" for part, count in solved.items())
                  + "; stacks it splits: "
                  + " ".join(f"{part}={count}" for part, count in split.items()))
            continue
        if target == "oracle":
            digest, outputs = oracle_digest()
            print(f"oracle {digest} outputs={outputs}")
            continue
        if target == "cli":
            digest, commands = cli_digest()
            print(f"cli {digest} commands={commands}")
            continue
        graphs = graphs or corpus()
        if target == "select":
            digest, selections, errors, counts = select_digest(graphs)
            print(f"select {digest} selections={selections} errors={errors}")
            print("select at the default parameters, sets bounded/solved: "
                  + " ".join(f"{metric.value}={bounded}/{solved}"
                             for metric, (bounded, solved) in counts.items()))
            continue
        digest, scores, errors = metric_digest(target, graphs)
        print(f"{target.value} {digest} scores={scores} errors={errors}")


if __name__ == "__main__":
    main()
