"""The three workloads and the outputs each pass produces.

A pass runs one workload once over inputs made from the seed and returns its
operations in execution order. Each operation carries a key, a one-line
canonical output (what the output check digests) and whether it failed.

- ``compare``: the paper's agreement table. ``run_comparison`` over the five
  paper rows with default parameters, serialized by ``comparison_csv``.
  Thousands of small ``select_best`` calls (at most 165 subsets, n <= 11);
  the only workload where the comparison reuse cache and the random instance
  generators do real work.
- ``select-cap``: ``select_best`` for all six metrics and k = 1..3 at the
  desk cap n = 20 on ``path:20``, one random tree and one random connected
  graph. Few calls of up to 1140 subsets each, so per-subset cost dominates.
  ``path:20`` with k = 3 under ARE raises ``NumericError`` at the seed
  commit; it stays in the workload and counts as a failed operation.
- ``path-oracle``: ``path_theory_checks`` for n = 3..40, the k-port cases
  (9, 3) and (15, 5), and ``conjecture_probe`` for odd n = 5..19. Spectral
  metrics and single ``sym_eigen`` calls only, with no ARE, Gramian or
  comparison work: the row that an ARE or agreement-loop change must leave
  unchanged. Its inputs do not depend on the seed; the seed only shuffles
  the order of the cases.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from spectral_kcenter.errors import NumericError
from spectral_kcenter.experiments import HEURISTIC_METRICS
from spectral_kcenter.graphs import Graph, path_graph, random_connected_graph, random_tree
from spectral_kcenter.metrics import Metric

from check import check_comparison
from tracing import Recorder, SelectCall

PAPER_ROWS = ("path:11", "tree:7", "tree:9", "general:7", "general:9")
K_LIST = (1, 2, 3)
# Trials per compare pass: about 4 s on a 2-vCPU Xeon at 2.0 GHz, so a run
# holds several passes. The paper table uses 100; the per-call mix is the same.
COMPARE_TRIALS = 10
CAP_N = 20
PATH_ORACLE_CASES = ([("checks", n, None) for n in range(3, 41)]
                     + [("checks", 9, 3), ("checks", 15, 5)]
                     + [("probe", n, None) for n in range(5, 20, 2)])


@dataclass(frozen=True)
class Op:
    key: str
    line: str
    failed: bool
    detail: object = field(default=None, compare=False)  # kept for checks only


def graph_id(g: Graph) -> str:
    edges = ",".join(f"{u}-{v}" for (u, v) in g.sorted_edges())
    return f"n{g.n}:{hashlib.sha256(edges.encode()).hexdigest()[:12]}"


def select_line(call: SelectCall) -> str:
    head = f"{graph_id(call.graph)} {call.metric.value} k={call.k}"
    if call.result is None:
        verb = "skipped" if call.skipped else "raised"
        return f"{head} {verb} {type(call.error).__name__}"
    res = call.result
    ties = " ".join(",".join(map(str, t)) for t in res.ties)
    best = ",".join(map(str, res.best))
    return f"{head} best={best} ties={ties} score={res.score:.12g}"


def select_op(key: str, call: SelectCall) -> Op:
    return Op(key, select_line(call), call.failed)


def error_op(key: str, exc: NumericError) -> Op:
    return Op(key, f"raised {type(exc).__name__}", True)


@dataclass
class Workload:
    name: str
    make_inputs: Callable[[int], object]
    run_pass: Callable[[object, Recorder], list[Op]]
    # whether an operation's output is the same for every seed, so that the
    # default-seed reference applies to it at any seed
    seed_free: Callable[[str], bool]
    # problems found in a pass's outputs beyond the per-selection checks
    check: Callable[[object, list[Op], list[SelectCall]], list[str]] = (
        lambda inputs, ops, selects: [])
    # (instance, k, metric) selections a comparison table reads, per pass
    selections_read: Callable[[object], int] = lambda inputs: 0


def _compare_pass(seed: int, rec: Recorder) -> list[Op]:
    first = len(rec.selects)
    try:
        report = rec.call("experiments.run_comparison", list(PAPER_ROWS),
                          trials=COMPARE_TRIALS, seed=seed)
        csv = rec.call("cli.comparison_csv", report)
        csv_op = Op("csv", "sha256=" + hashlib.sha256(csv.encode()).hexdigest(), False,
                    detail=csv)
    except NumericError as exc:
        csv_op = error_op("csv", exc)
    ops = [select_op(f"select#{i:05d}", call)
           for i, call in enumerate(rec.selects[first:])]
    return ops + [csv_op]


def _compare_check(seed: int, ops: list[Op], selects: list[SelectCall]) -> list[str]:
    csv = next(op.detail for op in ops if op.key == "csv")
    if csv is None:
        return []  # run_comparison raised; the failed operation already counts
    return check_comparison(csv, selects, PAPER_ROWS, COMPARE_TRIALS, seed, K_LIST)


def _compare_selections(seed: int) -> int:
    # every row here has n > max(K_LIST); each (trial, k) reads mplse plus
    # the heuristic metrics
    return len(PAPER_ROWS) * COMPARE_TRIALS * len(K_LIST) * (1 + len(HEURISTIC_METRICS))


def _cap_inputs(seed: int) -> list[tuple[str, Graph]]:
    return [("path", path_graph(CAP_N)),
            ("tree", random_tree(CAP_N, seed)),
            ("general", random_connected_graph(CAP_N, 0.4, seed))]


def _cap_pass(graphs: list[tuple[str, Graph]], rec: Recorder) -> list[Op]:
    ops = []
    for label, g in graphs:
        for metric in Metric:
            for k in K_LIST:
                try:
                    rec.select_best(g, k, metric)
                except NumericError:
                    pass  # recorded by the wrapper: failed or skipped
                ops.append(select_op(f"{label}:{g.n} {metric.value} k={k}",
                                     rec.selects[-1]))
    return ops


def _oracle_inputs(seed: int) -> list[tuple[str, int, object]]:
    order = np.random.default_rng(seed).permutation(len(PATH_ORACLE_CASES))
    return [PATH_ORACLE_CASES[i] for i in order]


def _oracle_pass(cases, rec: Recorder) -> list[Op]:
    ops = []
    for kind, n, k in cases:
        if kind == "probe":
            rep = rec.call("experiments.conjecture_probe", n)
            ops.append(Op(f"probe n={n}", f"edges={rep['edges_checked']} "
                          f"worst_edge={rep['worst_edge']}", False))
            continue
        key = f"path n={n} k={k}"
        try:
            checks = rec.call("experiments.path_theory_checks", n, k=k)
        except NumericError as exc:
            ops.append(error_op(key, exc))
            continue
        ops.extend(Op(f"{key} {c.check_id}", f"passed={c.passed}", not c.passed)
                   for c in checks)
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("compare", lambda seed: seed, _compare_pass, lambda key: False,
             _compare_check, _compare_selections),
    Workload("select-cap", _cap_inputs, _cap_pass, lambda key: key.startswith("path:")),
    Workload("path-oracle", _oracle_inputs, _oracle_pass, lambda key: True),
)}


def digest(ops: list[Op]) -> str:
    """Digest of a pass's outputs, independent of the order they ran in."""
    text = "\n".join(f"{op.key}\t{op.line}" for op in sorted(ops, key=lambda o: o.key))
    return hashlib.sha256(text.encode()).hexdigest()


def op_hash(op: Op) -> str:
    return hashlib.sha256(op.line.encode()).hexdigest()[:16]
