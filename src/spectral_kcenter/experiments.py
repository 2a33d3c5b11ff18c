"""Experiment harness: selector agreement and the metric comparison table,
the path-graph check suite, eigenvalue-shift profiles, convexity tables,
and the two-copy bridging probe. The CLI is a thin serialization layer over
these.

One loop counts agreement: ``agreement_rate`` runs it, and
``run_comparison`` runs it once per heuristic metric with a selection memo
shared across the table. It looks ``select_best`` up in this module's
globals at call time, so code that rebinds ``experiments.select_best`` (the
benchmark's recorder, the call-contract test) sees every selection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateEigenvalueError, ParameterError
from .graphs import (Graph, figure1_graph, laplacian, path_graph,
                     random_connected_graph, random_tree)
from .metrics import (Metric, MetricParams, _in_stacks, check_subset_count,
                      mplse_score, msub_score, perturbed_laplacian, select_best,
                      stack_rows)
from .path_theory import (convexity_series_gap, has_optimal_ports,
                          lambda_min_quadratic_1port, lambda_min_quadratic_2port,
                          lambda_min_series_kport, lambda_min_series_positions,
                          optimal_ports, path_eigenpair, path_lambda_min,
                          pseudo_toeplitz_lambda_min)
from .spectral import check_index, check_positive, sym_eigen

DESK_MAX_N = 20  # largest order of every select and compare graph
COMPARE_K_LIST = (1, 2, 3)  # the k values of every comparison row
PATH_MAX_N = 40  # largest order of every path-family experiment
_MAX_GRID_POINTS = 10 ** 5  # bounds the real grid of lambda_profile
HEURISTIC_METRICS = (Metric.MSUP_LE, Metric.MSUB_LE, Metric.EIGVEC,
                     Metric.ARE, Metric.GRAMIAN)


def parse_graph_source(source: str, seed: int = 0) -> Graph:
    """Build a graph from a source string: path:n | fig1 | random-tree:n |
    random-graph:n,p | a file path (edge-list format, UTF-8). Every source
    gives a connected graph with n in 2..DESK_MAX_N: a file that describes
    a disconnected or larger one, or that cannot be read, is a
    ParameterError, and so is a negative seed, whatever the source."""
    check_index("seed", seed, 0)
    if source == "fig1":
        return figure1_graph()
    if source.startswith("path:"):
        return path_graph(_parse_order(source[5:], "path order"))
    if source.startswith("random-tree:"):
        return random_tree(_parse_order(source[12:], "tree order"), seed)
    if source.startswith("random-graph:"):
        body = source[13:]
        parts = body.split(",")
        if len(parts) != 2:
            raise ParameterError(f"random-graph needs n,p; got {body!r}")
        n = _parse_order(parts[0], "graph order")
        try:
            p = float(parts[1])
        except ValueError:
            raise ParameterError(f"bad edge probability {parts[1]!r}")
        return random_connected_graph(n, p, seed)
    # anything else is an edge-list file
    from pathlib import Path

    from .graphs import parse_edge_list
    try:
        text = Path(source).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParameterError(f"graph source {source!r} is not a known scheme or a file")
    except OSError as exc:
        raise ParameterError(f"graph file {source!r} cannot be read: {exc.strerror}")
    except UnicodeDecodeError:
        raise ParameterError(f"graph file {source!r} is not UTF-8 text")
    g = parse_edge_list(text)
    check_index("graph order", g.n, 2, DESK_MAX_N)
    if not g.is_connected():
        raise ParameterError(f"graph {source!r} is not connected")
    return g


def _parse_order(text: str, what: str) -> int:
    """The graph order written in ``text``, which must be in 2..DESK_MAX_N;
    checked before any generator runs."""
    try:
        n = int(text)
    except ValueError:
        raise ParameterError(f"bad {what}: {text!r}")
    check_index(what, n, 2, DESK_MAX_N)
    return n


def _trial_seed(seed: int, row_index: int, trial: int) -> int:
    """Deterministic child seed for (row, trial); parallel-safe by design."""
    ss = np.random.SeedSequence([seed, row_index, trial])
    return int(ss.generate_state(1)[0])


def _row_instance(row: str, seed: int, row_index: int, trial: int) -> Graph:
    if row.startswith("path:"):
        return path_graph(_parse_order(row[5:], "path order"))
    if row.startswith("tree:"):
        return random_tree(_parse_order(row[5:], "tree order"),
                           _trial_seed(seed, row_index, trial))
    if row.startswith("general:"):
        return random_connected_graph(_parse_order(row[8:], "graph order"), 0.4,
                                      _trial_seed(seed, row_index, trial))
    raise ParameterError(f"unknown comparison row {row!r} "
                         "(expected path:n, tree:n or general:n)")


@dataclass
class AgreementReport:
    """Agreement of two selectors' best sets over an instance stream."""

    metric_a: Metric
    metric_b: Metric
    per_k: dict[int, float] = field(default_factory=dict)
    pooled: float = 0.0
    skipped_per_k: dict[int, int] = field(default_factory=dict)
    counted_per_k: dict[int, int] = field(default_factory=dict)


def agreement_rate(metric_a: Metric, metric_b: Metric,
                   instances: Iterable[Graph], k_list: Iterable[int],
                   params: MetricParams = MetricParams()) -> AgreementReport:
    """Fraction of (instance, k) pairs on which both selectors pick the same
    best set, per k and pooled, over every instance given (at least one).

    Instances where a selector is undefined (repeated eigenvalue for the
    eigenvector heuristic) are excluded from the denominator and counted
    as skipped.
    """
    instances = list(instances)
    if not instances:
        raise ParameterError("agreement needs at least one instance")
    return _agreement(metric_a, metric_b, instances, k_list, params, {})


def _agreement(metric_a: Metric, metric_b: Metric, instances: Sequence[Graph],
               k_list: Iterable[int], params: MetricParams,
               memo: dict) -> AgreementReport:
    """The agreement loop. ``memo`` maps (edges, n, k, metric) to a best set
    and may be shared between calls with the same params."""

    def best(g: Graph, k: int, metric: Metric) -> tuple[int, ...]:
        key = (g.edges, g.n, k, metric)
        if key not in memo:
            memo[key] = select_best(g, k, metric, params).best
        return memo[key]

    k_list = list(k_list)
    agree = {k: 0 for k in k_list}
    counted = {k: 0 for k in k_list}
    skipped = {k: 0 for k in k_list}
    for g in instances:
        for k in k_list:
            if k >= g.n:
                continue
            try:
                best_a = best(g, k, metric_a)
                best_b = best(g, k, metric_b)
            except DegenerateEigenvalueError:
                skipped[k] += 1
                continue
            counted[k] += 1
            agree[k] += int(best_a == best_b)
    per_k = {k: (100.0 * agree[k] / counted[k]) if counted[k] else float("nan")
             for k in k_list}
    total_counted = sum(counted.values())
    pooled = 100.0 * sum(agree.values()) / total_counted if total_counted else float("nan")
    return AgreementReport(metric_a=metric_a, metric_b=metric_b, per_k=per_k,
                           pooled=pooled, skipped_per_k=skipped,
                           counted_per_k=counted)


@dataclass
class ComparisonRow:
    row_id: str
    n: int
    agreements: list[AgreementReport] = field(default_factory=list)


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow]
    trials: int
    seed: int
    params: MetricParams

    def msup_violations(self) -> list[str]:
        """Rows where the super-stochastic column is not exactly 100%."""
        bad = []
        for row in self.rows:
            for agg in row.agreements:
                if agg.metric_b is Metric.MSUP_LE and not math.isclose(agg.pooled, 100.0):
                    bad.append(f"{row.row_id}:{agg.pooled:.2f}%")
        return bad


def run_comparison(rows: Sequence[str], trials: int, seed: int,
                   params: MetricParams = MetricParams()) -> ComparisonReport:
    """Agreement of every heuristic metric with MPLSE over random instances,
    pooled over k, mirroring the comparison-table layout.

    Each (instance, k, metric) is selected once, row by row and metric by
    metric in HEURISTIC_METRICS order, with mplse before the other metric.
    """
    check_index("trials", trials, 1)
    check_index("seed", seed, 0)
    report = ComparisonReport(rows=[], trials=trials, seed=seed, params=params)
    # every row is drawn, and every instance's tau resolved, so all of them
    # are checked before the first selection
    drawn = [[_row_instance(row, seed, row_index, t) for t in range(trials)]
             for row_index, row in enumerate(rows)]
    for g in itertools.chain.from_iterable(drawn):
        params.tau_for(g)
    memo: dict = {}
    for row, instances in zip(rows, drawn):
        crow = ComparisonRow(row_id=row, n=instances[0].n)
        for metric in HEURISTIC_METRICS:
            crow.agreements.append(_agreement(Metric.MPLSE, metric, instances,
                                              COMPARE_K_LIST, params, memo))
        report.rows.append(crow)
    return report


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    residual: float
    detail: str


def _series_tolerance(eps: float) -> float:
    """50 eps^3, the bound the suite allows the series' remainder; a
    ParameterError unless it is a positive normal float: an infinite one
    passes everything, and below the normal range the checks' own terms
    (eps^2 (n^2 + 2) / (12 n^2) in the convexity identity) flush to 0."""
    try:
        tol = 50.0 * eps ** 3
    except OverflowError:
        tol = math.inf
    if not math.isfinite(tol):
        raise ParameterError(f"eps = {eps:g} makes the series tolerance "
                             "50 eps^3 overflow")
    if not tol >= np.finfo(float).tiny:
        raise ParameterError(f"eps = {eps:g} makes the series tolerance "
                             "50 eps^3 underflow")
    return tol


def path_theory_checks(n: int, k: Optional[int] = None,
                       eps: float = MetricParams.epsilon) -> list[CheckResult]:
    """Run the path-graph oracle suite for order n; each check reports a
    residual and pass flag. Checks that need a parity or divisibility
    assumption are included only when n (and k) satisfy it; k, if given,
    must be in 1..n-1, and eps must leave every tolerance a positive
    normal float.

    Each (k, metric) is selected once. The exact one-port values are read
    from the k = 1 mplse selection's score table, which solves each of the
    n matrices once. The two-port mplse selection solves only the pairs
    its bound cannot rule out. The (n/2 - 1) n/2 pairs j1 < n/2 < j2 that
    the two-port series check reads come from ``path_lambda_min``, one
    certified tridiagonal stack with no dense eigensolve.
    """
    check_index("n", n, 3, PATH_MAX_N)
    if k is not None:
        check_index("k", k, 1, n - 1)
    check_positive("eps", eps)
    series_tol = _series_tolerance(eps)
    results: list[CheckResult] = []
    g = path_graph(n)
    L = laplacian(g)

    def add(check_id, residual, tol, detail=""):
        results.append(CheckResult(check_id, bool(residual <= tol), float(residual),
                                   detail or f"tolerance {tol:g}"))

    # closed-form eigenpairs against the residual definition
    worst = 0.0
    for j in range(1, n + 1):
        lam, vec = path_eigenpair(n, j)
        worst = max(worst, float(np.linalg.norm(L @ vec - lam * vec)))
    add("eigenpair-residual", worst, 1e-9)

    if has_optimal_ports(n, 1):
        (pstar,) = optimal_ports(n, 1)
        _, v2 = path_eigenpair(n, 2)
        add("fiedler-zero-at-center", abs(v2[pstar - 1]), 1e-12,
            f"component {pstar} of the second eigenvector")
        params = MetricParams(epsilon=eps)
        one_port = select_best(g, 1, Metric.MPLSE, params, keep_table=True)
        # lambda_min(L + eps e_j e_j') for j = 1..n
        exact = [score for _, score in one_port.table]
        for metric in (Metric.MPLSE, Metric.MSUB_LE, Metric.MSUP_LE):
            best = (one_port.best if metric is Metric.MPLSE
                    else select_best(g, 1, metric, params).best)
            add(f"one-port-center-{metric.value}",
                0.0 if best == (pstar,) else 1.0, 0.5,
                f"selected {list(best)}, center {pstar}")
        quad = [lambda_min_quadratic_1port(n, j, eps) for j in range(1, n + 1)]
        add("one-port-series-vs-exact", max(abs(e - q) for e, q in zip(exact, quad)),
            series_tol)
        # relative, but absolute where the quadratic form is exactly 0
        worst = max(abs(lambda_min_series_kport(n, (j,), eps) - q) / (abs(q) or 1.0)
                    for j, q in enumerate(quad, start=1))
        add("trig-vs-quadratic-identity", worst, 1e-10)
        # doubling: optimal 1-port on P_n equals optimal 2-port on P_2n
        lam_n = exact[pstar - 1]
        L2 = laplacian(path_graph(2 * n))
        lam_2n_all = sym_eigen(
            perturbed_laplacian(L2, (pstar, pstar + n), eps)).values
        add("doubling-equality", abs(lam_n - lam_2n_all[0]), 1e-10)
        lam_n_all = sym_eigen(perturbed_laplacian(L, (pstar,), eps)).values
        interlace = max(abs(lam_n_all[i] - lam_2n_all[2 * i]) for i in range(n))
        strict = all(lam_2n_all[i + 1] > lam_2n_all[i] for i in range(2 * n - 1))
        add("interlacing", interlace if strict else math.inf, 1e-9,
            "odd-position match and strict alternation")
        add("pseudo-toeplitz-value",
            abs(mplse_score(g, (1,), MetricParams(epsilon=1.0))
                - pseudo_toeplitz_lambda_min(n)),
            1e-10)

    if has_optimal_ports(n, 2):
        p1, p2 = optimal_ports(n, 2)
        _, v3 = path_eigenpair(n, 3)
        add("v3-zeros-at-centers", max(abs(v3[p1 - 1]), abs(v3[p2 - 1])), 1e-12)
        params = MetricParams(epsilon=eps)
        two_port = select_best(g, 2, Metric.MPLSE, params)
        for metric in (Metric.MPLSE, Metric.MSUB_LE, Metric.MSUP_LE):
            best = (two_port.best if metric is Metric.MPLSE
                    else select_best(g, 2, metric, params).best)
            add(f"two-port-centers-{metric.value}",
                0.0 if best == (p1, p2) else 1.0, 0.5,
                f"selected {list(best)}, centers ({p1}, {p2})")
        # lambda_min(L + eps e_j1 e_j1' + eps e_j2 e_j2') for j1 < n/2 < j2
        pairs = [(j1, j2) for j1 in range(1, n // 2)
                 for j2 in range(n // 2 + 1, n + 1)]
        exact = path_lambda_min(n, np.array(pairs), eps).tolist()
        worst = max(abs(e - lambda_min_quadratic_2port(n, j1, j2, eps))
                    for (j1, j2), e in zip(pairs, exact))
        add("two-port-series-vs-exact", worst, series_tol)
        lam2 = two_port.score
        lam1 = select_best(g, 1, Metric.MPLSE, params).score
        add("convexity-exact", 0.0 if lam2 - 2 * lam1 > 0 else 1.0, 0.5,
            f"lambda*(2) - 2 lambda*(1) = {lam2 - 2 * lam1:.3e}")
        gap = convexity_series_gap(n, eps)
        ident = eps * eps * (n * n + 2) / (12.0 * n * n)
        add("convexity-series-identity", abs(gap - ident) / ident, 1e-10)

    if k is not None and k > 1 and has_optimal_ports(n, k):
        ports = optimal_ports(n, k)
        tau_params = MetricParams(epsilon=eps, tau=0.5)
        value = msub_score(g, ports, tau_params)
        add("k-port-grounded-value", abs(value - math.cos(k * math.pi / n)), 1e-10,
            f"ports {list(ports)} at tau = 1/2")
        best = select_best(g, k, Metric.MSUB_LE, tau_params).best
        add("k-port-argmin", 0.0 if best == ports else 1.0, 0.5,
            f"selected {list(best)}, formula {list(ports)}")
        _, vk1 = path_eigenpair(n, k + 1)
        add("v-kplus1-zeros", max(abs(vk1[p - 1]) for p in ports), 1e-12)
    return results


def lambda_profile(n: int, eps: float = MetricParams.epsilon,
                   grid_step: Optional[float] = None
                   ) -> list[tuple[float, float, Optional[float]]]:
    """(p, series, exact) rows for the one-port eigenvalue shift on P_n.

    Integer p always included with the exact value from the mplse table; an
    optional real grid adds series-only rows (the series is defined for real
    positions). n must be in 2..PATH_MAX_N.
    """
    check_index("n", n, 2, PATH_MAX_N)
    check_positive("eps", eps)
    g = path_graph(n)
    points: list[float] = []
    if grid_step is not None:
        steps = (n - 1) / check_positive("grid step", grid_step)
        if not steps < _MAX_GRID_POINTS:  # inf for a tiny step
            raise ParameterError(f"grid step {grid_step} gives more than "
                                 f"{_MAX_GRID_POINTS} grid points")
        m = int(round(steps))
        points = [round(1.0 + i * grid_step, 9) for i in range(m + 1)]
        points = [p for p in points if p <= n]
    points.extend(float(p) for p in range(1, n + 1))
    exact = [score for _, score in select_best(
        g, 1, Metric.MPLSE, MetricParams(epsilon=eps), keep_table=True).table]
    rows = []
    for p in sorted(set(points)):
        series = lambda_min_series_positions(n, (p,), eps)
        on_node = abs(p - round(p)) < 1e-12
        rows.append((p, series, exact[int(round(p)) - 1] if on_node else None))
    return rows


def convexity_table(n: int, k_list: Sequence[int],
                    eps: float = MetricParams.epsilon) -> list[dict]:
    """Optimal exact shift per k against the scaled one-port baseline, for n
    in 2..PATH_MAX_N."""
    check_index("n", n, 2, PATH_MAX_N)
    for k in k_list:
        check_subset_count(n, k)
    g = path_graph(n)
    params = MetricParams(epsilon=eps)
    one_port = select_best(g, 1, Metric.MPLSE, params)
    rows = []
    for k in k_list:
        res = one_port if k == 1 else select_best(g, k, Metric.MPLSE, params)
        rows.append({
            "k": k,
            "lambda_min_opt": res.score,
            "k_times_lambda1": k * one_port.score,
            "best_ports": list(res.best),
            "closed_form_ports": has_optimal_ports(n, k),
        })
    return rows


def check_probe_order(n: int):
    """Raise ParameterError unless ``conjecture_probe`` takes the order n:
    odd and in 3..PATH_MAX_N."""
    check_index("n", n, 3, PATH_MAX_N)
    if not has_optimal_ports(n, 1):
        raise ParameterError(f"probe needs odd n, got {n}")


def conjecture_probe(n: int, eps: float = MetricParams.epsilon) -> dict:
    """Bridge two optimally perturbed odd paths by every possible edge and
    report how far the smallest eigenvalue moves.

    The n^2 bridged matrices are solved in stacks, bounded in memory like
    ``select_best``'s, and scanned in (u, w) order. n must be odd and in
    3..PATH_MAX_N.

    In exact arithmetic nothing moves, for every bridge, port and eps >= 0.
    Let L1 = L(P_n) + eps e_p e_p' and v > 0 the eigenvector of
    lambda = lambda_min(L1) (positive because P_n is connected). The bridge
    adds b b' with b = e_u - e_{n+w}, which is positive semidefinite, so by
    Weyl's inequality no eigenvalue goes down; and x = (v_w v, v_u v) is
    nonzero with b'x = 0, so lambda is still an eigenvalue of the bridged
    matrix. Hence ``max_abs_deviation``, ``disconnected_union_deviation``
    and ``worst_edge`` report rounding noise only.
    """
    check_probe_order(n)
    check_positive("eps", eps)
    g = path_graph(n)
    L1 = perturbed_laplacian(laplacian(g), optimal_ports(n, 1), eps)
    lam_ref = float(sym_eigen(L1).values[0])
    base = np.zeros((2 * n, 2 * n))
    base[:n, :n] = L1
    base[n:, n:] = L1
    lam_union = float(sym_eigen(base).values[0])
    # bridge (a, b) = (u, n + w), 0-based, for u, w = 1..n, u-major
    bridges = np.stack([np.repeat(np.arange(n), n), np.tile(np.arange(n, 2 * n), n)], axis=1)

    def lam_bridged(ab):
        a, b = ab[:, 0], ab[:, 1]
        rows = np.arange(len(ab))
        bridged = np.repeat(base[None], len(ab), axis=0)
        bridged[rows, a, a] += 1
        bridged[rows, b, b] += 1
        bridged[rows, a, b] -= 1
        bridged[rows, b, a] -= 1
        return sym_eigen(bridged).values[:, 0]

    dev = np.abs(_in_stacks(lam_bridged, bridges, stack_rows((2 * n) ** 2)) - lam_ref)
    i = int(np.argmax(dev))  # the first maximum in (u, w) order
    return {
        "n": n,
        "epsilon": eps,
        "lambda_reference": lam_ref,
        "disconnected_union_deviation": abs(lam_union - lam_ref),
        "edges_checked": n * n,
        "max_abs_deviation": float(dev[i]),
        "worst_edge": (bridges[i] + 1).tolist() if dev[i] else None,
    }
