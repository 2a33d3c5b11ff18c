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

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateEigenvalueError, ParameterError
from .graphs import (Graph, figure1_graph, laplacian, path_graph,
                     random_connected_graph, random_tree)
from .metrics import (_CHUNK_ENTRIES, Metric, MetricParams, mplse_score,
                      msub_score, perturbed_laplacian, select_best)
from .path_theory import (convexity_series_gap, lambda_min_quadratic_1port,
                          lambda_min_quadratic_2port, lambda_min_series_kport,
                          lambda_min_series_positions, optimal_ports,
                          path_eigenpair, pseudo_toeplitz_lambda_min)
from .spectral import check_positive, sym_eigen

COMPARE_MAX_N = 20
COMPARE_K_LIST = (1, 2, 3)  # the k values of every comparison row
PATH_MAX_N = 40  # largest path order of the oracle suite and the probe
_MAX_GRID_POINTS = 10 ** 5  # bounds the real grid of lambda_profile
HEURISTIC_METRICS = (Metric.MSUP_LE, Metric.MSUB_LE, Metric.EIGVEC,
                     Metric.ARE, Metric.GRAMIAN)


def parse_graph_source(source: str, seed: int = 0) -> Graph:
    """Build a graph from a source string: path:n | fig1 | random-tree:n |
    random-graph:n,p | a file path (edge-list format)."""
    if source == "fig1":
        return figure1_graph()
    if source.startswith("path:"):
        return path_graph(_parse_int(source[5:], "path order"))
    if source.startswith("random-tree:"):
        return random_tree(_parse_int(source[12:], "tree order"), seed)
    if source.startswith("random-graph:"):
        body = source[13:]
        parts = body.split(",")
        if len(parts) != 2:
            raise ParameterError(f"random-graph needs n,p; got {body!r}")
        n = _parse_int(parts[0], "graph order")
        try:
            p = float(parts[1])
        except ValueError:
            raise ParameterError(f"bad edge probability {parts[1]!r}")
        return random_connected_graph(n, p, seed)
    # anything else is an edge-list file
    from pathlib import Path

    from .graphs import parse_edge_list
    path = Path(source)
    if not path.exists():
        raise ParameterError(f"graph source {source!r} is not a known scheme or a file")
    return parse_edge_list(path.read_text())


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"bad {what}: {text!r}")


def _trial_seed(seed: int, row_index: int, trial: int) -> int:
    """Deterministic child seed for (row, trial); parallel-safe by design."""
    ss = np.random.SeedSequence([seed, row_index, trial])
    return int(ss.generate_state(1)[0])


def _row_instance(row: str, seed: int, row_index: int, trial: int) -> Graph:
    if row.startswith("path:"):
        return path_graph(_parse_int(row[5:], "path order"))
    if row.startswith("tree:"):
        return random_tree(_parse_int(row[5:], "tree order"),
                           _trial_seed(seed, row_index, trial))
    if row.startswith("general:"):
        return random_connected_graph(_parse_int(row[8:], "graph order"), 0.4,
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

    @property
    def skipped_total(self) -> int:
        return sum(self.skipped_per_k.values())


def agreement_rate(metric_a: Metric, metric_b: Metric,
                   instances: Iterable[Graph], trials: int,
                   k_list: Iterable[int],
                   params: MetricParams = MetricParams()) -> AgreementReport:
    """Fraction of (instance, k) pairs on which both selectors pick the same
    best set, per k and pooled.

    Instances where a selector is undefined (repeated eigenvalue for the
    eigenvector heuristic) are excluded from the denominator and counted
    as skipped.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    return _agreement(metric_a, metric_b, instances, trials, k_list, params, {})


def _agreement(metric_a: Metric, metric_b: Metric, instances: Iterable[Graph],
               trials: int, k_list: Iterable[int], params: MetricParams,
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
    stream = iter(instances)
    for _ in range(trials):
        g = next(stream)
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
    k_list: tuple[int, ...]

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
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    report = ComparisonReport(rows=[], trials=trials, seed=seed, params=params,
                              k_list=COMPARE_K_LIST)
    memo: dict = {}
    for row_index, row in enumerate(rows):
        instances = [_row_instance(row, seed, row_index, t) for t in range(trials)]
        n = instances[0].n
        if n > COMPARE_MAX_N:
            raise ParameterError(
                f"row {row!r}: n={n} exceeds the desk-scale cap {COMPARE_MAX_N}")
        crow = ComparisonRow(row_id=row, n=n)
        for metric in HEURISTIC_METRICS:
            crow.agreements.append(_agreement(Metric.MPLSE, metric, instances, trials,
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
    ParameterError if it is not finite."""
    try:
        tol = 50.0 * eps ** 3
    except OverflowError:
        tol = math.inf
    if not math.isfinite(tol):
        raise ParameterError(f"eps = {eps:g} makes the series tolerance "
                             "50 eps^3 overflow")
    return tol


def path_theory_checks(n: int, k: Optional[int] = None,
                       eps: float = MetricParams.epsilon) -> list[CheckResult]:
    """Run the path-graph oracle suite for order n; each check reports a
    residual and pass flag. Checks that need a parity or divisibility
    assumption are included only when n (and k) satisfy it; k, if given,
    must be in 1..n-1, and eps must leave every tolerance finite.

    Each matrix is solved once: the exact one- and two-port values are
    read from the mplse selection's score table, and each (k, metric) is
    selected once.
    """
    if not 3 <= n <= PATH_MAX_N:
        raise ParameterError(f"path checks support 3 <= n <= {PATH_MAX_N}, got {n}")
    if k is not None and not 1 <= k < n:
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={n}")
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

    if n % 2 == 1:
        pstar = (n + 1) // 2
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

    if n % 2 == 0 and (n // 2) % 2 == 1:
        p1, p2 = (n + 2) // 4, (3 * n + 2) // 4
        _, v3 = path_eigenpair(n, 3)
        add("v3-zeros-at-centers", max(abs(v3[p1 - 1]), abs(v3[p2 - 1])), 1e-12)
        params = MetricParams(epsilon=eps)
        two_port = select_best(g, 2, Metric.MPLSE, params, keep_table=True)
        for metric in (Metric.MPLSE, Metric.MSUB_LE, Metric.MSUP_LE):
            best = (two_port.best if metric is Metric.MPLSE
                    else select_best(g, 2, metric, params).best)
            add(f"two-port-centers-{metric.value}",
                0.0 if best == (p1, p2) else 1.0, 0.5,
                f"selected {list(best)}, centers ({p1}, {p2})")
        # lambda_min(L + eps e_j1 e_j1' + eps e_j2 e_j2') by port pair
        exact = dict(two_port.table)
        worst = max(abs(exact[(j1, j2)] - lambda_min_quadratic_2port(n, j1, j2, eps))
                    for j1 in range(1, n // 2)
                    for j2 in range(n // 2 + 1, n + 1))
        add("two-port-series-vs-exact", worst, series_tol)
        lam2 = two_port.score
        lam1 = select_best(g, 1, Metric.MPLSE, params).score
        add("convexity-exact", 0.0 if lam2 - 2 * lam1 > 0 else 1.0, 0.5,
            f"lambda*(2) - 2 lambda*(1) = {lam2 - 2 * lam1:.3e}")
        gap = convexity_series_gap(n, eps)
        ident = eps * eps * (n * n + 2) / (12.0 * n * n)
        add("convexity-series-identity", abs(gap - ident) / ident, 1e-10)

    if k is not None and n % k == 0 and (n // k) % 2 == 1 and k > 1:
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
    positions).
    """
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
    """Optimal exact shift per k against the scaled one-port baseline."""
    g = path_graph(n)
    params = MetricParams(epsilon=eps)
    one_port = select_best(g, 1, Metric.MPLSE, params)
    rows = []
    for k in k_list:
        if not 1 <= k < n:
            raise ParameterError(f"need 1 <= k < n, got k={k}")
        res = one_port if k == 1 else select_best(g, k, Metric.MPLSE, params)
        formula = n % k == 0 and (n // k) % 2 == 1
        rows.append({
            "k": k,
            "lambda_min_opt": res.score,
            "k_times_lambda1": k * one_port.score,
            "best_ports": list(res.best),
            "closed_form_ports": formula,
        })
    return rows


def conjecture_probe(n: int, eps: float = MetricParams.epsilon) -> dict:
    """Bridge two optimally perturbed odd paths by every possible edge and
    report how far the smallest eigenvalue moves.

    The n^2 bridged matrices are solved in stacks, bounded in memory like
    ``select_best``'s, and scanned in (u, w) order. n must be odd and in
    3..PATH_MAX_N. Exploration only: returns the per-edge worst case, never
    asserts.
    """
    if not 3 <= n <= PATH_MAX_N:
        raise ParameterError(f"probe supports 3 <= n <= {PATH_MAX_N}, got {n}")
    if n % 2 == 0:
        raise ParameterError(f"probe needs odd n, got {n}")
    check_positive("eps", eps)
    g = path_graph(n)
    pstar = (n + 1) // 2
    L1 = perturbed_laplacian(laplacian(g), (pstar,), eps)
    lam_ref = float(sym_eigen(L1).values[0])
    base = np.zeros((2 * n, 2 * n))
    base[:n, :n] = L1
    base[n:, n:] = L1
    lam_union = float(sym_eigen(base).values[0])
    # bridge (u, n + w) for u, w = 1..n, u-major
    a = np.repeat(np.arange(n), n)
    b = np.tile(np.arange(n, 2 * n), n)
    chunk = max(1, _CHUNK_ENTRIES // (2 * n) ** 2)
    lam_bridged = []
    for i in range(0, n * n, chunk):
        ai, bi = a[i:i + chunk], b[i:i + chunk]
        rows = np.arange(len(ai))
        bridged = np.repeat(base[None], len(ai), axis=0)
        bridged[rows, ai, ai] += 1
        bridged[rows, bi, bi] += 1
        bridged[rows, ai, bi] -= 1
        bridged[rows, bi, ai] -= 1
        lam_bridged.extend(sym_eigen(bridged).values[:, 0].tolist())
    worst = 0.0
    worst_edge = None
    for u, w, lam in zip(a.tolist(), b.tolist(), lam_bridged):
        dev = abs(lam - lam_ref)
        if dev > worst:
            worst, worst_edge = dev, (u + 1, w + 1)
    return {
        "n": n,
        "epsilon": eps,
        "lambda_reference": lam_ref,
        "disconnected_union_deviation": abs(lam_union - lam_ref),
        "edges_checked": n * n,
        "max_abs_deviation": worst,
        "worst_edge": list(worst_edge) if worst_edge else None,
    }
