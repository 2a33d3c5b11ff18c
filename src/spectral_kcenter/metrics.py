"""The six k-center selection metrics and the exhaustive subset engine.

Scores are pure functions of (graph, subset, params), and each metric is
computed in one place, ``_subset_scorer``: ``select_best`` scores every
subset through it, and the public ``*_score`` functions check their port set
and score through it too. Agreement of two selectors over an instance stream
(``agreement_rate``) lives in ``experiments``. ``select_best``
enumerates subsets in lexicographic order, optimizes in the metric's
direction, collects ties and breaks them toward the lexicographically
smallest subset, so results are schedule-independent. Two scores a, b tie
when |a - b| <= TIE_RTOL * max(1, |a|, |b|): relative 1e-9 above |score| = 1,
absolute 1e-9 below it (mplse scores, near k*eps/n, fall in the absolute
range).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DegenerateEigenvalueError, ParameterError
from .graphs import Graph, laplacian, max_degree, stochastic
from .spectral import (are_charging_energy, check_ports, gramian_extraction_energy,
                       sym_eigen)

TIE_RTOL = 1e-9
DEFAULT_ENUMERATION_CAP = 2_000_000
EIGVEC_GAP_MIN = 1e-9


class Metric(enum.Enum):
    MPLSE = "mplse"
    MSUB_LE = "msub"
    MSUP_LE = "msup"
    EIGVEC = "eigvec"
    ARE = "are"
    GRAMIAN = "gramian"

    @staticmethod
    def parse(name: str) -> "Metric":
        for m in Metric:
            if m.value == name.lower():
                return m
        raise ParameterError(f"unknown metric {name!r}; choose from "
                             + ", ".join(m.value for m in Metric))


# maximize or minimize, per metric
_MAXIMIZING = {Metric.MPLSE: True, Metric.MSUB_LE: False, Metric.MSUP_LE: False,
               Metric.EIGVEC: False, Metric.ARE: False, Metric.GRAMIAN: True}


@dataclass(frozen=True)
class MetricParams:
    """Shared knobs: perturbation eps, stochastic step tau, ARE regularizer rho.

    tau = None means 1/(max_degree + 1), strictly inside the stochastic
    range for every graph.
    """

    epsilon: float = 0.01
    tau: Optional[float] = None
    rho: float = 1e-6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if self.rho <= 0:
            raise ParameterError(f"rho must be positive, got {self.rho}")

    def tau_for(self, g: Graph) -> float:
        """Resolve tau for a graph, validating the stochastic range."""
        if self.tau is None:
            return 1.0 / (max_degree(g) + 1)
        if not (0 < self.tau <= 1.0 / max_degree(g)):
            raise ParameterError(
                f"tau={self.tau} outside (0, 1/{max_degree(g)}] for this graph")
        return self.tau


@dataclass(frozen=True)
class SelectionResult:
    metric: Metric
    k: int
    best: tuple[int, ...]
    score: float
    ties: list[tuple[int, ...]]
    table: Optional[list[tuple[tuple[int, ...], float]]] = None


def perturbed_laplacian(L: np.ndarray, ports: Iterable[int], eps: float) -> np.ndarray:
    """L with eps added to the diagonal entries indexed by the port set."""
    if eps < 0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    L = np.array(L, dtype=float)
    for j in check_ports(L.shape[0], ports):
        L[j - 1, j - 1] += eps
    return L


def mplse_score(g: Graph, ports, params: MetricParams = MetricParams()) -> float:
    """Smallest eigenvalue of the port-perturbed Laplacian (higher is better)."""
    ports = check_ports(g.n, ports)
    return _subset_scorer(g, len(ports), Metric.MPLSE, params)(ports)


def msub_score(g: Graph, ports, params: MetricParams = MetricParams()) -> float:
    """Perron root of the stochastic matrix with port rows/columns removed.

    Equals 1 - tau * lambda_min(grounded Laplacian); lower is better.
    """
    ports = check_ports(g.n, ports)
    if len(ports) == g.n:
        raise ParameterError("port set must leave at least one node")
    return _subset_scorer(g, len(ports), Metric.MSUB_LE, params)(ports)


def msup_score(g: Graph, ports, params: MetricParams = MetricParams()) -> float:
    """Largest eigenvalue of the super-stochastic matrix Z + eps on port
    diagonal entries; lower is better (stubbornness diffuses best at centers)."""
    ports = check_ports(g.n, ports)
    return _subset_scorer(g, len(ports), Metric.MSUP_LE, params)(ports)


def _eigvec_magnitudes(g: Graph, k: int) -> np.ndarray:
    """|v_{k+1}| for the Laplacian, guarded against a repeated lambda_{k+1}."""
    dec = sym_eigen(laplacian(g))
    lam = dec.values
    if k >= g.n:
        raise ParameterError(f"need k < n, got k={k}, n={g.n}")
    gap_below = lam[k] - lam[k - 1]
    gap_above = lam[k + 1] - lam[k] if k + 1 < g.n else math.inf
    if min(gap_below, gap_above) <= EIGVEC_GAP_MIN:
        raise DegenerateEigenvalueError(
            f"lambda_{k + 1} is repeated (gap {min(gap_below, gap_above):.2e}); "
            "eigenvector heuristic undefined")
    return np.abs(dec.vectors[:, k])


def eigvec_heuristic_score(g: Graph, ports, k: int) -> float:
    """Sum of |v_{k+1}| over the port set; lower is better."""
    ports = check_ports(g.n, ports)
    return _subset_scorer(g, k, Metric.EIGVEC, MetricParams())(ports)


def _subset_scorer(g: Graph, k: int, metric: Metric, params: MetricParams):
    """Precompute shared matrices and return a subset -> score callable.

    The only place a metric is computed: ``select_best`` and the public
    ``*_score`` functions both score through it. The callable trusts its
    subset to be a valid port set.
    """
    if metric is Metric.MPLSE:
        L = laplacian(g)
        eps = params.epsilon

        def score(S):
            Lt = L.copy()
            for j in S:
                Lt[j - 1, j - 1] += eps
            return float(sym_eigen(Lt).values[0])
    elif metric is Metric.MSUB_LE:
        Z = stochastic(g, params.tau_for(g))

        def score(S):
            keep = [i for i in range(g.n) if (i + 1) not in S]
            return float(sym_eigen(Z[np.ix_(keep, keep)]).values[-1])
    elif metric is Metric.MSUP_LE:
        Z0 = stochastic(g, params.tau_for(g))
        eps = params.epsilon

        def score(S):
            Z = Z0.copy()
            for j in S:
                Z[j - 1, j - 1] += eps
            return float(sym_eigen(Z).values[-1])
    elif metric is Metric.EIGVEC:
        mags = _eigvec_magnitudes(g, k)

        def score(S):
            return float(sum(mags[j - 1] for j in S))
    elif metric is Metric.ARE:
        L = laplacian(g)
        rho = params.rho

        def score(S):
            return are_charging_energy(L, S, rho)
    elif metric is Metric.GRAMIAN:
        L = laplacian(g)

        def score(S):
            return gramian_extraction_energy(L, S)
    else:  # pragma: no cover
        raise ParameterError(f"unhandled metric {metric}")
    return score


def _is_tie(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_RTOL * max(1.0, abs(a), abs(b))


def select_best(g: Graph, k: int, metric: Metric,
                params: MetricParams = MetricParams(),
                keep_table: bool = False,
                enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> SelectionResult:
    """Exhaustively score all C(n, k) port sets and return the optimum.

    Scores that tie with the optimal score are collected, by the module's
    rule (relative 1e-9 above |score| = 1, absolute 1e-9 below it); ``best``
    is the lexicographically smallest of them.
    """
    if not 1 <= k < g.n:
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={g.n}")
    count = math.comb(g.n, k)
    if count > enumeration_cap:
        raise ParameterError(
            f"C({g.n},{k}) = {count} exceeds the enumeration cap {enumeration_cap}")
    score = _subset_scorer(g, k, metric, params)
    maximize = _MAXIMIZING[metric]

    table: list[tuple[tuple[int, ...], float]] = []
    best_score = None
    for S in itertools.combinations(range(1, g.n + 1), k):
        v = score(S)
        table.append((S, v))
        if best_score is None or (v > best_score if maximize else v < best_score):
            best_score = v
    ties = [S for (S, v) in table if _is_tie(v, best_score)]
    ties.sort()
    return SelectionResult(metric=metric, k=k, best=ties[0], score=float(best_score),
                           ties=ties, table=table if keep_table else None)
