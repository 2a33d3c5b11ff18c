"""The six k-center selection metrics and the exhaustive subset engine.

Scores are pure functions of (graph, subset, params), and each metric is
computed in one place, ``_subset_scorer``, which scores a batch of port sets:
mplse and msup stack L or Z with eps added on each port diagonal, msub stacks
principal submatrices of Z, and one ``sym_eigen`` call solves each stack; ARE
and Gramian pass the whole batch to ``are_charging_energy`` and
``gramian_extraction_energy``.
``select_best`` scores every subset, in lexicographic order and in stacks of
about 2**14 matrix entries; the public ``*_score`` functions check their port
set and score it as a one-row batch. Agreement of two selectors over an
instance stream (``agreement_rate``) lives in ``experiments``.
``select_best`` optimizes in the metric's direction, collects ties and breaks
them toward the lexicographically smallest subset, so results are
schedule-independent. Two scores a, b tie when
|a - b| <= TIE_RTOL * max(1, |a|, |b|): relative 1e-9 above |score| = 1,
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
from .spectral import (DEFAULT_RHO, are_charging_energy, check_ports,
                       check_positive, gramian_extraction_energy, sym_eigen)

TIE_RTOL = 1e-9
DEFAULT_ENUMERATION_CAP = 2_000_000
EIGVEC_GAP_MIN = 1e-9
_CHUNK_ENTRIES = 2 ** 14


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
    rho: float = DEFAULT_RHO

    def __post_init__(self):
        check_positive("epsilon", self.epsilon)
        check_positive("rho", self.rho)

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
    if not 0 <= eps < math.inf:
        raise ParameterError(f"eps must be finite and nonnegative, got {eps}")
    L = np.array(L, dtype=float)
    for j in check_ports(L.shape[0], ports):
        L[j - 1, j - 1] += eps
    return L


def _score_one(g: Graph, k: int, metric: Metric, params: MetricParams, ports) -> float:
    return float(_subset_scorer(g, k, metric, params)(np.array([ports]))[0])


def mplse_score(g: Graph, ports, params: MetricParams = MetricParams()) -> float:
    """Smallest eigenvalue of the port-perturbed Laplacian (higher is better)."""
    ports = check_ports(g.n, ports)
    return _score_one(g, len(ports), Metric.MPLSE, params, ports)


def msub_score(g: Graph, ports, params: MetricParams = MetricParams()) -> float:
    """Perron root of the stochastic matrix with port rows/columns removed.

    Equals 1 - tau * lambda_min(grounded Laplacian); lower is better.
    """
    ports = check_ports(g.n, ports)
    if len(ports) == g.n:
        raise ParameterError("port set must leave at least one node")
    return _score_one(g, len(ports), Metric.MSUB_LE, params, ports)


def msup_score(g: Graph, ports, params: MetricParams = MetricParams()) -> float:
    """Largest eigenvalue of the super-stochastic matrix Z + eps on port
    diagonal entries; lower is better (stubbornness diffuses best at centers)."""
    ports = check_ports(g.n, ports)
    return _score_one(g, len(ports), Metric.MSUP_LE, params, ports)


def eigvec_heuristic_score(g: Graph, ports, k: int) -> float:
    """Sum of |v_{k+1}| over the port set; lower is better."""
    ports = check_ports(g.n, ports)
    return _score_one(g, k, Metric.EIGVEC, MetricParams(), ports)


def _subset_scorer(g: Graph, k: int, metric: Metric, params: MetricParams):
    """Precompute shared matrices and return a batch scorer.

    The scorer maps an (m, k) int array of 1-based port sets to the array of
    their m scores. It is the only place a metric is computed: ``select_best``
    and the public ``*_score`` functions (with a one-row batch) both score
    through it. It trusts every row to be a valid port set (the ARE and
    Gramian functions check each batch again).
    """
    if metric in (Metric.MPLSE, Metric.MSUP_LE):
        # eps on the port diagonal of L or Z, then an end of the spectrum
        if metric is Metric.MPLSE:
            base, end = laplacian(g), 0
        else:
            base, end = stochastic(g, params.tau_for(g)), -1
        eps = params.epsilon

        def scores(S):
            mats = np.repeat(base[None], len(S), axis=0)
            mats[np.arange(len(S))[:, None], S - 1, S - 1] += eps
            return sym_eigen(mats).values[:, end]
    elif metric is Metric.MSUB_LE:
        Z = stochastic(g, params.tau_for(g))

        def scores(S):
            keep = np.ones((len(S), g.n), dtype=bool)
            keep[np.arange(len(S))[:, None], S - 1] = False
            idx = np.nonzero(keep)[1].reshape(len(S), -1)
            return sym_eigen(Z[idx[:, :, None], idx[:, None, :]]).values[:, -1]
    elif metric is Metric.EIGVEC:
        # |v_{k+1}| of the Laplacian, guarded against a repeated lambda_{k+1}
        if not 1 <= k < g.n:
            raise ParameterError(f"need 1 <= k < n, got k={k}, n={g.n}")
        dec = sym_eigen(laplacian(g))
        lam = dec.values
        gap = min(lam[k] - lam[k - 1], lam[k + 1] - lam[k] if k + 1 < g.n else math.inf)
        if gap <= EIGVEC_GAP_MIN:
            raise DegenerateEigenvalueError(
                f"lambda_{k + 1} is repeated (gap {gap:.2e}); "
                "eigenvector heuristic undefined")
        mags = np.abs(dec.vectors[:, k])

        def scores(S):
            # cumsum adds in port order, bit for bit like a running sum;
            # sum() would pair the terms of eight or more ports
            return mags[S - 1].cumsum(axis=1)[:, -1]
    elif metric is Metric.ARE:
        # one pencil template per batch, one QZ solve per port set in order
        L = laplacian(g)

        def scores(S):
            return are_charging_energy(L, S, params.rho)
    elif metric is Metric.GRAMIAN:
        # one stacked Lyapunov solve per batch
        L = laplacian(g)

        def scores(S):
            return gramian_extraction_energy(L, S)
    else:  # pragma: no cover
        raise ParameterError(f"unhandled metric {metric}")
    return scores


def _is_tie(a, b):
    """Whether scores a and b tie; elementwise over arrays."""
    return np.abs(a - b) <= TIE_RTOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def select_best(g: Graph, k: int, metric: Metric,
                params: MetricParams = MetricParams(),
                keep_table: bool = False) -> SelectionResult:
    """Exhaustively score all C(n, k) port sets, at most
    DEFAULT_ENUMERATION_CAP of them, and return the optimum.

    Scores that tie with the optimal score are collected, by the module's
    rule (relative 1e-9 above |score| = 1, absolute 1e-9 below it); ``best``
    is the lexicographically smallest of them.
    """
    if not 1 <= k < g.n:
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={g.n}")
    count = math.comb(g.n, k)
    if count > DEFAULT_ENUMERATION_CAP:
        raise ParameterError(f"C({g.n},{k}) = {count} exceeds the enumeration "
                             f"cap {DEFAULT_ENUMERATION_CAP}")
    score = _subset_scorer(g, k, metric, params)
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, g.n + 1), k)),
        dtype=np.intp, count=count * k).reshape(count, k)
    chunk = max(1, _CHUNK_ENTRIES // g.n ** 2)  # bounds the memory of a stack
    scores = np.concatenate([score(subsets[i:i + chunk]) for i in range(0, count, chunk)])
    best_score = float(scores.max() if _MAXIMIZING[metric] else scores.min())
    ties = list(map(tuple, subsets[_is_tie(scores, best_score)].tolist()))
    table = list(zip(map(tuple, subsets.tolist()), scores.tolist())) if keep_table else None
    return SelectionResult(metric=metric, k=k, best=ties[0], score=best_score,
                           ties=ties, table=table)
