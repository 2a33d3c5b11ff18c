"""The six k-center selection metrics and the exhaustive subset engine.

Scores are pure functions of (graph, subset, params), and each metric is
computed in one place, ``_subset_scorer``, which scores a batch of port sets:
mplse and msup stack L or Z with eps added on each port diagonal, msub stacks
principal submatrices of Z, and one ``sym_eigen`` call solves each stack; ARE
and Gramian pass the whole batch to ``are_charging_energy`` and
``gramian_extraction_energy``.
``select_best`` scores every subset, in lexicographic order and in stacks of
about 2**14 matrix entries, except that ARE on a connected graph solves only
the subsets that its proven lower bound cannot rule out (``_are_candidates``);
the public ``*_score`` functions check their port set and score it as a
one-row batch. Agreement of two selectors over an
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

from .errors import DegenerateEigenvalueError, NumericError, ParameterError
from .graphs import Graph, check_tau, laplacian, max_degree, stochastic
from .spectral import (DEFAULT_RHO, are_charging_energy, are_lower_bound,
                       check_index, check_ports, check_positive,
                       gramian_extraction_energy, sym_eigen)

TIE_RTOL = 1e-9
DEFAULT_ENUMERATION_CAP = 2_000_000
EIGVEC_GAP_MIN = 1e-9
# ARE skips a port set whose lower bound exceeds (1 + ARE_SKIP_MARGIN) times
# a solved value, both less n/2: five times the pencil's largest measured
# relative error in that difference, 1'D1, which is 1.9e-3
ARE_SKIP_MARGIN = 1e-2
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
        return check_tau(g, self.tau)


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
        check_index("k", k, 1, g.n - 1)
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


def stack_rows(order: int) -> int:
    """How many matrices of the given order one stacked solve takes: about
    _CHUNK_ENTRIES entries in all, which bounds the memory of a stack, and
    at least one matrix."""
    return max(1, _CHUNK_ENTRIES // order ** 2)


def _is_tie(a, b):
    """Whether scores a and b tie; elementwise over arrays."""
    return np.abs(a - b) <= TIE_RTOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def check_subset_count(n: int, k: int) -> int:
    """C(n, k), the number of port sets ``select_best`` scores; raises
    ParameterError unless k is in 1..n-1 and C(n, k) is at most
    DEFAULT_ENUMERATION_CAP."""
    check_index("k", k, 1, n - 1)
    count = math.comb(n, k)
    if count > DEFAULT_ENUMERATION_CAP:
        raise ParameterError(f"C({n},{k}) = {count} exceeds the enumeration "
                             f"cap {DEFAULT_ENUMERATION_CAP}")
    return count


def select_best(g: Graph, k: int, metric: Metric,
                params: MetricParams = MetricParams(),
                keep_table: bool = False) -> SelectionResult:
    """Exhaustively score all C(n, k) port sets, at most
    DEFAULT_ENUMERATION_CAP of them, and return the optimum.

    Scores that tie with the optimal score are collected, by the module's
    rule (relative 1e-9 above |score| = 1, absolute 1e-9 below it); ``best``
    is the lexicographically smallest of them.

    ARE on a connected graph without ``keep_table`` solves only the sets
    that ``_are_candidates`` cannot rule out; ``best``, ``ties`` and
    ``score`` are bit for bit those of scoring every set, and the selection
    fails only where a set that it solves fails.
    """
    count = check_subset_count(g.n, k)
    score = _subset_scorer(g, k, metric, params)
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, g.n + 1), k)),
        dtype=np.intp, count=count * k).reshape(count, k)
    chunk = stack_rows(g.n)
    if metric is Metric.ARE and not keep_table and g.is_connected():
        subsets, scores = _are_candidates(laplacian(g), subsets, params.rho, score, chunk)
    else:
        scores = np.concatenate([score(subsets[i:i + chunk]) for i in range(0, count, chunk)])
    best_score = float(scores.max() if _MAXIMIZING[metric] else scores.min())
    ties = list(map(tuple, subsets[_is_tie(scores, best_score)].tolist()))
    table = list(zip(map(tuple, subsets.tolist()), scores.tolist())) if keep_table else None
    return SelectionResult(metric=metric, k=k, best=ties[0], score=best_score,
                           ties=ties, table=table)


def _are_candidates(L: np.ndarray, subsets: np.ndarray, rho: float, score,
                    chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """The subsets that may hold the ARE optimum or tie with it, in
    lexicographic order, and their scores.

    Every subset's ``are_lower_bound`` comes first, in stacks of ``chunk``.
    The subset with the smallest bound is solved, then every other subset
    whose bound is at most (1 + ARE_SKIP_MARGIN) times that value (each less
    n/2), in order and in stacks of ``chunk``. A skipped subset's value is at
    least its bound, so it can neither beat nor tie the optimum unless the
    solver errs by more than the margin. Each solved value must be at least
    (1 - ARE_SKIP_MARGIN/2) times its own bound, else NumericError: where
    the solver's error can be seen, it is checked.
    """
    half = L.shape[0] / 2
    bound = np.concatenate([are_lower_bound(L, subsets[i:i + chunk], rho)
                            for i in range(0, len(subsets), chunk)])
    scores = np.full(len(subsets), np.nan)
    first = int(np.argmin(bound))
    scores[first] = score(subsets[first:first + 1])[0]
    rest = np.flatnonzero(bound <= (1 + ARE_SKIP_MARGIN) * (scores[first] - half))
    rest = rest[rest != first]
    for i in range(0, len(rest), chunk):
        scores[rest[i:i + chunk]] = score(subsets[rest[i:i + chunk]])
    solved = ~np.isnan(scores)
    low = scores[solved] - half < (1 - ARE_SKIP_MARGIN / 2) * bound[solved]
    if low.any():
        i = np.flatnonzero(solved)[np.argmax(low)]
        raise NumericError(
            f"ARE value of {tuple(subsets[i].tolist())} is {scores[i] - half:.6e} above "
            f"n/2, below its proven lower bound {bound[i]:.6e}")
    return subsets[solved], scores[solved]
