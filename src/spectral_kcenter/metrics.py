"""The six k-center selection metrics and the exhaustive subset engine.

Scores are pure functions of (graph, subset, params), and each metric is
stated in one place, ``_plan``, which gives a selection its batch scorer,
its bound builder and the order of the matrix each set's score solves:
mplse and msup stack L or Z with eps added on each port diagonal, msub stacks
principal submatrices of Z, and one ``sym_eigen`` call solves each stack; ARE
and Gramian pass the whole batch to ``are_charging_energy`` and
``gramian_extraction_energy``.
``select_best`` ranks all subsets, in lexicographic order and in stacks of
about 2**14 matrix entries. With ``keep_table``, on a disconnected graph,
for eigvec and where scoring every subset is cheap (``_scored_outright``:
a stack of at most _OUTRIGHT_ENTRIES matrix entries of the plan's order,
never for ARE) it scores every subset. Otherwise each subset of mplse,
msub, msup, ARE and Gramian first gets a proven bound on its score (the
plan's, guarded by ``_subset_bound``), and only the subsets that the bound
cannot rule out are scored (``_bound_then_solve``), with the bits that
scoring every subset gives.
The public ``*_score`` functions check their port set and score it as a
one-row batch; ``mplse_score`` also takes an (m, k) array of port sets.
Agreement of two selectors over an instance stream (``agreement_rate``)
lives in ``experiments``.
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
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import DegenerateEigenvalueError, NumericError, ParameterError
from .graphs import Graph, check_tau, incidence, laplacian
from .spectral import (DEFAULT_RHO, EIGEN_RESIDUAL_FACTOR, GRAMIAN_SHIFTS,
                       are_bounder, are_charging_energy, check_index, check_ports,
                       check_positive, gramian_bounder, gramian_extraction_energy,
                       _grounded_ones, _port_sets, laplacian_pinv, non_ports,
                       resolvent_ones, sym_eigen)

TIE_RTOL = 1e-9
DEFAULT_ENUMERATION_CAP = 2_000_000
EIGVEC_GAP_MIN = 1e-9
# ARE skips a port set whose lower bound exceeds (1 + ARE_SKIP_MARGIN) times
# a solved value, both less n/2: five times the pencil's largest measured
# relative error in that difference, 1'D1, which is 1.9e-3
ARE_SKIP_MARGIN = 1e-2
_CHUNK_ENTRIES = 2 ** 14
# a bound evaluation's stack, sized by the vectors each set holds (n + |E|
# entries; the Gramian's r times that): a few whole-stack operations per
# step, so larger stacks than a solve's pay off
_BOUND_ENTRIES = 2 ** 17
# one stacked solve of every set costs less than a bound's build, its
# per-set solves and a second scoring round, below this many matrix entries
_OUTRIGHT_ENTRIES = 2 ** 11


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
    range for every graph with an edge.
    """

    epsilon: float = 0.01
    tau: Optional[float] = None
    rho: float = DEFAULT_RHO

    def __post_init__(self):
        check_positive("epsilon", self.epsilon)
        check_positive("rho", self.rho)

    def tau_for(self, g: Graph) -> float:
        """Resolve tau for a graph, validating the stochastic range."""
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
    return float(_plan(g, k, metric, params, laplacian(g)).score(np.array([ports]))[0])


def mplse_score(g: Graph, ports,
                params: MetricParams = MetricParams()) -> float | np.ndarray:
    """Smallest eigenvalue of the port-perturbed Laplacian (higher is
    better): a float for one port set, an array of m scores for an (m, k)
    array of port sets, scored in stacks of ``stack_rows(n**2)``. Each score
    is bit for bit that of its port set alone."""
    S, single = _port_sets(g.n, ports)
    values = _in_stacks(_plan(g, S.shape[1], Metric.MPLSE, params, laplacian(g)).score,
                        S, stack_rows(g.n ** 2))
    return float(values[0]) if single else values


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


class _Plan(NamedTuple):
    """One metric on one selection (``_plan``)."""

    score: Callable[[np.ndarray], np.ndarray]
    bound: Optional[Callable[[], _Bound]]
    order: float


def _plan(g: Graph, k: int, metric: Metric, params: MetricParams,
          L: np.ndarray) -> _Plan:
    """The metric on the port sets of size k of g, whose Laplacian is L:
    the one place each metric is stated.

    ``score`` maps an (m, k) int array of 1-based port sets to the array of
    their m scores. ``select_best`` and the public ``*_score`` functions
    (with a one-row batch, or for ``mplse_score`` the caller's batch) all
    score through it. It trusts every row to be a valid port set (the ARE
    and Gramian functions check each batch again). msub and msup resolve
    and check tau here (``MetricParams.tau_for``) and build Z = I - tau L,
    bit for bit ``graphs.stochastic``, once for the score and the bound.

    ``bound``, None for eigvec, builds a proven bound on each set's score
    (``_Bound``), unguarded: ``_subset_bound`` calls it, on a connected
    graph only, and guards it. The call builds the factors of L and, but
    for ARE, g's signed incidence matrix B (``graphs.incidence``, B B' = L),
    once per selection; then a stack of sets needs a few whole-stack
    operations per step of the elimination that solves all its k x k
    systems together (``resolvent_ones``), and O(n^2 + n|E|) work per set,
    with no LAPACK call of its own. A stack holds ``stack_rows(n + |E|,
    _BOUND_ENTRIES)`` sets, the vector y and its edge differences of each
    (Gramian: r (n + |E|), for its r resolvents; ARE: n, it sums no
    edges).

    ``order`` is the order of the matrix each set's score solves, which
    ``_scored_outright`` weighs: n - k for msub's Z_RR, 0 for eigvec, which
    solves none, n for the rest but ARE, and infinite for ARE, which is
    never scored outright: its per-set QZ solve costs many times a bound
    evaluation, and its bound can skip a set whose solve fails.

    ARE: n/2 plus ``are_bounder`` (proof there), with the relative margin
    ARE_SKIP_MARGIN on the value less n/2.

    Gramian: ``gramian_bounder`` (proof there), with the margin TIE_RTOL
    max(1, |x|) plus twice its ``score_error``, the largest error of a
    computed score. That covers the error of a computed score and, again,
    the rounding of a bound, which is a few ulps of n/2; the error of each
    z_i is already inside its bound.

    mplse, msub and msup: each score is an affine map of lambda_min(P_S)
    for a positive definite P_S, with R the non-ports:

        mplse = lambda_min(L + eps E_S),
        msub  = 1 - tau lambda_min(L_RR),
        msup  = 1 + eps - tau lambda_min(L + (eps/tau) E_R),

    the last since Z + eps E_S = (1 + eps) I - tau (L + (eps/tau) E_R).
    For every y != 0, RQ(y) = y'P_S y / y'y >= lambda_min(P_S), so RQ(y)
    mapped the same way bounds mplse from above and msub and msup from
    below. Here y is proportional to P_S^(-1) 1 (for msub, to L_RR^(-1) 1 on
    R and 0 on S): one step of inverse iteration from the all-ones vector,
    near the lowest eigenvector when eps is small. ``resolvent_ones`` gives
    it from one factor F of L and each set's k x k system,

        mplse: y = 1 - L^+[:, S] (I/eps + L^+_SS)^(-1) 1_k,
        msub:  y = 1 - L^+[:, S] (L^+_SS)^(-1) 1_k, then y_S = 0,
        msup:  y = 1 + K[:, S] (I/s - K_SS)^(-1) 1_k,  K = (L + sI)^(-1),  s = eps/tau,

    with L^+ = (L + 11'/n)^(-1) - 11'/n; msub's y_S = 0 is set explicitly
    (``_grounded_ones``), so RQ(y) is a quotient of L_RR. The proof needs
    only some y != 0, so an inexact factor or solve only loosens the bound.
    y is scaled to max |y| = 1. y'P_S y is summed from P_S's structure as
    nonnegative terms, (y_u - y_v)^2 over the edges plus the diagonal shift
    times y_j^2 over its nodes, so no cancellation occurs and its relative
    rounding is a few ulps. The differences are y @ B, each one rounding of
    y_u - y_v, since B's column holds one 1, one -1 and exact zeros.

    The margin is the tie band TIE_RTOL max(1, |x|) plus 2 delta, where
    delta = EIGEN_RESIDUAL_FACTOR (1 + ||A||_F) is ``sym_eigen``'s residual
    tolerance, with ||A||_F taken at its largest over the sets: ||L||_F or
    ||Z||_F, plus eps sqrt(k) for the port diagonal. ``eigh`` is backward
    stable, so each computed eigenvalue lies within a few n ulps of ||A||
    of the exact one (Weyl), and ``sym_eigen`` rejects a solve whose
    residual exceeds delta; the rounding of Z, of the affine map and of
    RQ(y) is a few ulps too. So delta covers the error of a computed score,
    and delta again that of a bound.
    """
    n, eps = g.n, params.epsilon
    if metric is Metric.EIGVEC:
        # |v_{k+1}| of the Laplacian, guarded against a repeated lambda_{k+1}
        check_index("k", k, 1, n - 1)
        dec = sym_eigen(L)
        lam = dec.values
        gap = min(lam[k] - lam[k - 1], lam[k + 1] - lam[k] if k + 1 < n else math.inf)
        if gap <= EIGVEC_GAP_MIN:
            raise DegenerateEigenvalueError(
                f"lambda_{k + 1} is repeated (gap {gap:.2e}); "
                "eigenvector heuristic undefined")
        mags = np.abs(dec.vectors[:, k])

        def score(S):
            # cumsum adds in port order, bit for bit like a running sum;
            # sum() would pair the terms of eight or more ports
            return mags[S - 1].cumsum(axis=1)[:, -1]
        return _Plan(score, None, 0)
    if metric is Metric.ARE:
        def bound():
            half, of = n / 2, are_bounder(L, params.rho)
            return _Bound(lambda S: half + of(S), stack_rows(n, _BOUND_ENTRIES),
                          lambda x: ARE_SKIP_MARGIN * (x - half))
        # one pencil template per batch, one QZ solve per port set in order
        return _Plan(lambda S: are_charging_energy(L, S, params.rho), bound, math.inf)
    if metric is Metric.GRAMIAN:
        def bound():
            B = incidence(g)
            of, score_error = gramian_bounder(L, k, B)
            return _Bound(of, stack_rows(GRAMIAN_SHIFTS * (n + B.shape[1]), _BOUND_ENTRIES),
                          _tie_margin(2 * score_error))
        # one stacked Lyapunov solve per batch
        return _Plan(lambda S: gramian_extraction_energy(L, S), bound, n)

    # mplse, msub, msup: eps on the port diagonal of L or Z (msub: Z's
    # non-port block), then an end of the spectrum
    if metric is Metric.MPLSE:
        tau, base, end = None, L, 0
    else:
        tau = params.tau_for(g)
        base, end = np.eye(n) - tau * L, -1
    if metric is Metric.MSUB_LE:
        def score(S):
            R = non_ports(n, S)
            return sym_eigen(base[R[:, :, None], R[:, None, :]]).values[:, -1]
    else:
        def score(S):
            mats = np.repeat(base[None], len(S), axis=0)
            mats[np.arange(len(S))[:, None], S - 1, S - 1] += eps
            return sym_eigen(mats).values[:, end]

    def bound():
        B = incidence(g)
        norm = np.linalg.norm(base)  # ||L||_F or ||Z||_F, plus the port diagonal's
        norm += 0.0 if metric is Metric.MSUB_LE else eps * math.sqrt(k)
        if metric is Metric.MSUP_LE:
            F, shift = np.linalg.inv(L + (eps / tau) * np.eye(n)), -tau / eps
        else:
            F, shift = laplacian_pinv(L), 1.0 / eps

        def of(S):
            if metric is Metric.MSUB_LE:
                y = _grounded_ones(F, S)
            else:
                y = resolvent_ones(F, S, shift)
                y /= np.abs(y).max(axis=1, keepdims=True)
            d = y @ B
            edge = np.einsum("se,se->s", d, d)
            yy = y * y
            total = yy.sum(axis=1)
            if metric is Metric.MSUB_LE:
                return 1.0 - tau * edge / total
            ports = np.arange(len(S))[:, None], S - 1
            if metric is Metric.MPLSE:
                return (edge + eps * yy[ports].sum(axis=1)) / total
            yy[ports] = 0.0  # leaves the terms of the non-ports
            return 1.0 + eps - (tau * edge + eps * yy.sum(axis=1)) / total

        return _Bound(of, stack_rows(n + B.shape[1], _BOUND_ENTRIES),
                      _tie_margin(2 * EIGEN_RESIDUAL_FACTOR * (1.0 + norm)))
    return _Plan(score, bound, n - k if metric is Metric.MSUB_LE else n)


def stack_rows(entries: int, budget: int = _CHUNK_ENTRIES) -> int:
    """How many items of the given number of entries each (an n x n matrix:
    n**2) one stacked computation takes: about budget entries in all, which
    bounds the memory of a stack, and at least one item."""
    return max(1, budget // entries)


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
    """Exhaustively rank all C(n, k) port sets, at most
    DEFAULT_ENUMERATION_CAP of them, and return the optimum.

    Scores that tie with the optimal score are collected, by the module's
    rule (relative 1e-9 above |score| = 1, absolute 1e-9 below it); ``best``
    is the lexicographically smallest of them.

    With ``keep_table``, on a disconnected graph, for eigvec and where
    ``_scored_outright`` finds scoring every set cheaper than a bound, every
    set is scored. Otherwise only the sets that the bound of
    ``_subset_bound`` cannot rule out are scored (``_bound_then_solve``);
    ``best``, ``ties`` and ``score`` are bit for bit those of scoring every
    set, and the selection fails only where a set that it scores fails.
    """
    count = check_subset_count(g.n, k)
    plan = _plan(g, k, metric, params, laplacian(g))  # the selection's one L, tau and Z
    subsets = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, g.n + 1), k)),
        dtype=np.intp, count=count * k).reshape(count, k)
    chunk = stack_rows(g.n ** 2)
    outright = keep_table or _scored_outright(plan, count)
    bound = None if outright else _subset_bound(g, plan)
    if bound is None:
        scores = _in_stacks(plan.score, subsets, chunk)
    else:
        subsets, scores = _bound_then_solve(subsets, plan.score, bound, chunk, metric)
    best_score = float(scores.max() if _MAXIMIZING[metric] else scores.min())
    ties = list(map(tuple, subsets[_is_tie(scores, best_score)].tolist()))
    table = list(zip(map(tuple, subsets.tolist()), scores.tolist())) if keep_table else None
    return SelectionResult(metric=metric, k=k, best=ties[0], score=best_score,
                           ties=ties, table=table)


def _scored_outright(plan: _Plan, count: int) -> bool:
    """Whether ``select_best`` scores all count port sets without building
    a bound: where the matrices their scores solve, of the plan's order,
    hold at most _OUTRIGHT_ENTRIES entries in all."""
    return count * plan.order * plan.order <= _OUTRIGHT_ENTRIES


def _in_stacks(f, rows: np.ndarray, chunk: int) -> np.ndarray:
    """f applied to the rows in stacks of ``chunk``, as one array."""
    if len(rows) <= chunk:
        return f(rows) if len(rows) else np.empty(0)
    return np.concatenate([f(rows[i:i + chunk]) for i in range(0, len(rows), chunk)])


class _Bound(NamedTuple):
    """A proven bound on the score of each port set of one selection.

    ``of`` maps an (m, k) batch of port sets to their m bounds: no set
    scores better than its bound, so it is a lower bound on a minimized
    score and an upper bound on a maximized one. ``rows`` is how many sets
    one call of ``of`` takes. ``margin`` maps a score, or an array of them,
    to how far a bound may lie beyond it and the set still be solved
    (``_plan`` states each metric's).
    """

    of: Callable[[np.ndarray], np.ndarray]
    rows: int
    margin: Callable[[np.ndarray], np.ndarray]


def _tie_margin(slack: float):
    """The margin of a bound: the tie band at a score plus ``slack``,
    twice the largest error of a computed score or bound."""
    return lambda x: TIE_RTOL * np.maximum(1.0, np.abs(x)) + slack


def _subset_bound(g: Graph, plan: _Plan) -> Optional[_Bound]:
    """The plan's bound, by which ``select_best`` skips port sets, or None:
    for eigvec, on a disconnected graph, where a component without a port
    leaves no positive definite matrix to solve with, and where a factor
    of the bound fails.

    This is the one guard of every bound: building it here and each call
    of its ``of`` (``_guarded``) run with floating-point warnings off; a
    factor that fails (LinAlgError) gives no bound, so every set is scored,
    and a per-set solve that fails NaN for its stack. A bound that is not
    finite proves nothing, so every set is scored (``_bound_then_solve``).
    Building or evaluating a bound never raises and never warns.
    """
    if plan.bound is None or not g.is_connected():
        return None
    with np.errstate(all="ignore"):
        try:
            bound = plan.bound()
        except np.linalg.LinAlgError:
            return None
    return bound._replace(of=_guarded(bound.of))


def _guarded(of):
    """``of`` run with floating-point warnings off, and NaN bounds for a
    stack whose solve fails (LinAlgError)."""
    def guarded(S):
        with np.errstate(all="ignore"):
            try:
                return of(S)
            except np.linalg.LinAlgError:
                return np.full(len(S), np.nan)
    return guarded


def _bound_then_solve(subsets: np.ndarray, score, bound: _Bound, chunk: int,
                      metric: Metric) -> tuple[np.ndarray, np.ndarray]:
    """The subsets that may hold the optimum or tie with it, in
    lexicographic order, and their scores.

    Every subset's bound comes first, in stacks of ``bound.rows``; if one is
    not finite, the bounds prove nothing and every subset is scored. Otherwise
    two rounds score subsets, each in order and in stacks of ``chunk``:
    first every subset whose bound is within ``bound.margin`` of the best
    bound (the best-bound subset among them), then every other subset whose
    bound is within the margin of the best score of the first round.

    Proof, for a minimized score (a maximized one is its negative). Let s be
    that best first-round score; the optimum b is at most s. A skipped
    subset has a bound above s + margin(s), and its score is at least its
    bound, so its computed score exceeds s plus the tie band at s unless the
    computation errs by more than the rest of the margin; the band at s is
    at least the band at b, since x + TIE_RTOL max(1, |x|) rises with x. So
    a skipped subset neither beats nor ties b, and the scored subsets,
    scored by the unchanged scorer, give ``select_best`` the bits of scoring
    every set. Each solved score must be within half the margin of its own
    bound, else NumericError: where the error the margin allows for can be
    seen, it is checked.
    """
    maximize = _MAXIMIZING[metric]
    bounds = _in_stacks(bound.of, subsets, bound.rows)
    if not np.isfinite(bounds).all():
        return subsets, _in_stacks(score, subsets, chunk)

    def losing(a, b):
        """How far a lies on the losing side of b, sign (a - b) for the
        sign that makes the score minimized; negating is exact, so these
        are the bits of sign * (a - b)."""
        return b - a if maximize else a - b

    def within(value):
        with np.errstate(all="ignore"):  # an overflowing margin scores every set
            return losing(bounds, value) <= bound.margin(value)

    scores = np.empty(len(subsets))
    solved = within(bounds.max() if maximize else bounds.min())
    scores[solved] = first = _in_stacks(score, subsets[solved], chunk)
    rest = within(first.max() if maximize else first.min()) & ~solved
    if rest.any():
        scores[rest] = _in_stacks(score, subsets[rest], chunk)
        solved |= rest
    subsets, scores, bounds = subsets[solved], scores[solved], bounds[solved]
    with np.errstate(all="ignore"):
        beyond = losing(bounds, scores)
        # a margin is never negative (an ARE bound exceeds n/2), so only a
        # score on the winning side of its bound can be wrong; most
        # selections have none and compute no margin here
        wrong = beyond > 0
        if wrong.any():
            wrong = beyond > bound.margin(bounds) / 2
    if wrong.any():
        i = int(np.argmax(wrong))
        side = "above its proven upper" if maximize else "below its proven lower"
        raise NumericError(f"{metric.value} score of {tuple(subsets[i].tolist())} "
                           f"is {scores[i]:.6e}, {side} bound {bounds[i]:.6e}")
    return subsets, scores
