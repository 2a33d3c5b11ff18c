import collections
import contextlib
import functools
import importlib
import itertools
import math
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from spectral_kcenter import (DegenerateEigenvalueError, Graph, Metric,
                              MetricParams, NumericError, ParameterError,
                              StabilityError,
                              agreement_rate, are_charging_energy,
                              eigvec_heuristic_score,
                              figure1_graph, gramian_extraction_energy,
                              laplacian, lyapunov_solve, mplse_score,
                              msub_score, msup_score, path_graph,
                              perturbed_laplacian, random_connected_graph,
                              random_tree, relabel, select_best, stochastic,
                              sym_eigen)
import spectral_kcenter
from spectral_kcenter import metrics, spectral
from spectral_kcenter.experiments import _row_instance, path_theory_checks, run_comparison
from spectral_kcenter.spectral import DEFAULT_RHO, are_bounder
from conftest import mixed_corpus, select_bounded

# exact symbolic eigensolve of the 3x3 instance, frozen independently
P3_CENTER_SCORE = 0.0033259341654727771


def star4() -> Graph:
    return Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])


def test_perturbed_laplacian_examples():
    L = laplacian(path_graph(3))
    assert np.allclose(np.diag(perturbed_laplacian(L, (2,), 0.01)),
                       [1, 2.01, 1])
    assert np.array_equal(perturbed_laplacian(L, (2,), 0.0), L)
    assert np.allclose(np.diag(perturbed_laplacian(L, (1, 3), 0.5)),
                       [1.5, 2, 1.5])
    with pytest.raises(ParameterError):
        perturbed_laplacian(L, (4,), 0.01)


def test_mplse_value_on_p3_center():
    got = mplse_score(path_graph(3), (2,), MetricParams(epsilon=0.01))
    assert math.isclose(got, P3_CENTER_SCORE, rel_tol=1e-12)


def test_mplse_bounds(small_corpus):
    params = MetricParams(epsilon=0.01)
    for g in small_corpus[:10]:
        for k in (1, 2):
            if k >= g.n:
                continue
            for S in itertools.combinations(range(1, g.n + 1), k):
                v = mplse_score(g, S, params)
                assert 0.0 < v <= k * params.epsilon / g.n + 1e-15


def test_mplse_strictly_increasing_in_eps(small_corpus):
    for g in small_corpus[:6]:
        S = (1, min(2, g.n))
        vals = [mplse_score(g, S, MetricParams(epsilon=e))
                for e in (1e-3, 1e-2, 1e-1)]
        assert vals[0] < vals[1] < vals[2]


def test_msub_p3_grounded_blocks():
    for tau in (0.1, 0.25, 0.5):
        got = msub_score(path_graph(3), (2,), MetricParams(tau=tau))
        assert math.isclose(got, 1 - tau, rel_tol=1e-12)


def test_msub_equispaced_ports_closed_value_p9():
    got = msub_score(path_graph(9), (2, 5, 8), MetricParams(tau=0.5))
    assert abs(got - math.cos(math.pi / 3)) <= 1e-10


def test_msub_below_one(small_corpus):
    for g in small_corpus[:10]:
        assert msub_score(g, (1,)) < 1.0


def test_msup_bounds_and_ordering():
    params = MetricParams(epsilon=0.01, tau=0.25)
    g = path_graph(3)
    center = msup_score(g, (2,), params)
    end = msup_score(g, (1,), params)
    assert 1.0 < center < 1.01
    assert center < end


def test_msup_sandwich(small_corpus):
    params = MetricParams(epsilon=0.01)
    for g in small_corpus[:10]:
        for S in itertools.combinations(range(1, g.n + 1), 2):
            v = msup_score(g, S, params)
            assert 1.0 < v < 1.0 + params.epsilon


def test_eigvec_selections_on_paths():
    assert select_best(path_graph(11), 1, Metric.EIGVEC).best == (6,)
    assert select_best(path_graph(14), 2, Metric.EIGVEC).best == (4, 11)
    assert select_best(path_graph(9), 3, Metric.EIGVEC).best == (2, 5, 8)


def test_eigvec_score_is_sum_of_magnitudes():
    g = path_graph(11)
    assert eigvec_heuristic_score(g, (6,), 1) <= 1e-12
    v = eigvec_heuristic_score(g, (1, 2), 1)
    assert v > 0


PORT_SCORERS = {
    "mplse": mplse_score,
    "msub": msub_score,
    "msup": msup_score,
    "eigvec": lambda g, ports: eigvec_heuristic_score(g, ports, 1),
    "are": lambda g, ports: are_charging_energy(laplacian(g), ports),
    "gramian": lambda g, ports: gramian_extraction_energy(laplacian(g), ports),
}


@pytest.mark.parametrize("ports", [(0,), (-1,), (6,), (), (2, 2), (2.5,), (True,)])
@pytest.mark.parametrize("scorer", PORT_SCORERS)
def test_scorers_reject_invalid_port_sets(scorer, ports):
    # a port set is a nonempty set of distinct nodes in 1..n; negative
    # indices must not wrap, duplicates must not add eps twice, a
    # fractional node must not leave msub with nothing removed, and True
    # is not node 1
    with pytest.raises(ParameterError):
        PORT_SCORERS[scorer](path_graph(5), ports)


def test_msub_needs_a_node_left():
    with pytest.raises(ParameterError):
        msub_score(path_graph(5), (1, 2, 3, 4, 5))


@pytest.mark.parametrize("k", [0, -1, 5, 2.0, True])
def test_eigvec_rejects_bad_k(k):
    # k indexes the eigenvector v_{k+1}, so it must be an integer in
    # 1..n-1; a bad k is a parameter error, not a degenerate spectrum
    with pytest.raises(ParameterError):
        eigvec_heuristic_score(path_graph(5), (2,), k)


BATCH_CASES = {
    "fig1-k3": (figure1_graph(), 3),
    "path40-k2": (path_graph(40), 2),  # 78 batches of 10 port sets
    "gnp20-k3": (random_connected_graph(20, 0.4, 7), 3),
    "path10-k8": (path_graph(10), 8),  # numpy's sum() pairs from 8 terms on
    "gnp9-k2": (random_connected_graph(9, 0.4, 11), 2),
    "tree9-k3": (random_tree(9, 4), 3),  # 60 of 84 port sets uncontrollable
    # the desk cap: 5 batches of 40 port sets, pencils of order N = 42; seed
    # 0 fails no set under any metric, and 186 of its 190 sets are uncontrollable
    "tree20-k2": (random_tree(20, 0), 2),
}
# the control-theoretic scores batched on each case, besides the spectral four
CONTROL_METRICS = {"fig1-k3": (Metric.ARE, Metric.GRAMIAN),
                   "gnp9-k2": (Metric.ARE, Metric.GRAMIAN),
                   "tree9-k3": (Metric.ARE, Metric.GRAMIAN),
                   "tree20-k2": (Metric.ARE, Metric.GRAMIAN),
                   "gnp20-k3": (Metric.GRAMIAN,)}


def _one_at_a_time(g, k, metric, params=MetricParams()):
    """A scorer of one port set by its own eigensolve or a running sum."""
    L, Z, eps = laplacian(g), stochastic(g, params.tau_for(g)), params.epsilon
    if metric is Metric.MPLSE:
        return lambda S: float(sym_eigen(perturbed_laplacian(L, S, eps)).values[0])
    if metric is Metric.MSUP_LE:
        return lambda S: float(sym_eigen(perturbed_laplacian(Z, S, eps)).values[-1])
    if metric is Metric.MSUB_LE:
        def msub(S):
            keep = [i for i in range(g.n) if i + 1 not in S]
            return float(sym_eigen(Z[np.ix_(keep, keep)]).values[-1])
        return msub
    if metric is Metric.EIGVEC:
        mags = np.abs(sym_eigen(L).vectors[:, k])
        return lambda S: float(sum(mags[j - 1] for j in S))
    ones = np.ones(g.n)

    def selector(S):
        B = np.zeros((g.n, len(S)))
        B[np.subtract(S, 1), np.arange(len(S))] = 1.0
        return B

    if metric is Metric.GRAMIAN:
        def gramian(S):
            B = selector(S)
            G = B @ B.T
            return float(ones @ lyapunov_solve(-(L + G), G) @ ones)
        return gramian

    def are(S):
        # the whole pencil built for this port set alone, solved by scipy's
        # own ordqz, then the score's checks and value inline
        B, n, k, rho = selector(S), g.n, len(S), params.rho
        M = np.block([[L, np.zeros((n, n)), -B],
                      [-(rho * np.eye(n)), -L.T, -(0.5 * B)],
                      [(0.5 * B).T, -B.T, rho * np.eye(k)]])
        E = np.zeros((2 * n + k, 2 * n + k))
        E[: 2 * n, : 2 * n] = np.eye(2 * n)
        _, _, alpha, beta, _, Z = sla.ordqz(M, E, sort="lhp", output="real")
        finite = np.abs(beta) > 1e-12 * np.abs(alpha).max(initial=1.0)
        eigs = alpha[finite] / beta[finite]
        assert np.abs(eigs.real).min(initial=np.inf) >= 1e-10
        assert int(np.sum(eigs.real < 0)) == n
        U1 = Z[:n, :n]
        U2 = Z[n: 2 * n, :n]
        coeff, *_ = np.linalg.lstsq(U1, ones, rcond=1e-12)
        assert np.linalg.norm(U1 @ coeff - ones) <= 1e-8 * np.sqrt(n)
        value = float(ones @ (U2 @ coeff))
        assert value >= 0
        return value
    return are


@pytest.mark.parametrize("case", BATCH_CASES)
def test_batch_scores_equal_single_scores(case):
    # select_best scores port sets in stacked batches; every score must be
    # bitwise the public score of that port set alone and the score of its
    # own eigensolve
    g, k = BATCH_CASES[case]
    single = {Metric.MPLSE: mplse_score, Metric.MSUB_LE: msub_score,
              Metric.MSUP_LE: msup_score,
              Metric.EIGVEC: lambda g, S: eigvec_heuristic_score(g, S, k),
              Metric.ARE: lambda g, S: are_charging_energy(laplacian(g), S),
              Metric.GRAMIAN: lambda g, S: gramian_extraction_energy(laplacian(g), S)}
    metrics = [Metric.MPLSE, Metric.MSUB_LE, Metric.MSUP_LE, Metric.EIGVEC,
               *CONTROL_METRICS.get(case, ())]
    for metric in metrics:
        score = single[metric]
        table = select_best(g, k, metric, keep_table=True).table
        reference = _one_at_a_time(g, k, metric)
        assert len(table) == math.comb(g.n, k)
        for S, v in table:
            assert v == score(g, S) == reference(S), (metric, S)


@pytest.mark.parametrize("defect", ["repeated", "zero", "beyond-n", "fractional"])
@pytest.mark.parametrize("scorer", ["mplse", "are", "gramian"])
def test_port_set_stack_rejects_one_bad_row(scorer, defect):
    g = figure1_graph()
    S = np.array(list(itertools.combinations(range(1, g.n + 1), 2)))
    bad = {"repeated": [4, 4], "zero": [0, 3], "beyond-n": [3, g.n + 1],
           "fractional": [2.5, 3]}[defect]
    S = np.vstack([S[:7], [bad], S[7:]])
    with pytest.raises(ParameterError):
        PORT_SCORERS[scorer](g, S)


@pytest.mark.parametrize("scorer", ["mplse", "are", "gramian"])
def test_port_scores_take_one_set_or_a_stack(scorer):
    g = path_graph(6)
    S = np.array([[1, 4], [2, 5], [3, 6]])
    one = PORT_SCORERS[scorer](g, (2, 5))
    assert isinstance(one, float)
    batch = PORT_SCORERS[scorer](g, S)
    assert batch.shape == (3,) and batch[1] == one


def test_mplse_batch_equals_single_scores_across_stacks():
    # the 342 pairs j1 < 19 < j2 of path:38 take 32 stacks of 11
    g, params = path_graph(38), MetricParams(epsilon=0.01)
    pairs = [(j1, j2) for j1 in range(1, 19) for j2 in range(20, 39)]
    assert len(pairs) > metrics.stack_rows(38 ** 2)
    batch = mplse_score(g, np.array(pairs), params)
    assert batch.tolist() == [mplse_score(g, S, params) for S in pairs]


def test_eigvec_degenerate_spectrum():
    with pytest.raises(DegenerateEigenvalueError):
        eigvec_heuristic_score(star4(), (2,), 1)
    with pytest.raises(DegenerateEigenvalueError):
        select_best(star4(), 1, Metric.EIGVEC)


def test_select_best_path_and_fig1_centers():
    params = MetricParams(epsilon=0.01)
    assert select_best(path_graph(11), 1, Metric.MPLSE, params).best == (6,)
    for metric in (Metric.MPLSE, Metric.MSUB_LE, Metric.MSUP_LE):
        assert select_best(path_graph(14), 2, metric, params).best == (4, 11)
    assert select_best(figure1_graph(), 1, Metric.MPLSE, params).best == (5,)
    assert select_best(figure1_graph(), 2, Metric.MPLSE, params).best == (3, 8)


def test_select_best_tie_handling_on_symmetric_path():
    res = select_best(path_graph(4), 1, Metric.MPLSE)
    assert res.ties == [(2,), (3,)]
    assert res.best == (2,)


def test_select_best_table_covers_all_subsets():
    res = select_best(path_graph(6), 2, Metric.MSUB_LE, keep_table=True)
    assert len(res.table) == math.comb(6, 2)
    assert [s for (s, _) in res.table] == sorted(s for (s, _) in res.table)


def test_select_best_guards():
    with pytest.raises(ParameterError):
        select_best(path_graph(5), 5, Metric.MPLSE)
    # k is an integer: not a float, even an integral one, and not a bool
    for k in (2.0, True):
        with pytest.raises(ParameterError, match="k must be an integer"):
            select_best(path_graph(5), k, Metric.MPLSE)
    assert select_best(path_graph(5), np.int64(1), Metric.MPLSE).best == (3,)
    # C(40, 8) = 76,904,685 port sets exceed the cap of 2,000,000; the check
    # comes before any scoring, so this is quick
    with pytest.raises(ParameterError, match="enumeration cap"):
        select_best(path_graph(40), 8, Metric.MPLSE)


def test_metric_params_validation():
    with pytest.raises(ParameterError):
        MetricParams(epsilon=0.0)
    with pytest.raises(ParameterError):
        MetricParams(rho=-1.0)
    with pytest.raises(ParameterError):
        Metric.parse("fiedler")
    assert Metric.parse("MSUB") is Metric.MSUB_LE


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameters_rejected(value):
    with pytest.raises(ParameterError):
        MetricParams(epsilon=value)
    with pytest.raises(ParameterError):
        MetricParams(rho=value)
    with pytest.raises(ParameterError):
        perturbed_laplacian(laplacian(path_graph(3)), (2,), value)
    with pytest.raises(ParameterError):
        are_charging_energy(laplacian(path_graph(3)), (2,), rho=value)


@pytest.mark.parametrize("n,k", [(9, 3), (15, 3), (15, 5)])
def test_equispaced_centers_at_desk_scale(n, k):
    from spectral_kcenter import optimal_ports
    ports = optimal_ports(n, k)
    params = MetricParams(tau=0.5)
    res = select_best(path_graph(n), k, Metric.MSUB_LE, params)
    assert res.best == ports
    assert abs(res.score - math.cos(k * math.pi / n)) <= 1e-10


def test_msub_argmin_tau_invariant(small_corpus):
    # lambda_max(Zhat) = 1 - tau*lambda_min(grounded L) is monotone in tau,
    # so the selected set cannot depend on tau
    from spectral_kcenter import max_degree
    for g in small_corpus[:12]:
        d = max_degree(g)
        picks = {select_best(g, 2, Metric.MSUB_LE, MetricParams(tau=t)).best
                 for t in (0.1 / d, 0.5 / d, 1.0 / d)}
        assert len(picks) == 1


def test_permutation_equivariance():
    rng = np.random.default_rng(31337)
    params = MetricParams(epsilon=0.01)
    for g, k in ((path_graph(7), 2), (figure1_graph(), 2)):
        base = select_best(g, k, Metric.MPLSE, params)
        for _ in range(20):
            perm = {i + 1: int(p) + 1 for i, p in enumerate(rng.permutation(g.n))}
            gp = relabel(g, perm)
            mapped = tuple(sorted(perm[j] for j in base.best))
            got = select_best(gp, k, Metric.MPLSE, params)
            assert mapped in got.ties
            assert math.isclose(got.score, base.score, rel_tol=1e-9)


def test_agreement_rate_self_is_total():
    graphs = [path_graph(7)] * 3
    rep = agreement_rate(Metric.MPLSE, Metric.MPLSE, iter(graphs), [1, 2])
    assert rep.pooled == 100.0
    assert rep.per_k == {1: 100.0, 2: 100.0}
    assert sum(rep.skipped_per_k.values()) == 0


def test_agreement_rate_counts_skips():
    graphs = [star4()] * 4
    rep = agreement_rate(Metric.MPLSE, Metric.EIGVEC, iter(graphs), [1])
    assert rep.skipped_per_k[1] == 4
    assert rep.counted_per_k[1] == 0
    assert math.isnan(rep.pooled)


def test_agreement_rate_scores_every_instance_given():
    # every instance of the stream counts, and no instance is a parameter error
    rep = agreement_rate(Metric.MPLSE, Metric.MSUB_LE,
                         iter([path_graph(7)] * 5), [1])
    assert rep.counted_per_k[1] == 5
    with pytest.raises(ParameterError):
        agreement_rate(Metric.MPLSE, Metric.MSUB_LE, [], [1])


def test_all_metrics_agree_on_path11():
    graphs = [path_graph(11)] * 2
    for metric in (Metric.MSUB_LE, Metric.MSUP_LE, Metric.EIGVEC,
                   Metric.ARE, Metric.GRAMIAN):
        rep = agreement_rate(Metric.MPLSE, metric, iter(graphs), [1, 2, 3])
        assert rep.pooled == 100.0


def test_all_metrics_pick_equispaced_ports_on_p9():
    for metric in Metric:
        assert select_best(path_graph(9), 3, metric).best == (2, 5, 8)


# the comparison rows of the benchmark at 10 trials and seed 424242, then one
# graph of each kind at the desk cap
ARE_SEED = 424242
ARE_ROWS = ("path:11", "tree:7", "tree:9", "general:7", "general:9")
ARE_CORPUS = ([_row_instance(row, ARE_SEED, i, t)
               for i, row in enumerate(ARE_ROWS) for t in range(10)]
              + [path_graph(20), random_tree(20, ARE_SEED),
                 random_connected_graph(20, 0.4, ARE_SEED)])


@functools.lru_cache(maxsize=None)
def _full_table(g, k, metric, params):
    """The selection that scores every port set, or its NumericError."""
    try:
        return select_best(g, k, metric, params, keep_table=True)
    except NumericError as exc:
        return exc


def _are_full_table(g, k, rho):
    return _full_table(g, k, Metric.ARE, MetricParams(rho=rho))


def test_are_bound_is_below_every_compare_value():
    for g in ARE_CORPUS[:50]:
        L = laplacian(g)
        for k in (1, 2, 3):
            res = _are_full_table(g, k, DEFAULT_RHO)
            assert not isinstance(res, NumericError), (g, k, res)
            subsets = np.array([s for s, _ in res.table])
            values = np.array([v for _, v in res.table])
            assert np.all(are_bounder(L, DEFAULT_RHO)(subsets) <= values - g.n / 2)


@pytest.mark.parametrize("rho", [1e-10, DEFAULT_RHO, 1e-2])
def test_are_skip_selects_bit_for_bit_like_the_full_table(rho):
    succeeded = 0
    for g in ARE_CORPUS:
        for k in (1, 2, 3):
            full = _are_full_table(g, k, rho)
            try:
                res = select_best(g, k, Metric.ARE, MetricParams(rho=rho))
            except NumericError:
                # only a selection that fails on some set may fail
                assert isinstance(full, NumericError), (g, k)
                continue
            if isinstance(full, NumericError):
                continue  # a failing set was skipped
            assert (res.best, res.ties) == (full.best, full.ties), (g, k)
            assert np.float64(res.score).tobytes() == np.float64(full.score).tobytes()
            succeeded += 1
    assert succeeded >= 100


def _recording_are(monkeypatch):
    """Record the port sets that select_best hands to the ARE solver."""
    seen = []
    solve = metrics.are_charging_energy

    def recording(L, S, rho):
        seen.extend(map(tuple, S.tolist()))
        return solve(L, S, rho)

    monkeypatch.setattr(metrics, "are_charging_energy", recording)
    return seen


def test_are_skip_solves_few_sets_and_keep_table_all(monkeypatch):
    seen = _recording_are(monkeypatch)
    res = select_best(path_graph(20), 3, Metric.ARE)
    assert res.best == (4, 10, 17) and res.ties == [(4, 10, 17), (4, 11, 17)]
    assert (5, 9, 13) not in seen  # the set whose QZ reordering fails
    assert len(seen) <= 0.05 * math.comb(20, 3)
    seen.clear()
    with pytest.raises(NumericError, match=r"Reordering of \(A, B\) failed"):
        select_best(path_graph(20), 3, Metric.ARE, keep_table=True)
    assert (5, 9, 13) in seen


def test_are_on_a_disconnected_graph_scores_every_set(monkeypatch):
    # no grounded solve exists when a component has no port, so no bound
    seen = _recording_are(monkeypatch)
    monkeypatch.setattr(metrics, "are_bounder", lambda *args: 1 / 0)
    g = Graph.from_edges(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
    try:
        select_best(g, 2, Metric.ARE)
    except NumericError:
        pass
    assert seen == list(itertools.combinations(range(1, 7), 2))


def test_are_value_below_its_bound_is_a_numeric_error(monkeypatch):
    bounder = metrics.are_bounder

    def raised(L, rho):
        of = bounder(L, rho)
        return lambda S: 1.01 * of(S)

    monkeypatch.setattr(metrics, "are_bounder", raised)
    with pytest.raises(NumericError, match="below its proven lower bound"):
        select_best(path_graph(9), 2, Metric.ARE)
    assert select_best(path_graph(9), 2, Metric.ARE, keep_table=True).best == (3, 7)


SPECTRAL_METRICS = (Metric.MPLSE, Metric.MSUB_LE, Metric.MSUP_LE)
# the metrics whose bound _subset_bound derives with a tie band and a slack
SKIP_METRICS = SPECTRAL_METRICS + (Metric.GRAMIAN,)
# (eps, tau): the default, the eps at which mplse and msup solve every set,
# a large and a tiny eps, and a tau below the default of every corpus graph
SPECTRAL_REGIMES = [MetricParams(epsilon=1e-2), MetricParams(epsilon=1e-4),
                    MetricParams(epsilon=1.0), MetricParams(epsilon=1e-6),
                    MetricParams(epsilon=1e-2, tau=0.05)]
# every regime for the spectral metrics; the Gramian reads no parameter
SKIP_CASES = ([pytest.param(m, p, id=f"{m}-params{i}") for m in SPECTRAL_METRICS
               for i, p in enumerate(SPECTRAL_REGIMES)]
              + [pytest.param(Metric.GRAMIAN, MetricParams(), id="Metric.GRAMIAN-params0")])


def _bound(g, k, metric, params=MetricParams()):
    """The guarded bound that select_best builds for its plan, or None."""
    return metrics._subset_bound(g, metrics._plan(g, k, metric, params, laplacian(g)))


def _same_selection(res, full):
    return ((res.best, res.ties, np.float64(res.score).tobytes())
            == (full.best, full.ties, np.float64(full.score).tobytes()))


@pytest.mark.parametrize("metric, params", SKIP_CASES)
def test_spectral_skip_selects_bit_for_bit_like_the_full_table(metric, params):
    for g in ARE_CORPUS:
        for k in (1, 2, 3):
            full = _full_table(g, k, metric, params)
            assert _same_selection(select_bounded(g, k, metric, params), full), (g, k)


@pytest.mark.parametrize("metric, params", SKIP_CASES)
def test_spectral_bound_is_on_the_losing_side_of_every_table_score(metric, params):
    # the bound holds exactly for the exact score; a computed score may
    # cross it only by rounding, which is far inside the margin (where eps
    # is tiny the mplse bound is tight to the last bits)
    sign = -1.0 if metrics._MAXIMIZING[metric] else 1.0
    for g in ARE_CORPUS:
        for k in (1, 2, 3):
            table = _full_table(g, k, metric, params).table
            bound = _bound(g, k, metric, params)
            values = np.array([v for _, v in table])
            bounds = bound.of(np.array([S for S, _ in table]))
            assert np.all(sign * (bounds - values) <= 1e-4 * bound.margin(values)), (g, k)


def _direct_bound(g, S, metric, params):
    """The bound from a direct solve per set: the Rayleigh quotient at y =
    P_S^(-1) 1 from an n x n (msub: grounded) solve, or ARE's LB(S) less
    nothing, from a grounded solve and K^(-1) = G + 11'/(n rho (1 + rho))."""
    L, n, k = laplacian(g), g.n, S.shape[1]
    eps, m = params.epsilon, len(S)
    rows = np.arange(m)[:, None]
    u, v = np.nonzero(np.triu(L, 1))
    R = np.array([[j for j in range(n) if j + 1 not in s] for s in S.tolist()])
    if metric in (Metric.MSUB_LE, Metric.ARE):
        y = np.zeros((m, n))
        y[rows, R] = np.linalg.solve(L[R[:, :, None], R[:, None, :]], np.ones((m, n - k, 1)))[..., 0]
    else:
        D = S - 1 if metric is Metric.MPLSE else R
        shift = eps if metric is Metric.MPLSE else eps / params.tau_for(g)
        P = np.repeat(L[None], m, axis=0)
        P[rows, D, D] += shift
        y = np.linalg.solve(P, np.ones((m, n, 1)))[..., 0]
    if metric is Metric.ARE:
        c, w = y.sum(axis=1), y @ L
        G = np.linalg.inv(L + 1.0 / n + params.rho * np.eye(n))
        ab, aa = (w * (y @ G)).sum(axis=1), (w * (w @ G)).sum(axis=1)
        bb = (y * (y @ G)).sum(axis=1) + c * c / (n * params.rho * (1.0 + params.rho))
        return c * c * (np.sqrt(aa * bb) + ab) / (aa * bb - ab * ab)
    y /= y.max(axis=1, keepdims=True)
    quotient = ((y[:, u] - y[:, v]) ** 2).sum(axis=1) / (y * y).sum(axis=1)
    if metric is Metric.MSUB_LE:
        return 1.0 - params.tau_for(g) * quotient
    diag = (y[rows, D] ** 2).sum(axis=1) / (y * y).sum(axis=1)
    if metric is Metric.MPLSE:
        return quotient + eps * diag
    return 1.0 + eps - params.tau_for(g) * quotient - eps * diag


# the spectral metrics at every regime, then ARE at three rho
ORACLE_CASES = ([(m, p) for m in SPECTRAL_METRICS for p in SPECTRAL_REGIMES]
                + [(Metric.ARE, MetricParams(rho=rho)) for rho in (1e-10, 1e-6, 1e-2)])


def test_bounds_from_k_by_k_solves_match_direct_solves():
    for g in ARE_CORPUS:
        L = laplacian(g)
        for k in (1, 2, 3):
            S = np.array(list(itertools.combinations(range(1, g.n + 1), k)))
            for metric, params in ORACLE_CASES:
                if metric is Metric.ARE:
                    got = are_bounder(L, params.rho)(S)
                else:
                    got = _bound(g, k, metric, params).of(S)
                want = _direct_bound(g, S, metric, params)
                assert np.allclose(got, want, rtol=1e-12, atol=0.0), (g, k, metric, params)


# the graphs of the desk-cap benchmark at n = 12, where k = 4..6 runs the
# longer elimination loops of the bounds' k x k solves
MID_K_GRAPHS = [path_graph(12), random_tree(12, ARE_SEED),
                random_connected_graph(12, 0.4, ARE_SEED)]


@pytest.mark.parametrize("metric", SKIP_METRICS + (Metric.ARE,))
def test_bounded_mid_k_selections_select_bit_for_bit_like_the_full_table(metric):
    for g in MID_K_GRAPHS:
        for k in (4, 5, 6):
            full = _full_table(g, k, metric, MetricParams())
            assert _same_selection(select_bounded(g, k, metric), full), (g, k)


# the np.linalg routines that call LAPACK
LAPACK_ROUTINES = ("solve", "inv", "eigh", "eigvalsh", "eig", "eigvals", "cholesky",
                   "lstsq", "det", "slogdet", "qr", "svd", "pinv")


def test_bounds_make_no_lapack_call_per_port_set(monkeypatch):
    # a bound's factors are built once per selection; evaluating it over
    # every port set, in one stack or many, calls no LAPACK routine
    g = random_connected_graph(12, 0.4, ARE_SEED)
    for k in (1, 3, 5):
        S = np.array(list(itertools.combinations(range(1, g.n + 1), k)))
        bounds = [_bound(g, k, metric) for metric in SKIP_METRICS + (Metric.ARE,)]
        with monkeypatch.context() as patch:
            counts = _counting(patch, np.linalg, LAPACK_ROUTINES)
            for bound in bounds:
                assert np.isfinite(metrics._in_stacks(bound.of, S, bound.rows)).all()
                assert np.isfinite(bound.of(S[:1])).all()
            assert not counts, (k, counts)


def _recording_solves(monkeypatch, metric=Metric.MPLSE):
    """Record how many port sets select_best scores: matrices handed to the
    eigensolver, or port sets to the Gramian or ARE."""
    seen = [0]
    name = {Metric.GRAMIAN: "gramian_extraction_energy",
            Metric.ARE: "are_charging_energy"}.get(metric, "sym_eigen")
    solve = getattr(metrics, name)

    def recording(*args):
        seen[0] += len(args[0] if name == "sym_eigen" else args[1])
        return solve(*args)

    monkeypatch.setattr(metrics, name, recording)
    return seen


# the share of the 1,140 sets of path:20, k = 3 that the skip may solve
FEW_SOLVED = {Metric.MPLSE: 0.05, Metric.GRAMIAN: 0.15}


@pytest.mark.parametrize("metric", SKIP_METRICS)
def test_spectral_skip_solves_few_sets_and_keep_table_all(monkeypatch, metric):
    seen = _recording_solves(monkeypatch, metric)
    res = select_best(path_graph(20), 3, metric)
    assert seen[0] <= FEW_SOLVED.get(metric, 1.0) * math.comb(20, 3)
    assert seen[0] < math.comb(20, 3)
    seen[0] = 0
    assert _same_selection(res, select_best(path_graph(20), 3, metric, keep_table=True))
    assert seen[0] == math.comb(20, 3)


@pytest.mark.parametrize("metric", SKIP_METRICS)
def test_spectral_skip_on_a_disconnected_graph_scores_every_set(monkeypatch, metric):
    # a component without a port makes P_S (Gramian: M) singular, so there
    # is no bound
    seen = _recording_solves(monkeypatch, metric)
    g = Graph.from_edges(6, [(1, 2), (2, 3), (4, 5), (5, 6)])
    assert _bound(g, 2, metric) is None
    # the Gramian of a port set that leaves a component unported is infinite
    with (pytest.raises(StabilityError) if metric is Metric.GRAMIAN
          else contextlib.nullcontext()):
        select_bounded(g, 2, metric)
    assert seen[0] == math.comb(6, 2)


@pytest.mark.parametrize("metric", SKIP_METRICS)
def test_spectral_score_beyond_its_bound_is_a_numeric_error(monkeypatch, metric):
    # move every bound past its score by 1: below a maximized score, above a
    # minimized one
    shift = -1.0 if metrics._MAXIMIZING[metric] else 1.0
    expected = select_best(path_graph(12), 2, metric)
    bound_of = metrics._subset_bound

    def moved(*args):
        bound = bound_of(*args)
        return bound._replace(of=lambda S: bound.of(S) + shift)

    monkeypatch.setattr(metrics, "_subset_bound", moved)
    side = "above its proven upper" if shift < 0 else "below its proven lower"
    with pytest.raises(NumericError, match=side + " bound"):
        select_bounded(path_graph(12), 2, metric)
    assert _same_selection(select_best(path_graph(12), 2, metric, keep_table=True), expected)


def _nan_bounds(monkeypatch):
    """Make every bound of _subset_bound NaN."""
    bound_of = metrics._subset_bound

    def nan(*args):
        return bound_of(*args)._replace(of=lambda S: np.full(len(S), np.nan))

    monkeypatch.setattr(metrics, "_subset_bound", nan)


# msup at eps = 1e-300, where L + (eps/tau) I is L in floating point and the
# factor of its bound fails; every metric with a bound, with the bound made
# NaN and with its per-set solve failing; and ARE with its factors failing
FAILED_BOUNDS = ([pytest.param(Metric.MSUP_LE, 1e-300, None, id="msup-factor")]
                 + [pytest.param(m, 1e-2, fault, id=f"{m.value}-{fault}")
                    for fault in ("nan", "solve") for m in SKIP_METRICS + (Metric.ARE,)]
                 + [pytest.param(Metric.ARE, 1e-2, "inv", id="are-factor"),
                    pytest.param(Metric.GRAMIAN, 1e-2, "eigen", id="gramian-eigen")])


@pytest.mark.parametrize("metric, eps, fault", FAILED_BOUNDS)
def test_spectral_skip_scores_every_set_where_the_bound_fails(monkeypatch, capfd, metric,
                                                             eps, fault):
    # bounds that are not finite, or whose factor or solve fails
    # (LinAlgError), or whose eigensolve of L fails sym_eigen's residual
    # check (NumericError), prove nothing: the selection scores every set,
    # silently, as the full table does
    g, params = path_graph(12), MetricParams(epsilon=eps)
    S = np.array(list(itertools.combinations(range(1, 13), 2)))
    full = select_best(g, 2, metric, params, keep_table=True)
    failed = []

    def fail(*args):
        failed.append(args)
        raise np.linalg.LinAlgError("Singular matrix")

    if fault == "nan":
        _nan_bounds(monkeypatch)
    elif fault == "solve":
        # the spectral metrics' solve is looked up in metrics, ARE's and the
        # Gramian's in spectral
        monkeypatch.setattr(metrics, "resolvent_ones", fail)
        monkeypatch.setattr(spectral, "resolvent_ones", fail)
    elif fault == "inv":
        monkeypatch.setattr(np.linalg, "inv", fail)
    elif fault == "eigen":
        build = metrics.gramian_bounder

        def unchecked(*args):
            # a residual tolerance no eigh meets, inside the build only
            with pytest.MonkeyPatch.context() as m:
                m.setattr(spectral, "EIGEN_RESIDUAL_FACTOR", 1e-30)
                try:
                    return build(*args)
                except NumericError as exc:
                    failed.append(exc)
                    raise

        monkeypatch.setattr(metrics, "gramian_bounder", unchecked)
    bound = _bound(g, 2, metric, params)
    if fault in (None, "inv", "eigen"):  # a factor failed: no bound
        assert bound is None
    else:
        assert np.isnan(bound.of(S)).all()
    assert bool(failed) == (fault in ("solve", "inv", "eigen"))
    seen = _recording_solves(monkeypatch, metric)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = select_bounded(g, 2, metric, params)
    assert seen[0] == len(S)
    assert _same_selection(res, full)
    assert capfd.readouterr() == ("", "")


def test_mplse_bound_at_a_tiny_eps_is_k_eps_over_n():
    # at eps = 1e-300 every y is 1 to the last bit, so the bound is exactly
    # the first-order value k eps / n, and every set ties with the best
    g, params = path_graph(9), MetricParams(epsilon=1e-300)
    S = np.array(list(itertools.combinations(range(1, 10), 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = _bound(g, 2, Metric.MPLSE, params).of(S)
        res = select_best(g, 2, Metric.MPLSE, params)
    assert np.allclose(bounds, 2e-300 / 9, rtol=1e-12, atol=0.0)
    assert len(res.ties) == len(S)
    assert _same_selection(res, select_best(g, 2, Metric.MPLSE, params, keep_table=True))


def _counting(monkeypatch, module, names):
    """Count the calls of the callables of the given names in module, by
    name, through every module of the package that binds the same object."""
    from spectral_kcenter import experiments, graphs

    counts = collections.Counter()
    for name in names:
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for holder in {module, graphs, metrics, spectral, experiments}:
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, counting)
    return counts


def test_nothing_outlives_a_selection(monkeypatch):
    # a second run makes exactly the eigh, inv and solve calls of the first,
    # as the benchmark's traced passes must: no factor is kept between calls
    counts = _counting(monkeypatch, np.linalg, ("eigh", "inv", "solve"))
    runs = [functools.partial(select_best, path_graph(9), 2, m) for m in Metric]
    runs.append(functools.partial(run_comparison, ["tree:7"], 2, 0))
    # the path suite at n = 38 splits its large stacks between two threads
    runs.append(functools.partial(path_theory_checks, 38))
    for run in runs:
        made = []
        for _ in range(2):
            counts.clear()
            run()
            made.append(dict(counts))
        assert made[0] == made[1] and made[0], (run, made)


def test_no_function_keeps_a_cache():
    # no state outlives a call: no module of the package holds a memoized
    # function (functools.lru_cache or cache), at module level or on a class
    for info in pkgutil.iter_modules(spectral_kcenter.__path__):
        module = importlib.import_module(f"spectral_kcenter.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for f in (obj, *members):
                assert not hasattr(f, "cache_info"), (info.name, name)


def test_tau_is_resolved_once_per_selection_with_z_only(monkeypatch):
    # msub and msup score through Z = I - tau L with tau resolved and checked
    # once per selection, scored outright or bounded, and Z built once from
    # it, bit for bit stochastic's; the other metrics resolve no tau
    g = figure1_graph()
    resolved = []
    tau_for = MetricParams.tau_for
    monkeypatch.setattr(MetricParams, "tau_for",
                        lambda self, g: resolved.append(g) or tau_for(self, g))
    for params in (MetricParams(), MetricParams(tau=0.2)):
        for metric in Metric:
            for k in (1, 3):
                resolved.clear()
                select_best(g, k, metric, params)
                assert len(resolved) == (metric in (Metric.MSUB_LE, Metric.MSUP_LE)), (metric, k)
        Z = stochastic(g, tau_for(params, g))
        S = np.array(list(itertools.combinations(range(1, g.n + 1), 2)))
        R = metrics.non_ports(g.n, S)
        mats = np.repeat(Z[None], len(S), axis=0)
        mats[np.arange(len(S))[:, None], S - 1, S - 1] += params.epsilon
        for metric, want in ((Metric.MSUB_LE, sym_eigen(Z[R[:, :, None], R[:, None, :]])),
                             (Metric.MSUP_LE, sym_eigen(mats))):
            got = metrics._plan(g, 2, metric, params, laplacian(g)).score(S)
            assert got.tobytes() == want.values[:, -1].tobytes(), metric
    with pytest.raises(ParameterError, match="graph has no edges"):
        metrics._plan(Graph(3), 1, Metric.MSUB_LE, MetricParams(), laplacian(Graph(3)))
    metrics._plan(Graph(3), 1, Metric.MPLSE, MetricParams(), laplacian(Graph(3)))


@pytest.mark.parametrize("metric", [Metric.MSUB_LE, Metric.MSUP_LE])
def test_bound_slack_takes_the_norm_of_the_shared_z(metric):
    # the bound takes ||Z||_F from the step the scorer uses; its margin, the
    # tie band plus the slack, keeps the bits of rebuilding Z = I - tau L for
    # the norm (the band at these scores changes the margin's bits with each
    # ulp of the slack of every case here)
    scores = np.array([0.0, 1.25, 1.5, 1.75, 2.0, 3.0])
    for g in ARE_CORPUS:
        L = laplacian(g)
        for params in (MetricParams(), MetricParams(epsilon=1e-4, tau=0.05)):
            tau = params.tau_for(g)
            for k in (1, 2, 3):
                norm = np.linalg.norm(np.eye(g.n) - tau * L)
                norm += params.epsilon * math.sqrt(k) if metric is Metric.MSUP_LE else 0.0
                slack = 2 * spectral.EIGEN_RESIDUAL_FACTOR * (1.0 + norm)
                bound = _bound(g, k, metric, params)
                margin = metrics.TIE_RTOL * np.maximum(1.0, scores) + slack
                assert bound.margin(scores).tobytes() == margin.tobytes()


@pytest.mark.parametrize("keep_table", [False, True])
@pytest.mark.parametrize("connected", [True, False], ids=["connected", "disconnected"])
def test_one_laplacian_per_selection(monkeypatch, keep_table, connected):
    # the scorer and the bound share the selection's one L and one tau, and
    # Z comes from them, whether the bound is built, skipped (disconnected,
    # eigvec, full table) or the selection fails; tau is resolved, and its
    # max_degree taken, at most once
    from spectral_kcenter import graphs

    g = (random_tree(8, 3) if connected
         else Graph.from_edges(7, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]))
    counts = _counting(monkeypatch, graphs, ("laplacian", "stochastic", "max_degree"))
    for metric in Metric:
        for k in (1, 2):
            counts.clear()
            try:
                select_best(g, k, metric, keep_table=keep_table)
            except NumericError:  # eigvec, ARE and the Gramian on the disconnected graph
                assert not connected
            assert counts.pop("max_degree", 0) <= 1, (metric, k)
            assert counts == {"laplacian": 1}, (metric, k)


# (graph, k, metric, bounds built): select_best scores a stack of at most
# 2**11 matrix entries outright; mplse on path:11 at k = 1 holds 11 * 11**2
# entries, on path:13 13 * 13**2, and msub solves L_RR, 13 * 12**2 on path:13
OUTRIGHT_CASES = [pytest.param(path_graph(11), 1, Metric.MPLSE, 0, id="mplse-path11"),
                  pytest.param(path_graph(13), 1, Metric.MPLSE, 1, id="mplse-path13"),
                  pytest.param(path_graph(13), 1, Metric.MSUB_LE, 0, id="msub-path13")]


@pytest.mark.parametrize("g, k, metric, bounds", OUTRIGHT_CASES)
def test_small_selections_are_scored_outright(monkeypatch, g, k, metric, bounds):
    counts = _counting(monkeypatch, metrics, ("_subset_bound",))
    res = select_best(g, k, metric)
    assert counts["_subset_bound"] == bounds
    assert _same_selection(res, select_best(g, k, metric, keep_table=True))


def test_every_desk_cap_selection_is_bounded(monkeypatch):
    # the benchmark's selections at n = 20, k = 1..3, on a path, a tree and
    # a G(20, 0.4), each build their bound (eigvec has none to build)
    counts = _counting(monkeypatch, metrics, ("_subset_bound",))
    for g in ARE_CORPUS[-3:]:
        for metric in SKIP_METRICS + (Metric.ARE,):
            for k in (1, 2, 3):
                counts.clear()
                select_best(g, k, metric)
                assert counts == {"_subset_bound": 1}, (g, metric, k)


def test_are_is_bounded_at_every_size(monkeypatch):
    # path:5 at k = 1 is far below the cutoff, yet ARE builds its bound, and
    # the bound skips the set whose charging energy comes out negative at
    # rho = 1e8, which the full table solves
    counts = _counting(monkeypatch, metrics, ("_subset_bound",))
    params = MetricParams(rho=1e8)
    select_best(path_graph(5), 1, Metric.ARE, params)
    assert counts == {"_subset_bound": 1}
    with pytest.raises(NumericError, match="charging energy came out negative"):
        select_best(path_graph(5), 1, Metric.ARE, params, keep_table=True)


# 20 examples per metric, as many as when the Gramian was not drawn
@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 9), p=st.sampled_from([0.3, 0.5, 0.8]), seed=st.integers(0, 10**6),
       tree=st.booleans(), metric=st.sampled_from(SKIP_METRICS),
       k=st.integers(1, 3), eps=st.sampled_from([1e-6, 1e-3, 1e-2, 0.3, 1.0, 10.0]),
       tau_share=st.sampled_from([None, 0.05, 0.5, 1.0]))
def test_spectral_skip_property_on_random_connected_graphs(n, p, seed, tree, metric,
                                                           k, eps, tau_share):
    g = random_tree(n, seed) if tree else random_connected_graph(n, p, seed)
    k = min(k, n - 1)
    tau = None if tau_share is None else tau_share / max(g.degrees())
    params = MetricParams(epsilon=eps, tau=tau)
    full = select_best(g, k, metric, params, keep_table=True)
    assert _same_selection(select_bounded(g, k, metric, params), full)
