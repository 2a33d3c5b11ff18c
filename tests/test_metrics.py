import itertools
import math

import numpy as np
import pytest
from scipy import linalg as sla

from spectral_kcenter import (DegenerateEigenvalueError, Graph, Metric,
                              MetricParams, ParameterError, agreement_rate,
                              are_charging_energy, eigvec_heuristic_score,
                              figure1_graph, gramian_extraction_energy,
                              laplacian, lyapunov_solve, mplse_score,
                              msub_score, msup_score, path_graph,
                              perturbed_laplacian, random_connected_graph,
                              random_tree, relabel, select_best, stochastic,
                              sym_eigen)
from conftest import mixed_corpus

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


@pytest.mark.parametrize("ports", [(0,), (-1,), (6,), (), (2, 2), (2.5,)])
@pytest.mark.parametrize("scorer", PORT_SCORERS)
def test_scorers_reject_invalid_port_sets(scorer, ports):
    # a port set is a nonempty set of distinct nodes in 1..n; negative
    # indices must not wrap, duplicates must not add eps twice, and a
    # fractional node must not leave msub with nothing removed
    with pytest.raises(ParameterError):
        PORT_SCORERS[scorer](path_graph(5), ports)


def test_msub_needs_a_node_left():
    with pytest.raises(ParameterError):
        msub_score(path_graph(5), (1, 2, 3, 4, 5))


@pytest.mark.parametrize("k", [0, -1, 5])
def test_eigvec_rejects_bad_k(k):
    # k indexes the eigenvector v_{k+1}, so it must lie in 1..n-1; a bad k
    # is a parameter error, not a degenerate spectrum
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
@pytest.mark.parametrize("scorer", ["are", "gramian"])
def test_port_set_stack_rejects_one_bad_row(scorer, defect):
    g = figure1_graph()
    S = np.array(list(itertools.combinations(range(1, g.n + 1), 2)))
    bad = {"repeated": [4, 4], "zero": [0, 3], "beyond-n": [3, g.n + 1],
           "fractional": [2.5, 3]}[defect]
    S = np.vstack([S[:7], [bad], S[7:]])
    with pytest.raises(ParameterError):
        PORT_SCORERS[scorer](g, S)


def test_control_scores_take_one_set_or_a_stack():
    L = laplacian(path_graph(6))
    S = np.array([[1, 4], [2, 5], [3, 6]])
    for score in (are_charging_energy, gramian_extraction_energy):
        one = score(L, (2, 5))
        assert isinstance(one, float)
        batch = score(L, S)
        assert batch.shape == (3,) and batch[1] == one


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
    rep = agreement_rate(Metric.MPLSE, Metric.MPLSE, iter(graphs), 3, [1, 2])
    assert rep.pooled == 100.0
    assert rep.per_k == {1: 100.0, 2: 100.0}
    assert rep.skipped_total == 0


def test_agreement_rate_counts_skips():
    graphs = [star4()] * 4
    rep = agreement_rate(Metric.MPLSE, Metric.EIGVEC, iter(graphs), 4, [1])
    assert rep.skipped_per_k[1] == 4
    assert rep.counted_per_k[1] == 0
    assert math.isnan(rep.pooled)


def test_all_metrics_agree_on_path11():
    graphs = [path_graph(11)] * 2
    for metric in (Metric.MSUB_LE, Metric.MSUP_LE, Metric.EIGVEC,
                   Metric.ARE, Metric.GRAMIAN):
        rep = agreement_rate(Metric.MPLSE, metric, iter(graphs), 2, [1, 2, 3])
        assert rep.pooled == 100.0


def test_all_metrics_pick_equispaced_ports_on_p9():
    for metric in Metric:
        assert select_best(path_graph(9), 3, metric).best == (2, 5, 8)
