import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectral_kcenter
from spectral_kcenter import (Metric, ParameterError, agreement_rate, experiments,
                              metrics)
from spectral_kcenter.experiments import (HEURISTIC_METRICS, _row_instance,
                                          conjecture_probe, convexity_table,
                                          lambda_profile, parse_graph_source,
                                          path_theory_checks, run_comparison)
from spectral_kcenter.graphs import laplacian, serialize_edge_list, path_graph
from spectral_kcenter.metrics import MetricParams, perturbed_laplacian, select_best
from spectral_kcenter.path_theory import (lambda_min_quadratic_1port,
                                          lambda_min_quadratic_2port,
                                          path_lambda_min,
                                          pseudo_toeplitz_lambda_min)
from spectral_kcenter.spectral import sym_eigen


# the CLI child runs the package these tests import, installed or not
CLI_PATH = os.pathsep.join(filter(None, (
    str(Path(spectral_kcenter.__file__).resolve().parents[1]),
    os.environ.get("PYTHONPATH"))))


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "spectral_kcenter.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": CLI_PATH})


def test_parse_graph_source_schemes(tmp_path):
    assert parse_graph_source("path:5").n == 5
    assert parse_graph_source("fig1").n == 11
    assert parse_graph_source("random-tree:8", seed=3).n == 8
    g = parse_graph_source("random-graph:7,0.4", seed=3)
    assert g.n == 7 and g.is_connected()
    f = tmp_path / "g.txt"
    f.write_text(serialize_edge_list(path_graph(4)))
    assert parse_graph_source(str(f)).edges == path_graph(4).edges
    with pytest.raises(ParameterError):
        parse_graph_source("ring:5")


def test_path_theory_checks_pass_for_benchmark_orders():
    for (n, k) in ((11, None), (13, None), (14, None), (9, 3)):
        results = path_theory_checks(n, k=k)
        failed = [c.check_id for c in results if not c.passed]
        assert not failed, failed


@pytest.mark.parametrize("k", [0, -3, 10])
def test_path_theory_checks_reject_k_outside_1_to_n_minus_1(k):
    # k = 0 used to end in a ZeroDivisionError; -3 and 10 silently skipped
    # the k-port checks
    with pytest.raises(ParameterError):
        path_theory_checks(9, k=k)


@pytest.mark.parametrize("eps", [1e103, 1e300])
@pytest.mark.parametrize("n", [5, 6, 8])
def test_path_theory_checks_reject_overflowing_tolerance(n, eps):
    # 50 eps^3 used to raise OverflowError on n = 5 and 6 while n = 8,
    # which has no series check, passed
    with pytest.raises(ParameterError):
        path_theory_checks(n, eps=eps)


@pytest.mark.parametrize("eps", [1e-120, 1e-200, 5e-324])
@pytest.mark.parametrize("n", [5, 6, 8])
def test_path_theory_checks_reject_underflowing_tolerance(n, eps):
    # 50 eps^3 below the normal range: at 1e-200 the convexity identity's
    # eps^2 (n^2 + 2) / (12 n^2) is 0 and n = 6 ended in ZeroDivisionError
    with pytest.raises(ParameterError, match="underflow"):
        path_theory_checks(n, eps=eps)


@pytest.mark.parametrize("eps", [1e-8, 1e-20])
@pytest.mark.parametrize("n", [6, 10])
def test_convexity_series_identity_holds_at_small_eps(n, eps):
    # the gap's first-order terms k eps/n cancel; their rounding outweighed
    # the eps^2 gap (residual 2.7e-8 at n = 6, eps = 1e-8, and 1.0 at 1e-20)
    (check,) = [c for c in path_theory_checks(n, eps=eps)
                if c.check_id == "convexity-series-identity"]
    assert check.passed and check.residual <= 1e-14, check


def _lambda_min(L, ports, eps):
    """One matrix, one dense solve: how the suite computes each one-port
    exact value."""
    return float(sym_eigen(perturbed_laplacian(L, ports, eps)).values[0])


@pytest.mark.parametrize("n", [11, 14, 38])
def test_path_theory_checks_bitwise_equal_single_solves(n):
    # the exact values read from the one-port mplse table equal single
    # dense solves bit for bit; the 342 straddling two-port pairs of n = 38,
    # solved in one path_lambda_min stack, equal its single-pair values bit
    # for bit and single dense solves within its certified width
    eps = 0.01
    g = path_graph(n)
    L = laplacian(g)
    params = MetricParams(epsilon=eps)
    expected = {}
    if n % 2 == 1:
        pstar = (n + 1) // 2
        expected["one-port-series-vs-exact"] = max(
            abs(_lambda_min(L, (j,), eps) - lambda_min_quadratic_1port(n, j, eps))
            for j in range(1, n + 1))
        lam_2n = _lambda_min(laplacian(path_graph(2 * n)), (pstar, pstar + n), eps)
        expected["doubling-equality"] = abs(_lambda_min(L, (pstar,), eps) - lam_2n)
        expected["pseudo-toeplitz-value"] = abs(
            _lambda_min(L, (1,), 1.0) - pseudo_toeplitz_lambda_min(n))
    else:
        pairs = [(j1, j2) for j1 in range(1, n // 2) for j2 in range(n // 2 + 1, n + 1)]
        alone = [path_lambda_min(n, np.array([pair]), eps)[0] for pair in pairs]
        delta = 2 * n * np.finfo(float).eps * (4 + eps)
        for pair, value in zip(pairs, alone):
            assert abs(value - _lambda_min(L, pair, eps)) <= delta, pair
        expected["two-port-series-vs-exact"] = max(
            abs(value - lambda_min_quadratic_2port(n, j1, j2, eps))
            for (j1, j2), value in zip(pairs, alone))
        lam2 = select_best(g, 2, Metric.MPLSE, params).score
        lam1 = select_best(g, 1, Metric.MPLSE, params).score
        expected["convexity-exact"] = (0.0 if lam2 - 2 * lam1 > 0 else 1.0,
                                       f"lambda*(2) - 2 lambda*(1) = {lam2 - 2 * lam1:.3e}")
    results = {c.check_id: c for c in path_theory_checks(n, eps=eps)}
    for check_id, value in expected.items():
        c = results[check_id]
        assert c.passed, check_id
        if check_id == "convexity-exact":
            assert (c.residual, c.detail) == value
        else:
            assert c.residual == value, check_id


def test_path_theory_checks_vanishing_quadratic_form():
    # lambda_min_quadratic_1port(37, j, 0.1) is exactly 0 at j = 3 and 35;
    # the identity check used to divide by it and raise ZeroDivisionError
    assert lambda_min_quadratic_1port(37, 3, 0.1) == 0.0
    assert lambda_min_quadratic_1port(37, 35, 0.1) == 0.0
    results = {c.check_id: c for c in path_theory_checks(37, eps=0.1)}
    c = results["trig-vs-quadratic-identity"]
    assert c.passed and math.isfinite(c.residual)


def test_path_theory_checks_call_contract(monkeypatch):
    # each (k, metric) is selected once: the two-port mplse selection serves
    # the centers and lambda*(2), and the exact two-port series values come
    # from path_lambda_min's tridiagonal kernel, not from a selection
    calls = []
    select_best = experiments.select_best

    def recording(g, k, metric, *args, **kwargs):
        calls.append((k, metric))
        return select_best(g, k, metric, *args, **kwargs)

    monkeypatch.setattr(experiments, "select_best", recording)
    path_theory_checks(14)
    monkeypatch.undo()
    assert len(calls) == len(set(calls))
    assert set(calls) == {(2, Metric.MPLSE), (2, Metric.MSUB_LE),
                          (2, Metric.MSUP_LE), (1, Metric.MPLSE)}


def test_path_theory_checks_solve_fewer_matrices_than_the_two_port_table(monkeypatch):
    # path:38 has C(38, 2) = 703 two-port sets; the series check reads its
    # 342 pairs j1 < 19 < j2 from path_lambda_min, which solves no dense
    # matrix, and each selection solves only the sets its bound cannot rule
    # out, so the suite solves fewer dense matrices than n = 38 has nodes
    # (17 here; a bound loosened by an eigen residual factor of 1e-4
    # instead of 1e-9 gives 1,459)
    solved = []
    for module in (metrics, experiments):
        def counting(A, _solve=module.sym_eigen):
            solved.append(1 if np.ndim(A) == 2 else len(A))
            return _solve(A)
        monkeypatch.setattr(module, "sym_eigen", counting)
    path_theory_checks(38)
    assert sum(solved) < 38


def test_path_theory_check_ids_present():
    ids = {c.check_id for c in path_theory_checks(11)}
    assert {"eigenpair-residual", "fiedler-zero-at-center",
            "one-port-center-mplse", "one-port-series-vs-exact",
            "doubling-equality", "interlacing",
            "pseudo-toeplitz-value"} <= ids
    ids14 = {c.check_id for c in path_theory_checks(14)}
    assert {"two-port-centers-msub", "two-port-series-vs-exact",
            "convexity-exact", "convexity-series-identity"} <= ids14


def test_lambda_profile_integer_sweep():
    rows = lambda_profile(11, eps=0.01)
    exact = {p: e for (p, _, e) in rows if e is not None}
    assert len(exact) == 11
    assert max(exact, key=exact.get) == 6.0
    assert math.isclose(exact[1.0], exact[11.0], rel_tol=1e-12)


@pytest.mark.parametrize("eps", [1e-3, 0.01, 0.1])
@pytest.mark.parametrize("n", [3, 12, 40])
def test_lambda_profile_exact_column_equals_single_solves(n, eps):
    # the column is read from the k = 1 mplse table, bit for bit one solve
    # per port
    L = laplacian(path_graph(n))
    exact = [e for (_, _, e) in lambda_profile(n, eps=eps)]
    assert exact == [_lambda_min(L, (j,), eps) for j in range(1, n + 1)]


def test_lambda_profile_real_grid_has_local_series_minimum():
    rows = lambda_profile(11, eps=0.01, grid_step=0.05)
    series = {round(p, 4): s for (p, s, _) in rows}
    assert series[6.0] < series[5.95] and series[6.0] < series[6.05]


def test_convexity_table_small_orders():
    rows = {r["k"]: r for r in convexity_table(15, [1, 3, 5])}
    assert math.isclose(rows[1]["lambda_min_opt"], rows[1]["k_times_lambda1"],
                        rel_tol=1e-12)
    assert rows[3]["lambda_min_opt"] > rows[3]["k_times_lambda1"]
    assert rows[5]["lambda_min_opt"] > rows[5]["k_times_lambda1"]
    rows14 = {r["k"]: r for r in convexity_table(14, [2])}
    assert rows14[2]["lambda_min_opt"] > rows14[2]["k_times_lambda1"]


def test_convexity_table_selects_each_k_once(monkeypatch):
    calls = []
    select_best = experiments.select_best

    def recording(g, k, metric, *args, **kwargs):
        calls.append(k)
        return select_best(g, k, metric, *args, **kwargs)

    monkeypatch.setattr(experiments, "select_best", recording)
    convexity_table(15, [1, 3, 5])
    monkeypatch.undo()
    assert calls == [1, 3, 5]


@pytest.mark.parametrize("n, eps", [
    *((n, eps) for n in range(3, 20, 2) for eps in (1e-4, 1e-2, 1.0, 10.0)),
    (39, 0.01)])
def test_conjecture_probe_reports_tiny_deviation(n, eps):
    # no bridge moves lambda_min in exact arithmetic (Weyl's inequality and
    # an eigenvector the bridge cannot see), so both deviations are rounding
    rep = conjecture_probe(n, eps=eps)
    assert rep["edges_checked"] == n * n
    assert rep["disconnected_union_deviation"] <= 1e-13 * (1 + eps)
    assert rep["max_abs_deviation"] <= 1e-13 * (1 + eps)
    assert rep["worst_edge"] is not None


@pytest.mark.parametrize("n", [5, 19])
def test_conjecture_probe_equals_single_solves(n):
    # the stacked probe scans the same values in the same order; n = 19 has
    # 361 bridges in 33 stacks of 11, the last one partial
    eps = 0.01
    pstar = (n + 1) // 2
    L1 = perturbed_laplacian(laplacian(path_graph(n)), (pstar,), eps)
    lam_ref = float(sym_eigen(L1).values[0])
    base = np.zeros((2 * n, 2 * n))
    base[:n, :n] = L1
    base[n:, n:] = L1
    worst, worst_edge = 0.0, None
    for u in range(1, n + 1):
        for w in range(1, n + 1):
            bridged = base.copy()
            a, b = u - 1, n + w - 1
            bridged[a, a] += 1
            bridged[b, b] += 1
            bridged[a, b] -= 1
            bridged[b, a] -= 1
            dev = abs(float(sym_eigen(bridged).values[0]) - lam_ref)
            if dev > worst:
                worst, worst_edge = dev, [u, n + w]
    rep = conjecture_probe(n, eps=eps)
    assert rep["max_abs_deviation"] == worst
    assert rep["worst_edge"] == worst_edge
    assert rep["disconnected_union_deviation"] == abs(
        float(sym_eigen(base).values[0]) - lam_ref)


@pytest.mark.parametrize("n", [1, 41, 501, 6])
def test_conjecture_probe_rejects_order(n):
    # odd orders past the path suite's cap used to run for minutes
    with pytest.raises(ParameterError):
        conjecture_probe(n)


def test_conjecture_probe_and_lambda_profile_reject_zero_eps():
    with pytest.raises(ParameterError):
        conjecture_probe(5, eps=0.0)
    with pytest.raises(ParameterError):
        lambda_profile(3, eps=0.0)


def test_run_comparison_path_row_all_pooled_hundred():
    report = run_comparison(["path:11"], trials=2, seed=0)
    for agg in report.rows[0].agreements:
        assert agg.pooled == 100.0
    assert report.msup_violations() == []


def test_run_comparison_deterministic():
    a = run_comparison(["tree:6"], trials=4, seed=9)
    b = run_comparison(["tree:6"], trials=4, seed=9)
    for ra, rb in zip(a.rows[0].agreements, b.rows[0].agreements):
        assert ra.per_k == rb.per_k and ra.pooled == rb.pooled


def test_run_comparison_call_contract(monkeypatch):
    # each (instance, k, metric) is selected once, mplse first and metric-major
    # within a row, and every column is agreement_rate on the row's instances
    calls = []
    select_best = experiments.select_best

    def recording(g, k, metric, *args, **kwargs):
        calls.append((g.edges, g.n, k, metric))
        return select_best(g, k, metric, *args, **kwargs)

    monkeypatch.setattr(experiments, "select_best", recording)
    rows = ["path:5", "tree:6"]
    report = run_comparison(rows, trials=3, seed=1)
    monkeypatch.undo()
    assert calls and len(calls) == len(set(calls))
    first = {}
    for key in calls:
        first.setdefault(key[:3], key[3])
    assert set(first.values()) == {Metric.MPLSE}
    for n in (5, 6):
        order = [HEURISTIC_METRICS.index(key[3]) for key in calls
                 if key[1] == n and key[3] is not Metric.MPLSE]
        assert order == sorted(order)
    for row_index, row in enumerate(report.rows):
        instances = [_row_instance(row.row_id, 1, row_index, t) for t in range(3)]
        assert [agg.metric_b for agg in row.agreements] == list(HEURISTIC_METRICS)
        for agg in row.agreements:
            assert agg == agreement_rate(Metric.MPLSE, agg.metric_b, instances,
                                         (1, 2, 3))


def test_run_comparison_rejects_large_order():
    with pytest.raises(ParameterError):
        run_comparison(["path:25"], trials=1, seed=0)


def test_cli_select_examples():
    r = run_cli("select", "--graph", "path:11", "--k", "1", "--metric", "mplse",
                "--epsilon", "0.01")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["best"] == [6]
    assert out["metric"] == "mplse"
    assert out["k"] == 1 and out["epsilon"] == 0.01

    r = run_cli("select", "--graph", "fig1", "--k", "2", "--metric", "mplse")
    assert json.loads(r.stdout)["best"] == [3, 8]

    r = run_cli("select", "--graph", "path:14", "--k", "2", "--metric", "msub")
    assert json.loads(r.stdout)["best"] == [4, 11]


def test_cli_select_multiple_metrics_and_table():
    r = run_cli("select", "--graph", "path:9", "--k", "1", "--metric", "mplse",
                "--metric", "gramian", "--keep-table")
    out = json.loads(r.stdout)
    assert isinstance(out, list) and len(out) == 2
    assert all(len(o["table"]) == 9 for o in out)
    assert out[0]["best"] == out[1]["best"] == [5]


def test_cli_parameter_errors_exit_2():
    r = run_cli("select", "--graph", "path:5", "--k", "7", "--metric", "mplse")
    assert r.returncode == 2
    assert r.stderr.startswith("error: parameter:")
    assert "\n" not in r.stderr.strip()

    r = run_cli("select", "--graph", "path:5", "--k", "1", "--metric", "nope")
    assert r.returncode == 2

    r = run_cli("select", "--graph", "path:5", "--k", "1", "--metric", "msup",
                "--tau", "0.9")
    assert r.returncode == 2

    # config violations are rejected even when the metric ignores tau
    r = run_cli("select", "--graph", "path:5", "--k", "1", "--metric", "mplse",
                "--tau", "0.9")
    assert r.returncode == 2


@pytest.mark.parametrize("args", [
    ("select", "--graph", "path:3", "--k", "1", "--metric", "gramian",
     "--epsilon", "nan"),
    ("select", "--graph", "path:3", "--k", "1", "--metric", "mplse",
     "--epsilon", "nan"),
    ("select", "--graph", "path:3", "--k", "1", "--metric", "mplse",
     "--epsilon", "inf"),
    ("select", "--graph", "path:4", "--k", "1", "--metric", "are", "--rho", "nan"),
    ("path-theory", "--n", "8", "--epsilon", "nan"),
    ("lambda-profile", "--n", "5", "--epsilon", "inf"),
    ("convexity", "--n", "6", "--epsilon", "nan"),
], ids=["gramian-eps-nan", "mplse-eps-nan", "mplse-eps-inf", "are-rho-nan",
        "path-theory-eps-nan", "lambda-profile-eps-inf", "convexity-eps-nan"])
def test_cli_non_finite_parameters_exit_2(args):
    # NaN and inf are parameter errors, not a numeric failure or a NaN
    # written into the JSON output
    r = run_cli(*args)
    assert r.returncode == 2, (r.returncode, r.stdout, r.stderr)
    assert "finite and" in r.stderr


@pytest.mark.parametrize("step", ["nan", "inf", "1e-9"])
def test_cli_lambda_profile_rejects_bad_grid_step(step):
    # 1e-9 on P_5 would ask for a 4e9-point grid
    r = run_cli("lambda-profile", "--n", "5", "--grid-step", step)
    assert r.returncode == 2, (r.returncode, r.stderr)
    assert r.stderr.startswith("error: parameter:")


@pytest.mark.parametrize("step", [math.nan, -0.1, 1e-9, 1e-320])
def test_lambda_profile_rejects_bad_grid_step(step):
    with pytest.raises(ParameterError):
        lambda_profile(5, grid_step=step)


def test_cli_numeric_errors_exit_3(tmp_path):
    star = tmp_path / "star.txt"
    star.write_text("4\n1 2\n1 3\n1 4\n")
    r = run_cli("select", "--graph", str(star), "--k", "1", "--metric", "eigvec")
    assert r.returncode == 3
    assert r.stderr.startswith("error: numeric:")


@pytest.mark.parametrize("k", ["0", "-3", "10"])
def test_cli_path_theory_bad_k_exit_2(k):
    r = run_cli("path-theory", "--n", "9", "--k", k)
    assert r.returncode == 2, (r.returncode, r.stdout, r.stderr)
    assert r.stderr.startswith("error: parameter:")
    assert r.stdout == ""


@pytest.mark.parametrize("args", [
    ("path-theory", "--n", "5", "--epsilon", "1e103"),
    ("path-theory", "--n", "6", "--epsilon", "1e103"),
    ("path-theory", "--n", "8", "--epsilon", "1e103"),
    ("path-theory", "--n", "15", "--k", "5", "--epsilon", "1e103"),
    ("path-theory", "--n", "6", "--epsilon", "1e-200"),
    ("conjecture", "--n", "5", "--epsilon", "0"),
    ("conjecture", "--n", "501"),
    ("lambda-profile", "--n", "3", "--epsilon", "0"),
], ids=["path-5-huge-eps", "path-6-huge-eps", "path-8-huge-eps",
        "path-15-k5-huge-eps", "path-6-tiny-eps", "conjecture-zero-eps", "conjecture-n-501",
        "lambda-profile-zero-eps"])
def test_cli_path_suite_parameter_errors_exit_2(args):
    r = run_cli(*args)
    assert r.returncode == 2, (r.returncode, r.stdout, r.stderr)
    assert r.stderr.startswith("error: parameter:")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_cli_are_reordering_failure_exit_3():
    # the known ARE failure on path:20 at k = 3, port set (5, 9, 13): the
    # full table still reaches it, while the plain selection never solves
    # that set (its lower bound rules it out) and succeeds
    r = run_cli("select", "--graph", "path:20", "--k", "3", "--metric", "are")
    assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)
    out = json.loads(r.stdout)
    assert out["best"] == [4, 10, 17]
    assert out["ties"] == [[4, 10, 17], [4, 11, 17]]
    r = run_cli("select", "--graph", "path:20", "--k", "3", "--metric", "are",
                "--keep-table")
    assert r.returncode == 3, (r.returncode, r.stdout, r.stderr)
    assert r.stdout == ""
    assert r.stderr == (
        "error: numeric: QZ decomposition failed: Reordering of (A, B) failed "
        "because the transformed matrix pair (A, B) would be too far from "
        "generalized Schur form; the problem is very ill-conditioned. (A, B) "
        "may have been partially reordered.\n")


@pytest.mark.parametrize("args", [
    ("select", "--graph", "path:5", "--k", "1", "--metric", "are", "--rho", "1e200"),
    ("compare", "--rows", "path:5", "--trials", "2", "--rho", "1e300"),
    ("select", "--graph", "path:6", "--k", "2", "--metric", "are", "--rho", "1e160"),
], ids=["bound-select", "bound-compare", "solver"])
def test_cli_extreme_rho_prints_only_the_error_line(args):
    # the ARE bound is NaN at such rho, so every set is solved, and the
    # solver's eigenvalue sort overflows; its checks report it, with no
    # NumPy warning printed before
    r = run_cli(*args)
    assert r.returncode == 3, (r.returncode, r.stdout, r.stderr)
    assert r.stdout == ""
    assert r.stderr.startswith("error: numeric: ")
    assert r.stderr.count("\n") == 1 and r.stderr.endswith("\n"), r.stderr


def test_cli_overflowing_residual_check_exit_3():
    # a bound of 1e-9 (1 + ||A||_F) that overflows to inf would pass any pair
    r = run_cli("select", "--graph", "path:7", "--k", "1", "--metric", "mplse",
                "--epsilon", "1e200")
    assert r.returncode == 3, (r.returncode, r.stdout, r.stderr)
    assert r.stdout == ""
    assert r.stderr == ("error: numeric: eigenpair residual check overflowed: "
                        "entries too large\n")


def test_cli_are_lstsq_failure_exit_3(monkeypatch, capsys):
    # a least-squares solve that does not converge is a numeric failure
    # (exit 3), not a traceback (exit 1, the code of failed checks)
    from spectral_kcenter import cli

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", no_convergence)
    assert cli.main(["select", "--graph", "path:6", "--k", "2", "--metric", "are"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: numeric: least-squares solve")


def test_cli_path_theory_green_for_11():
    r = run_cli("path-theory", "--n", "11")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["all_passed"] is True
    assert any(c["id"] == "fiedler-zero-at-center" for c in out["checks"])


def test_cli_path_theory_vanishing_quadratic_form():
    r = run_cli("path-theory", "--n", "37", "--epsilon", "0.1")
    assert "Traceback" not in r.stderr
    out = json.loads(r.stdout)
    check = {c["id"]: c for c in out["checks"]}["trig-vs-quadratic-identity"]
    assert check["passed"] is True


@pytest.mark.parametrize("args", [
    ("select", "--graph", "path:5", "--k", "1", "--metric", "mplse", "--bogus", "1"),
    ("path-theory", "--n", "9", "--rho", "-5"),
    ("select", "--graph", "path:5", "--k", "x", "--metric", "mplse"),
    ("compare", "--rows", ","),
], ids=["unknown-flag", "removed-flag", "bad-int", "empty-rows"])
def test_cli_argument_errors_print_one_line(args):
    r = run_cli(*args)
    assert r.returncode == 2, (r.returncode, r.stdout, r.stderr)
    assert r.stdout == ""
    assert r.stderr.startswith("error: parameter: ")
    assert r.stderr.count("\n") == 1 and r.stderr.endswith("\n")


def _assert_one_parameter_error(capsys, reason):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: parameter: ") and reason in err, err
    assert err.count("\n") == 1 and err.endswith("\n")


def _not_computed(*args, **kwargs):
    raise AssertionError("the command computed before its input was checked")


@pytest.mark.parametrize("args, out, reason", [
    (["select", "--graph", "fig1", "--k", "1", "--metric", "mplse"],
     "missing/x.json", "is not an existing directory"),
    (["compare", "--rows", "path:5", "--trials", "2"], ".", "is a directory"),
], ids=["select-missing-dir", "compare-directory"])
def test_cli_rejects_unwritable_out_before_computing(tmp_path, monkeypatch, capsys,
                                                     args, out, reason):
    from spectral_kcenter import cli

    monkeypatch.setattr(cli, "select_best", _not_computed)
    monkeypatch.setattr(cli, "run_comparison", _not_computed)
    assert cli.main([*args, "--out", str(tmp_path / out)]) == 2
    _assert_one_parameter_error(capsys, reason)


@pytest.mark.parametrize("command", ["lambda-profile", "convexity"])
def test_cli_path_family_order_cap(monkeypatch, capsys, command):
    # the profile and the convexity table share the path suite's order cap
    from spectral_kcenter import cli

    monkeypatch.setattr(experiments, "select_best", _not_computed)
    assert cli.main([command, "--n", "41"]) == 2
    _assert_one_parameter_error(capsys, "n must be in 2..40, got 41")


SELECT_MPLSE = ["--k", "1", "--metric", "mplse"]


@pytest.mark.parametrize("args, patched, reason", [
    (["compare", "--rows", "general:21", "--trials", "2"], "random_connected_graph",
     "graph order must be in 2..20, got 21"),
    (["compare", "--rows", "path:11,bogus:3"], "select_best",
     "unknown comparison row 'bogus:3'"),
    (["select", "--graph", "path:21", *SELECT_MPLSE], "path_graph",
     "path order must be in 2..20, got 21"),
    (["select", "--graph", "random-tree:21", *SELECT_MPLSE], "random_tree",
     "tree order must be in 2..20, got 21"),
    (["select", "--graph", "random-graph:21,0.4", *SELECT_MPLSE],
     "random_connected_graph", "graph order must be in 2..20, got 21"),
    (["convexity", "--n", "40", "--k", "1,50"], "select_best",
     "k must be in 1..39, got 50"),
    (["compare", "--rows", "path:11,general:9", "--trials", "20", "--tau", "0.3",
      "--seed", "1"], "select_best", "tau=0.3 outside (0, 1/"),
    (["select", "--graph", "path:9", "--k", "2", "--metric", "mplse", "--tau", "0.9"],
     "select_best", "tau=0.9 outside (0, 1/2]"),
    (["select", "--graph", "random-tree:7", *SELECT_MPLSE, "--seed", "-1"],
     "random_tree", "seed must be >= 0, got -1"),
    (["select", "--graph", "path:7", *SELECT_MPLSE, "--seed", "-1"], "path_graph",
     "seed must be >= 0, got -1"),
    (["compare", "--rows", "tree:7", "--seed", "-1"], "random_tree",
     "seed must be >= 0, got -1"),
    (["compare", "--rows", "path:5", "--trials", "1", "--seed", "-1"], "path_graph",
     "seed must be >= 0, got -1"),
    (["select", "--graph", "path:20", "--k", "3", "--metric", "gramian",
      "--metric", "bogus"], "select_best", "unknown metric 'bogus'"),
    (["conjecture", "--n", "5,41"], "path_graph", "n must be in 3..40, got 41"),
    (["conjecture", "--n", "5,6"], "path_graph", "probe needs odd n, got 6"),
    (["convexity", "--n", "40", "--k", "1,2,6"], "select_best",
     "C(40,6) = 3838380 exceeds the enumeration cap 2000000"),
], ids=["compare-order", "compare-late-row", "select-path", "select-tree",
        "select-graph", "convexity-late-k", "compare-late-tau", "select-tau",
        "select-tree-seed", "select-path-seed", "compare-tree-seed",
        "compare-path-seed", "select-late-metric", "conjecture-late-order",
        "conjecture-late-even", "convexity-late-cap"])
def test_cli_checks_every_input_before_computing(monkeypatch, capsys, args,
                                                 patched, reason):
    from spectral_kcenter import cli

    monkeypatch.setattr(experiments, patched, _not_computed)
    monkeypatch.setattr(cli, "select_best", _not_computed)
    assert cli.main(args) == 2
    _assert_one_parameter_error(capsys, reason)


def test_cli_select_graph_file_order_cap(tmp_path, monkeypatch, capsys):
    from spectral_kcenter import cli

    f = tmp_path / "p21.txt"
    f.write_text(serialize_edge_list(path_graph(21)))
    monkeypatch.setattr(cli, "select_best", _not_computed)
    assert cli.main(["select", "--graph", str(f), *SELECT_MPLSE]) == 2
    _assert_one_parameter_error(capsys, "graph order must be in 2..20, got 21")


def test_cli_select_at_desk_cap(capsys):
    from spectral_kcenter import cli

    assert cli.main(["select", "--graph", "path:20", *SELECT_MPLSE]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["k"] == 1


def test_bench_patch_points_are_bound(monkeypatch):
    # the benchmark's recorder reads every patched name when it is built, on
    # untraced runs too: a name the package stops binding fails here first
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    select_best = experiments.select_best
    recorder = tracing.Recorder()
    recorder.set_tracing(True)
    recorder.close()
    assert experiments.select_best is select_best
    for _, module, attr in tracing.PATCHES:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
    for name, fn in tracing.ENTRY_POINTS.items():
        module, attr = name.split(".")
        assert getattr(getattr(spectral_kcenter, module), attr) is fn, name


def test_cli_out_write_failure_exit_2(tmp_path, monkeypatch, capsys):
    # a failure the up-front check cannot see, such as a full disk
    from spectral_kcenter import cli

    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    argv = ["path-theory", "--n", "5", "--out", str(tmp_path / "x.json")]
    assert cli.main(argv) == 2
    _assert_one_parameter_error(capsys, "No space left on device")


@pytest.mark.parametrize("name, content, reason", [
    (None, None, "Is a directory"),
    ("latin1.txt", "3\n1 2\n2 3 # \xe9\n".encode("latin-1"), "is not UTF-8 text"),
    ("split.txt", b"6\n1 2\n2 3\n4 5\n5 6\n", "is not connected"),
], ids=["directory", "not-utf8", "disconnected"])
def test_cli_rejects_bad_graph_file(tmp_path, monkeypatch, capsys, name, content, reason):
    from spectral_kcenter import cli

    source = tmp_path
    if name is not None:
        source = tmp_path / name
        source.write_bytes(content)
    monkeypatch.setattr(cli, "select_best", _not_computed)
    metrics = [arg for m in ("mplse", "msub", "msup", "eigvec", "are", "gramian")
               for arg in ("--metric", m)]
    assert cli.main(["select", "--graph", str(source), "--k", "2", *metrics]) == 2
    _assert_one_parameter_error(capsys, reason)


def test_parse_graph_source_rejects_unreadable_file(tmp_path, monkeypatch):
    f = tmp_path / "g.txt"
    f.write_text(serialize_edge_list(path_graph(4)))

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    with pytest.raises(ParameterError, match="cannot be read: Permission denied"):
        parse_graph_source(str(f))


# run in a fresh interpreter: imports the package, makes one library call and
# then runs each command of argv[1] through cli.main, and prints, per call,
# its exit code, whether scipy.linalg was loaded after it, and its stdout
_SCIPY_PROBE = """
import contextlib, io, json, sys
from spectral_kcenter import Metric, cli, path_graph, select_best
select_best(path_graph(11), 1, Metric.MPLSE)
calls = [[0, "scipy.linalg" in sys.modules, ""]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    calls.append([code, "scipy.linalg" in sys.modules, out.getvalue()])
print(json.dumps(calls))
"""


def test_only_are_loads_scipy():
    # SciPy's import costs more than NumPy's, and only ARE's QZ solve needs it
    without_are = [
        *(["select", "--graph", "fig1", "--k", "2", "--metric", m]
          for m in ("mplse", "msub", "msup", "eigvec", "gramian")),
        ["path-theory", "--n", "9", "--k", "3"],
        ["lambda-profile", "--n", "7"],
        ["convexity", "--n", "9", "--k", "1,3"],
        ["conjecture", "--n", "5"],
    ]
    are = ["select", "--graph", "path:6", "--k", "2", "--metric", "are"]
    r = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps([*without_are, are])],
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": CLI_PATH})
    assert r.returncode == 0, r.stderr
    calls = json.loads(r.stdout)
    assert [(code, loaded) for code, loaded, _ in calls[:-1]] == [(0, False)] * len(calls[:-1])
    code, loaded, out = calls[-1]
    assert code == 0 and loaded
    result = json.loads(out)
    assert result["best"] == [2, 5] and 0 < result["score"] < math.inf


_THREAD_PROBE = """
import _thread, json, os, sys, time
import numpy as np
from spectral_kcenter import Metric, path_graph, select_best, spectral
from spectral_kcenter.experiments import run_comparison
started = []
start = _thread.start_new_thread
_thread.start_new_thread = lambda *args: started.append(args) or start(*args)
select_best(path_graph(11), 1, Metric.MPLSE)
counts = ["concurrent.futures" in sys.modules, len(started)]
run_comparison(["tree:7"], 2, 0)
counts.append(len(started))
rng = np.random.default_rng(0)
A = rng.standard_normal((11, 30, 30))
A += np.swapaxes(A, -2, -1)
os.sched_getaffinity = lambda pid: {0}
spectral.sym_eigen(A)
counts.append(len(started))
os.sched_getaffinity = lambda pid: {0, 1}
spectral.sym_eigen(A)
spectral.sym_eigen(A)
counts.append(len(started))
deadline = time.monotonic() + 5  # a split's thread ends just after its half
while _thread._count() and time.monotonic() < deadline:
    time.sleep(0.001)
counts.append(_thread._count())
print(json.dumps(counts))
"""


def test_small_work_starts_no_thread():
    # the set-up selection (which does not import concurrent.futures) and a
    # comparison row stay below the split, and a large stack on one CPU does
    # too; on two CPUs each large stack starts one thread, and none is left
    r = subprocess.run([sys.executable, "-c", _THREAD_PROBE], capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": CLI_PATH})
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [False, 0, 0, 0, 2, 0]


def _readme_commands():
    """The ``spectral-kcenter ...`` lines of README's code blocks."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    return [shlex.split(line, comments=True) for block in blocks
            for line in block.splitlines() if line.startswith("spectral-kcenter ")]


def test_readme_commands_parse():
    # a README line that names a removed flag, a removed subcommand or a
    # malformed value fails here, without running the command
    from spectral_kcenter import cli

    commands = _readme_commands()
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    # every subcommand has an example
    assert {argv[1] for argv in commands} == {
        "select", "compare", "path-theory", "lambda-profile", "convexity", "conjecture"}


def test_cli_help_exits_0():
    r = run_cli("path-theory", "--help")
    assert r.returncode == 0, r.stderr
    assert "--epsilon" in r.stdout and "--rho" not in r.stdout


SUITE_COMMANDS = {"path-theory": ["--n", "9"], "lambda-profile": ["--n", "5"],
                  "convexity": ["--n", "6"], "conjecture": ["--n", "5"]}


@pytest.mark.parametrize("flag,value", [("--tau", "0.1"), ("--rho", "1e-4"),
                                        ("--seed", "3"), ("--format", "json")])
@pytest.mark.parametrize("command", sorted(SUITE_COMMANDS))
def test_cli_suite_commands_reject_selection_flags(command, flag, value, capsys):
    # only select and compare read tau, rho and seed; no command has --format
    from spectral_kcenter import cli

    assert cli.main([command, *SUITE_COMMANDS[command], flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: parameter: unrecognized arguments: {flag} {value}\n"


@pytest.mark.parametrize("args", [
    ("select", "--graph", "random-graph:6,0.5", "--k", "1", "--metric", "are"),
    ("compare", "--rows", "path:5", "--trials", "1"),
], ids=["select", "compare"])
def test_cli_selection_commands_accept_tau_rho_seed(args, capsys):
    from spectral_kcenter import cli

    assert cli.main([*args, "--tau", "0.1", "--rho", "1e-4", "--seed", "3"]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


def test_cli_lambda_profile_csv():
    r = run_cli("lambda-profile", "--n", "11", "--grid-step", "0.5")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "# spectral-kcenter v1"
    assert lines[1] == "p,series_value,exact_value"
    # non-integer grid rows leave the exact column empty
    assert any(line.endswith(",") for line in lines[2:])


def test_cli_convexity_csv():
    r = run_cli("convexity", "--n", "14", "--k", "1,2")
    assert r.returncode == 0
    rows = r.stdout.strip().splitlines()
    k1 = rows[2].split(",")
    assert k1[0] == "1" and k1[1] == k1[2]
    assert rows[3].split(",")[4] == "yes"


def test_cli_conjecture_json():
    r = run_cli("conjecture", "--n", "5")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["max_abs_deviation"] <= 1e-9


def test_cli_select_deterministic_output():
    args = ("select", "--graph", "random-graph:7,0.4", "--k", "2",
            "--metric", "gramian", "--seed", "13")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_cli_compare_enforces_msup_invariant():
    # deterministic config on which the super-stochastic selection deviates
    # from the perturbed-Laplacian one; the report must still be emitted and
    # the violation surfaced as a nonzero exit with a parseable reason
    r = run_cli("compare", "--rows", "general:7", "--trials", "6",
                "--seed", "2")
    assert r.returncode == 1
    assert r.stdout.startswith("# spectral-kcenter v1")
    assert r.stderr.startswith("error: msup-equivalence-violated: general:7")
    assert r.stderr.count("\n") == 1 and r.stderr.endswith("\n")


def test_cli_path_theory_failed_check_exit_1(monkeypatch, capsys):
    # the full report is written, then one error line names the failed check
    from spectral_kcenter import cli

    failing = experiments.CheckResult("eigenpair-residual", False, 1.0, "tolerance 1e-09")
    monkeypatch.setattr(cli, "path_theory_checks", lambda n, k, eps: [failing])
    assert cli.main(["path-theory", "--n", "5"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "n": 5, "k": None, "epsilon": MetricParams.epsilon, "all_passed": False,
        "checks": [{"id": "eigenpair-residual", "passed": False, "residual": 1.0,
                    "detail": "tolerance 1e-09"}]}
    assert err == "error: check-failed: eigenpair-residual\n"


def test_cli_compare_path_row_and_determinism():
    args = ("compare", "--rows", "path:11", "--trials", "2", "--seed", "5")
    r1 = run_cli(*args)
    r2 = run_cli(*args)
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout
    lines = r1.stdout.strip().splitlines()
    assert lines[0] == "# spectral-kcenter v1"
    pooled = [ln for ln in lines if ",pooled," in ln]
    assert len(pooled) == 5
    assert all(ln.split(",")[4] == "100" for ln in pooled)
