import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectral_kcenter
from spectral_kcenter import Metric, ParameterError, agreement_rate, experiments
from spectral_kcenter.experiments import (HEURISTIC_METRICS, _row_instance,
                                          conjecture_probe, convexity_table,
                                          lambda_profile, parse_graph_source,
                                          path_theory_checks, run_comparison)
from spectral_kcenter.graphs import laplacian, serialize_edge_list, path_graph
from spectral_kcenter.metrics import MetricParams, perturbed_laplacian, select_best
from spectral_kcenter.path_theory import (lambda_min_quadratic_1port,
                                          lambda_min_quadratic_2port,
                                          lambda_min_series_positions,
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


def _lambda_min(L, ports, eps):
    """One matrix, one solve: how the suite computed each exact value."""
    return float(sym_eigen(perturbed_laplacian(L, ports, eps)).values[0])


@pytest.mark.parametrize("n", [11, 14, 38])
def test_path_theory_checks_bitwise_equal_single_solves(n):
    # the exact values read from the mplse tables equal single solves bit
    # for bit; n = 38 spreads 703 two-port sets over 64 stacks of 11
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
        expected["two-port-series-vs-exact"] = max(
            abs(_lambda_min(L, (j1, j2), eps)
                - lambda_min_quadratic_2port(n, j1, j2, eps))
            for j1 in range(1, n // 2) for j2 in range(n // 2 + 1, n + 1))
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
    # the centers, the exact series values and lambda*(2)
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


def test_series_positions_equal_inline_formula():
    # the cached port-independent weights give the inline formula's bits
    eps = 0.01
    for n in range(2, 61):
        for positions in ((1.0,), (n / 3.0,), (1.5, n - 0.25), (1, 2, n)):
            total = 0.0
            for j in range(2, n + 1):
                theta = math.pi * (j - 1) / n
                num = sum(math.cos(theta * (p - 0.5)) for p in positions) ** 2
                den = (math.sin(0.5 * theta) ** 2
                       * sum(math.cos(theta * (q - 0.5)) ** 2
                             for q in range(1, n + 1)))
                total += num / den
            expected = len(positions) * eps / n - eps * eps / (4.0 * n) * total
            assert lambda_min_series_positions(n, positions, eps) == expected, (n, positions)


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


def test_conjecture_probe_reports_tiny_deviation():
    rep = conjecture_probe(5, eps=0.01)
    assert rep["edges_checked"] == 25
    assert rep["disconnected_union_deviation"] <= 1e-12
    assert rep["max_abs_deviation"] <= 1e-9
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
                                         3, (1, 2, 3))


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
    ("conjecture", "--n", "5", "--epsilon", "0"),
    ("conjecture", "--n", "501"),
    ("lambda-profile", "--n", "3", "--epsilon", "0"),
], ids=["path-5-huge-eps", "path-6-huge-eps", "path-8-huge-eps",
        "path-15-k5-huge-eps", "conjecture-zero-eps", "conjecture-n-501",
        "lambda-profile-zero-eps"])
def test_cli_path_suite_parameter_errors_exit_2(args):
    r = run_cli(*args)
    assert r.returncode == 2, (r.returncode, r.stdout, r.stderr)
    assert r.stderr.startswith("error: parameter:")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_cli_are_reordering_failure_exit_3():
    # the known ARE failure on path:20 at k = 3, port set (5, 9, 13)
    r = run_cli("select", "--graph", "path:20", "--k", "3", "--metric", "are")
    assert r.returncode == 3, (r.returncode, r.stdout, r.stderr)
    assert r.stdout == ""
    assert r.stderr == (
        "error: numeric: QZ decomposition failed: Reordering of (A, B) failed "
        "because the transformed matrix pair (A, B) would be too far from "
        "generalized Schur form; the problem is very ill-conditioned. (A, B) "
        "may have been partially reordered.\n")


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
], ids=["unknown-flag", "removed-flag", "bad-int"])
def test_cli_argument_errors_print_one_line(args):
    r = run_cli(*args)
    assert r.returncode == 2, (r.returncode, r.stdout, r.stderr)
    assert r.stdout == ""
    assert r.stderr.startswith("error: parameter: ")
    assert r.stderr.count("\n") == 1 and r.stderr.endswith("\n")


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
