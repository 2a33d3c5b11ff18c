import math

import numpy as np
import pytest

from spectral_kcenter import (AssumptionError, ParameterError,
                              charpoly_eps_slices_1port,
                              charpoly_eps_slices_2port, lambda_min_quadratic_1port,
                              lambda_min_quadratic_2port, lambda_min_series_kport,
                              laplacian, optimal_ports, path_charpoly,
                              path_eigenpair, path_graph, perturbed_charpoly_1port,
                              perturbed_charpoly_2port, perturbed_laplacian,
                              pseudo_toeplitz_lambda_min, sym_eigen)
from spectral_kcenter.path_theory import lambda_min_series_positions


def bump_diagonal(M, ports, eps):
    # test-side helper: unlike perturbed_laplacian it admits eps < 0,
    # which the central-difference oracles need
    M = np.array(M, dtype=float)
    for j in ports:
        M[j - 1, j - 1] += eps
    return M


def exact_lambda_min(n, ports, eps):
    Lt = perturbed_laplacian(laplacian(path_graph(n)), ports, eps)
    return float(sym_eigen(Lt).values[0])


def charpoly_from_eigensolve(M):
    vals = sym_eigen(M).values
    poly = np.array([1.0])
    for lam in vals:
        poly = np.convolve(poly, [-lam, 1.0])
    return poly


def test_path_eigenpair_examples():
    lam, v = path_eigenpair(5, 1)
    assert lam == 0.0
    assert np.allclose(v, 1.0)
    lam, _ = path_eigenpair(3, 3)
    assert math.isclose(lam, 3.0, rel_tol=1e-12)
    _, v2 = path_eigenpair(11, 2)
    assert abs(v2[5]) <= 1e-12  # component at the physical center 6


@pytest.mark.parametrize("n", [5, 8, 11])
def test_path_eigenpair_residuals(n):
    L = laplacian(path_graph(n))
    for j in range(1, n + 1):
        lam, v = path_eigenpair(n, j)
        assert np.linalg.norm(L @ v - lam * v) <= 1e-9


def test_path_eigenpair_range_errors():
    with pytest.raises(ParameterError):
        path_eigenpair(5, 0)
    with pytest.raises(ParameterError):
        path_eigenpair(5, 6)


def test_optimal_ports_formulas():
    assert optimal_ports(11, 1) == (6,)
    assert optimal_ports(14, 2) == (4, 11)
    assert optimal_ports(9, 3) == (2, 5, 8)
    assert optimal_ports(15, 5) == (2, 5, 8, 11, 14)


@pytest.mark.parametrize("n,k", [(11, 2), (12, 2), (9, 2), (10, 5)])
def test_optimal_ports_divisibility_gate(n, k):
    with pytest.raises(AssumptionError):
        optimal_ports(n, k)


def test_series_closed_forms():
    for eps in (0.01, 0.003):
        expect = eps / 11 - 10 * eps ** 2 / 121
        assert math.isclose(lambda_min_series_kport(11, (6,), eps), expect,
                            rel_tol=1e-12)
        expect2 = eps / 7 - 4 * eps ** 2 / 49
        assert math.isclose(lambda_min_series_kport(14, (4, 11), eps), expect2,
                            rel_tol=1e-12)


def test_series_rejects_duplicate_ports():
    # the shared port-set check: distinct integer nodes, at least one
    for n, ports in ((11, (6, 6)), (5, ()), (5, (1.5,))):
        with pytest.raises(ParameterError):
            lambda_min_series_kport(n, ports, 0.01)


def test_series_matches_quadratic_on_single_port():
    assert math.isclose(lambda_min_series_kport(3, (1,), 0.01),
                        lambda_min_quadratic_1port(3, 1, 0.01), rel_tol=1e-10)


def test_quadratic_1port_values():
    eps = 0.01
    assert math.isclose(lambda_min_quadratic_1port(11, 6, eps),
                        eps / 11 - 10 * eps ** 2 / 121, rel_tol=1e-12)
    assert math.isclose(lambda_min_quadratic_1port(11, 1, eps),
                        0.0008801652892561982, rel_tol=1e-10)
    best = max(range(1, 12), key=lambda j: lambda_min_quadratic_1port(11, j, eps))
    assert best == 6
    with pytest.raises(AssumptionError):
        lambda_min_quadratic_1port(10, 3, eps)


def test_quadratic_2port_values():
    eps = 0.01
    assert math.isclose(lambda_min_quadratic_2port(14, 4, 11, eps),
                        eps / 7 - 4 * eps ** 2 / 49, rel_tol=1e-12)
    assert math.isclose(lambda_min_quadratic_2port(14, 5, 11, eps),
                        0.0014193877551020408, rel_tol=1e-10)
    with pytest.raises(AssumptionError):
        lambda_min_quadratic_2port(12, 3, 9, eps)
    with pytest.raises(AssumptionError):
        lambda_min_quadratic_2port(14, 8, 11, eps)


def test_quadratic_2port_separability():
    # moving j1 off its center costs the same regardless of j2
    eps = 0.01
    for j2 in (8, 10, 12, 14):
        delta = (lambda_min_quadratic_2port(14, 4, j2, eps)
                 - lambda_min_quadratic_2port(14, 6, j2, eps))
        assert math.isclose(delta, 24 * 4 * eps ** 2 / (12 * 14 ** 2),
                            rel_tol=1e-12)


def test_trig_equals_quadratic_identity():
    eps = 0.01
    for n in (3, 5, 7, 9, 11, 13):
        for j in range(1, n + 1):
            trig = lambda_min_series_kport(n, (j,), eps)
            quad = lambda_min_quadratic_1port(n, j, eps)
            assert math.isclose(trig, quad, rel_tol=1e-10)


def test_continuous_position_is_local_minimum_at_center():
    # the series over real positions dips at the physical center even though
    # the integer selection peaks there
    n, eps, h = 11, 0.01, 0.01
    f = lambda p: lambda_min_series_positions(n, (p,), eps)
    second_diff = f(6 + h) - 2 * f(6.0) + f(6 - h)
    assert second_diff > 0
    assert math.isclose(f(1.0), f(11.0), rel_tol=1e-12)


def test_series_error_is_cubic_for_all_small_odd_orders():
    for n in (5, 7, 9, 11, 13):
        for eps in (1e-2, 1e-3):
            worst = max(abs(exact_lambda_min(n, (j,), eps)
                            - lambda_min_quadratic_1port(n, j, eps))
                        for j in range(1, n + 1))
            assert worst <= 50 * eps ** 3


def test_doubling_equality_across_perturbation_sizes():
    # the symmetric half of the doubled path reproduces the perturbed
    # n-node matrix exactly, so the equality is not merely second order
    for n in (5, 7, 9, 11):
        pstar = (n + 1) // 2
        for eps in (0.01, 0.1, 1.0):
            lam_n = exact_lambda_min(n, (pstar,), eps)
            lam_2n = exact_lambda_min(2 * n, (pstar, pstar + n), eps)
            assert abs(lam_n - lam_2n) <= 1e-10


def test_interlacing_pattern():
    for n in (5, 7, 9):
        pstar = (n + 1) // 2
        for eps in (0.01, 0.5):
            lam = sym_eigen(perturbed_laplacian(
                laplacian(path_graph(n)), (pstar,), eps)).values
            mu = sym_eigen(perturbed_laplacian(
                laplacian(path_graph(2 * n)), (pstar, pstar + n), eps)).values
            assert max(abs(lam[i] - mu[2 * i]) for i in range(n)) <= 1e-9
            assert all(mu[i + 1] > mu[i] for i in range(2 * n - 1))


def test_pseudo_toeplitz_values():
    assert math.isclose(pseudo_toeplitz_lambda_min(1), 1.0, rel_tol=1e-12)
    assert math.isclose(pseudo_toeplitz_lambda_min(2), (3 - math.sqrt(5)) / 2,
                        rel_tol=1e-12)
    L5 = perturbed_laplacian(laplacian(path_graph(5)), (1,), 1.0)
    L10 = perturbed_laplacian(laplacian(path_graph(10)), (1, 10), 1.0)
    v5 = sym_eigen(L5).values[0]
    v10 = sym_eigen(L10).values[0]
    assert abs(v5 - v10) <= 1e-10
    assert abs(v5 - pseudo_toeplitz_lambda_min(5)) <= 1e-10


def test_perturbed_charpoly_1port_unperturbed_case():
    assert np.allclose(perturbed_charpoly_1port(3, 2, 0.0), [0, 3, -4, 1],
                       atol=1e-12)


@pytest.mark.parametrize("n,p,eps", [(3, 2, 0.01), (11, 6, 0.01), (9, 1, 0.3),
                                     (9, 9, 0.3), (14, 7, 0.5)])
def test_perturbed_charpoly_1port_matches_eigensolve(n, p, eps):
    Lt = perturbed_laplacian(laplacian(path_graph(n)), (p,), eps)
    expect = charpoly_from_eigensolve(Lt)
    got = perturbed_charpoly_1port(n, p, eps)
    assert np.max(np.abs(got - expect)) <= 1e-8 * max(1, np.abs(expect).max())


def test_perturbed_charpoly_1port_constant_term_is_determinant():
    n, p, eps = 7, 3, 0.25
    poly = perturbed_charpoly_1port(n, p, eps)
    Lt = perturbed_laplacian(laplacian(path_graph(n)), (p,), eps)
    assert math.isclose(poly[0], (-1) ** n * np.linalg.det(Lt), rel_tol=1e-10)


def test_perturbed_charpoly_2port_unperturbed_roots():
    poly = perturbed_charpoly_2port(6, 2, 5, 0.0)
    got = np.sort(np.roots(poly[::-1]).real)
    expect = np.array([path_eigenpair(6, j)[0] for j in range(1, 7)])
    assert np.allclose(got, expect, atol=1e-8)


@pytest.mark.parametrize("n,p1,p2,eps", [(14, 4, 11, 0.01), (8, 2, 6, 0.4),
                                         (10, 2, 9, 1.0)])
def test_perturbed_charpoly_2port_matches_eigensolve(n, p1, p2, eps):
    Lt = perturbed_laplacian(laplacian(path_graph(n)), (p1, p2), eps)
    expect = charpoly_from_eigensolve(Lt)
    got = perturbed_charpoly_2port(n, p1, p2, eps)
    assert np.max(np.abs(got - expect)) <= 1e-8 * max(1, np.abs(expect).max())


def test_perturbed_charpoly_2port_smallest_root_matches_series():
    n, eps = 14, 0.01
    poly = perturbed_charpoly_2port(n, 4, 11, eps)
    roots = np.roots(poly[::-1])
    smallest = np.sort(roots[np.abs(roots.imag) < 1e-9].real)[0]
    assert abs(smallest - lambda_min_quadratic_2port(n, 4, 11, eps)) <= 50 * eps ** 3


@pytest.mark.parametrize("n,p1,p2", [(5, 2, 4), (8, 3, 4), (8, 1, 5), (8, 3, 8)])
def test_perturbed_charpoly_2port_gate(n, p1, p2):
    with pytest.raises(AssumptionError):
        perturbed_charpoly_2port(n, p1, p2, 0.01)


def test_eps_slices_1port_examples():
    _, (b0, b1) = charpoly_eps_slices_1port(3, 2)
    assert (b0, b1) == (-1.0, 2.0)
    assert charpoly_eps_slices_1port(11, 6)[1] == (-1.0, 30.0)
    assert charpoly_eps_slices_1port(11, 1)[1] == (-1.0, 55.0)
    with pytest.raises(AssumptionError):
        charpoly_eps_slices_1port(10, 2)


def _fd_slope(n, j, eps):
    hi = perturbed_charpoly_1port(n, j, eps)
    lo = perturbed_charpoly_1port(n, j, -eps)
    return (hi - lo) / (2 * eps)


def test_eps_slices_1port_against_finite_differences():
    # Richardson across eps in {1e-5, 1e-6} per the stated oracle; the
    # determinant is exactly linear in eps so both slopes coincide
    for (n, j) in [(3, 2), (7, 5), (11, 1), (11, 6), (13, 4)]:
        a, (b0, b1) = charpoly_eps_slices_1port(n, j)
        s1 = _fd_slope(n, j, 1e-5)
        s2 = _fd_slope(n, j, 1e-6)
        slope = s2 + (s2 - s1) / (10.0 - 1.0)
        assert abs(slope[0] - b0) <= 1e-4
        assert abs(slope[1] - b1) <= 1e-4
        assert np.max(np.abs(a - perturbed_charpoly_1port(n, j, 0.0))) <= 1e-9


def test_eps_slices_2port_against_finite_differences():
    eps = 1e-3
    for (n, j1, j2) in [(6, 2, 5), (10, 3, 8), (14, 4, 11), (14, 1, 14),
                        (14, 6, 9)]:
        a, (b0, b1), (c0,) = charpoly_eps_slices_2port(n, j1, j2)
        L = laplacian(path_graph(n))
        hi = charpoly_from_eigensolve(bump_diagonal(L, (j1, j2), eps))
        lo = charpoly_from_eigensolve(bump_diagonal(L, (j1, j2), -eps))
        mid = path_charpoly(n)
        b_fd = (hi - lo) / (2 * eps)
        c_fd = (hi + lo - 2 * mid) / (2 * eps * eps)
        assert abs(b_fd[0] - b0) <= 1e-6 * max(1, abs(b0))
        assert abs(b_fd[1] - b1) <= 1e-5 * max(1, abs(b1))
        assert abs(c_fd[0] - c0) <= 1e-4 * max(1, abs(c0))
        assert np.max(np.abs(a - mid)) <= 1e-12


def test_eps_slices_2port_gate():
    with pytest.raises(AssumptionError):
        charpoly_eps_slices_2port(12, 3, 9)
    with pytest.raises(AssumptionError):
        charpoly_eps_slices_2port(14, 8, 10)
