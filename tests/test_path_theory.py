import itertools
import math
import re
import warnings

import numpy as np
import pytest

from spectral_kcenter import (AssumptionError, MetricParams, NumericError,
                              ParameterError, mplse_score, path_theory,
                              charpoly_eps_slices_1port,
                              charpoly_eps_slices_2port, end_segment_charpoly,
                              lambda_min_quadratic_1port,
                              lambda_min_quadratic_2port, lambda_min_series_kport,
                              laplacian, optimal_ports, path_charpoly,
                              path_eigenpair, path_graph, perturbed_charpoly_1port,
                              perturbed_charpoly_2port, perturbed_laplacian,
                              pseudo_toeplitz_lambda_min, root_series_double,
                              root_series_single, sym_eigen)
from spectral_kcenter.path_theory import lambda_min_series_positions, path_lambda_min

from conftest import exact_lambda_min, nearest_real_root


def bump_diagonal(M, ports, eps):
    # test-side helper: unlike perturbed_laplacian it admits eps < 0,
    # which the central-difference oracles need
    M = np.array(M, dtype=float)
    for j in ports:
        M[j - 1, j - 1] += eps
    return M


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


NON_INTEGER_CASES = [
    (lambda_min_quadratic_1port, (11, 6.5, 0.01)),
    (lambda_min_quadratic_2port, (14, 4.5, 11, 0.01)),
    (charpoly_eps_slices_1port, (11, True)),
    (charpoly_eps_slices_1port, (11, 6.5)),
    (path_eigenpair, (5, 2.5)),
    (optimal_ports, (9, True)),
    (optimal_ports, (9, 3.0)),
    (perturbed_charpoly_1port, (11, 6.5, 0.01)),
    (perturbed_charpoly_2port, (14, 4.5, 11, 0.01)),
    (end_segment_charpoly, (2.5,)),
]


@pytest.mark.parametrize("func,args", NON_INTEGER_CASES,
                         ids=[f"{f.__name__}{a}" for f, a in NON_INTEGER_CASES])
def test_oracle_rejects_non_integer_arguments(func, args):
    # a bool or a float is not a node, an order or an index, even when its
    # value is integral; each of these used to return a number or end in a
    # TypeError, and none of them is a structural assumption
    with pytest.raises(ParameterError) as exc:
        func(*args)
    assert not isinstance(exc.value, AssumptionError)


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


def certified_width(n, eps):
    # path_lambda_min's delta = 2 n ulp (4 + eps), 4 + eps bounding the norm
    return 2 * n * np.finfo(float).eps * (4 + eps)


def port_sets(n, k):
    return np.array(list(itertools.combinations(range(1, n + 1), k)))


@pytest.mark.parametrize("eps", [1e-4, 0.01, 1.0, 30.0])
def test_path_lambda_min_matches_dense_solves(eps):
    # every port set with k = 1..3 up to n = 20, and about 40 sets spread
    # over each k above (all 112,745 sets to n = 40 take ~13 s per eps)
    for n in range(3, 41):
        g = path_graph(n)
        for k in range(1, min(3, n - 1) + 1):
            S = port_sets(n, k)
            if n > 20:
                S = S[::len(S) // 40 or 1]
            got = path_lambda_min(n, S, eps)
            want = mplse_score(g, S, MetricParams(epsilon=eps))
            assert np.abs(got - want).max() <= certified_width(n, eps), (n, k)


@pytest.mark.parametrize("n, k", [(3, 1), (14, 2), (22, 3), (38, 2)])
def test_path_lambda_min_is_bitwise_alone_and_in_any_order(n, k):
    S = port_sets(n, k)[:100]
    for eps in (1e-4, 30.0):
        stacked = path_lambda_min(n, S, eps)
        alone = np.array([path_lambda_min(n, S[i:i + 1], eps)[0] for i in range(len(S))])
        assert stacked.tobytes() == alone.tobytes()
        assert path_lambda_min(n, S[::-1], eps).tobytes() == stacked[::-1].tobytes()


@pytest.mark.parametrize("shift", [2.0, -2.0])
def test_path_lambda_min_rejects_a_value_moved_by_two_widths(monkeypatch, shift):
    # negative control: the Sturm counts catch one set's value moved up or
    # down by 2 delta, while the unmoved value passes
    n, eps = 14, 0.01
    S = port_sets(n, 2)
    newton = path_theory._newton_from_zero

    def moved(d, delta, max_steps):
        x = newton(d, delta, max_steps)
        x[17] += shift * delta
        return x

    path_lambda_min(n, S, eps)
    monkeypatch.setattr(path_theory, "_newton_from_zero", moved)
    with pytest.raises(NumericError, match=re.escape(f"ports {S[17].tolist()} ") + ".* not certified"):
        path_lambda_min(n, S, eps)


def test_path_lambda_min_step_cap_is_a_numeric_error():
    # Newton from 0 needs several steps on P_14 with one port; a cap of two
    # passes raises instead of returning an unsettled value
    d = np.full((14, 1), 2.0)
    d[[0, -1]] = 1.0
    d[6] += 0.01
    delta = certified_width(14, 0.01)
    x = path_theory._newton_from_zero(d, delta, 100)
    assert x[0] == path_lambda_min(14, [(7,)], 0.01)[0]
    with pytest.raises(NumericError, match="did not settle within 2 steps"):
        path_theory._newton_from_zero(d, delta, 2)


def test_path_lambda_min_warns_nothing():
    # a zero pivot becomes -pivmin in the counts: at y = 1 the leading 1 x 1
    # block of L(P_4) pivots to exactly 0, and 2 of its eigenvalues
    # (0 and 2 - sqrt 2) lie below 1; eps = 1e-300 leaves L(P_n) itself,
    # whose zero eigenvalue Newton meets with a zero pivot at x = 0
    d = np.array([[1.0], [2.0], [2.0], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert path_theory._sturm_counts(d, np.array([1.0])).tolist() == [2]
        for eps in (1e-300, 1e-4, 30.0, 1e100, 1e308):
            for n in (2, 3, 40):
                values = path_lambda_min(n, port_sets(n, 1), eps)
                assert np.isfinite(values).all() and (values >= 0).all()


def test_path_lambda_min_checks_its_arguments():
    with pytest.raises(ParameterError):
        path_lambda_min(1, [(1,)], 0.01)
    with pytest.raises(ParameterError):
        path_lambda_min(5, [(1, 6)], 0.01)
    with pytest.raises(ParameterError):
        path_lambda_min(5, [(2, 2)], 0.01)
    with pytest.raises(ParameterError):
        path_lambda_min(5, [(1,)], 0.0)


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


def test_root_series_single_examples():
    rs = root_series_single([0, 1, 1], [1])
    assert (rs.beta1, rs.beta2) == (-1.0, -1.0)
    # exact root of s^2 + s + eps: (-1 + sqrt(1-4 eps))/2 = -eps - eps^2 - ...
    eps = 1e-3
    exact = (-1 + math.sqrt(1 - 4 * eps)) / 2
    assert abs(exact - rs.at(eps)) <= 5 * eps ** 3

    rs = root_series_single([0, 2, 1], [1])
    assert (rs.beta1, rs.beta2) == (-0.5, -0.125)

    rs = root_series_single([0, 1, 1], [1, 1])
    assert (rs.beta1, rs.beta2) == (-1.0, 0.0)


def test_root_series_double_examples():
    gamma = 0.7
    rs = root_series_double([0, 1], [1], [gamma])
    assert (rs.beta1, rs.beta2) == (-1.0, -gamma)
    # s + eps + gamma eps^2 = 0 is solved exactly by the two-term series
    eps = 1e-2
    assert abs(rs.at(eps) + (eps + gamma * eps * eps)) <= 1e-15

    rs = root_series_double([0, 1, 1], [1], [1])
    assert (rs.beta1, rs.beta2) == (-1.0, -2.0)


def test_root_series_hypothesis_violations():
    with pytest.raises(AssumptionError):
        root_series_single([1, 1], [1])       # a0 != 0
    with pytest.raises(AssumptionError):
        root_series_single([0, 0, 1], [1])    # a1 = 0
    with pytest.raises(AssumptionError):
        root_series_single([0, 1], [0, 1])    # b0 = 0
    with pytest.raises(AssumptionError):
        root_series_double([0, 1], [1], [0.0])


def test_nearest_real_root_picks_the_root_nearest_the_guess():
    # (s - 1)(s - 2)(s - 3), ascending coefficients
    poly = [-6.0, 11.0, -6.0, 1.0]
    for guess, root in ((0.4, 1.0), (2.2, 2.0), (10.0, 3.0)):
        assert abs(nearest_real_root(poly, guess) - root) <= 1e-12


def test_nearest_real_root_rejects_a_complex_root():
    # (s - 1)(s^2 + 1): the real root is taken near 1, and near -0.5 the
    # nearest roots are +-i, which the oracle refuses
    poly = [-1.0, 1.0, -1.0, 1.0]
    assert abs(nearest_real_root(poly, 0.8) - 1.0) <= 1e-12
    with pytest.raises(AssertionError):
        nearest_real_root(poly, -0.5)
    with pytest.raises(AssertionError):
        nearest_real_root([1.0, 0.0, 1.0], 0.0)  # s^2 + 1


def test_root_series_are_exported_from_path_theory():
    # the root series live next to the eps-slices that feed them
    import importlib

    import spectral_kcenter
    from spectral_kcenter import path_theory

    for name in ("RootSeries", "root_series_single", "root_series_double"):
        assert getattr(spectral_kcenter, name) is getattr(path_theory, name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("spectral_kcenter.perturbation")


def test_smallest_root_on_perturbed_path_charpoly():
    n, eps = 11, 0.01
    poly = perturbed_charpoly_1port(n, 6, eps)
    root = nearest_real_root(poly, eps / n)
    Lt = perturbed_laplacian(laplacian(path_graph(n)), (6,), eps)
    assert abs(root - sym_eigen(Lt).values[0]) <= 1e-9


def test_root_series_matches_numeric_oracle_on_sample_triples():
    rng = np.random.default_rng(999)
    for _ in range(5):
        deg = int(rng.integers(3, 6))
        a = np.r_[0.0, rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
                  rng.uniform(-2, 2, deg - 2), 1.0]
        b = np.r_[rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
                  rng.uniform(-2, 2, deg - 1)]
        c = np.r_[rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
                  rng.uniform(-2, 2, deg - 2)]
        rs = root_series_double(a, b, c)
        eps = 1e-3
        pe = a.copy()
        pe[: len(b)] += eps * b
        pe[: len(c)] += eps * eps * c
        root = nearest_real_root(pe, rs.at(eps))
        assert abs(root - rs.at(eps)) <= 1e-5  # O(eps^3) with headroom


def test_slices_to_series_pipeline_closure():
    # route: characteristic slices -> root series reproduces the quadratic
    # one-port shift coefficients
    for n in (3, 5, 7, 9, 11, 13):
        pstar = (n + 1) // 2
        for j in range(1, n + 1):
            a, (b0, b1) = charpoly_eps_slices_1port(n, j)
            rs = root_series_single(a, [b0, b1])
            assert math.isclose(rs.beta1, 1.0 / n, rel_tol=1e-9)
            expect = -((n * n - 1) + 12.0 * (j - pstar) ** 2) / (12.0 * n * n)
            assert math.isclose(rs.beta2, expect, rel_tol=1e-9)


def test_two_port_slices_to_series_pipeline():
    a, (b0, b1), (c0,) = charpoly_eps_slices_2port(14, 4, 11)
    rs = root_series_double(a, [b0, b1], [c0])
    assert math.isclose(rs.beta1, 2.0 / 14, rel_tol=1e-12)
    assert math.isclose(rs.beta2, -(14 ** 2 - 4) / (12.0 * 14 ** 2), rel_tol=1e-9)
