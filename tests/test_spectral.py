import _thread
import itertools
import math
import os
import signal
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_kcenter import (IllPosedError, NumericError, ParameterError,
                              StabilityError, are_charging_energy,
                              figure1_graph, gramian_extraction_energy,
                              laplacian, lyapunov_solve,
                              path_charpoly_lowcoeffs, path_graph,
                              random_connected_graph, random_tree, relabel,
                              stochastic, sym_eigen, tridiag_charpoly)
from spectral_kcenter import Metric, MetricParams, metrics, spectral
from spectral_kcenter.experiments import _row_instance
from spectral_kcenter.graphs import incidence
from spectral_kcenter.spectral import (DEFAULT_RHO, LYAPUNOV_RESIDUAL_FACTOR, are_bounder,
                                       gramian_bounder, resolvent_ones)
from numpy.polynomial import polynomial as P


def test_sym_eigen_small_paths():
    assert np.allclose(sym_eigen(laplacian(path_graph(3))).values, [0, 1, 3],
                       atol=1e-9)
    assert np.allclose(sym_eigen(laplacian(path_graph(2))).values, [0, 2],
                       atol=1e-9)
    assert np.allclose(sym_eigen(np.eye(2)).values, [1, 1])


def test_sym_eigen_contract():
    A = laplacian(figure1_graph())
    dec = sym_eigen(A)
    assert np.all(np.diff(dec.values) >= -1e-12)
    assert np.allclose(dec.vectors.T @ dec.vectors, np.eye(11), atol=1e-9)
    tol = 1e-9 * (1 + np.linalg.norm(A, "fro"))
    assert np.linalg.norm(A @ dec.vectors - dec.vectors * dec.values) <= tol


def test_sym_eigen_rejects_nonsymmetric():
    with pytest.raises(ParameterError):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eigen_rejects_nan():
    with pytest.raises(ParameterError):
        sym_eigen(np.array([[math.nan, 0.0], [0.0, 1.0]]))


def _perturbed_stack(n=9, count=12, seed=3):
    rng = np.random.default_rng(seed)
    L = laplacian(random_connected_graph(n, 0.4, seed))
    return L + np.stack([np.diag(rng.random(n) * 0.1) for _ in range(count)])


def test_sym_eigen_stack_equals_single_solves():
    stack = _perturbed_stack()
    for shaped in (stack, stack.reshape(3, 4, 9, 9)):
        dec = sym_eigen(shaped)
        assert dec.values.shape == shaped.shape[:-1]
        assert dec.vectors.shape == shaped.shape
        values = dec.values.reshape(-1, 9)
        vectors = dec.vectors.reshape(-1, 9, 9)
        for i, A in enumerate(stack):
            one = sym_eigen(A)
            assert np.array_equal(values[i], one.values)
            assert np.array_equal(vectors[i], one.vectors)


@pytest.mark.parametrize("defect", ["nan", "asymmetric"])
def test_sym_eigen_stack_rejects_one_bad_matrix(defect):
    stack = _perturbed_stack()
    stack[5, 0, 1] = math.nan if defect == "nan" else stack[5, 0, 1] + 1e-6
    with pytest.raises(ParameterError):
        sym_eigen(stack)


def test_sym_eigen_stack_checks_each_residual(monkeypatch):
    stack = _perturbed_stack()
    eigh = np.linalg.eigh

    def perturbed_eigh(A):
        values, vectors = eigh(A)
        vectors = vectors.copy()
        vectors[7, :, 0] += 1e-6  # one column of one matrix
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
    with pytest.raises(NumericError):
        sym_eigen(stack)


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "in-a-stack"])
def test_sym_eigen_checks_the_last_column_of_every_matrix(monkeypatch, stacked):
    # the last eigenvector column of one matrix, alone or the last of a stack
    stack = _perturbed_stack()
    A = stack if stacked else stack[-1]
    column = np.s_[-1, :, -1] if stacked else np.s_[:, -1]
    eigh = np.linalg.eigh

    def perturbed_eigh(M):
        values, vectors = eigh(M)
        vectors = vectors.copy()
        vectors[column] += 1e-6
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
    with pytest.raises(NumericError, match="eigenpair residual"):
        sym_eigen(A)


def test_rayleigh_bounds():
    rng = np.random.default_rng(5)
    for g in (path_graph(6), figure1_graph()):
        A = laplacian(g)
        values = sym_eigen(A).values
        lo, hi = values[0], values[-1]
        for _ in range(20):
            x = rng.normal(size=g.n)
            q = x @ A @ x / (x @ x)
            assert lo - 1e-9 <= q <= hi + 1e-9


def test_lambda_extremes_examples():
    assert abs(sym_eigen(laplacian(path_graph(9))).values[0]) <= 1e-9
    assert abs(sym_eigen(laplacian(path_graph(3))).values[-1] - 3) <= 1e-9
    assert abs(sym_eigen(stochastic(path_graph(3), 0.25)).values[-1] - 1) <= 1e-9


def test_tridiag_charpoly_examples():
    assert np.allclose(tridiag_charpoly([], [], []), [1.0])
    assert np.allclose(tridiag_charpoly([1, 1], [-1], [-1]), [0, -2, 1])
    assert np.allclose(tridiag_charpoly([1, 2, 1], [-1, -1], [-1, -1]),
                       [0, 3, -4, 1])


def test_tridiag_charpoly_shape_error():
    with pytest.raises(ParameterError):
        tridiag_charpoly([1, 2, 3], [-1], [-1, -1])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_tridiag_charpoly_vs_lu_determinant(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    a = rng.uniform(-2, 2, m)
    # unreduced: keep off-diagonals away from zero
    b = rng.uniform(0.2, 2, max(m - 1, 0)) * rng.choice([-1, 1], max(m - 1, 0))
    c = rng.uniform(0.2, 2, max(m - 1, 0)) * rng.choice([-1, 1], max(m - 1, 0))
    Q = np.diag(a)
    for i in range(m - 1):
        Q[i + 1, i] = b[i]
        Q[i, i + 1] = c[i]
    psi = tridiag_charpoly(a, b, c)
    for s in rng.uniform(-3, 3, 5):
        det = np.linalg.det(s * np.eye(m) - Q)
        assert abs(P.polyval(s, psi) - det) <= 1e-8 * max(1.0, abs(det))


def test_path_charpoly_lowcoeffs_examples():
    assert path_charpoly_lowcoeffs(2) == (2, 1, 0, 2)
    c1, c2, _, cn1 = path_charpoly_lowcoeffs(3)
    assert (c1, c2, cn1) == (3, 4, 4)
    assert path_charpoly_lowcoeffs(5)[:3] == (5, 20, 21)


def test_path_charpoly_lowcoeffs_vs_eigenvalue_product():
    # oracle: det(sI + L_n) = prod (s + lambda_j) with the closed-form
    # path eigenvalues
    for n in range(2, 13):
        lam = [2 * (1 - math.cos(math.pi * j / n)) for j in range(n)]
        poly = np.array([1.0])
        for l in lam:
            poly = np.convolve(poly, [l, 1.0])
        c1, c2, c3, cn1 = path_charpoly_lowcoeffs(n)
        assert abs(poly[1] - c1) <= 1e-8 * max(1, abs(c1))
        assert abs(poly[2] - c2) <= 1e-8 * max(1, abs(c2))
        if n >= 3:
            assert abs(poly[3] - c3) <= 1e-8 * max(1, abs(c3))
        assert abs(poly[n - 1] - cn1) <= 1e-8 * max(1, abs(cn1))


def test_lyapunov_examples():
    assert np.allclose(lyapunov_solve(-np.eye(3), np.eye(3)), np.eye(3) / 2)
    X = lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
    assert np.allclose(X, np.diag([0.5, 0.25]))


def test_lyapunov_random_residual():
    rng = np.random.default_rng(42)
    M = rng.normal(size=(5, 5))
    A = -(M @ M.T + 5 * np.eye(5))
    W = rng.normal(size=(5, 5))
    W = W @ W.T
    X = lyapunov_solve(A, W)
    resid = np.linalg.norm(A.T @ X + X @ A + W, "fro")
    assert resid <= 1e-9 * (1 + np.linalg.norm(W, "fro"))


def test_lyapunov_rejects_unstable():
    with pytest.raises(StabilityError):
        lyapunov_solve(np.diag([-1.0, 0.0]), np.eye(2))
    with pytest.raises(StabilityError):
        lyapunov_solve(laplacian(path_graph(3)), np.eye(3))


def _lyapunov_stack(n=9, count=12, seed=3):
    """Grounded systems -(L + D_i) with random positive port weights D_i and
    symmetric right-hand sides W_i."""
    rng = np.random.default_rng(seed)
    L = laplacian(random_connected_graph(n, 0.4, seed))
    A = -(L + np.stack([np.diag(rng.random(n) * (rng.random(n) < 0.4) + 1e-2)
                        for _ in range(count)]))
    W = rng.normal(size=(count, n, n))
    return A, W @ np.swapaxes(W, -2, -1)


def test_lyapunov_stack_equals_single_solves():
    A, W = _lyapunov_stack()
    for shape in ((12, 9, 9), (3, 4, 9, 9)):
        X = lyapunov_solve(A.reshape(shape), W.reshape(shape))
        assert X.shape == shape
        for i, Xi in enumerate(X.reshape(12, 9, 9)):
            assert np.array_equal(Xi, lyapunov_solve(A[i], W[i]))


def test_lyapunov_stack_rejects_one_unstable_matrix():
    A, W = _lyapunov_stack()
    A[5] = laplacian(path_graph(9))  # positive semidefinite
    with pytest.raises(StabilityError):
        lyapunov_solve(A, W)


def test_lyapunov_rejects_mismatched_shapes():
    A, W = _lyapunov_stack()
    with pytest.raises(ParameterError):
        lyapunov_solve(A, W[:-1])


@pytest.mark.parametrize("layer", ["eigh", "sym_eigen"])
def test_lyapunov_stack_checks_each_residual(monkeypatch, layer):
    # perturbing eigh's vectors trips sym_eigen's own residual check;
    # perturbing the decomposition lyapunov_solve receives reaches its
    # Lyapunov residual check
    from spectral_kcenter import spectral
    A, W = _lyapunov_stack()
    solve = np.linalg.eigh if layer == "eigh" else spectral.sym_eigen

    def perturbed(M):
        values, vectors = solve(M)
        vectors = vectors.copy()
        vectors[7, :, 0] += 1e-6  # one column of one matrix
        return spectral.EigenDecomposition(values, vectors)

    monkeypatch.setattr(np.linalg if layer == "eigh" else spectral, layer, perturbed)
    with pytest.raises(NumericError,
                       match="eigenpair" if layer == "eigh" else "Lyapunov residual"):
        lyapunov_solve(A, W)


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "in-a-stack"])
@pytest.mark.parametrize("layer", ["eigh", "sym_eigen"])
def test_lyapunov_checks_the_last_column_of_every_matrix(monkeypatch, layer, stacked):
    # as above, with the last eigenvector column of one matrix perturbed,
    # alone or the last of a stack
    from spectral_kcenter import spectral
    A, W = _lyapunov_stack()
    if not stacked:
        A, W = A[-1], W[-1]
    column = np.s_[-1, :, -1] if stacked else np.s_[:, -1]
    solve = np.linalg.eigh if layer == "eigh" else spectral.sym_eigen

    def perturbed(M):
        values, vectors = solve(M)
        vectors = vectors.copy()
        vectors[column] += 1e-6
        return spectral.EigenDecomposition(values, vectors)

    monkeypatch.setattr(np.linalg if layer == "eigh" else spectral, layer, perturbed)
    with pytest.raises(NumericError,
                       match="eigenpair" if layer == "eigh" else "Lyapunov residual"):
        lyapunov_solve(A, W)


def test_lyapunov_fails_closed_on_a_bad_or_huge_right_side():
    # a NaN or inf in W is rejected, and a W whose norm or residual
    # overflows fails its check, before any solve and without a warning
    import warnings

    A, W = _lyapunov_stack()
    bad = W.copy()
    bad[5, 0, 0] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (math.nan, math.inf, -math.inf):
            one = W[0].copy()
            one[1, 2] = one[2, 1] = value
            with pytest.raises(ParameterError, match="W must be finite"):
                lyapunov_solve(A[0], one)
        with pytest.raises(ParameterError, match="W must be finite"):
            lyapunov_solve(A, bad)
        with pytest.raises(NumericError, match="residual check overflowed"):
            lyapunov_solve(-np.eye(2), np.diag([1e200, 1.0]))
        with pytest.raises(NumericError, match="residual check overflowed"):
            lyapunov_solve(A, W * np.where(np.arange(12) == 7, 1e200, 1.0)[:, None, None])


def _block_template(L, k, rho):
    """The ARE pencil's template and E as np.block builds them."""
    n = L.shape[0]
    B = np.zeros((n, k))
    M = np.asfortranarray(np.block([
        [L, np.zeros((n, n)), -B],
        [-rho * np.eye(n), -L.T, -0.5 * B],
        [0.5 * B.T, -B.T, rho * np.eye(k)],
    ]))
    E = np.zeros((2 * n + k, 2 * n + k), order="F")
    E[: 2 * n, : 2 * n] = np.eye(2 * n)
    return M, E


@pytest.mark.parametrize("n, k", [(2, 1), (5, 1), (5, 4), (9, 3), (11, 10), (20, 19)])
def test_pencil_template_is_the_block_template_bit_for_bit(n, k):
    # slice assignment keeps every bit of np.block, its signed zeros too:
    # -0.0 in -B, -0.5 B, -B' and off the diagonals of -rho I and -L'
    from spectral_kcenter.spectral import _pencil_template

    L = laplacian(random_connected_graph(n, 0.5, n + k))
    for rho in (DEFAULT_RHO, 1.0, 3e5):
        got, want = _pencil_template(L, k, rho), _block_template(L, k, rho)
        for a, b in zip(got, want):
            assert a.flags.f_contiguous
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (n, k, rho)
    M = got[0]
    assert np.signbit(M[n + 1, 0]) and np.signbit(M[0, 2 * n])  # -rho I, -B
    assert not np.signbit(M[2 * n, 0])  # 0.5 B'
    assert k == 1 or not np.signbit(M[-1, 2 * n])  # rho I_k


def test_charging_energy_single_capacitor():
    # one unit capacitor charged through its own port: stored energy 1/2,
    # regularization adds O(rho)
    for rho in (1e-4, 1e-6, 1e-8):
        v = are_charging_energy(np.zeros((1, 1)), (1,), rho)
        assert abs(v - 0.5) <= 2 * rho + 1e-9


def test_charging_energy_prefers_the_center():
    L = laplacian(path_graph(3))
    assert are_charging_energy(L, (2,)) < are_charging_energy(L, (1,))
    # mirror symmetry
    assert math.isclose(are_charging_energy(L, (1,)),
                        are_charging_energy(L, (3,)), rel_tol=1e-9)


def test_charging_energy_monotone_in_rho():
    L = laplacian(path_graph(3))
    for S in ((2,), (1,)):
        vals = [are_charging_energy(L, S, rho) for rho in (1e-8, 1e-6, 1e-4, 1e-2)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_charging_energy_exceeds_stored_energy():
    for g in (path_graph(4), figure1_graph()):
        L = laplacian(g)
        assert are_charging_energy(L, (1, 2)) > g.n / 2


def test_charging_energy_argmin_stable_in_rho():
    g = path_graph(7)
    L = laplacian(g)
    for rho in (1e-4, 1e-6, 1e-8):
        scores = {j: are_charging_energy(L, (j,), rho) for j in range(1, 8)}
        assert min(scores, key=scores.get) == 4


def test_charging_energy_relabel_invariant():
    g = figure1_graph()
    L = laplacian(g)
    ref = are_charging_energy(L, (3, 8))
    rng = np.random.default_rng(2)
    for _ in range(5):
        perm = {i + 1: int(p) + 1 for i, p in enumerate(rng.permutation(g.n))}
        Lp = laplacian(relabel(g, perm))
        mapped = tuple(sorted((perm[3], perm[8])))
        assert math.isclose(are_charging_energy(Lp, mapped), ref, rel_tol=1e-6)


def test_charging_energy_matches_reference_riccati_solver():
    # independent route: scipy's CARE solver on instances where the pair is
    # stabilizable (it refuses the symmetric/uncontrollable ones that the
    # pencil + least-squares evaluation handles)
    from scipy import linalg as sla

    from spectral_kcenter import random_tree
    rng = np.random.default_rng(8)
    checked = 0
    for seed in range(40):
        g = random_tree(6, seed)
        L = laplacian(g)
        ports = tuple(sorted(
            rng.choice(np.arange(1, 7), size=2, replace=False).tolist()))
        B = np.zeros((6, 2))
        for i, j in enumerate(ports):
            B[j - 1, i] = 1.0
        rho = 1e-6
        try:
            X = sla.solve_continuous_are(L, -B, rho * np.eye(6),
                                         rho * np.eye(2), s=B / 2)
        except Exception:
            continue
        ref = float(np.ones(6) @ X @ np.ones(6))
        assert abs(are_charging_energy(L, ports, rho) - ref) <= 1e-6 * ref
        checked += 1
    assert checked >= 20


def test_charging_energy_parameter_errors():
    L = laplacian(path_graph(3))
    with pytest.raises(ParameterError):
        are_charging_energy(L, ())
    with pytest.raises(ParameterError):
        are_charging_energy(L, (2,), rho=0.0)


@pytest.mark.parametrize("ports", [(5, 9, 13), [(1, 2, 3), (5, 9, 13), (6, 9, 13)]],
                         ids=["one-set", "in-a-stack"])
def test_charging_energy_reports_reordering_failure(ports):
    # the QZ reordering of this controllable 3-port pencil on P_20 fails;
    # it surfaces as LAPACK's tgsen status, with scipy's message
    L = laplacian(path_graph(20))
    with pytest.raises(NumericError, match=r"Reordering of \(A, B\) failed"):
        are_charging_energy(L, np.array(ports) if isinstance(ports, list) else ports)


# on P_4 with one port the pencil has order N = 9
@pytest.mark.parametrize("routine, info, text", [
    ("gges", -3, "Illegal value in argument 3 of gges"),
    ("gges", 1, "The QZ iteration failed"),  # ordqz only warns here
    ("gges", 9, r"The QZ iteration failed\. .* correct for J=8,\.\.\.,N"),
    ("gges", 10, "Something other than QZ iteration failed"),
    ("gges", 11, "After reordering, roundoff changed"),
    ("gges", 12, r"Reordering failed in <s,d,c,z>tgsen"),
    ("tgsen", -2, "Illegal value in argument 2 of tgsen"),
    ("tgsen", 1, r"Reordering of \(A, B\) failed"),
])
def test_charging_energy_raises_on_every_lapack_status(monkeypatch, routine, info, text):
    _fail_lapack(monkeypatch, routine, info)
    with pytest.raises(NumericError, match="QZ decomposition failed: " + text):
        are_charging_energy(laplacian(path_graph(4)), (2,))


def _fail_lapack(monkeypatch, routine, info, calls=None):
    """Make the LAPACK ``routine`` that ARE looks up return status ``info``
    on its solves numbered ``calls`` (from 1; every solve if None), not on
    the workspace query."""
    from scipy import linalg as sla
    lookup = sla.get_lapack_funcs
    solves = 0

    def failing_lookup(names, arrays):
        funcs = dict(zip(names, lookup(names, arrays)))
        real = funcs[routine]

        def failing(*args, **kwargs):
            nonlocal solves
            out = real(*args, **kwargs)
            if kwargs.get("lwork") == -1:
                return out
            solves += 1
            return (*out[:-1], info) if calls is None or solves in calls else out
        funcs[routine] = failing
        return tuple(funcs[name] for name in names)

    monkeypatch.setattr(sla, "get_lapack_funcs", failing_lookup)


def test_charging_energy_stack_raises_its_first_failing_sets_error(monkeypatch):
    # a batch raises what its first failing set raises when scored alone:
    # the QZ solves stop at the first failure, and the checks of the sets
    # solved before it come first; the pencils have order N = 12
    L = laplacian(path_graph(5))
    S = np.array(list(itertools.combinations(range(1, 6), 2)))

    def error(ports, rho, failing_solve=None):
        with monkeypatch.context() as patch:
            if failing_solve:
                _fail_lapack(patch, "gges", 13, calls={failing_solve})  # N + 1
            with pytest.raises(NumericError) as caught:
                are_charging_energy(L, ports, rho)
        return type(caught.value), str(caught.value)

    # at rho = 1e300 every set fails its stable-dimension check, so set 0's
    # error comes before the failure of the third QZ solve
    ill_posed = (IllPosedError, "stable deflating subspace has dimension 0 != 5")
    for i in range(len(S)):
        assert error(tuple(S[i]), 1e300) == ill_posed
    assert error(S, 1e300) == error(S, 1e300, failing_solve=3) == ill_posed
    # at the default rho every set passes its checks: the first QZ failure
    # is the batch's, whichever set it hits
    qz = (NumericError, "QZ decomposition failed: Something other than QZ iteration failed")
    assert error(S, 1e-6, failing_solve=1) == error(tuple(S[0]), 1e-6, failing_solve=1) == qz
    assert error(S, 1e-6, failing_solve=3) == error(tuple(S[2]), 1e-6, failing_solve=1) == qz


def _pencil_results(defects):
    """Stable-first eigenvalues and right Schur vectors of an n = 2 pencil
    (order N = 5) that passes every check of ``_pencil_energy``, or fails
    the checks named in ``defects``."""
    alpha = np.array([-1, -1, 1, 1, 1], dtype=complex)
    beta = np.ones(5)
    Z = np.zeros((5, 5), order="F")
    Z[:4, :2] = np.tile(np.eye(2), (2, 1))
    if "margin" in defects:
        alpha[0] = -1e-11
    if "dimension" in defects:
        alpha[1] = 1.0
    if "reach" in defects:
        Z[1, 1] = 0.0
    if "sign" in defects:
        Z[2:4, :2] *= -1
    return alpha, beta, Z


def test_pencil_energy_runs_its_checks_in_order(monkeypatch):
    # a pencil reports the first check it fails, for every combination of
    # defects; a failing least-squares solve is the third check
    from spectral_kcenter.spectral import _pencil_energy

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    def outcome(defects):
        with monkeypatch.context() as patch:
            if "lstsq" in defects:
                patch.setattr(np.linalg, "lstsq", no_convergence)
            try:
                return _pencil_energy(*_pencil_results(defects), 2)
            except NumericError as exc:
                return type(exc), str(exc)

    errors = {  # in check order
        "margin": (IllPosedError,
                   "Hamiltonian pencil has spectrum within 1e-10 of the imaginary axis"),
        "dimension": (IllPosedError, "stable deflating subspace has dimension 1 != 2"),
        "lstsq": (NumericError, "least-squares solve on the stable subspace failed: "
                                "SVD did not converge in Linear Least Squares"),
        "reach": (IllPosedError, "all-ones target is not reachable on the stable subspace"),
        "sign": (NumericError, "charging energy came out negative (-2.000e+00)"),
    }
    for r in range(len(errors) + 1):
        for defects in itertools.combinations(errors, r):
            first = errors[defects[0]] if defects else 2.0
            assert outcome(defects) == first, defects


def test_charging_energy_lstsq_failure_is_a_numeric_error(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", no_convergence)
    L = laplacian(path_graph(5))
    for ports in [(2, 4), np.array([[1, 3], [2, 4]])]:
        with pytest.raises(NumericError, match="least-squares solve .* SVD did not converge"):
            are_charging_energy(L, ports)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_charging_energy_rejects_non_finite_laplacian(bad):
    L = laplacian(path_graph(5))
    L[1, 2] = bad
    with pytest.raises(NumericError, match="must not contain infs or NaNs"):
        are_charging_energy(L, (1, 3))
    with pytest.raises(NumericError, match="must not contain infs or NaNs"):
        are_charging_energy(L, np.array([[1, 3], [2, 4]]))


def test_gramian_single_capacitor():
    assert math.isclose(gramian_extraction_energy(np.zeros((1, 1)), (1,)), 0.5,
                        rel_tol=1e-12)


def test_gramian_bounds_and_center_preference():
    L3 = laplacian(path_graph(3))
    s_center = gramian_extraction_energy(L3, (2,))
    s_end = gramian_extraction_energy(L3, (1,))
    assert s_center > s_end
    for g in (path_graph(5), figure1_graph()):
        L = laplacian(g)
        v = gramian_extraction_energy(L, (1,))
        assert 0 < v < g.n / 2


# the comparison rows at 10 trials and seed 424242, then one graph of each
# kind at the desk cap: the corpus of scripts/score_digest.py
DIGEST_CORPUS = ([_row_instance(row, 424242, i, t) for i, row in enumerate(
                     ("path:11", "tree:7", "tree:9", "general:7", "general:9"))
                  for t in range(10)]
                 + [path_graph(20), random_tree(20, 424242),
                    random_connected_graph(20, 0.4, 424242)])


def _port_matrices(n, S):
    E = np.zeros((len(S), n, n))
    E[np.arange(len(S))[:, None], S - 1, S - 1] = 1.0
    return E


def test_gramian_is_half_n_less_the_energy_dissipated_inside():
    # M = L + E_S: 1_S'Q1 = k/2, and n/2 - 1'Q1 = D(S) = 1'X1 with
    # M X + X M = L, the identities gramian_bounder rests on
    for g in DIGEST_CORPUS:
        L, n = laplacian(g), g.n
        for k in (1, 2, 3):
            S = np.array(list(itertools.combinations(range(1, n + 1), k)))
            E = _port_matrices(n, S)
            Q = lyapunov_solve(-(L + E), E)
            X = lyapunov_solve(-(L + E), np.broadcast_to(L, E.shape))
            port_sum = np.einsum("sii,sij->s", E, Q)
            assert np.allclose(port_sum, k / 2, rtol=1e-12, atol=0), (g, k)
            D = X.sum(axis=(1, 2))
            # relative to n/2, which the difference cancels down to D
            assert np.allclose(n / 2 - gramian_extraction_energy(L, S), D,
                               rtol=0, atol=1e-12 * n / 2), (g, k)


def test_gramian_score_error_rests_on_a_lower_bound_of_lambda_min():
    # score_error = n LYAPUNOV_RESIDUAL_FACTOR (1 + sqrt(k)) / (2 mu_0), where
    # mu_0 must not exceed lambda_min(L + e_j e_j') for any node j
    for g in DIGEST_CORPUS:
        L, n = laplacian(g), g.n
        mu = np.linalg.eigvalsh(L + _port_matrices(n, np.arange(1, n + 1)[:, None]))[:, 0]
        for k in (1, 3):
            _, error = gramian_bounder(L, k, incidence(g))
            mu_0 = n * LYAPUNOV_RESIDUAL_FACTOR * (1 + math.sqrt(k)) / (2 * error)
            assert 0 < mu_0 <= mu.min(), g
            assert mu_0 > mu.min() / (2 * n), g  # not vacuous


def _solve_integer(A, b):
    """x with A x = b, for a nonsingular integer matrix A and an integer
    vector b, in rationals: fraction-free (Bareiss) elimination, whose
    divisions are exact, then back substitution."""
    n = len(A)
    rows = [[int(a) for a in row] + [int(v)] for row, v in zip(A, b)]
    prev = 1
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c]
            rows[r] = [(x * piv[c] - f * y) // prev for x, y in zip(rows[r], piv)]
        prev = piv[c]
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        x[c] = (rows[c][n] - sum(rows[c][j] * x[j] for j in range(c + 1, n))) / Fraction(rows[c][c])
    return x


def _exact_gramian(L, S):
    """1'Q1 = n/2 - 1'X1, where M X + X M = L and M = L + E_S, in rationals:
    one exact solve of the n^2 x n^2 Kronecker system."""
    n = L.shape[0]
    M = L.astype(int) + np.diag([int(j + 1 in S) for j in range(n)])
    I = np.eye(n, dtype=int)
    return Fraction(n, 2) - sum(_solve_integer(np.kron(I, M) + np.kron(M, I), L.flatten()))


def test_gramian_score_error_and_bound_hold_against_the_exact_value():
    # every computed score is within score_error of the exact 1'Q1, the
    # selection margin covers the tie band plus twice that error, and the
    # bound is at or above the exact value; some score errs, so a margin of
    # the tie band alone would fail
    worst = 0
    for g in (path_graph(6), random_tree(6, 1), random_connected_graph(6, 0.5, 2),
              random_connected_graph(5, 0.6, 3)):
        L = laplacian(g)
        for k in (1, 2):
            of, error = gramian_bounder(L, k, incidence(g))
            plan = metrics._plan(g, k, Metric.GRAMIAN, MetricParams(), L)
            margin = metrics._subset_bound(g, plan).margin
            S = np.array(list(itertools.combinations(range(1, g.n + 1), k)))
            for ports, score, bound in zip(S.tolist(), gramian_extraction_energy(L, S), of(S)):
                exact = _exact_gramian(L, ports)
                wrong = abs(Fraction(score) - exact)
                assert wrong <= error, (g, ports)
                assert margin(score) - metrics.TIE_RTOL * max(1.0, score) >= 2 * wrong
                assert Fraction(bound) >= exact, (g, ports)
                worst = max(worst, wrong)
    assert worst > 0


def _own_incidence(L):
    """The signed incidence matrix of L's own off-diagonal entries, in the
    order np.nonzero(np.triu(L, 1)) lists them."""
    u, v = np.nonzero(np.triu(L, 1))
    B = np.zeros((len(L), len(u)))
    B[u, np.arange(len(u))] = 1.0
    B[v, np.arange(len(u))] = -1.0
    return B


def test_gramian_bounder_incidence_is_the_laplacian_edges():
    # the selection hands gramian_bounder the incidence matrix it builds for
    # every bound; it lists g's edges in the order np.nonzero(np.triu(L, 1))
    # does, so the bound is bit for bit the one from L's own edges
    for g in DIGEST_CORPUS[::6] + [figure1_graph(),
                                   relabel(path_graph(6), dict(zip(range(1, 7), (3, 6, 1, 5, 2, 4))))]:
        L = laplacian(g)
        B, own = incidence(g), _own_incidence(L)
        assert np.array_equal(B, own), g
        S = np.array(list(itertools.combinations(range(1, g.n + 1), 2)))
        assert np.array_equal(gramian_bounder(L, 2, B)[0](S),
                              gramian_bounder(L, 2, own)[0](S)), g


# path:7 at k = 2, three sets; and the first 40 sets of path:12 at k = 2,
# where most sets' bounds alone differ from their bounds in the stack in the
# last bits: the products of one row take other paths through BLAS
STACK_CASES = [pytest.param(path_graph(7), np.array([[1, 4], [2, 5], [3, 6]]), id="path7"),
               pytest.param(path_graph(12),
                            np.array(list(itertools.combinations(range(1, 13), 2)))[:40], id="path12")]


@pytest.mark.parametrize("g, S", STACK_CASES)
def test_gramian_bound_takes_one_set_or_a_stack(g, S):
    # what the proof uses: every bound, alone or in a stack, lies at or above
    # the computed score and below n/2; alone and stacked agree to rounding,
    # and a reversed stack gives the reversed bounds bit for bit
    L = laplacian(g)
    of, _ = gramian_bounder(L, 2, incidence(g))
    batch = of(S)
    alone = np.concatenate([of(S[i:i + 1]) for i in range(len(S))])
    assert batch.shape == alone.shape == (len(S),)
    scores = gramian_extraction_energy(L, S)
    for bounds in (batch, alone):
        assert np.all(scores <= bounds) and np.all(bounds < g.n / 2)
    assert np.allclose(alone, batch, rtol=1e-12, atol=0)
    assert of(S[::-1]).tobytes() == batch[::-1].tobytes()


def _grounded_closeness(L, S):
    """c(S) = n^2 / (1' [(L^+)_SS]^(-1) 1), with no grounded solve."""
    n = L.shape[0]
    idx = [j - 1 for j in S]
    block = np.linalg.pinv(L)[np.ix_(idx, idx)]
    return n * n / np.linalg.solve(block, np.ones(len(S))).sum()


def test_are_bound_tends_to_the_cheap_control_limit():
    cases = [(path_graph(12), (1,)), (path_graph(12), (3, 10)),
             (random_tree(12, 3), (2, 5, 9)), (random_connected_graph(12, 0.4, 3), (4, 7))]
    for g, S in cases:
        L = laplacian(g)
        c = _grounded_closeness(L, S)
        gaps = [abs(are_bounder(L, rho)(np.array([S]))[0] / math.sqrt(rho * g.n * c) - 1)
                for rho in (1e-4, 1e-6, 1e-8, 1e-10)]
        assert all(b < a for a, b in zip(gaps, gaps[1:])), (S, gaps)
        assert gaps[-1] < 1e-4
    # an end port of a path: c = (n - 1) n (2n - 1) / 6
    assert math.isclose(_grounded_closeness(laplacian(path_graph(12)), (1,)), 506)


@pytest.mark.parametrize("g, S", STACK_CASES)
def test_are_bound_takes_one_set_or_a_stack(g, S):
    # every bound, alone or in a stack, lies below the value less n/2; alone
    # and stacked agree to rounding, and a reversed stack gives the
    # reversed bounds bit for bit
    L = laplacian(g)
    of = are_bounder(L, DEFAULT_RHO)
    batch = of(S)
    alone = np.concatenate([of(S[i:i + 1]) for i in range(len(S))])
    assert batch.shape == alone.shape == (len(S),)
    values = are_charging_energy(L, S) - g.n / 2
    for bounds in (batch, alone):
        assert np.all(bounds < values)
    assert np.allclose(alone, batch, rtol=1e-12, atol=0)
    assert of(S[::-1]).tobytes() == batch[::-1].tobytes()


def _resolvent_reference(F, S, shift):
    """resolvent_ones with one LAPACK solve per set and matrix and a
    (1, k) @ (k, n) product per set."""
    rows = S - 1
    A = F[..., rows[:, :, None], rows[:, None, :]] + shift * np.eye(S.shape[1])
    u = np.linalg.solve(A, np.ones(A.shape[:-1] + (1,)))
    return 1.0 - (np.swapaxes(u, -1, -2) @ F[..., rows, :])[..., 0, :]


def _resolvent_cases(g):
    """(F, shift) for every kind of system a bound solves: positive definite
    (mplse, msub and ARE from L^+, the Gramian from an (r, n, n) stack of
    resolvents) and negative definite (msup)."""
    L, n = laplacian(g), g.n
    Lp = spectral.laplacian_pinv(L)
    K = np.stack([np.linalg.inv(L + a * np.eye(n)) for a in (0.05, 0.5, 5.0)])
    return [(Lp, 100.0), (Lp, 0.0), (K, 1.0), (np.linalg.inv(L + 0.05 * np.eye(n)), -20.0)]


@pytest.mark.parametrize("k", range(1, 9))
def test_resolvent_ones_matches_a_solve_per_set(k):
    # elimination without pivoting over the whole stack, against LAPACK set
    # by set, for stacks of one row and of many; each row of y to a relative
    # 1e-12 of its largest entry (y_S is 0 for shift 0)
    for g in (random_connected_graph(12, 0.4, 3), random_tree(12, 5)):
        S = np.array(list(itertools.combinations(range(1, 13), k)))[::7]
        for F, shift in _resolvent_cases(g):
            for stack in (S, S[:1]):
                got, want = resolvent_ones(F, stack, shift), _resolvent_reference(F, stack, shift)
                assert got.shape == want.shape == F.shape[:-2] + (len(stack), 12)
                scale = np.abs(want).max(axis=-1)
                assert np.all(np.abs(got - want).max(axis=-1) <= 1e-12 * scale), (g, k, shift)


def test_resolvent_ones_raises_on_a_singular_system():
    # a zero pivot: the k x k block of all ones, and a zero matrix
    S = np.array([[1, 2], [2, 3]])
    for F in (np.ones((4, 4)), np.zeros((3, 4, 4))):
        with np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError):
            resolvent_ones(F, S, 0.0)
    assert np.isfinite(resolvent_ones(np.ones((4, 4)), S, 1.0)).all()


def test_non_ports_lists_the_other_nodes_ascending():
    from spectral_kcenter.spectral import non_ports

    got = non_ports(5, np.array([[1, 3], [5, 2], [4, 1]]))
    assert got.tolist() == [[1, 3, 4], [0, 2, 3], [1, 2, 4]]
    assert non_ports(3, np.array([[2]])).tolist() == [[0, 2]]


def test_sym_eigen_fails_closed_when_its_check_overflows():
    # ||A||_F overflows to inf past about 1.3e154, which would pass any residual
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="residual check overflowed"):
            sym_eigen(np.diag([1e200, 1.0]))
        with pytest.raises(NumericError, match="residual check overflowed"):
            sym_eigen(np.stack([np.eye(2), np.diag([1e200, 1.0])]))


def _symmetric_stack(m, n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n, n))
    return A + np.swapaxes(A, -2, -1)


def _eigh_calls(monkeypatch, change=None):
    """Patch np.linalg.eigh to record, as each call ends, its stack length
    (0 for one matrix) and whether it ran on the thread that patched it;
    ``change(A, values, vectors)`` may alter the pairs or raise."""
    eigh = np.linalg.eigh
    caller = threading.get_ident()
    calls = []

    def recorded(A):
        try:
            values, vectors = eigh(A)
            return change(A, values, vectors) if change else (values, vectors)
        finally:
            calls.append((len(A) if A.ndim == 3 else 0, threading.get_ident() == caller))

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return calls


def _halves(m):
    """The eigh calls of a split (m, n, n) stack: the first half on the
    calling thread, the second off it."""
    h = (m + 1) // 2
    return [(h, True), (m - h, False)]


# m n^3 at, and just below, _SPLIT_WORK for n = 32
_AT_SPLIT = -(-spectral._SPLIT_WORK // 32 ** 3)


@pytest.mark.parametrize("m, n", [(11, 30), (2, 51), (_AT_SPLIT, 32), (_AT_SPLIT - 1, 32)])
def test_split_stack_keeps_the_bits_of_one_by_one_solves(monkeypatch, m, n):
    # odd m, m = 2, and the stacks at and just below the split: each half is
    # one eigh call, and every pair and residual keeps the bits of one call
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    A = _symmetric_stack(m, n)
    split = m * n ** 3 >= spectral._SPLIT_WORK
    calls = _eigh_calls(monkeypatch)
    dec = sym_eigen(A)
    assert sorted(calls) == (sorted(_halves(m)) if split else [(m, True)])
    monkeypatch.undo()
    for i in range(m):
        values, vectors = np.linalg.eigh(A[i])
        assert values.tobytes() == dec.values[i].tobytes()
        assert vectors.tobytes() == dec.vectors[i].tobytes()
    T = A - np.swapaxes(A, -2, -1)
    one = spectral._solved(A, T.copy())
    two = spectral._solved_in_halves(A, T.copy())
    assert [x.tobytes() for x in one] == [x.tobytes() for x in two]


def test_split_lyapunov_stack_keeps_the_bits_of_one_by_one_solves(monkeypatch):
    # a Gramian batch at n = 20: 40 grounded Laplacians, split in sym_eigen
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    L = laplacian(random_connected_graph(20, 0.4, 1))
    S = np.array(list(itertools.combinations(range(20), 2))[:40])
    G = np.zeros((40, 20, 20))
    G[np.arange(40)[:, None], S, S] = 1.0
    calls = _eigh_calls(monkeypatch)
    X = lyapunov_solve(-(L + G), G)
    assert sorted(calls) == sorted(_halves(40))
    for i in range(40):
        assert X[i].tobytes() == lyapunov_solve(-(L + G[i]), G[i]).tobytes()


def test_one_cpu_solves_a_large_stack_in_one_call(monkeypatch):
    # a process allowed one CPU makes one eigh call and starts no thread
    def no_thread(*args):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(_thread, "start_new_thread", no_thread)
    calls = _eigh_calls(monkeypatch)
    sym_eigen(_symmetric_stack(11, 30))
    assert calls == [(11, True)]
    # without affinity masks, the count of CPUs, and 1 where that is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert spectral._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spectral._cpus() == 1


_MARK = 1e3  # a diagonal entry no entry of _symmetric_stack comes near


def _marked_stack(bad):
    A = _symmetric_stack(11, 30)
    for j, i in enumerate(bad):
        A[i, 0, 0] = _MARK + j
    return A


def _serial_and_split_errors(monkeypatch, A, change):
    """The NumericError texts of sym_eigen(A) on one CPU and on two, and
    the eigh calls each made."""
    calls = _eigh_calls(monkeypatch, change)
    out = []
    for cpus in (1, 2):
        monkeypatch.setattr(spectral, "_cpus", lambda: cpus)
        calls.clear()
        with pytest.raises(NumericError) as err:
            sym_eigen(A)
        out.append((str(err.value), sorted(calls)))
    return out


@pytest.mark.parametrize("bad", [2, 9], ids=["first-half", "second-half"])
def test_split_stack_raises_the_serial_convergence_error(monkeypatch, bad):
    # a LinAlgError in either half is the serial NumericError, raised once
    # both halves are done; the second half is slowed so that an early
    # return shows
    caller = threading.get_ident()

    def change(M, values, vectors):
        if threading.get_ident() != caller:
            time.sleep(0.05)
        if np.any(M[..., 0, 0] == _MARK):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return values, vectors

    A = _marked_stack([bad])
    (serial, one), (split, two) = _serial_and_split_errors(monkeypatch, A, change)
    assert serial == split == "eigensolver failed to converge: Eigenvalues did not converge"
    assert one == [(11, True)]
    assert two == sorted(_halves(11))
    monkeypatch.undo()
    _check_next_split_succeeds(monkeypatch, A)


@pytest.mark.parametrize("bad", [[2], [9], [2, 9], [9, 2]])
def test_split_stack_residual_error_names_the_serial_matrix(monkeypatch, bad):
    # one perturbed pair in either half, or one in each with the second
    # furthest out: the split names the matrix the serial check names
    def change(M, values, vectors):
        vectors = vectors.copy()
        for j, size in enumerate((1e-6, 1e-5)):
            vectors[M[:, 0, 0] == _MARK + j, :, 0] += size
        return values, vectors

    A = _marked_stack(bad)
    (serial, _), (split, two) = _serial_and_split_errors(monkeypatch, A, change)
    assert serial == split and serial.startswith("eigenpair residual")
    assert two == sorted(_halves(11))
    monkeypatch.undo()
    _check_next_split_succeeds(monkeypatch, A)


def _check_next_split_succeeds(monkeypatch, A):
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    dec = sym_eigen(A)
    values, vectors = np.linalg.eigh(A)
    assert dec.values.tobytes() == values.tobytes()
    assert dec.vectors.tobytes() == vectors.tobytes()


def _threads_return_to(count):
    """Whether the number of running threads is back at ``count`` within
    5 s: a split's thread ends just after handing back its half."""
    deadline = time.monotonic() + 5
    while _thread._count() != count and time.monotonic() < deadline:
        time.sleep(0.001)
    return _thread._count() == count


def test_callers_on_many_threads_each_split_on_their_own(monkeypatch):
    # four callers splitting at once each keep the bits of one eigh call,
    # and once they are done no thread that a split started is left
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    before = _thread._count()
    stacks = [_symmetric_stack(11, 30, seed) for seed in range(4)]
    expected = [np.linalg.eigh(A) for A in stacks]
    start = threading.Barrier(len(stacks))
    got = [[] for _ in stacks]

    def caller(i):
        start.wait()
        for _ in range(3):
            got[i].append(sym_eigen(stacks[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(stacks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert _threads_return_to(before)
    for (values, vectors), decs in zip(expected, got):
        assert len(decs) == 3
        for dec in decs:
            assert dec.values.tobytes() == values.tobytes()
            assert dec.vectors.tobytes() == vectors.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_makes_its_own_worker(monkeypatch):
    # a child forked after a split inherits no thread of it: its own split
    # must start and finish its own, and leave none running
    monkeypatch.setattr(spectral, "_cpus", lambda: 2)
    A = _symmetric_stack(11, 30)
    expected = sym_eigen(A).vectors.tobytes()
    pid = os.fork()
    if pid == 0:  # the child leaves through os._exit, whatever happens
        code = 1
        try:
            before = _thread._count()
            code = 0 if sym_eigen(A).vectors.tobytes() == expected else 2
            code = code or (0 if _threads_return_to(before) else 3)
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split never finished")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
