import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_kcenter import (IllPosedError, NumericError, ParameterError,
                              StabilityError, are_charging_energy, figure1_graph,
                              gramian_extraction_energy, lambda_max, lambda_min,
                              laplacian, lyapunov_solve, path_charpoly_lowcoeffs,
                              path_graph, random_connected_graph, relabel,
                              stochastic, sym_eigen, tridiag_charpoly)
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


def test_rayleigh_bounds():
    rng = np.random.default_rng(5)
    for g in (path_graph(6), figure1_graph()):
        A = laplacian(g)
        lo, hi = lambda_min(A), lambda_max(A)
        for _ in range(20):
            x = rng.normal(size=g.n)
            q = x @ A @ x / (x @ x)
            assert lo - 1e-9 <= q <= hi + 1e-9


def test_lambda_extremes_examples():
    assert abs(lambda_min(laplacian(path_graph(9)))) <= 1e-9
    assert abs(lambda_max(laplacian(path_graph(3))) - 3) <= 1e-9
    assert abs(lambda_max(stochastic(path_graph(3), 0.25)) - 1) <= 1e-9


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
    """Stable-first eigenvalues and Schur vector blocks of n = 2 pencils
    (order N = 5) that pass every check of ``_stable_energies``, or fail
    the checks named in each entry of ``defects``."""
    alpha = np.tile(np.array([-1, -1, 1, 1, 1], dtype=complex), (len(defects), 1))
    beta = np.ones((len(defects), 5))
    U = np.tile(np.eye(2), (len(defects), 2, 1))
    for i, defect in enumerate(defects):
        if "margin" in defect:
            alpha[i, 0] = -1e-11
        if "dimension" in defect:
            alpha[i, 1] = 1.0
        if "reach" in defect:
            U[i, 1, 1] = 0.0
        if "sign" in defect:
            U[i, 2:] *= -1
    return alpha, beta, U


def test_stable_energies_raise_the_first_failing_sets_error():
    # the stacked checks report what the first failing set reports alone,
    # and within a set the first check it fails; the QZ failure of the set
    # after the stack comes last
    from spectral_kcenter.spectral import _stable_energies

    def outcome(defects, next_error=None):
        try:
            return _stable_energies(*_pencil_results(defects), 2, next_error).tolist()
        except NumericError as exc:
            return type(exc), str(exc)

    assert outcome([(), ()]) == [2.0, 2.0]
    kinds = [(), ("sign",), ("reach",), ("reach", "sign"), ("dimension",),
             ("dimension", "reach"), ("margin",), ("margin", "dimension", "sign")]
    alone = {kind: outcome([kind]) for kind in kinds}
    assert alone[("sign",)] == (NumericError, "charging energy came out negative (-2.000e+00)")
    assert alone[("reach",)] == alone[("reach", "sign")] == (
        IllPosedError, "all-ones target is not reachable on the stable subspace")
    assert alone[("dimension",)] == alone[("dimension", "reach")] == (
        IllPosedError, "stable deflating subspace has dimension 1 != 2")
    assert alone[("margin",)] == alone[("margin", "dimension", "sign")] == (
        IllPosedError, "Hamiltonian pencil has spectrum within 1e-10 of the imaginary axis")
    qz = NumericError("QZ decomposition failed: Reordering failed in <s,d,c,z>tgsen")
    for a, b in itertools.product(kinds, repeat=2):
        first = alone[a] if a else alone[b]
        if first == [2.0]:  # no set fails
            assert outcome([(), a, b]) == [2.0] * 3
            assert outcome([(), a, b], qz) == (NumericError, str(qz))
        else:
            assert outcome([(), a, b]) == outcome([(), a, b], qz) == first, (a, b)


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
