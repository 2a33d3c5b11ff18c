"""Dense symmetric eigensolving of single matrices and stacks, tridiagonal
characteristic polynomials, and the small Lyapunov/Riccati solves behind the
control-theoretic scores.

Polynomials are plain 1-D float arrays of coefficients in ascending degree.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy import linalg as sla

from .errors import IllPosedError, NumericError, ParameterError, StabilityError

EIGEN_RESIDUAL_FACTOR = 1e-9


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(A: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition, with a residual check, of a symmetric matrix
    or of each matrix A_i of an (..., n, n) stack, by one ``eigh`` call that
    is bitwise equal to solving each matrix alone.

    Each A_i must be symmetric within 1e-12 and free of NaN (else
    ParameterError), and its pairs must satisfy ||A_i v - lam v|| <=
    1e-9 (1 + ||A_i||_F) columnwise (else NumericError, not silently
    inaccurate pairs).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ParameterError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    # NaN fails the comparison, so a NaN entry is rejected here too
    if not (np.abs(A - np.swapaxes(A, -2, -1)).max(initial=0.0) <= 1e-12):
        raise ParameterError("matrix is not symmetric")
    try:
        values, vectors = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    tol = EIGEN_RESIDUAL_FACTOR * (1.0 + np.linalg.norm(A, axis=(-2, -1)))
    residual = np.linalg.norm(A @ vectors - vectors * values[..., None, :], axis=-2)
    worst = residual.max(axis=-1, initial=0.0)
    if np.any(worst > tol):
        i = np.argmax(worst / tol)  # the matrix furthest over its bound
        raise NumericError(f"eigenpair residual {worst.flat[i]:.3e} exceeds {tol.flat[i]:.3e}")
    return EigenDecomposition(values, vectors)


def lambda_min(A: np.ndarray) -> float:
    return float(sym_eigen(A).values[0])


def lambda_max(A: np.ndarray) -> float:
    return float(sym_eigen(A).values[-1])


def tridiag_charpoly(a: Sequence[float], b: Sequence[float], c: Sequence[float]) -> np.ndarray:
    """det(sI - Q_m) for the tridiagonal matrix with diagonal a, sub b, super c.

    Three-term recursion psi_m = (s - a_m) psi_{m-1} - b_m c_m psi_{m-2}
    seeded with psi_0 = 1, psi_1 = s - a_1. m = 0 gives the constant 1.
    """
    a = list(a)
    b = list(b)
    c = list(c)
    m = len(a)
    if len(b) != max(m - 1, 0) or len(c) != max(m - 1, 0):
        raise ParameterError(
            f"diagonal lengths mismatch: |a|={m}, |b|={len(b)}, |c|={len(c)}")
    prev2 = np.array([1.0])
    if m == 0:
        return prev2
    prev = np.array([-a[0], 1.0])
    for i in range(1, m):
        out = np.zeros(i + 2)
        out[1:] += prev                      # s * psi_{i}
        out[:-1] -= a[i] * prev              # -a_{i+1} * psi_{i}
        out[: len(prev2)] -= b[i - 1] * c[i - 1] * prev2
        prev2, prev = prev, out
    return prev


def path_charpoly_lowcoeffs(n: int) -> tuple[float, float, float, float]:
    """Low-order coefficients of det(sI + L_n) for the n-node path.

    Returns the coefficients of s, s^2, s^3 and s^(n-1):
    (n, n(n^2-1)/6, n(n^2-1)(n^2-4)/120, 2(n-1)).
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    c1 = float(n)
    c2 = n * (n * n - 1) / 6.0
    c3 = n * (n * n - 1) * (n * n - 4) / 120.0
    cn1 = 2.0 * (n - 1)
    return (c1, c2, c3, cn1)


def lyapunov_solve(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A + W = 0 for symmetric Hurwitz A by eigenbasis transform."""
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    dec = sym_eigen(A)
    if dec.values[-1] >= -1e-12:
        raise StabilityError(
            f"matrix is not negative definite (lambda_max = {dec.values[-1]:.3e})")
    V = dec.vectors
    Wt = V.T @ W @ V
    denom = dec.values[:, None] + dec.values[None, :]
    X = V @ (Wt / (-denom)) @ V.T
    X = 0.5 * (X + X.T)
    resid = np.linalg.norm(A.T @ X + X @ A + W, "fro")
    tol = 1e-9 * (1.0 + np.linalg.norm(W, "fro"))
    if resid > tol:
        raise NumericError(f"Lyapunov residual {resid:.3e} exceeds {tol:.3e}")
    return X


def check_ports(n: int, ports: Iterable[int]) -> tuple[int, ...]:
    """The port set as a tuple, which must hold distinct nodes in 1..n and
    at least one of them."""
    ports = tuple(ports)
    if not ports:
        raise ParameterError("port set is empty")
    for j in ports:
        if not isinstance(j, (int, np.integer)):
            raise ParameterError(f"port {j!r} is not a node index")
        if not 1 <= j <= n:
            raise ParameterError(f"port {j} out of range 1..{n}")
    if len(set(ports)) != len(ports):
        raise ParameterError(f"port set {ports} repeats a node")
    return ports


def _port_matrix(n: int, ports: Sequence[int]) -> np.ndarray:
    ports = check_ports(n, ports)
    B = np.zeros((n, len(ports)))
    for col, j in enumerate(ports):
        B[j - 1, col] = 1.0
    return B


def are_charging_energy(L: np.ndarray, ports: Sequence[int], rho: float = 1e-6) -> float:
    """Minimum regularized energy to charge the RC network to all-ones
    through the given ports.

    The charging trajectory runs from rest to the consensus state; the
    supplied power v^T i is regularized by rho*(|i|^2 + |x|^2) so the
    free-horizon problem has a unique stabilizing optimum (the raw
    passivity cost is port-independent: reversible quasistatic charging
    always costs exactly the stored energy n/2). Solved on the stable
    deflating subspace of the extended Hamiltonian pencil, which keeps
    full accuracy for small rho and for ports on symmetry axes.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if rho <= 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    B = _port_matrix(n, ports)
    k = B.shape[1]
    # Time-reversed LQ data: zdot = L z - B w, cost z'Qz + 2 z'N w + w'R w.
    Q = rho * np.eye(n)
    N = 0.5 * B
    R = rho * np.eye(k)
    M = np.block([
        [L, np.zeros((n, n)), -B],
        [-Q, -L.T, -N],
        [N.T, -B.T, R],
    ])
    E = np.zeros((2 * n + k, 2 * n + k))
    E[: 2 * n, : 2 * n] = np.eye(2 * n)
    try:
        _, _, alpha, beta, _, Z = sla.ordqz(M, E, sort="lhp", output="real")
    except Exception as exc:  # LinAlgError or convergence failure
        raise NumericError(f"QZ decomposition failed: {exc}") from exc
    finite = np.abs(beta) > 1e-12 * np.abs(alpha).max(initial=1.0)
    eigs = alpha[finite] / beta[finite]
    if np.abs(eigs.real).min(initial=np.inf) < 1e-10:
        raise IllPosedError("Hamiltonian pencil has spectrum within 1e-10 of the imaginary axis")
    n_stable = int(np.sum(eigs.real < 0))
    if n_stable != n:
        raise IllPosedError(f"stable deflating subspace has dimension {n_stable} != {n}")
    U1 = Z[:n, :n]
    U2 = Z[n: 2 * n, :n]
    ones = np.ones(n)
    coeff, *_ = np.linalg.lstsq(U1, ones, rcond=1e-12)
    if np.linalg.norm(U1 @ coeff - ones) > 1e-8 * np.sqrt(n):
        raise IllPosedError("all-ones target is not reachable on the stable subspace")
    value = float(ones @ (U2 @ coeff))
    if value < 0:
        raise NumericError(f"charging energy came out negative ({value:.3e})")
    return value


def gramian_extraction_energy(L: np.ndarray, ports: Sequence[int]) -> float:
    """Energy dissipated in unit port resistors when the network discharges
    from the all-ones state.

    With B the port selector and A = -(L + B B^T), returns 1^T Q 1 for the
    observability Gramian Q solving A^T Q + Q A + B B^T = 0. The grounded
    system is stable for any connected graph and nonempty port set.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    B = _port_matrix(n, ports)
    G = B @ B.T
    Q = lyapunov_solve(-(L + G), G)
    ones = np.ones(n)
    return float(ones @ Q @ ones)
