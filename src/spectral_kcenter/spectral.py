"""Dense symmetric eigensolving of single matrices and stacks, tridiagonal
characteristic polynomials, and the small Lyapunov/Riccati solves behind the
control-theoretic scores.

``sym_eigen`` and ``lyapunov_solve`` take one matrix or an (..., n, n) stack
and solve a stack in one ``eigh`` call, bitwise equal to solving each matrix
alone. ``are_charging_energy`` and ``gramian_extraction_energy`` score one
port set or an (m, k) array of port sets: the Gramian as one stacked
Lyapunov solve; ARE builds all its pencils as one stack from one template,
runs one QZ solve per set (LAPACK's ``gges`` and ``tgsen`` called directly,
their lookup, workspace query and finiteness check done once per batch) and
runs its checks on the stack of results. A batch raises the error its first
failing set raises alone.
Polynomials are plain 1-D float arrays of coefficients in ascending degree.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy import linalg as sla

from .errors import IllPosedError, NumericError, ParameterError, StabilityError

EIGEN_RESIDUAL_FACTOR = 1e-9
DEFAULT_RHO = 1e-6  # the ARE regularizer of MetricParams and are_charging_energy


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
    """Solve A^T X + X A + W = 0 for symmetric Hurwitz A by eigenbasis
    transform, for one matrix pair or for each pair of matching (..., n, n)
    stacks, by one stacked ``sym_eigen`` call; each solution is bitwise equal
    to solving its pair alone.

    Each A_i must be negative definite (else StabilityError) and each X_i
    must satisfy ||A_i^T X_i + X_i A_i + W_i||_F <= 1e-9 (1 + ||W_i||_F)
    (else NumericError); a failing stack reports the matrix furthest out.
    """
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    if W.shape != A.shape:
        raise ParameterError(f"shapes differ: A {A.shape}, W {W.shape}")
    dec = sym_eigen(A)
    top = dec.values[..., -1]
    if np.any(top >= -1e-12):
        raise StabilityError(
            f"matrix is not negative definite (lambda_max = {top.max():.3e})")
    V = dec.vectors
    Vt = np.swapaxes(V, -2, -1)
    Wt = Vt @ W @ V
    denom = dec.values[..., :, None] + dec.values[..., None, :]
    X = V @ (Wt / (-denom)) @ Vt
    X = 0.5 * (X + np.swapaxes(X, -2, -1))
    resid = np.linalg.norm(np.swapaxes(A, -2, -1) @ X + X @ A + W, axis=(-2, -1))
    tol = 1e-9 * (1.0 + np.linalg.norm(W, axis=(-2, -1)))
    if np.any(resid > tol):
        i = np.argmax(resid / tol)  # the pair furthest over its bound
        raise NumericError(
            f"Lyapunov residual {resid.flat[i]:.3e} exceeds {tol.flat[i]:.3e}")
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


def check_positive(name: str, value: float) -> float:
    """The value, which must be finite and positive (NaN and inf are not)."""
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be finite and positive, got {value}")
    return value


def _port_sets(n: int, ports) -> tuple[np.ndarray, bool]:
    """One port set or an (m, k) array of them as an (m, k) int array, with
    whether ``ports`` was one set. Every row is checked like ``check_ports``."""
    if np.ndim(ports) != 2:
        return np.array([check_ports(n, ports)], dtype=np.intp), True
    S = np.asarray(ports)
    if S.dtype.kind not in "iu":
        raise ParameterError(f"port sets must hold node indices, got dtype {S.dtype}")
    if S.shape[1] == 0:
        raise ParameterError("port set is empty")
    if S.size and not (S.min() >= 1 and S.max() <= n):
        raise ParameterError(f"port out of range 1..{n}")
    ordered = np.sort(S, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise ParameterError("a port set repeats a node")
    return S, False


def are_charging_energy(L: np.ndarray, ports, rho: float = DEFAULT_RHO) -> float | np.ndarray:
    """Minimum regularized energy to charge the RC network to all-ones
    through the given ports: a float for one port set, an array of m values
    for an (m, k) array of port sets.

    The charging trajectory runs from rest to the consensus state; the
    supplied power v^T i is regularized by rho*(|i|^2 + |x|^2) so the
    free-horizon problem has a unique stabilizing optimum (the raw
    passivity cost is port-independent: reversible quasistatic charging
    always costs exactly the stored energy n/2). Solved on the stable
    deflating subspace of the extended Hamiltonian pencil, which keeps
    full accuracy for small rho and for ports on symmetry axes.

    A batch builds all m pencils at once, one (N, N, m) Fortran-ordered
    stack of the port-independent template with each set's 4k port entries
    written in; the finiteness check, the LAPACK lookup and the workspace
    query run once. Each set then gets its own ``gges`` + ``tgsen`` solve
    (``scipy.linalg.ordqz(sort="lhp")`` without the left Schur vectors, bit
    for bit), and the checks and the value are computed on the stack of
    results. A batch raises the error that its first failing set raises when
    scored alone; the sets after it are not scored.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    check_positive("rho", rho)
    S, single = _port_sets(n, ports)
    m, k = S.shape
    N = 2 * n + k
    # Time-reversed LQ data: zdot = L z - B w, cost z'Qz + 2 z'N w + w'R w,
    # here with B = N = 0; each port set writes its entries of -B, -N, N'
    # and -B' into its own pencil of the stack.
    B = np.zeros((n, k))
    template = np.asfortranarray(np.block([
        [L, np.zeros((n, n)), -B],
        [-rho * np.eye(n), -L.T, -0.5 * B],
        [0.5 * B.T, -B.T, rho * np.eye(k)],
    ]))
    E = np.zeros((N, N), order="F")
    E[: 2 * n, : 2 * n] = np.eye(2 * n)
    stable_schur = _stable_schur_solver(template, E)
    # each pencil M[:, :, i] is Fortran-contiguous and is solved in place
    M = np.empty((N, N, m), order="F")
    M[...] = template[:, :, None]
    rows, cols, sets = S - 1, 2 * n + np.arange(k), np.arange(m)[:, None]
    M[rows, cols, sets] = -1.0
    M[n + rows, cols, sets] = -0.5
    M[cols, rows, sets] = 0.5
    M[cols, n + rows, sets] = -1.0
    alpha = np.empty((m, N), dtype=complex)
    beta = np.empty((m, N))
    # the first n right Schur vectors, top 2n rows; each set's columns stay
    # contiguous as in Z, so the products in _stable_energies run the BLAS
    # calls they would run on Z itself (a C-ordered copy changes the bits)
    U = np.empty((m, n, 2 * n)).transpose(0, 2, 1)
    solved, qz_error = m, None
    for i in range(m):
        try:
            alpha[i], beta[i], Z = stable_schur(M[:, :, i])
        except NumericError as exc:
            solved, qz_error = i, exc
            break
        U[i] = Z[: 2 * n, : n]
    values = _stable_energies(alpha[:solved], beta[:solved], U[:solved], n, qz_error)
    return float(values[0]) if single else values


def _no_select(alphar, alphai, beta):
    return None


def _stable_schur_solver(template: np.ndarray, E: np.ndarray):
    """A solver of the pencils (M, E), for every M that differs from the
    Fortran-ordered ``template`` only in finite entries, returning
    ``(alpha, beta, Z)``: the generalized eigenvalues and the right Schur
    vectors with the left-half-plane eigenvalues ordered first.

    This is ``scipy.linalg.ordqz(M, E, sort="lhp", output="real")`` made of
    the same ``gges`` and ``tgsen`` calls with the same workspace, so its
    results are bitwise ordqz's; the finiteness check, the LAPACK lookup and
    the workspace query run once here. The left Schur vectors are not
    formed: LAPACK only applies the same rotations to them and never reads
    them back. Every failure raises NumericError with scipy's message, and
    so does a QZ iteration that did not converge, where ordqz only warns.
    """
    if not (np.isfinite(template).all() and np.isfinite(E).all()):
        raise NumericError("QZ decomposition failed: array must not contain infs or NaNs")
    gges, tgsen = sla.get_lapack_funcs(("gges", "tgsen"), (template, E))
    N = template.shape[0]
    # the query ordqz makes, left Schur vectors included, so the workspace
    # and with it the blocking inside gges are ordqz's
    lwork = gges(_no_select, template, E, lwork=-1)[-2][0].real.astype(int)
    unused_q = np.empty((N, N), order="F")  # tgsen's Q, never touched when wantq=0

    def solve(M):
        AA, BB, _, alphar, alphai, beta, _, Z, _, info = gges(
            _no_select, M, E, jobvsl=0, lwork=lwork, overwrite_a=1, sort_t=0)
        if info != 0:
            raise NumericError(f"QZ decomposition failed: {_gges_failure(info, N)}")
        # scipy's "lhp" sort: Re(alpha/beta) < 0, and never for beta = 0
        alpha = alphar + alphai * 1.j
        select = np.zeros(N, dtype=bool)
        nonzero = beta != 0
        select[nonzero] = np.real(alpha[nonzero] / beta[nonzero]) < 0.0
        _, _, alphar, alphai, beta, _, Z, _, _, _, _, info = tgsen(
            select, AA, BB, unused_q, Z, ijob=0, wantq=0, lwork=4 * N + 16,
            liwork=1, overwrite_a=1, overwrite_b=1, overwrite_q=1, overwrite_z=1)
        if info < 0:
            raise NumericError(
                f"QZ decomposition failed: Illegal value in argument {-info} of tgsen")
        if info == 1:
            raise NumericError(
                "QZ decomposition failed: Reordering of (A, B) failed because the "
                "transformed matrix pair (A, B) would be too far from generalized "
                "Schur form; the problem is very ill-conditioned. (A, B) may have "
                "been partially reordered.")
        return alphar + alphai * 1.j, beta, Z

    return solve


def _gges_failure(info: int, N: int) -> str:
    """scipy's message for a nonzero ``gges`` status on an N x N pencil."""
    if info < 0:
        return f"Illegal value in argument {-info} of gges"
    if info <= N:
        return ("The QZ iteration failed. (a,b) are not in Schur form, but "
                "ALPHAR(j), ALPHAI(j), and BETA(j) should be correct for "
                f"J={info - 1},...,N")
    return {N + 1: "Something other than QZ iteration failed",
            N + 2: "After reordering, roundoff changed values of some complex "
                   "eigenvalues so that leading eigenvalues in the Generalized "
                   "Schur form no longer satisfy sort=True. This could also be "
                   "due to scaling.",
            N + 3: "Reordering failed in <s,d,c,z>tgsen"}.get(info, f"gges returned info={info}")


def _stable_energies(alpha: np.ndarray, beta: np.ndarray, U: np.ndarray, n: int,
                     next_error: NumericError | None) -> np.ndarray:
    """1'X1 for each of a stack of m pencils, from their generalized
    eigenvalues alpha/beta, (m, N) and ordered stable first, and U, the top
    2n rows of their first n right Schur vectors, (m, 2n, n).

    Every set is checked, in this order: imaginary-axis margin, stable
    dimension, the least-squares solve, reachability of the all-ones target,
    sign. Raises the error of the first set that fails a check, or else
    ``next_error`` (if not None), the error of the set after the stack.
    """
    finite = np.abs(beta) > 1e-12 * np.abs(alpha).max(axis=1, initial=1.0)[:, None]
    real = (alpha / np.where(finite, beta, 1.0)).real
    margin = np.where(finite, np.abs(real), np.inf).min(axis=1)
    n_stable = np.sum(finite & (real < 0), axis=1)
    # each check runs on the sets before the first failure found so far, so
    # `error` ends as the first failing set's error, from its first failing check
    end, error = len(alpha), next_error
    end, error = _first_failure(margin < 1e-10, end, error, lambda i: IllPosedError(
        "Hamiltonian pencil has spectrum within 1e-10 of the imaginary axis"))
    end, error = _first_failure(n_stable != n, end, error, lambda i: IllPosedError(
        f"stable deflating subspace has dimension {n_stable[i]} != {n}"))
    U1, U2 = U[:, :n], U[:, n:]
    ones = np.ones(n)
    coeff = np.empty((end, n))
    for i in range(end):
        try:
            coeff[i], *_ = np.linalg.lstsq(U1[i], ones, rcond=1e-12)
        except np.linalg.LinAlgError as exc:
            end = i
            error = NumericError(f"least-squares solve on the stable subspace failed: {exc}")
            break
    coeff = coeff[:end, :, None]
    # a gemv and then a dot per set, as for one set alone: one product over
    # the whole (end, n) stack would run a different BLAS call
    r = (U1[:end] @ coeff)[:, :, 0] - ones
    residual = np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])
    values = (ones @ (U2[:end] @ coeff))[:, 0]
    end, error = _first_failure(residual > 1e-8 * np.sqrt(n), end, error, lambda i: IllPosedError(
        "all-ones target is not reachable on the stable subspace"))
    end, error = _first_failure(values < 0, end, error, lambda i: NumericError(
        f"charging energy came out negative ({values[i]:.3e})"))
    if error is not None:
        raise error
    return values


def _first_failure(fails: np.ndarray, end: int, error, make_error):
    """``(end, error)`` moved to the first set before ``end`` that ``fails``,
    with ``make_error(i)`` as its error; unchanged if none does."""
    bad = np.flatnonzero(fails[:end])
    return (int(bad[0]), make_error(int(bad[0]))) if bad.size else (end, error)


def gramian_extraction_energy(L: np.ndarray, ports) -> float | np.ndarray:
    """Energy dissipated in unit port resistors when the network discharges
    from the all-ones state: a float for one port set, an array of m values
    for an (m, k) array of port sets.

    With B the port selector and A = -(L + B B^T), returns 1^T Q 1 for the
    observability Gramian Q solving A^T Q + Q A + B B^T = 0. The grounded
    system is stable for any connected graph and nonempty port set. A
    batch is one stacked ``lyapunov_solve``.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    S, single = _port_sets(n, ports)
    G = np.zeros((len(S), n, n))
    G[np.arange(len(S))[:, None], S - 1, S - 1] = 1.0
    Q = lyapunov_solve(-(L + G), G)
    ones = np.ones(n)
    # a row-vector product per matrix, as one solve computes it; ones @ Q @
    # ones on a stack runs a gemv over the rows and changes the last bits
    values = ((ones @ Q)[:, None, :] @ ones)[:, 0]
    return float(values[0]) if single else values
