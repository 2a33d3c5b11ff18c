"""Dense symmetric eigensolving of single matrices and stacks, and the
small Lyapunov/Riccati solves behind the control-theoretic scores.

``sym_eigen`` and ``lyapunov_solve`` take one matrix or an (..., n, n) stack
and solve it bitwise equal to solving each matrix alone: in one ``eigh``
call, or, for an (m, n, n) stack with m n^3 >= _SPLIT_WORK on a process
allowed two or more CPUs, in two ``eigh`` calls on its two halves at once,
the second on a thread started for that call and done before it returns.
NumPy's ``eigh`` loops over a stack calling LAPACK once per matrix, so the
halves' matrices get the very calls they get in one stack, and their bits. ``are_charging_energy`` and
``gramian_extraction_energy`` score one
port set or an (m, k) array of port sets: the Gramian as one stacked
Lyapunov solve; ARE as a loop over the sets, each set's pencil copied from
one template and given one QZ solve (LAPACK's ``gges`` and ``tgsen`` called
directly, their lookup, workspace query and finiteness check done once per
batch) and its checks. A batch raises the error its first failing set
raises alone. ``are_bounder`` gives each set a proven lower bound on its
ARE value, with no QZ solve, and ``gramian_bounder`` a proven upper bound on
its Gramian value, with no Lyapunov solve: their vectors come from factors
of L built once per selection, L^+ or the resolvents (L + aI)^(-1), and the
k x k systems of a whole stack of port sets, solved together by elimination
(``resolvent_ones``), so no port set gets a LAPACK call of its own. They
only compute: a factor or solve that fails raises, and
``metrics._subset_bound`` decides what that means.
``scipy.linalg`` is imported by the first ARE batch, not with this module:
everything else here needs only NumPy, and SciPy's import costs more than
NumPy's, so a process that never scores ARE never loads it.
"""

from __future__ import annotations

import _thread
import math
import os
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import IllPosedError, NumericError, ParameterError, StabilityError

EIGEN_RESIDUAL_FACTOR = 1e-9
LYAPUNOV_RESIDUAL_FACTOR = 1e-9
DEFAULT_RHO = 1e-6  # the ARE regularizer of MetricParams and are_charging_energy
GRAMIAN_SHIFTS = 4  # r, the resolvents behind each Gramian bound
_ULP = np.finfo(float).eps
_SHIFT_STEPS = np.arange(GRAMIAN_SHIFTS) / (GRAMIAN_SHIFTS - 1)
# an (m, n, n) stack of at least this m n^3 is solved in two halves at once:
# the split costs 100-300 us (starting its thread about 40 us, the rest the
# two halves' eigh calls slowing each other), so it loses below about 0.4 ms
# of serial work; from this size (about 1 ms) it saved 13-38% in 24 of 25
# cases with BLAS on one thread, and about nothing above order 25 with
# OpenBLAS's default two threads (2-vCPU Xeon at 2.0 GHz; CHANGES.md has
# the tables)
_SPLIT_WORK = 2 ** 18


class EigenDecomposition(NamedTuple):
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eigen(A: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition, with a residual check, of a symmetric matrix
    or of each matrix A_i of an (..., n, n) stack, bitwise equal to solving
    each matrix alone.

    A stack is one ``eigh`` call, except an (m, n, n) stack with m >= 2 and
    m n^3 >= _SPLIT_WORK on a process allowed two or more CPUs: its first
    half is solved on the calling thread while its second is solved on a
    thread started for this call, each half by one ``eigh`` call and its
    residual products. ``eigh`` solves a stack one matrix at a time, so
    every pair keeps its bits. The call waits for both halves, then joins
    them and runs the checks below over the whole stack, so it raises what
    one call would: a convergence failure in either half, or the residual
    error naming the matrix furthest over its bound. Nothing of the split
    outlives the call, so callers on many threads, and forked children,
    each split on their own.

    Each A_i must be symmetric within 1e-12 and free of NaN (else
    ParameterError), and its pairs must satisfy ||A_i v - lam v|| <=
    1e-9 (1 + ||A_i||_F) columnwise (else NumericError, not silently
    inaccurate pairs). A bound or a residual that overflows to inf is a
    NumericError too: the check cannot be skipped unseen.

    The checks make one pass over in-place temporaries: A - A' (its
    largest entry is its largest |entry|, as it is antisymmetric), then the
    residual A V - V diag(lam) and the squared sums (``_sq_norms``, which
    makes no temporary and does not warn), with the square root taken of
    each matrix's largest column sum. ||A_i||_F^2 is checked finite before the
    solve, which also keeps A V from overflowing; after it, one comparison
    passes the residuals, and a NaN or inf one fails it.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1]:
        raise ParameterError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    # NaN fails the comparison, so a NaN entry is rejected here too
    T = A - np.swapaxes(A, -2, -1)
    if not (T.max(initial=0.0) <= 1e-12):
        raise ParameterError("matrix is not symmetric")
    norm2 = _sq_norms(A, "...")
    if not norm2.max(initial=0.0) < math.inf:
        raise NumericError("eigenpair residual check overflowed: entries too large")
    solve = _solved_in_halves if _splits(A) else _solved
    values, vectors, worst = solve(A, T)
    tol = EIGEN_RESIDUAL_FACTOR * (1.0 + np.sqrt(norm2))
    if not (worst <= tol).all():
        raise _residual_error("eigenpair", worst, tol)
    return EigenDecomposition(values, vectors)


def _solved(A: np.ndarray, T: np.ndarray):
    """``eigh`` of A, with each matrix's largest residual column norm
    ||A_i v - lam v||; T, of A's shape, is overwritten as scratch."""
    try:
        values, vectors = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    R = A @ vectors
    R -= np.multiply(vectors, values[..., None, :], out=T)
    return values, vectors, np.sqrt(_sq_norms(R, "...j").max(axis=-1, initial=0.0))


def _splits(A: np.ndarray) -> bool:
    """Whether ``sym_eigen`` solves A in two halves at once."""
    return (A.ndim == 3 and len(A) >= 2 and len(A) * A.shape[-1] ** 3 >= _SPLIT_WORK
            and _cpus() >= 2)


def _solved_in_halves(A: np.ndarray, T: np.ndarray):
    """``_solved`` of an (m, n, n) stack, its first half on this thread
    while a thread started here solves the second, joined; it returns or
    raises only once that thread's half is done, the first half's error
    first."""
    h = (len(A) + 1) // 2
    second = []  # the second half's result or exception
    done = _thread.allocate_lock()
    done.acquire()

    def solve_second():
        try:
            second.append(_solved(A[h:], T[h:]))
        except BaseException as exc:  # raised again on the calling thread
            second.append(exc)
        finally:
            done.release()

    _thread.start_new_thread(solve_second, ())
    try:
        first = _solved(A[:h], T[:h])
    finally:
        done.acquire()
    if isinstance(second[0], BaseException):
        raise second[0]
    return tuple(np.concatenate(pair) for pair in zip(first, second[0]))


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _sq_norms(X: np.ndarray, out: str) -> np.ndarray:
    """Sums of squares of each matrix of X, with ``out`` "..." (per matrix)
    or "...j" (per column), from one ``einsum``: no temporary, and no
    warning where a square overflows to inf."""
    return np.einsum(f"...ij,...ij->{out}", X, X)


def _residual_error(what: str, residual: np.ndarray, tol: np.ndarray) -> NumericError:
    """The error of a residual check that failed, naming the matrix
    furthest over its bound, or the overflow."""
    if not (np.isfinite(tol).all() and np.isfinite(residual).all()):
        return NumericError(f"{what} residual check overflowed: entries too large")
    i = np.argmax(residual / tol)
    return NumericError(f"{what} residual {residual.flat[i]:.3e} exceeds {tol.flat[i]:.3e}")


def lyapunov_solve(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A + W = 0 for symmetric Hurwitz A by eigenbasis
    transform, for one matrix pair or for each pair of matching (..., n, n)
    stacks, by one stacked ``sym_eigen`` call; each solution is bitwise equal
    to solving its pair alone.

    Each W_i must be finite (else ParameterError), each A_i negative
    definite (else StabilityError), and each X_i must satisfy
    ||A_i^T X_i + X_i A_i + W_i||_F <= 1e-9 (1 + ||W_i||_F) (else
    NumericError); a failing stack reports the matrix furthest out. A
    bound or a residual that overflows to inf is a NumericError too, and
    no floating-point warning escapes. The checks run like ``sym_eigen``'s:
    ||W_i||_F^2 checked finite before the solve, one pass over the
    residual, one comparison.
    """
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    if W.shape != A.shape:
        raise ParameterError(f"shapes differ: A {A.shape}, W {W.shape}")
    norm2 = _sq_norms(W, "...")
    if not norm2.max(initial=0.0) < math.inf:
        if not np.isfinite(W).all():
            raise ParameterError("W must be finite")
        raise NumericError("Lyapunov residual check overflowed: entries too large")
    dec = sym_eigen(A)
    top = dec.values[..., -1]
    if np.any(top >= -1e-12):
        raise StabilityError(
            f"matrix is not negative definite (lambda_max = {top.max():.3e})")
    V = dec.vectors
    Vt = np.swapaxes(V, -2, -1)
    # finite A and W can still overflow here when A is far from well
    # conditioned; an inf or NaN residual then fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        Wt = Vt @ W @ V
        denom = dec.values[..., :, None] + dec.values[..., None, :]
        X = V @ (Wt / (-denom)) @ Vt
        X = 0.5 * (X + np.swapaxes(X, -2, -1))
        R = np.swapaxes(A, -2, -1) @ X
        R += X @ A
        R += W
    resid = np.sqrt(_sq_norms(R, "..."))
    tol = LYAPUNOV_RESIDUAL_FACTOR * (1.0 + np.sqrt(norm2))
    if not (resid <= tol).all():
        raise _residual_error("Lyapunov", resid, tol)
    return X


def check_ports(n: int, ports: Iterable[int]) -> tuple[int, ...]:
    """The port set as a tuple, which must hold distinct nodes in 1..n and
    at least one of them."""
    ports = tuple(ports)
    if not ports:
        raise ParameterError("port set is empty")
    for j in ports:
        check_index("port", j, 1, n)
    if len(set(ports)) != len(ports):
        raise ParameterError(f"port set {ports} repeats a node")
    return ports


def check_index(name: str, value: int, lo: int, hi: float = math.inf):
    """Raise ParameterError unless the value is an integer in lo..hi: not a
    float, even an integral one, and not a bool (an int subclass, but True
    is not 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        bound = f">= {lo}" if hi == math.inf else f"in {lo}..{hi}"
        raise ParameterError(f"{name} must be {bound}, got {value}")


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


def non_ports(n: int, S: np.ndarray) -> np.ndarray:
    """The nodes outside each port set: for an (m, k) int array of distinct
    1-based ports in 1..n, the (m, n - k) array of the other nodes, 0-based
    and ascending."""
    keep = np.ones((len(S), n), dtype=bool)
    keep[np.arange(len(S))[:, None], S - 1] = False
    return np.nonzero(keep)[1].reshape(len(S), n - S.shape[1])


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

    A batch is a loop over its port sets: each gets a Fortran copy of the
    port-independent template with its 4k port entries written in, one
    ``gges`` + ``tgsen`` solve (``scipy.linalg.ordqz(sort="lhp")`` without
    the left Schur vectors, bit for bit) and the checks of
    ``_pencil_energy``; the finiteness check, the LAPACK lookup and the
    workspace query run once per batch. A batch raises the error of its
    first failing set, which is the error that set raises when scored
    alone; the sets after it are not scored.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    check_positive("rho", rho)
    S, single = _port_sets(n, ports)
    m, k = S.shape
    template, E = _pencil_template(L, k, rho)
    stable_schur = _stable_schur_solver(template, E)
    cols = 2 * n + np.arange(k)
    values = np.empty(m)
    for i, rows in enumerate(S - 1):
        M = template.copy(order="F")  # solved in place
        M[rows, cols] = -1.0
        M[n + rows, cols] = -0.5
        M[cols, rows] = 0.5
        M[cols, n + rows] = -1.0
        values[i] = _pencil_energy(*stable_schur(M), n)
    return float(values[0]) if single else values


def _pencil_template(L: np.ndarray, k: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """The port-independent (M, E) of the ARE pencil, Fortran-ordered, for
    an n x n float L and k ports:

        M = [[L, 0, -B], [-rho I, -L', -0.5 B], [0.5 B', -B', rho I_k]],
        E = diag(I_2n, 0_k),

    with B = 0: the time-reversed LQ data zdot = L z - B w, cost z'Qz +
    2 z'N w + w'R w, here with B = N = 0; each port set writes its entries
    of -B, -N, N' and -B' into its own copy of M. Written by slice
    assignment, bit for bit the ``np.block`` of those blocks, signed zeros
    included: -0.0 in the -B, -0.5 B and -B' blocks and off the diagonals
    of -rho I and -L', +0.0 everywhere else.
    """
    n = L.shape[0]
    N = 2 * n + k
    M = np.zeros((N, N), order="F")
    E = np.zeros((N, N), order="F")
    M[:n, :n] = L
    np.negative(L.T, out=M[n: 2 * n, n: 2 * n])
    M[:2 * n, 2 * n:] = -0.0  # -B and -0.5 B
    M[2 * n:, n: 2 * n] = -0.0  # -B'
    M[n: 2 * n, :n] = -0.0  # -rho I
    # entry (i, j) of a Fortran-ordered N x N array is entry i + jN of its
    # column-major view, so a diagonal steps by N + 1
    flat = M.ravel(order="F")
    flat[n: n * (N + 1): N + 1] = -rho  # (n + i, i)
    flat[2 * n * (N + 1):: N + 1] = rho  # (2n + i, 2n + i)
    E.ravel(order="F")[: 2 * n * (N + 1): N + 1] = 1.0
    return M, E


def are_bounder(L: np.ndarray, rho: float) -> Callable[[np.ndarray], np.ndarray]:
    """A proven lower bound on ``are_charging_energy(L, S, rho) - n/2`` for
    port sets S, with L^+ and G built here, once per selection: a map of an
    (m, k) int array of port sets, which it trusts to be valid and to leave
    at least one node, to their m bounds. L must be the Laplacian of a
    connected unweighted graph, as ``laplacian(g)`` builds it, and rho > 0.
    A bound that does not come out finite and positive is NaN, which bounds
    nothing; a factor or solve that fails raises LinAlgError.

        LB(S) = c^2 / (|a||b| - a'b),  c = 1'v,  a = K^(-1/2) L v,  b = K^(-1/2) v,

    where K = L + rho I and v is proportional to L_RR^(-1) 1 on the
    non-ports R, and 0 on S.

    Proof. (i) The pencil's value is n/2 + 1'D1, where D is the stabilizing
    solution of L D + D L - D (E_S/rho) D + L + rho I = 0: completing the
    square on the cross term N = B/2 leaves the LQ problem with A = L,
    B = I_S, Q = K and R = rho I. (ii) Any P with Ric(P) = L P + P L -
    P (E_S/rho) P + K >= 0 gives 1'D1 >= 1'P1: along every path from 1 to 0,
    d/dt x'Px >= -(x'Qx + rho |u|^2), so every path costs at least 1'P1.
    (iii) Take P = beta v v' for any v with v_S = 0. Then E_S P = 0, and
    Ric(P) = K + beta (w v' + v w') with w = L v. Under the congruence by
    K^(-1/2) this is I + beta (a b' + b a'), whose rank-two term has the
    eigenvalues beta (a'b +- |a||b|); so Ric(P) >= 0 exactly when
    beta <= 1/(|a||b| - a'b), and that beta gives 1'P1 = LB(S), which does
    not change when v is scaled. As rho -> 0, with v = L_RR^(-1) 1 on R,
    LB(S) -> sqrt(rho n c(S)), the leading term of 1'D1.

    Computed: v = ``_grounded_ones(L^+, S)``, from the k x k blocks of
    L^+ = (L + 11'/n)^(-1) - 11'/n, solved for the whole stack together.
    Since (iii) holds for every v with v_S = 0, an inexact solve only
    loosens the bound. The rest goes through the
    well-conditioned G = (L + 11'/n + rho I)^(-1): K^(-1) = G + 11'/(n rho
    (1 + rho)), so the 1/rho direction is exact, a'b = v'LGv and |a|^2 =
    v'LGLv; the denominator is written as (|a|^2 |b|^2 - (a'b)^2) / (|a||b|
    + a'b), free of cancellation (a'b >= 0 since L and G commute).
    """
    n = L.shape[0]
    Lp = laplacian_pinv(L)
    G = np.linalg.inv(L + 1.0 / n + rho * np.eye(n))
    scale = n * rho * (1.0 + rho)

    def of(S):
        v = _grounded_ones(Lp, S)
        c = v.sum(axis=1)
        w = v @ L
        Gv, Gw = v @ G, w @ G
        ab = (w * Gv).sum(axis=1)
        aa = (w * Gw).sum(axis=1)
        bb = (v * Gv).sum(axis=1) + c * c / scale
        bounds = c * c * (np.sqrt(aa * bb) + ab) / (aa * bb - ab * ab)
        return np.where((bounds > 0) & (bounds < np.inf), bounds, np.nan)

    return of


def laplacian_pinv(L: np.ndarray) -> np.ndarray:
    """The pseudo-inverse L^+ = (L + 11'/n)^(-1) - 11'/n of a connected
    graph's Laplacian L, from one ``inv``."""
    n = L.shape[0]
    return np.linalg.inv(L + 1.0 / n) - 1.0 / n


def resolvent_ones(F: np.ndarray, S: np.ndarray, shift: float) -> np.ndarray:
    """y = 1 - F[:, S] (shift I + F_SS)^(-1) 1_k for each port set S of an
    (m, k) int array, which it trusts to be valid, and each matrix of F, an
    (n, n) matrix or an (..., n, n) stack: an (..., m, n) array. Every
    shift I + F_SS must be positive or negative definite; the k x k systems
    of all sets and matrices are solved together by elimination without
    pivoting (``_definite_solve``), and y = 1 - U F is one product per
    matrix, where each row of U holds its set's u on its ports and zeros.
    A result that is not finite raises LinAlgError.

    Let L be a connected graph's Laplacian, u = (shift I + F_SS)^(-1) 1_k,
    and F = (L + aI)^(-1) with a > 0, or F = L^+ = (L + 11'/n)^(-1) - 11'/n.
    Then (L + aI) y = a 1 - 1_S u, or L y = (1'u/n) 1 - 1_S u, where 1_S u
    puts u on S; and y_S = 1_k - F_SS u = shift u. So for shift != 0

        (L + aI + E_S / shift) y = a 1,  or  (L + E_S / shift) y = (1'u/n) 1,

    and y is proportional to the solution with right side 1 (Woodbury). For
    F = L^+ and shift = 0, y_S = 0 and L y = (1'u/n) 1 off S, so y is
    proportional to L_RR^(-1) 1 on the non-ports R, and 0 on S.

    Every system the bounds form is definite for k < n: L^+_SS and K_SS + I
    are positive definite (L^+ is semidefinite with null space 1, and no
    vector that is 0 off S is a multiple of 1), L^+_SS + I/eps too, and
    K_SS - I/s is negative definite for K = (L + sI)^(-1), whose largest
    eigenvalue 1/s belongs to 1 alone.
    """
    m, k = S.shape
    n = F.shape[-1]
    stack = F.reshape(-1, n, n)  # (q, n, n), q = 1 for one matrix
    q = len(stack)
    rows = S.T - 1  # (k, m)
    # (q, k, k, m): each set's k x k system, for every matrix, in one gather
    A = stack[:, rows[:, None], rows]
    if shift:
        A.reshape(q, k * k, m)[:, ::k + 1] += shift  # the diagonal entries
    u = _definite_solve(A.transpose(1, 2, 0, 3), np.ones((k, q, m)))
    # y = 1 - U F, with u on each set's ports of U: one product per matrix
    U = np.zeros((q, m, n))
    U[:, np.arange(m)[:, None], S - 1] = u.transpose(1, 2, 0)
    y = U @ stack
    np.subtract(1.0, y, out=y)
    return y.reshape(F.shape[:-2] + (m, n))


def _definite_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b for a stack of positive or negative definite k x k
    systems, stacked on the trailing axes: A is (k, k, ...), b and x are
    (k, ...). Gaussian elimination without pivoting, then back substitution
    by columns, each of the 2k - 1 steps a few operations on the whole stack;
    it overwrites A and b, and runs under the caller's floating-point error
    state. On a definite matrix every pivot is a ratio of leading minors of
    one sign and no entry grows, so elimination without pivoting is
    backward stable there. A result that is not finite (a zero pivot)
    raises LinAlgError."""
    k = len(A)
    for j in range(k - 1):
        pivot = A[j + 1:, j] / A[j, j]
        trailing, rest = A[j + 1:, j + 1:], b[j + 1:]
        np.subtract(trailing, pivot[:, None] * A[j, j + 1:], out=trailing)
        np.subtract(rest, pivot * b[j], out=rest)
    for j in range(k - 1, -1, -1):
        x = b[j]
        np.divide(x, A[j, j], out=x)
        if j:
            done = b[:j]
            np.subtract(done, A[:j, j] * x, out=done)
    if not np.isfinite(b).all():
        raise np.linalg.LinAlgError("Singular matrix")
    return b


def _grounded_ones(Lp: np.ndarray, S: np.ndarray) -> np.ndarray:
    """For each port set S of an (m, k) int array, which it trusts to be
    valid, the vector L_RR^(-1) 1 on the non-ports R and 0 on S, scaled to
    max |v| = 1: ``resolvent_ones(L^+, S, 0)`` with v_S set to 0 exactly."""
    v = resolvent_ones(Lp, S, 0.0)
    v[np.arange(len(S))[:, None], S - 1] = 0.0
    v /= np.abs(v).max(axis=1, keepdims=True)
    return v


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
    from scipy import linalg as sla  # deferred: see the module docstring

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
        # scipy's "lhp" sort: Re(alpha/beta) < 0, and never for beta = 0; a
        # non-finite eigenvalue fails tgsen's status or _pencil_energy's checks
        select = np.zeros(N, dtype=bool)
        nonzero = beta != 0
        with np.errstate(all="ignore"):
            alpha = alphar + alphai * 1.j
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
        with np.errstate(all="ignore"):
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


def _pencil_energy(alpha: np.ndarray, beta: np.ndarray, Z: np.ndarray, n: int) -> float:
    """1'X1 for one pencil, from its generalized eigenvalues alpha/beta,
    ordered stable first, and its right Schur vectors Z.

    Checked in this order: imaginary-axis margin, stable dimension, the
    least-squares solve, reachability of the all-ones target, sign.
    """
    finite = np.abs(beta) > 1e-12 * np.abs(alpha).max(initial=1.0)
    real = (alpha / np.where(finite, beta, 1.0)).real
    if np.where(finite, np.abs(real), np.inf).min() < 1e-10:
        raise IllPosedError("Hamiltonian pencil has spectrum within 1e-10 of the imaginary axis")
    n_stable = np.count_nonzero(finite & (real < 0))
    if n_stable != n:
        raise IllPosedError(f"stable deflating subspace has dimension {n_stable} != {n}")
    U1, U2 = Z[:n, :n], Z[n: 2 * n, :n]
    ones = np.ones(n)
    try:
        coeff, *_ = np.linalg.lstsq(U1, ones, rcond=1e-12)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"least-squares solve on the stable subspace failed: {exc}") from exc
    r = U1 @ coeff - ones
    if np.sqrt(r @ r) > 1e-8 * np.sqrt(n):
        raise IllPosedError("all-ones target is not reachable on the stable subspace")
    value = ones @ (U2 @ coeff)
    if value < 0:
        raise NumericError(f"charging energy came out negative ({value:.3e})")
    return value


def gramian_extraction_energy(L: np.ndarray, ports) -> float | np.ndarray:
    """Energy dissipated in unit port resistors when the network discharges
    from the all-ones state: a float for one port set, an array of m values
    for an (m, k) array of port sets.

    With B the port selector and A = -(L + B B^T), returns 1^T Q 1 for the
    observability Gramian Q solving A^T Q + Q A + B B^T = 0. The grounded
    system is stable for any connected graph and nonempty port set. A
    batch is one stacked ``lyapunov_solve``.

    With M = L + E_S and x(t) = e^(-Mt) 1, 1'Q1 = int x'E_S x dt, and
    d/dt |x|^2 = -2 x'Mx, so

        1'Q1 = n/2 - D(S),  D(S) = int x'Lx dt = 1'X1,  M X + X M = L,

    the energy dissipated inside the network; and 1_S'Q1 = k/2, as M1 = 1_S.
    So the maximal Gramian is the minimal D(S) (``gramian_bounder``).
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


def gramian_bounder(L: np.ndarray, k: int,
                    B: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """A proven upper bound on ``gramian_extraction_energy(L, S)`` for port
    sets S of size k, from GRAMIAN_SHIFTS = r resolvent solves and no
    Lyapunov solve, with the ``sym_eigen`` of L, the shifts and the
    resolvents computed here, once per selection; returns ``(of,
    score_error)``. ``of`` maps an (m, k) int array of port sets, which it
    trusts to be valid and to leave at least one node, to their m bounds.
    ``score_error`` bounds the error of every score that
    ``gramian_extraction_energy`` returns for such a set. L must be the
    Laplacian of a connected unweighted graph with n >= 2, as
    ``laplacian(g)`` builds it, and B its signed incidence matrix, n x |E|
    with B B' = L, each edge once (``graphs.incidence``): the edge sums
    below count each edge once with weight 1, and the proofs need L1 = 0
    and lambda_2 > 0. A factor or solve that fails raises LinAlgError, and
    an eigensolve of L that fails its checks NumericError.

    With M = L + E_S, 1'Q1 = n/2 - D(S) (see ``gramian_extraction_energy``),
    and for shifts a_1..a_r > 0

        UB(S) = n/2 - (c'b)^2 / (c'Hc)  for every c,
        z_i = (M + a_i I)^(-1) 1,  b_i = z_i'L z_i,  H_ij = z_i'L z_j / (a_i + a_j).

    Proof. z_i is the Laplace transform at a_i of x(t) = e^(-Mt) 1. For the
    test trajectory w(t) = sum_i c_i e^(-a_i t) z_i, int x'Lw dt = c'b and
    int w'Lw dt = c'Hc, so Cauchy-Schwarz in the L seminorm over time gives
    (c'b)^2 <= D(S) c'Hc.

    Computed. The shifts are geometric from k/(4n) to max(4k/n, lambda_n).
    K_i = (L + a_i I)^(-1) comes from one ``sym_eigen`` of L, and since
    L1 = 0, Woodbury gives z_i = (1 - K_i[:, S] (I + K_i[S, S])^(-1) 1_k) /
    a_i (``resolvent_ones``), with the k x k systems of every set and shift of a
    stack solved together. c solves H c = b by elimination without pivoting
    over the stack (``_definite_solve``): H is the Schur product of the Gram
    matrix of the z_i in the L seminorm, whose diagonal b is positive, and
    the positive definite Cauchy matrix 1/(a_i + a_j), so it is positive
    definite. The test trajectory may be built from any vectors, so the computed
    z_i serve as they are; only the cross term with the exact z_i needs
    their error. If (M + a_i I) z_i = 1 - r_i, the exact vector is z_i + e_i
    with e_i'L e_i <= r_i'(M + a_i I)^(-1) r_i <= |r_i|^2 / a_i, so the
    cross term is within |r_i| sqrt(b_i / a_i) of b_i. |r_i| is computed,
    plus its own rounding, for which max |z_i| <= (1 + |r_i|) / a_i (the
    exact z_i is at most 1/a_i, read at its largest entry). b_i and H_ij
    are summed over the edges as products of the differences z_u - z_v,
    b_i as nonnegative terms; z @ B gives each difference as one rounding
    of z_u - z_v, since B's column holds one 1, one -1 and exact zeros. The
    rounding of c'b and of c'Hc is bounded through |H_ij| <= sqrt(b_i b_j) /
    (a_i + a_j), relative to their sums of absolute terms, whatever the
    order of the sums. The numerator is lowered and the denominator raised by
    these amounts, so an inexact z_i or an ill-conditioned H only loosens
    the bound; what is left is the rounding of the last few operations, a
    few ulps of n/2. A singular H raises LinAlgError, and a bound that
    does not come out finite bounds nothing.

    ``score_error``. ``lyapunov_solve`` accepts X only if its residual R =
    A'X + XA + E_S has ||R||_F <= LYAPUNOV_RESIDUAL_FACTOR (1 + sqrt(k)).
    Then M(X - Q) + (X - Q)M = -R, and X -> MX + XM has no eigenvalue below
    2 mu for mu = lambda_min(M), so |1'X1 - 1'Q1| <= n ||R||_F / (2 mu). M
    only grows with S, so mu >= lambda_min(L + e_j e_j') for any port j.
    That is the root in (0, lambda_2] of the secular function f(mu) = 1 -
    1/(n mu) + sum_(l>1) (v_l)_j^2 / (lambda_l - mu), which rises there and
    is at most 1 - 1/(n mu) + (1 - 1/n) / (lambda_2 - mu) (the (v_l)_j^2 sum
    to 1 - 1/n). So mu is at least the root of that majorant, the smaller
    root mu_0 of n mu^2 - n (lambda_2 + 1) mu + lambda_2 = 0, for every j
    and every S. lambda_2 is taken less EIGEN_RESIDUAL_FACTOR (1 + ||L||_F),
    far more than the error of an ``eigh`` that passes ``sym_eigen``'s
    checks, and where no positive lambda_2 is left the error is infinite.
    """
    n = L.shape[0]
    lam, V = sym_eigen(L)
    lo = k / (4 * n)
    a = lo * (max(4 * k / n, lam[-1]) / lo) ** _SHIFT_STEPS
    K = (V / (lam + a[:, None, None])) @ V.T  # (r, n, n)
    shifted = L + a[:, None, None] * np.eye(n)
    # rounding allowances: of |r_i|, from the largest row sum of |L + E_S +
    # a_i I| times max |z_i| <= (1 + |r_i|) / a_i, and of c'b and c'Hc,
    # relative to their sums of absolute terms
    res_round = 2 * math.sqrt(n) * (n + 3) * _ULP * (2 * L.diagonal().max() + 1.0 + a) / a
    gamma = (B.shape[1] + 2 * GRAMIAN_SHIFTS + 4) * _ULP
    pair = 1.0 / (a[:, None] + a[None, :])
    root_a = np.sqrt(a)

    def of(S):
        rows, sets, m = S - 1, np.arange(len(S))[:, None], len(S)
        z = resolvent_ones(K, S, 1.0) / a[:, None, None]  # (r, m, n)
        # |r_i|, r_i = 1 - (L + a_i I + E_S) z_i, for each shift and set
        res = 1.0 - z @ shifted
        res[:, sets, rows] -= z[:, sets, rows]
        res = np.linalg.norm(res, axis=-1)
        res += res_round[:, None] * (1.0 + res)  # (r, m)
        d = (z.reshape(-1, n) @ B).reshape(GRAMIAN_SHIFTS, m, -1)  # (r, m, edges)
        gram = np.einsum("ime,jme->ijm", d, d)  # (r, r, m)
        b = np.diagonal(gram).T
        H = gram * pair[:, :, None]
        c = _definite_solve(H.copy(), b.copy())
        cHc = (c * (H * c).sum(axis=1)).sum(axis=0)
        ac, root_b = np.abs(c), np.sqrt(b)
        num = np.abs((c * b).sum(axis=0)) - (ac * (res * root_b / root_a[:, None]
                                                   + gamma * b)).sum(axis=0)
        s = ac * root_b
        den = cHc + gamma * ((pair @ s) * s).sum(axis=0)
        return n / 2 - np.maximum(num, 0.0) ** 2 / den

    lam2 = lam[1] - EIGEN_RESIDUAL_FACTOR * (1.0 + np.linalg.norm(L))
    if lam2 > 0:
        mu = 2 * lam2 / (n * (lam2 + 1) + math.sqrt(n * n * (lam2 + 1) ** 2 - 4 * n * lam2))
        error = n * LYAPUNOV_RESIDUAL_FACTOR * (1 + math.sqrt(k)) / (2 * mu)
    else:
        error = math.inf
    return of, error
