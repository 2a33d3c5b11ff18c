"""Closed-form oracle for path graphs: exact eigenpairs, optimal port
formulas, second-order smallest-eigenvalue series, grounded-segment
eigenvalues, tridiagonal and perturbed characteristic polynomials, their
eps-slices, and the root series (``root_series_single``,
``root_series_double``) that expands the smallest root of a sliced
polynomial in eps. Polynomials are plain 1-D float arrays of coefficients
in ascending degree.

Everything here is exact path-graph theory; the generic eigensolver in
``spectral`` serves as the independent cross-check in the test suite. The
one numerical kernel, ``path_lambda_min``, gives the exact smallest
eigenvalue of L(P_n) + eps E_S for a whole stack of port sets in O(n) work
per set and Newton step, using only that the matrix is tridiagonal, and
certifies each value by two Sturm counts.
Every optimal center comes from ``optimal_ports``, the one place that states
where the centers sit, and ``has_optimal_ports`` says where they exist; every
argument is checked by ``spectral``'s ``check_index``, ``check_ports`` and
``check_positive``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import AssumptionError, NumericError, ParameterError
from .spectral import _ULP, _port_sets, check_index, check_positive, check_ports

# each lambda_min of ``path_lambda_min`` is certified to within
# _CERTIFY_FACTOR n ulp (4 + eps), 4 + eps bounding ||L(P_n) + eps E_S||
_CERTIFY_FACTOR = 2.0
# LAPACK dstebz's pivmin, safemin max(1, e^2), at off-diagonal e = -1
_PIVMIN = np.finfo(float).tiny


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
    check_index("n", n, 2)
    c1 = float(n)
    c2 = n * (n * n - 1) / 6.0
    c3 = n * (n * n - 1) * (n * n - 4) / 120.0
    cn1 = 2.0 * (n - 1)
    return (c1, c2, c3, cn1)


def path_eigenpair(n: int, j: int) -> tuple[float, np.ndarray]:
    """j-th (1-based, ascending) eigenpair of the path Laplacian L(P_n).

    lambda_j = 2(1 - cos(pi (j-1)/n)), component p of the eigenvector is
    cos(pi (j-1)(p-0.5)/n); j = 1 gives the all-ones kernel vector.
    """
    check_index("n", n, 2)
    check_index("eigenpair index", j, 1, n)
    lam = 2.0 * (1.0 - math.cos(math.pi * (j - 1) / n))
    vec = np.array([math.cos(math.pi * (j - 1) * (p - 0.5) / n)
                    for p in range(1, n + 1)])
    return lam, vec


def has_optimal_ports(n: int, k: int) -> bool:
    """Whether ``optimal_ports(n, k)`` is defined: k divides n and n/k is
    odd, which makes every port an integer in [1, n]."""
    check_index("n", n, 2)
    check_index("k", k, 1, n - 1)
    return n % k == 0 and (n // k) % 2 == 1


def optimal_ports(n: int, k: int) -> tuple[int, ...]:
    """The k equispaced physical centers ((2i-1)n + k) / (2k), i = 1..k,
    where ``has_optimal_ports(n, k)`` holds."""
    if not has_optimal_ports(n, k):
        raise AssumptionError(
            f"ports are integral only when k | n with n/k odd (n={n}, k={k})")
    return tuple(((2 * i - 1) * n + k) // (2 * k) for i in range(1, k + 1))


def _center_offsets(n: int, ports: tuple[int, ...]) -> list[int]:
    """Each port's offset j_i - p_i* from its center in ``optimal_ports(n,
    k)``, k = len(ports), for distinct nodes with one port per segment:
    0 < j_1 < n/k < j_2 <= n for two ports."""
    k = len(ports)
    centers = optimal_ports(n, k)
    check_ports(n, ports)
    if any(not ports[i - 1] < i * n / k < ports[i] for i in range(1, k)):
        raise AssumptionError(f"ports must lie one per segment, split at multiples "
                              f"of n/{k} = {n / k:g}; got {ports}")
    return [j - p for j, p in zip(ports, centers)]


def _centered_series(n: int, k: int, offsets_sq: int, eps: float) -> float:
    """The k-port series, k in {1, 2}, as a quadratic in the ports' offsets
    from their centers: k eps/n - eps^2 [(n^2 - k^2) + 12 k sum_i (j_i -
    p_i*)^2] / (12 n^2), given the sum of squared offsets."""
    return k * eps / n - _second_order(n, k, offsets_sq, eps)


def _second_order(n: int, k: int, offsets_sq: int, eps: float) -> float:
    """The eps^2 term of ``_centered_series``, less its sign."""
    return eps * eps * ((n * n - k * k) + 12.0 * k * offsets_sq) / (12.0 * n * n)


def lambda_min_series_positions(n: int, positions: Sequence[float], eps: float) -> float:
    """Second-order series of the smallest perturbed eigenvalue, allowing
    real-valued port positions (used by the continuous-p profile), in
    closed form:

        k eps/n - eps^2/(2 n^2) sum_(j=2..n) c_j^2 / sin^2(theta_j / 2),

    theta_j = pi (j - 1)/n, c_j = sum_p cos(theta_j (p - 1/2)). This is
    k eps/n - eps^2 1_S' L^+ 1_S / n = k eps/n - eps^2/(4n) sum_j c_j^2 / w_j
    over the path eigenpairs (``path_eigenpair``): c_j = v_j' 1_S and the
    weight w_j = lambda_j ||v_j||^2 / 4 = sin^2(theta_j / 2) n/2, as
    ||v_j||^2 = n/2 for every j >= 2.
    """
    check_index("n", n, 2)
    theta = np.pi * np.arange(1, n) / n
    c = np.cos(np.outer(theta, np.subtract(positions, 0.5))).sum(axis=1)
    total = float(np.sum(c * c / np.sin(0.5 * theta) ** 2))
    return len(positions) * eps / n - eps * eps / (2.0 * n * n) * total


def lambda_min_series_kport(n: int, ports: Sequence[int], eps: float) -> float:
    """Trigonometric second-order series for lambda_min(L_n + eps sum e_p e_p')."""
    ports = check_ports(n, ports)
    return lambda_min_series_positions(n, ports, check_positive("eps", eps))


def convexity_series_gap(n: int, eps: float) -> float:
    """Series value of lambda*_min(2) - 2 lambda*_min(1), each optimum taken
    at its (real-valued) centers: eps^2 (n^2+2)/(12 n^2). The first-order
    terms 2 eps/n cancel exactly, so the gap is formed from the second-order
    terms alone; the difference of the two series would keep their
    rounding, which outweighs the gap at small eps."""
    return 2.0 * _second_order(n, 1, 0, eps) - _second_order(n, 2, 0, eps)


def lambda_min_quadratic_1port(n: int, j: int, eps: float) -> float:
    """Quadratic-in-(j - p*) form of the one-port series, n odd.

    eps/n - eps^2 [(n^2-1) + 12 (j-p*)^2] / (12 n^2) with p* = (n+1)/2.
    """
    (d,) = _center_offsets(n, (j,))
    return _centered_series(n, 1, d * d, eps)


def lambda_min_quadratic_2port(n: int, j1: int, j2: int, eps: float) -> float:
    """Quadratic form of the two-port series, n even with n/2 odd.

    2eps/n - eps^2 [(n^2-4) + 24 {(j1-p1*)^2 + (j2-p2*)^2}] / (12 n^2)
    with p1* = (n+2)/4, p2* = (3n+2)/4 and j1 < n/2 < j2 required.
    """
    d1, d2 = _center_offsets(n, (j1, j2))
    return _centered_series(n, 2, d1 * d1 + d2 * d2, eps)


def pseudo_toeplitz_lambda_min(n: int) -> float:
    """Smallest eigenvalue of L_n + e_1 e_1^T: 2 - 2 cos(pi / (2n+1)).

    Equals the smallest eigenvalue of L_{2n} + e_1 e_1^T + e_{2n} e_{2n}^T
    and decreases strictly in n.
    """
    check_index("n", n, 1)
    return 2.0 - 2.0 * math.cos(math.pi / (2 * n + 1))


def path_lambda_min(n: int, ports, eps: float) -> np.ndarray:
    """lambda_min(L(P_n) + eps E_S) for each port set S of an (m, k) array
    of 1-based ports, each certified to within delta = 2 n ulp (4 + eps).

    Each matrix T is tridiagonal: off-diagonal -1, diagonal d = (1, 2, ...,
    2, 1) plus eps on the ports. It is positive definite, so x = 0 lies
    below lambda_min, and Newton's method on det(T - xI) rises from there
    monotonically to lambda_min. One pass over the rows gives every set's
    LDL' pivots q_i = (d_i - x) - 1/q_(i-1), their derivatives in x and
    so its step. A set stops once its step is at most delta/4; its
    arithmetic is elementwise, so it gets the bits it gets alone.

    The certificate is two Sturm counts (``_sturm_counts``): no eigenvalue
    below x - delta and at least one below x + delta put lambda_min in
    [x - delta, x + delta]. Each count is exact for a matrix within a few
    ulp ||T|| of T (Kahan 1966), well inside delta. A set that fails it is
    a NumericError, and so is one still moving by more than delta/4 after
    n log(4 ||T|| / delta) steps, which no exact Newton iteration takes:
    each step, 1 / sum_j 1/(lambda_j - x), closes at least 1/n of the gap
    lambda_min - x, and the first gap is at most ||T|| <= 4 + eps.
    """
    check_index("n", n, 2)
    check_positive("eps", eps)
    S, _ = _port_sets(n, ports)
    m = len(S)
    d = np.full((n, m), 2.0)
    d[[0, -1]] = 1.0
    d[S - 1, np.arange(m)[:, None]] += eps  # row i is every set's d_i
    delta = _CERTIFY_FACTOR * n * _ULP * (4.0 + eps)
    # n log(4 ||T|| / delta) with ||T|| <= 4 + eps, which cancels
    max_steps = math.ceil(n * math.log(4.0 / (_CERTIFY_FACTOR * n * _ULP))) + 1
    x = _newton_from_zero(d, delta, max_steps)
    below, above = _sturm_counts(d, np.stack([x - delta, x + delta]))
    bad = np.flatnonzero((below != 0) | (above < 1))
    if bad.size:
        i = bad[0]
        raise NumericError(
            f"lambda_min of P_{n} with ports {S[i].tolist()} at eps = {eps:g} is not "
            f"certified: {below[i]} eigenvalues below {x[i] - delta:.17g}, "
            f"{above[i]} below {x[i] + delta:.17g}")
    return x


def _newton_from_zero(d: np.ndarray, delta: float, max_steps: int) -> np.ndarray:
    """Newton's method from x = 0 on det(T - xI) for the tridiagonal T of
    each column of d (diagonal d, off-diagonal -1), each column stopping
    once its step is at most delta/4; a NumericError if a column has not
    stopped after max_steps passes.

    Below lambda_min every pivot is positive and the step -p/p' = -1 /
    sum_i q_i'/q_i, with q_i' = q_(i-1)'/q_(i-1)^2 - 1, is positive and
    finite. A column with a pivot at or below 0 has rounded onto or past
    lambda_min: it takes no step and stops, and what its pass computed
    (possibly inf or NaN, hence the errstate) is unused."""
    x = np.zeros(d.shape[1])
    live = np.arange(d.shape[1])
    for _ in range(max_steps):
        xs = x[live]
        r = dq = s = 0.0  # an empty leading block: 1/q_0 = q_0' = 0
        past = False
        with np.errstate(all="ignore"):
            for row in d[:, live] - xs:
                dq = dq * r * r - 1.0
                q = row - r
                s += dq / q
                past |= q <= 0
                r = 1.0 / q
            step = -1.0 / s
            x[live] = np.where(past, xs, xs + step)
            live = live[~past & (step > 0.25 * delta)]
        if not live.size:
            return x
    raise NumericError(f"Newton's method for lambda_min did not settle within "
                       f"{max_steps} steps")


def _sturm_counts(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """How many eigenvalues of each column's tridiagonal T (diagonal d,
    off-diagonal -1) lie below y, for y of shape (..., m): the negative
    pivots of T - yI, a pivot of magnitude at most pivmin taken as -pivmin
    as LAPACK's dstebz takes it, so no division is by zero or overflows."""
    count = np.zeros(y.shape, dtype=np.intp)
    r = 0.0
    for row in d:
        q = (row - y) - r
        q[np.abs(q) <= _PIVMIN] = -_PIVMIN
        count += q < 0
        r = 1.0 / q
    return count


def end_segment_charpoly(m: int) -> np.ndarray:
    """psi_m: char poly of an m-node path segment grounded at one end
    (diagonal 1, 2, ..., 2). psi_0 = 1, psi_1 = s - 1."""
    check_index("segment length", m, 0)
    return _path_tridiag([1.0] + [2.0] * (m - 1) if m else [])


def inner_segment_charpoly(m: int) -> np.ndarray:
    """theta_m: char poly of an m-node path segment grounded at both ends
    (diagonal 2, ..., 2)."""
    check_index("segment length", m, 0)
    return _path_tridiag([2.0] * m)


def path_charpoly(n: int) -> np.ndarray:
    """det(sI - L_n) assembled by the tridiagonal recursion, n >= 2."""
    check_index("n", n, 2)
    return _path_tridiag([1.0] + [2.0] * (n - 2) + [1.0])


def _path_tridiag(diag: list[float]) -> np.ndarray:
    """det(sI - T) for the tridiagonal T with the given diagonal and -1 on
    both off-diagonals, the shape of every path segment's matrix."""
    off = [-1.0] * max(len(diag) - 1, 0)
    return tridiag_charpoly(diag, off, off)


def perturbed_charpoly_1port(n: int, p: int, eps: float) -> np.ndarray:
    """det(sI - L_n - eps e_p e_p^T) as a degree-n polynomial.

    Interior ports use the split about row p,
    (s-2-eps) psi_{p-1} psi_{n-p} - psi_{p-2} psi_{n-p} - psi_{p-1} psi_{n-p-1};
    boundary ports are assembled directly from the tridiagonal recursion.
    """
    check_index("n", n, 2)
    check_index("port", p, 1, n)
    if p in (1, n):
        diag = [1.0] + [2.0] * (n - 2) + [1.0]
        diag[p - 1] += eps
        return _path_tridiag(diag)
    psi = end_segment_charpoly
    head = np.array([-2.0 - eps, 1.0])  # (s - 2 - eps)
    left, right = psi(p - 1), psi(n - p)
    lead = np.convolve(head, np.convolve(left, right))
    return P.polysub(P.polysub(lead, np.convolve(psi(p - 2), right)),
                     np.convolve(left, psi(n - p - 1)))


def perturbed_charpoly_2port(n: int, p1: int, p2: int, eps: float) -> np.ndarray:
    """det(sI - L_n - eps e_{p1} e_{p1}^T - eps e_{p2} e_{p2}^T).

    Exact two-site expansion over the tridiagonal structure:
    a(s) - eps [psi_{p1-1} psi_{n-p1} + psi_{p2-1} psi_{n-p2}]
         + eps^2 psi_{p1-1} theta_{p2-p1-1} psi_{n-p2}.
    Requires interior, non-adjacent ports (the index decomposition assumes
    both neighbours of each port exist and the middle segment is nonempty).
    """
    check_ports(n, (p1, p2))
    if n < 6:
        raise AssumptionError(f"two-port split needs n >= 6, got {n}")
    if not (1 < p1 < p2 < n):
        raise AssumptionError(f"ports must be interior: 1 < p1 < p2 < n, got ({p1}, {p2})")
    if p2 - p1 < 2:
        raise AssumptionError(f"ports must be non-adjacent, got ({p1}, {p2})")
    psi = end_segment_charpoly
    left, right = psi(p1 - 1), psi(n - p2)
    theta_mid = inner_segment_charpoly(p2 - p1 - 1)
    a = path_charpoly(n)
    b = P.polyadd(np.convolve(left, psi(n - p1)), np.convolve(psi(p2 - 1), right))
    c = np.convolve(np.convolve(left, theta_mid), right)
    return P.polyadd(P.polyadd(a, -eps * b), eps * eps * c)


def charpoly_eps_slices_1port(n: int, j: int) -> tuple[np.ndarray, tuple[float, float]]:
    """eps-slices of det(sI - L_n - eps e_j e_j^T) = a(s) + eps b_j(s), n odd.

    Returns a(s) = det(sI - L_n) and the two lowest coefficients of b_j:
    b0 = -1, b1 = ((n-1)^2 + 2(n-1))/4 + (j - p*)^2.
    """
    (d,) = _center_offsets(n, (j,))
    b1 = ((n - 1) ** 2 + 2 * (n - 1)) / 4.0 + float(d) ** 2
    return path_charpoly(n), (-1.0, b1)


def charpoly_eps_slices_2port(n: int, j1: int, j2: int
                              ) -> tuple[np.ndarray, tuple[float, float], tuple[float]]:
    """eps-slices of the two-port perturbed determinant
    a(s) + eps b(s) + eps^2 c(s) for n even with n/2 odd.

    b0 = 2, b1 = -[(3n^2-4)/8 - n(j1-j2)/2 + (j1-p1*)^2 + (j2-p2*)^2],
    c0 = j2 - j1.
    """
    d1, d2 = _center_offsets(n, (j1, j2))
    b1 = -((3.0 * n * n - 4) / 8.0 - n * (j1 - j2) / 2.0 + d1 ** 2 + d2 ** 2)
    return path_charpoly(n), (2.0, b1), (float(j2 - j1),)


@dataclass(frozen=True)
class RootSeries:
    """First two coefficients of the smallest-root expansion in eps."""

    beta1: float
    beta2: float

    def at(self, eps: float) -> float:
        return self.beta1 * eps + self.beta2 * eps * eps


def root_series_single(a, b) -> RootSeries:
    """Series of the root of a(s) + eps*b(s) emanating from s = 0.

    beta1 = -b0/a1 and beta2 = (a1 b1 b0 - a2 b0^2) / a1^3; requires
    a0 = 0, a1 != 0, b0 != 0. The c = 0 case of ``root_series_double``.
    """
    return _root_series(a, b, 0.0)


def root_series_double(a, b, c) -> RootSeries:
    """Series of the root of a(s) + eps*b(s) + eps^2*c(s) from s = 0.

    beta1 = -b0/a1 and beta2 = (a1 b1 b0 - a2 b0^2 - a1^2 c0) / a1^3;
    requires a0 = 0 and a1, b0, c0 all nonzero.
    """
    c = np.asarray(c, dtype=float)
    if len(c) == 0 or c[0] == 0:
        raise AssumptionError("coefficient c_0 must be nonzero")
    return _root_series(a, b, c[0])


def _root_series(a, b, c0: float) -> RootSeries:
    """The series of both ``root_series_*`` functions, c0 = 0 for a single
    eps term; checks a0 = 0, a1 != 0 and b0 != 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, np.abs(a).max(initial=0.0))
    if abs(a[0]) > 1e-12 * scale:
        raise AssumptionError(f"a(0) must vanish, got {a[0]:.3e}")
    if len(a) < 2 or a[1] == 0:
        raise AssumptionError("coefficient a_1 must be nonzero")
    if len(b) == 0 or b[0] == 0:
        raise AssumptionError("coefficient b_0 must be nonzero")
    a1 = a[1]
    a2 = a[2] if len(a) > 2 else 0.0
    b0 = b[0]
    b1 = b[1] if len(b) > 1 else 0.0
    beta2 = (a1 * b1 * b0 - a2 * b0 * b0 - a1 * a1 * c0) / a1 ** 3
    return RootSeries(beta1=-b0 / a1, beta2=beta2)
