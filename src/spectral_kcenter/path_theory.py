"""Closed-form oracle for path graphs: exact eigenpairs, optimal port
formulas, second-order smallest-eigenvalue series, grounded-segment
eigenvalues, and perturbed characteristic polynomials.

Everything here is exact path-graph theory; the generic eigensolver in
``spectral`` serves as the independent cross-check in the test suite.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import AssumptionError, ParameterError
from .spectral import check_positive, check_ports, tridiag_charpoly


def path_eigenpair(n: int, j: int) -> tuple[float, np.ndarray]:
    """j-th (1-based, ascending) eigenpair of the path Laplacian L(P_n).

    lambda_j = 2(1 - cos(pi (j-1)/n)), component p of the eigenvector is
    cos(pi (j-1)(p-0.5)/n); j = 1 gives the all-ones kernel vector.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 1 <= j <= n:
        raise ParameterError(f"eigenpair index {j} out of range 1..{n}")
    lam = 2.0 * (1.0 - math.cos(math.pi * (j - 1) / n))
    vec = np.array([math.cos(math.pi * (j - 1) * (p - 0.5) / n)
                    for p in range(1, n + 1)])
    return lam, vec


def optimal_ports(n: int, k: int) -> tuple[int, ...]:
    """The k equispaced physical centers ((2i-1)n + k) / (2k), i = 1..k.

    Defined when k divides n and n/k is odd, which makes every port an
    integer in [1, n].
    """
    if not 1 <= k < n:
        raise ParameterError(f"need 1 <= k < n, got k={k}, n={n}")
    if n % k != 0 or (n // k) % 2 == 0:
        raise AssumptionError(
            f"ports are integral only when k | n with n/k odd (n={n}, k={k})")
    return tuple(((2 * i - 1) * n + k) // (2 * k) for i in range(1, k + 1))


@functools.lru_cache
def _series_weights(n: int) -> tuple[tuple[float, float], ...]:
    """(theta_j, sin^2(theta_j / 2) sum_q cos^2(theta_j (q - 1/2))) for
    j = 2..n: the port-independent part of the series, once per n."""
    weights = []
    for j in range(2, n + 1):
        theta = math.pi * (j - 1) / n
        den = (math.sin(0.5 * theta) ** 2
               * sum(math.cos(theta * (q - 0.5)) ** 2 for q in range(1, n + 1)))
        weights.append((theta, den))
    return tuple(weights)


def lambda_min_series_positions(n: int, positions: Sequence[float], eps: float) -> float:
    """Second-order series of the smallest perturbed eigenvalue, allowing
    real-valued port positions (used by the continuous-p profile)."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    k = len(positions)
    total = 0.0
    for theta, den in _series_weights(n):
        num = sum(math.cos(theta * (p - 0.5)) for p in positions) ** 2
        total += num / den
    return k * eps / n - eps * eps / (4.0 * n) * total


def lambda_min_series_kport(n: int, ports: Sequence[int], eps: float) -> float:
    """Trigonometric second-order series for lambda_min(L_n + eps sum e_p e_p')."""
    ports = check_ports(n, ports)
    return lambda_min_series_positions(n, ports, check_positive("eps", eps))


def series_optimum(n: int, k: int, eps: float) -> float:
    """Closed-form series value at the (real-valued) optimal k centers.

    k*eps/n - eps^2 (n^2 - k^2) / (12 n^2), valid for k in {1, 2}.
    """
    if k not in (1, 2):
        raise ParameterError(f"closed-form optimum available for k in {{1,2}}, got {k}")
    return k * eps / n - eps * eps * (n * n - k * k) / (12.0 * n * n)


def convexity_series_gap(n: int, eps: float) -> float:
    """Series value of lambda*_min(2) - 2 lambda*_min(1): eps^2 (n^2+2)/(12 n^2)."""
    return series_optimum(n, 2, eps) - 2.0 * series_optimum(n, 1, eps)


def lambda_min_quadratic_1port(n: int, j: int, eps: float) -> float:
    """Quadratic-in-(j - p*) form of the one-port series, n odd.

    eps/n - eps^2 [(n^2-1) + 12 (j-p*)^2] / (12 n^2) with p* = (n+1)/2.
    """
    if n % 2 == 0:
        raise AssumptionError(f"one-port quadratic form needs odd n, got {n}")
    if not 1 <= j <= n:
        raise ParameterError(f"port {j} out of range 1..{n}")
    pstar = (n + 1) / 2.0
    return eps / n - eps * eps * ((n * n - 1) + 12.0 * (j - pstar) ** 2) / (12.0 * n * n)


def lambda_min_quadratic_2port(n: int, j1: int, j2: int, eps: float) -> float:
    """Quadratic form of the two-port series, n even with n/2 odd.

    2eps/n - eps^2 [(n^2-4) + 24 {(j1-p1*)^2 + (j2-p2*)^2}] / (12 n^2)
    with p1* = (n+2)/4, p2* = (3n+2)/4 and j1 < n/2 < j2 required.
    """
    if n % 2 != 0 or (n // 2) % 2 == 0:
        raise AssumptionError(f"two-port quadratic form needs n even, n/2 odd; got {n}")
    if not (1 <= j1 < n / 2 < j2 <= n):
        raise AssumptionError(
            f"ports must satisfy 1 <= j1 < n/2 < j2 <= n, got ({j1}, {j2})")
    p1 = (n + 2) / 4.0
    p2 = (3 * n + 2) / 4.0
    quad = (j1 - p1) ** 2 + (j2 - p2) ** 2
    return 2.0 * eps / n - eps * eps * ((n * n - 4) + 24.0 * quad) / (12.0 * n * n)


def pseudo_toeplitz_lambda_min(n: int) -> float:
    """Smallest eigenvalue of L_n + e_1 e_1^T: 2 - 2 cos(pi / (2n+1)).

    Equals the smallest eigenvalue of L_{2n} + e_1 e_1^T + e_{2n} e_{2n}^T
    and decreases strictly in n.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    return 2.0 - 2.0 * math.cos(math.pi / (2 * n + 1))


def end_segment_charpoly(m: int) -> np.ndarray:
    """psi_m: char poly of an m-node path segment grounded at one end
    (diagonal 1, 2, ..., 2). psi_0 = 1, psi_1 = s - 1."""
    if m < 0:
        raise ParameterError(f"segment length must be >= 0, got {m}")
    diag = [1.0] + [2.0] * (m - 1) if m >= 1 else []
    return tridiag_charpoly(diag, [-1.0] * max(m - 1, 0), [-1.0] * max(m - 1, 0))


def inner_segment_charpoly(m: int) -> np.ndarray:
    """theta_m: char poly of an m-node path segment grounded at both ends
    (diagonal 2, ..., 2)."""
    if m < 0:
        raise ParameterError(f"segment length must be >= 0, got {m}")
    return tridiag_charpoly([2.0] * m, [-1.0] * max(m - 1, 0), [-1.0] * max(m - 1, 0))


def path_charpoly(n: int) -> np.ndarray:
    """det(sI - L_n) assembled by the tridiagonal recursion."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    diag = [1.0] * n if n == 1 else [1.0] + [2.0] * (n - 2) + [1.0]
    return tridiag_charpoly(diag, [-1.0] * (n - 1), [-1.0] * (n - 1))


def _polyadd(*polys: np.ndarray) -> np.ndarray:
    size = max(len(p) for p in polys)
    out = np.zeros(size)
    for p in polys:
        out[: len(p)] += p
    return out


def perturbed_charpoly_1port(n: int, p: int, eps: float) -> np.ndarray:
    """det(sI - L_n - eps e_p e_p^T) as a degree-n polynomial.

    Interior ports use the split about row p,
    (s-2-eps) psi_{p-1} psi_{n-p} - psi_{p-2} psi_{n-p} - psi_{p-1} psi_{n-p-1};
    boundary ports are assembled directly from the tridiagonal recursion.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if not 1 <= p <= n:
        raise ParameterError(f"port {p} out of range 1..{n}")
    if p in (1, n):
        diag = [1.0] + [2.0] * (n - 2) + [1.0]
        diag[p - 1] += eps
        return tridiag_charpoly(diag, [-1.0] * (n - 1), [-1.0] * (n - 1))
    psi = [end_segment_charpoly(m) for m in range(n)]
    head = np.array([-2.0 - eps, 1.0])  # (s - 2 - eps)
    lead = np.convolve(head, np.convolve(psi[p - 1], psi[n - p]))
    return _polyadd(lead,
                    -np.convolve(psi[p - 2], psi[n - p]),
                    -np.convolve(psi[p - 1], psi[n - p - 1]))


def perturbed_charpoly_2port(n: int, p1: int, p2: int, eps: float) -> np.ndarray:
    """det(sI - L_n - eps e_{p1} e_{p1}^T - eps e_{p2} e_{p2}^T).

    Exact two-site expansion over the tridiagonal structure:
    a(s) - eps [psi_{p1-1} psi_{n-p1} + psi_{p2-1} psi_{n-p2}]
         + eps^2 psi_{p1-1} theta_{p2-p1-1} psi_{n-p2}.
    Requires interior, non-adjacent ports (the index decomposition assumes
    both neighbours of each port exist and the middle segment is nonempty).
    """
    if n < 6:
        raise AssumptionError(f"two-port split needs n >= 6, got {n}")
    if not (1 < p1 < p2 < n):
        raise AssumptionError(f"ports must be interior: 1 < p1 < p2 < n, got ({p1}, {p2})")
    if p2 - p1 < 2:
        raise AssumptionError(f"ports must be non-adjacent, got ({p1}, {p2})")
    psi = [end_segment_charpoly(m) for m in range(n)]
    theta_mid = inner_segment_charpoly(p2 - p1 - 1)
    a = path_charpoly(n)
    b = _polyadd(np.convolve(psi[p1 - 1], psi[n - p1]),
                 np.convolve(psi[p2 - 1], psi[n - p2]))
    c = np.convolve(np.convolve(psi[p1 - 1], theta_mid), psi[n - p2])
    return _polyadd(a, -eps * b, eps * eps * c)


def charpoly_eps_slices_1port(n: int, j: int) -> tuple[np.ndarray, tuple[float, float]]:
    """eps-slices of det(sI - L_n - eps e_j e_j^T) = a(s) + eps b_j(s), n odd.

    Returns a(s) = det(sI - L_n) and the two lowest coefficients of b_j:
    b0 = -1, b1 = ((n-1)^2 + 2(n-1))/4 + (j - p*)^2.
    """
    if n % 2 == 0:
        raise AssumptionError(f"one-port slices need odd n, got {n}")
    if not 1 <= j <= n:
        raise ParameterError(f"port {j} out of range 1..{n}")
    pstar = (n + 1) // 2
    b1 = ((n - 1) ** 2 + 2 * (n - 1)) / 4.0 + float(j - pstar) ** 2
    return path_charpoly(n), (-1.0, b1)


def charpoly_eps_slices_2port(n: int, j1: int, j2: int
                              ) -> tuple[np.ndarray, tuple[float, float], tuple[float]]:
    """eps-slices of the two-port perturbed determinant
    a(s) + eps b(s) + eps^2 c(s) for n even with n/2 odd.

    b0 = 2, b1 = -[(3n^2-4)/8 - n(j1-j2)/2 + (j1-p1*)^2 + (j2-p2*)^2],
    c0 = j2 - j1.
    """
    if n % 2 != 0 or (n // 2) % 2 == 0:
        raise AssumptionError(f"two-port slices need n even with n/2 odd, got {n}")
    if not (1 <= j1 < n / 2 < j2 <= n):
        raise AssumptionError(
            f"ports must satisfy 1 <= j1 < n/2 < j2 <= n, got ({j1}, {j2})")
    p1 = (n + 2) / 4.0
    p2 = (3 * n + 2) / 4.0
    b1 = -((3.0 * n * n - 4) / 8.0 - n * (j1 - j2) / 2.0
           + (j1 - p1) ** 2 + (j2 - p2) ** 2)
    return path_charpoly(n), (2.0, b1), (float(j2 - j1),)
