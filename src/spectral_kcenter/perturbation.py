"""Generic perturbation engines: first-order eigenvector expansion and
smallest-root series for polynomials perturbed by eps and eps^2 terms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import AssumptionError, DegenerateEigenvalueError, RootFindError
from .spectral import check_index, sym_eigen

EIGENGAP_MIN = 1e-8
NEWTON_MAX_ITER = 200  # iterations of smallest_root_numeric


@dataclass(frozen=True)
class RootSeries:
    """First two coefficients of the smallest-root expansion in eps."""

    beta1: float
    beta2: float

    def at(self, eps: float) -> float:
        return self.beta1 * eps + self.beta2 * eps * eps


def perturbed_eigvec_first_order(A: np.ndarray, pert: np.ndarray, j: int,
                                 eps: float) -> np.ndarray:
    """First-order eigenvector of A + eps*pert for the j-th (1-based) eigenpair.

    v_hat = v_j + eps * sum_{k != j} (v_j' P v_k)/(lambda_j - lambda_k) v_k,
    using normalized eigenvectors of A. Requires all eigenvalues of A to be
    separated by more than 1e-8.
    """
    dec = sym_eigen(A)
    n = len(dec.values)
    check_index("eigenpair index", j, 1, n)
    gaps = np.diff(dec.values)
    if n > 1 and gaps.min() <= EIGENGAP_MIN:
        raise DegenerateEigenvalueError(
            f"eigenvalue gap {gaps.min():.3e} below {EIGENGAP_MIN:.0e}")
    vj = dec.vectors[:, j - 1]
    out = vj.copy()
    coup = dec.vectors.T @ (np.asarray(pert, dtype=float) @ vj)
    for k in range(n):
        if k == j - 1:
            continue
        out = out + eps * coup[k] / (dec.values[j - 1] - dec.values[k]) * dec.vectors[:, k]
    return out


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


def smallest_root_numeric(poly, guess: float) -> float:
    """Real root of the polynomial near ``guess`` by safeguarded Newton.

    Once a sign change is bracketed, iterates that escape the bracket are
    replaced by bisection. Converges to residual <= 1e-12 * (1 +
    coefficient scale).
    """
    coeffs = np.asarray(poly, dtype=float)
    dcoeffs = P.polyder(coeffs)
    scale = 1.0 + np.abs(coeffs).max(initial=0.0)
    tol = 1e-12 * scale

    x = float(guess)
    lo = hi = None  # bracket endpoints with opposite signs, once found
    flo = None
    for _ in range(NEWTON_MAX_ITER):
        fx = P.polyval(x, coeffs)
        if abs(fx) <= tol:
            return float(x)
        if lo is None:
            probe = P.polyval(x + max(1e-12, abs(x)) * 1e-3, coeffs)
            if np.sign(probe) != np.sign(fx) and probe != 0:
                lo, hi, flo = x, x + max(1e-12, abs(x)) * 1e-3, fx
        d = P.polyval(x, dcoeffs)
        if d != 0:
            step = fx / d
            x_new = x - step
        else:
            x_new = x + max(1e-8, abs(x)) * 1e-4
        if lo is not None:
            # keep sign-change bracket tight; bisect when Newton escapes it
            a, b = min(lo, hi), max(lo, hi)
            if not (a <= x_new <= b):
                x_new = 0.5 * (a + b)
            f_new = P.polyval(x_new, coeffs)
            if np.sign(f_new) == np.sign(flo):
                lo, flo = x_new, f_new
            else:
                hi = x_new
        x = x_new
    fx = P.polyval(x, coeffs)
    if abs(fx) <= 1e3 * tol:
        return float(x)
    raise RootFindError(
        f"no root within {NEWTON_MAX_ITER} iterations from guess {guess} (residual {fx:.3e})")
