from unittest import mock

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from spectral_kcenter import (Graph, MetricParams, laplacian, metrics, path_graph,
                              perturbed_laplacian, random_connected_graph, random_tree,
                              select_best, sym_eigen)


def mixed_corpus(count: int, seed: int, n_lo: int = 4, n_hi: int = 9) -> list[Graph]:
    """Alternating random trees and connected G(n, 0.4) samples with n drawn
    uniformly from [n_lo, n_hi]; fully determined by the seed."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        child = int(np.random.SeedSequence([seed, t]).generate_state(1)[0])
        if t % 2 == 0:
            out.append(random_tree(n, child))
        else:
            out.append(random_connected_graph(n, 0.4, child))
    return out


def exact_lambda_min(n, ports, eps):
    """lambda_min(L(P_n) + eps E_S) for the 1-based ports S, by one eigensolve."""
    Lt = perturbed_laplacian(laplacian(path_graph(n)), ports, eps)
    return float(sym_eigen(Lt).values[0])


def nearest_real_root(poly, guess: float) -> float:
    """The root of the polynomial (coefficients in ascending order) nearest
    ``guess``, among all its roots from one companion-matrix eigensolve
    (``polyroots``). Asserts that this root is real and that the
    polynomial's residual there is small next to its sum of absolute terms."""
    poly = np.asarray(poly, dtype=float)
    roots = P.polyroots(poly)
    root = roots[np.argmin(np.abs(roots - guess))]
    assert abs(root.imag) <= 1e-8, (root, guess)
    root = float(root.real)
    scale = P.polyval(abs(root), np.abs(poly))
    assert abs(P.polyval(root, poly)) <= 1e-10 * scale, (root, guess)
    return root


def select_bounded(g: Graph, k: int, metric, params=MetricParams()):
    """``select_best(g, k, metric, params)`` on its bound-then-solve path
    whatever the size of the selection: no stack is small enough to be
    scored outright, so every metric with a bound builds it."""
    with mock.patch.object(metrics, "_OUTRIGHT_ENTRIES", 0):
        return select_best(g, k, metric, params)


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    return mixed_corpus(30, seed=90210)


def lambda_min_taylor(L: np.ndarray, subsets) -> np.ndarray:
    """Taylor coefficients of lambda_min(L + t E_S) = a1 t + a2 t^2 + a3 t^3 + O(t^4).

    ``L`` is the Laplacian of a connected graph, so its zero eigenvalue is
    simple; E_S puts a 1 on the diagonal at each 1-based port of S. One
    ``eigh`` of L serves every subset: with L = U diag(lambda) U',
    V = U' E_S U, v_j = V[j, 0] and w_j = v_j / lambda_j over j >= 2,

        a1 = V[0, 0] = k / n,
        a2 = -C2 = -sum_j v_j^2 / lambda_j,
        a3 = w' V[1:, 1:] w - a1 sum_j v_j^2 / lambda_j^2.

    Returns one row (a1, a2, a3) per subset, in the order given.
    """
    lam, U = np.linalg.eigh(L)
    ports = np.zeros((len(subsets), L.shape[0]))
    for i, S in enumerate(subsets):
        ports[i, [p - 1 for p in S]] = 1.0
    V = np.einsum("sp,pa,pb->sab", ports, U, U)
    v = V[:, 1:, 0]
    w = v / lam[1:]
    a1 = V[:, 0, 0]
    c2 = np.einsum("sj,sj->s", v, w)
    a3 = (np.einsum("sa,sab,sb->s", w, V[:, 1:, 1:], w)
          - a1 * np.einsum("sj,sj->s", w, w))
    return np.column_stack([a1, -c2, a3])
