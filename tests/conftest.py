"""Shared generators for the test suite."""

from __future__ import annotations

import math

import numpy as np


def random_irreducible(rng: np.random.Generator, n: int, density: float = 0.5) -> np.ndarray:
    """Nonnegative irreducible matrix: a full cycle plus random extras."""
    M = np.zeros((n, n))
    perm = rng.permutation(n)
    for a, b in zip(perm, np.roll(perm, -1)):
        M[a, b] = rng.uniform(0.1, 1.1)
    extra = rng.uniform(0.1, 1.1, (n, n)) * (rng.uniform(size=(n, n)) < density)
    return M + extra


def dense_perron_oracle(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Spectral radius and dominant nonnegative eigenvector via a full
    eigendecomposition plus a null-space solve (independent of power
    iteration)."""
    eigvals = np.linalg.eigvals(M)
    rho = float(np.abs(eigvals).max())
    # Eigenvector from the null space of (M - rho I): most reliable way to
    # get a real vector when other eigenvalues share the modulus.
    _, _, vt = np.linalg.svd(M - rho * np.eye(M.shape[0]))
    v = vt[-1]
    if v.sum() < 0:
        v = -v
    v = v / np.abs(v).max()
    return rho, v


def power_steps(M: np.ndarray) -> int:
    """Power steps the Perron kernel takes to meet ``PF_TOL`` on ``M``
    when its budget is far beyond the one it gets in use."""
    from demandgap.solvers import _dominant

    _, _, steps, _, method = _dominant(M, budget=100_000)
    assert method == "power"
    return steps


def cycle_gcd(M: np.ndarray) -> int:
    """Reference period of the digraph of ``M``: the gcd of the lengths
    k <= n of its closed walks, ``trace(adj^k) > 0``, from boolean matrix
    powers (0 when it has no cycle)."""
    adj = M > 0
    walks = adj.copy()
    period = 0
    for k in range(1, M.shape[0] + 1):
        if walks.diagonal().any():
            period = math.gcd(period, k)
        walks = (walks.astype(np.int64) @ adj) > 0
    return period


def perron_path(M: np.ndarray) -> tuple[str, int]:
    """The ``(method, iterations)`` that ``perron_eigen`` documents for an
    irreducible ``M``.  A side whose uniform start vector is exact answers
    there with no power step.  Otherwise, up to order 20 (``2 n <=
    PF_MAX_ITER``) the side goes to the dense solve with no power step;
    above that it has ``PF_MAX_ITER`` power steps, which a periodic ``M``
    never meets, and a side that needs more falls back to the dense solve
    after spending them all.  After a fallback on the right side the left
    side spends none."""
    from demandgap.solvers import PF_MAX_ITER, PF_TOL

    budget = 0 if 2 * M.shape[0] <= PF_MAX_ITER else PF_MAX_ITER
    periodic = cycle_gcd(M) > 1

    def steps(A: np.ndarray) -> int:
        # the uniform vector is exact when every row sum equals their mean
        sums = A.sum(axis=1)
        if float(np.abs(sums - sums.mean()).max()) <= PF_TOL * min(1.0, float(sums.max())):
            return 0
        return budget + 1 if periodic or not budget else power_steps(A)

    right, left = steps(M), steps(M.T)
    if right > budget:
        return "dense", budget
    if left > budget:
        return "dense", right + budget
    return "power", right + left


def interior_cone_instance(
    rng: np.random.Generator, n: int, l: int, budget: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Demand matrix whose row cone contains ``budget`` in its interior,
    plus the positive price certificate: C.T @ p_star == budget exactly."""
    p_star = rng.uniform(0.5, 2.0, n)
    raw = rng.uniform(0.2, 1.2, (n, l))
    u = raw.T @ p_star
    C = raw * (budget / u)[None, :]
    return C, p_star


def inputless_accounts():
    """Balanced 5-industry table in which industry 2 buys no inputs: the
    trade-balanced consistent fixture with column 2 of ``X`` zeroed and the
    balance restored through final consumption.  Its taxation shares are
    all positive."""
    from demandgap import IOAccounts
    from demandgap.fixtures import random_consistent_accounts

    acc, _, _ = random_consistent_accounts(3, 5, trade_balanced=True)
    X = acc.X.copy()
    X[:, 2] = 0.0
    return IOAccounts(X=X, Xout=acc.Xout, Cf=acc.Cf + acc.X[:, 2], E=acc.E, Imp=acc.Imp, pi=acc.pi)
