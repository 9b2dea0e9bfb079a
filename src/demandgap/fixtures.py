"""Built-in example economies and random generators.

``economy_e1`` is the two-good, two-consumer economy that clears at strictly
positive prices; ``economy_e2`` is a one-parameter family that clears with a
free good and exhibits the degenerate price family; ``toy_accounts`` is the
two-industry national table used across the test-suite and demos.

The random generators build *valid* instances by construction (synthesized
equilibria, consistent accounts), so property suites can draw thousands of
cases without rejection sampling.
"""

from __future__ import annotations

import numpy as np

from .exchange import ExchangeEconomy, _proportional, _unit_price
from .leontief import IOAccounts
from .structure import RepresentationParts, clearing_basis, synthesize_property

__all__ = [
    "economy_e1",
    "economy_e2",
    "toy_accounts",
    "random_equilibrium",
    "random_value_accounts",
    "random_consistent_accounts",
]


def economy_e1() -> tuple[ExchangeEconomy, np.ndarray]:
    """Two goods, two consumers, clears exactly at p = (1, 1)."""
    C = np.array([[1.0, 1.0], [1.0, 0.0]])
    B = np.array([[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]])
    return ExchangeEconomy(C, B), np.array([1.0, 1.0])


def economy_e2(b21: float = 0.5) -> tuple[ExchangeEconomy, np.ndarray]:
    """One-parameter family clearing at p = (1, 0) for any b21 in [0, 1].

    Good 1 carries no price; after the degenerating transfer its price
    becomes a free coordinate of the equilibrium family.
    """
    if not 0.0 <= b21 <= 1.0:
        raise ValueError(f"b21 must lie in [0, 1], got {b21}")
    C = np.array([[1.0, 1.0], [1.0, 0.0]])
    B = np.array([[1.0, 1.0], [b21, 1.0 - b21]])
    return ExchangeEconomy(C, B), np.array([1.0, 0.0])


def toy_accounts(pi=(1.0, 1.0)) -> IOAccounts:
    """Two-industry value table with a built-in demand shortfall in
    industry 2 (r = 13.75 / 130)."""
    return IOAccounts(
        X=np.array([[10.0, 20.0], [30.0, 10.0]]),
        Xout=np.array([100.0, 100.0]),
        Cf=np.array([50.0, 30.0]),
        E=np.array([20.0, 10.0]),
        Imp=np.array([5.0, 15.0]),
        pi=np.asarray(pi, dtype=float),
    )


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_equilibrium(
    seed,
    n: int = 4,
    l: int = 3,
    support: int = 2,
    slack: bool = False,
) -> tuple[ExchangeEconomy, np.ndarray, RepresentationParts]:
    """Random economy that clears at a random price with the given support.

    Built by synthesizing endowments from random representation parts, so
    the returned price is an equilibrium by construction.  With
    ``slack=True`` the off-support goods carry strict deficits (the
    partial case).  Perturbations are scaled so all endowments stay
    strictly positive.
    """
    rng = _rng(seed)
    if not 1 <= support <= n:
        raise ValueError(f"support must be in 1..{n}, got {support}")
    I = tuple(sorted(int(k) for k in rng.choice(n, size=support, replace=False)))
    J = [k for k in range(n) if k not in I]

    C = rng.uniform(0.2, 1.2, (n, l))
    p = np.zeros(n)
    p[list(I)] = rng.uniform(0.5, 1.5, support)
    y = rng.uniform(0.5, 1.5, l)
    q = _unit_price(p)

    G = clearing_basis(p, I).G
    delta = rng.normal(0.0, 1.0, (support, l))
    delta -= delta.mean(axis=1, keepdims=True)
    d0 = np.zeros((n, l))
    if J:
        raw = rng.normal(0.0, 1.0, (len(J), l))
        raw -= raw.mean(axis=1, keepdims=True)
        if slack:
            raw += rng.uniform(0.1, 0.6, (len(J), 1)) / l
        d0[J, :] = raw

    psi_bar = C @ y
    base = _proportional(psi_bar, y * (C.T @ q), float(psi_bar @ q))
    pert = G @ delta + d0
    mask = pert < 0
    alpha = 1.0
    if mask.any():
        alpha = min(1.0, 0.45 * float((base[mask] / np.abs(pert[mask])).min()))
    parts = RepresentationParts(
        y=y,
        a=alpha * delta + 1.0 / l,
        d0=alpha * d0,
        I=I,
        case="partial" if slack else "exact",
    )
    B = synthesize_property(C, p, parts)
    return ExchangeEconomy(C, B), p, parts


def random_value_accounts(seed, m: int, pi=None) -> IOAccounts:
    """Strictly positive value accounts (no balance imposed); useful for
    identities that hold for arbitrary tables, such as ``sum D = sum S``.
    Gross value added is negative on 3 of seeds 0-49 at m = 15, 25 at m = 20
    and all 50 at m = 34 and 38, where :func:`analyze_accounts` raises
    NonpositiveGDP; use :func:`random_consistent_accounts` for a valid table."""
    rng = _rng(seed)
    if pi is None:
        pi = rng.uniform(0.0, 1.0, m)
    return IOAccounts(
        X=rng.uniform(0.5, 50.0, (m, m)),
        Xout=rng.uniform(10.0, 1000.0, m),
        Cf=rng.uniform(5.0, 500.0, m),
        E=rng.uniform(1.0, 200.0, m),
        Imp=rng.uniform(1.0, 200.0, m),
        pi=pi,
    )


def random_consistent_accounts(
    seed,
    m: int,
    pi=None,
    trade_balanced: bool = False,
) -> tuple[IOAccounts, np.ndarray, np.ndarray]:
    """Accounts satisfying the interindustry balance, plus the physical
    (A, x) data behind them.

    Returns ``(accounts, prices, outputs)``.  Coefficient rows are scaled
    so production is strictly productive and final consumption stays
    positive.  ``trade_balanced=True`` sets imports equal to exports
    componentwise.
    """
    rng = _rng(seed)
    A = rng.uniform(0.05, 1.0, (m, m))
    A = A / A.sum(axis=1, keepdims=True) * rng.uniform(0.2, 0.6, (m, 1))
    x = rng.uniform(100.0, 150.0, m)
    gross = x - A @ x
    e = gross * rng.uniform(0.05, 0.3, m)
    imp = e.copy() if trade_balanced else rng.uniform(1.0, 20.0, m)
    cf = x - A @ x - e + imp
    if pi is None:
        pi = rng.uniform(0.1, 1.0, m)
    p = rng.uniform(0.5, 2.0, m)
    acc = IOAccounts.from_physical(A, x, p, cf, e, imp, pi)
    return acc, p, x
