"""The relative band ``tol * max(1, scale)`` and its split into equal,
strict and violated positions, checked against numpy written out here.

Every public verdict that reads a sign pattern through ``tol`` goes through
one implementation; these properties pin each caller to the formula.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from demandgap import (
    ExchangeEconomy,
    IOAccounts,
    NotInCone,
    check_equilibrium,
    check_value_equilibrium,
    demand_vector,
    recession_industries,
    solve_national_equilibrium,
    supply_vector,
)
from demandgap.fixtures import random_consistent_accounts, random_equilibrium, random_value_accounts
from demandgap.solvers import CONE_TOL

TOLS = st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.5])


def _split(residual, scale, tol):
    band = tol * np.maximum(1.0, scale)
    return (
        tuple(np.flatnonzero(np.abs(residual) <= band).tolist()),
        tuple(np.flatnonzero(residual < -band).tolist()),
        tuple(np.flatnonzero(residual > band).tolist()),
    )


def _economy(seed, n, l, kind):
    """A random finite economy and price: arbitrary nonnegative entries, or
    a synthesized equilibrium (residuals near zero) at a perturbed price."""
    rng = np.random.default_rng(seed)
    if kind == "equilibrium":
        econ, p, _ = random_equilibrium(rng, n=n, l=l, support=int(rng.integers(1, n + 1)))
        p = p * (1.0 + rng.uniform(0.0, 1e-6, n) * (rng.random(n) < 0.5))
        return econ, p
    C = rng.uniform(0.0, 2.0, (n, l)) * (rng.random((n, l)) < 0.7)
    C[0] += 0.1  # money is demanded by everyone, so every bundle has value
    B = rng.uniform(0.01, 2.0, (n, l))
    p = rng.uniform(0.0, 3.0, n) * (rng.random(n) < 0.7)
    p[0] = rng.uniform(0.5, 2.0)
    return ExchangeEconomy(C, B), p


class TestBandProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        l=st.integers(1, 10),
        kind=st.sampled_from(["random", "equilibrium"]),
        tol=TOLS,
    )
    def test_clearing_sets_partition_and_match_numpy(self, seed, n, l, kind, tol):
        econ, p = _economy(seed, n, l, kind)
        report = check_equilibrium(econ, p, tol=tol)
        sets = (report.equality_set, report.strict_set, report.violated_set)
        assert sorted(k for s in sets for k in s) == list(range(econ.n))

        q = p / (p[0] if p[0] > 0 else p.max())
        y = (econ.B.T @ q) / (econ.C.T @ q)
        psi = econ.B.sum(axis=1)
        assert sets == _split(econ.C @ y - psi, psi, tol)
        assert report.is_equilibrium == (not report.violated_set)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        l=st.integers(1, 10),
        k=st.integers(-320, 308),
        tol=TOLS,
    )
    def test_clearing_sets_partition_at_any_price_scale(self, seed, n, l, k, tol):
        """Non-money prices (at most 1) scaled by 10^k: the verdict
        partitions the goods, or the call refuses the price with ValueError
        (clearing arithmetic that overflows to NaN).  numpy's own overflow
        warnings are not the verdict under test, so they are silenced."""
        econ, p = _economy(seed, n, l, "random")
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.concatenate([p[:1], p[1:] / max(1.0, p[1:].max()) * 10.0**k])
            try:
                report = check_equilibrium(econ, p, tol=tol)
            except ValueError:
                return
        sets = (report.equality_set, report.strict_set, report.violated_set)
        assert sorted(k for s in sets for k in s) == list(range(econ.n))

    @settings(max_examples=100, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), tol=TOLS)
    def test_value_violations_match_numpy(self, seed, m, tol):
        acc = random_value_accounts(seed, m)
        S = supply_vector(acc)
        report = check_value_equilibrium(acc, tol=tol)
        assert report.violated == _split(demand_vector(acc) - S, S, tol)[2]

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 30), tol=TOLS)
    def test_recession_set_matches_numpy(self, seed, m, tol):
        # demand straddles the band edge on both sides
        rng = np.random.default_rng(seed)
        S = rng.uniform(0.0, 100.0, m)
        D = S + rng.uniform(-2.0, 2.0, m) * tol * np.maximum(1.0, S)
        positions, shortfall = recession_industries(D, S, tol=tol)
        strict = _split(D - S, S, tol)[1]
        assert positions == strict
        np.testing.assert_array_equal(shortfall, np.abs((D - S)[list(strict)]))

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 12),
        kind=st.sampled_from(["balanced", "unsold", "perturbed"]),
        tol=st.sampled_from([1e-12, 1e-9, 1e-3]),
    )
    def test_national_split_matches_numpy(self, seed, m, kind, tol):
        rng = np.random.default_rng(seed)
        acc, _, _ = random_consistent_accounts(rng, m, trade_balanced=True)
        X, Xout, Cf, E, Imp = (np.array(a) for a in (acc.X, acc.Xout, acc.Cf, acc.E, acc.Imp))
        if kind == "unsold":
            # nobody buys good u and its output is small enough to stay in
            # the cone, so it falls in J (or in I at a wide tol)
            u = int(rng.integers(0, m))
            X[u], Cf[u], E[u], Imp[u] = 0.0, 0.0, 0.0, 0.0
            Xout[u] = 3e-9 * float(np.linalg.norm(Xout + Imp))
        elif kind == "perturbed":
            Xout *= 1.0 + rng.uniform(-1e-7, 1e-7, m)
        acc = IOAccounts(X=X, Xout=Xout, Cf=Cf, E=E, Imp=Imp, pi=acc.pi)
        try:
            sol = solve_national_equilibrium(acc, tol=tol, strict=False)
        except NotInCone:
            return
        target = Xout + Imp + X @ acc.pi
        residual = np.column_stack([X, Cf, E]) @ sol.y - target
        equal, strict, violated = _split(residual, target, max(tol, CONE_TOL))
        assert (sol.I, sol.J, violated) == (equal, strict, ())
        if kind == "unsold" and max(tol, CONE_TOL) < Xout[u]:
            assert sol.J == (u,)
