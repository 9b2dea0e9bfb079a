"""National model: accounts, aggregation, agent construction, the
constructive solve, and the value-form clearing test."""

import ast
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import dense_perron_oracle, inputless_accounts, power_steps
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

import demandgap
from demandgap import (
    AggregationMap,
    BlockMismatch,
    DemandGapError,
    ExchangeEconomy,
    IOAccounts,
    NotAnEquilibrium,
    NotInCone,
    RhoNotOne,
    ZeroDemandValue,
    ZeroDenominator,
    aggregate,
    aggregate_accounts,
    build_exchange_from_iot,
    check_aggregation_agreement,
    check_value_equilibrium,
    demand_vector,
    excess_demand,
    solve_national_equilibrium,
    supply_vector,
    synthesize_property,
)
from demandgap._policy import _classify
from demandgap.exchange import DEFAULT_TOL, DEFAULT_TOL_POS
from demandgap.leontief import RHO_TOL
from demandgap.solvers import CONE_TOL, PF_MAX_ITER, _dominant, _irreducible
from demandgap.structure import RepresentationParts
from demandgap.fixtures import (
    random_consistent_accounts,
    random_equilibrium,
    random_value_accounts,
    toy_accounts,
)


def certified_accounts(seed: int, m: int, trade_scale: float = 0.2):
    """Accounts engineered so the constructive solve certifies: balanced
    trade and coefficients rescaled to put the production spectral radius
    at one under the guaranteed seed scales."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.05, 1.0, (m, m))
    A = A / A.sum(axis=1, keepdims=True) * 0.4
    pi = rng.uniform(0.3, 1.0, m)
    scaled = A * (1.0 + pi)[None, :] / pi[:, None]
    A = A / np.abs(np.linalg.eigvals(scaled)).max()
    x = np.linalg.solve(np.eye(m) - A, rng.uniform(5.0, 10.0, m))
    gross = x - A @ x
    e = gross * trade_scale
    imp = e.copy()
    cf = x - A @ x - e + imp
    return IOAccounts.from_physical(A, x, np.ones(m), cf, e, imp, pi)


def cyclic_accounts(seed: int, m: int, spread: float = 1.3):
    """Balanced table whose supply chain is one cycle (industry k buys only
    from industry k - 1) and that certifies at its own pi: column input
    values Xout_i pi_i / (1 + pi_i) and balanced trade put rho(A(y)) at one
    under the guaranteed seed.  A(y) is a weighted permutation with period
    m and largest weight ``spread``."""
    rng = np.random.default_rng(seed)
    Xout = rng.uniform(100.0, 150.0, m)
    steps = rng.uniform(-1.0, 1.0, m)
    steps -= steps.mean()
    steps *= np.log(spread) / steps.max()
    log_pi = np.cumsum(steps)
    pi = np.exp(log_pi - log_pi.max())
    X = np.zeros((m, m))
    cols = np.arange(m)
    X[(cols - 1) % m, cols] = Xout * pi / (1.0 + pi)
    E = Xout * rng.uniform(0.05, 0.1, m)
    Imp = rng.uniform(0.5, 1.5, m)
    Imp *= E.sum() / Imp.sum()
    Cf = Xout + Imp - X.sum(axis=1) - E
    return IOAccounts(X=X, Xout=Xout, Cf=Cf, E=E, Imp=Imp, pi=pi)


def balanced_accounts(kind: str, seed: int, m: int, shrink: float = 1.0) -> IOAccounts:
    """Balanced table (``X 1 + Cf + E = Xout + Imp`` row by row, so the
    guaranteed seed fits) with shares ``shrink * pi``.  Kinds:
    ``engineered`` (column inputs ``Xout pi / (1 + pi)`` and balanced
    trade, so it certifies at ``shrink = 1``), ``random`` (inputs 10-30 %
    of output), ``cyclic`` (:func:`cyclic_accounts`) and ``dead`` (an
    engineered table in which one industry has no output and buys no
    inputs: a zero input column, its use imported)."""
    if kind == "cyclic":
        acc = cyclic_accounts(seed, m)
        return IOAccounts(X=acc.X, Xout=acc.Xout, Cf=acc.Cf, E=acc.E, Imp=acc.Imp, pi=shrink * acc.pi)
    rng = np.random.default_rng(seed)
    Xout = rng.uniform(100.0, 150.0, m)
    if kind == "random":
        pi = rng.uniform(0.5, 1.0, m)
        inputs = Xout * rng.uniform(0.1, 0.3, m)
    else:
        pi = rng.uniform(0.4, 1.0, m)
        inputs = Xout * pi / (1.0 + pi)
    w = rng.uniform(0.5, 1.5, (m, m))
    X = w / w.sum(axis=0) * inputs
    if kind == "dead":
        j = int(rng.integers(m))
        X[:, j] = 0.0
        Xout[j] = 0.0
    E = Xout * rng.uniform(0.05, 0.2, m)
    Imp = rng.uniform(0.5, 1.5, m)
    Imp *= E.sum() / Imp.sum()
    if kind == "dead":
        Imp[j] += X[j].sum()
    Cf = Xout + Imp - X.sum(axis=1) - E
    return IOAccounts(X=X, Xout=Xout, Cf=Cf, E=E, Imp=Imp, pi=shrink * pi)


def certifies(acc: IOAccounts, y: np.ndarray, p: np.ndarray, rho: float, J: tuple) -> bool:
    """The national solve's certificate for the price ``p`` and spectral
    radius ``rho`` at the scales ``y``, with the price system
    ``M = diag(y/pi) A^T`` formed in full."""
    m = acc.m
    Mp = ((y[:m] / acc.pi)[:, None] * acc.coefficients().T) @ p
    cf_value, e_value = float(acc.Cf @ p), float(acc.E @ p)
    household = (((1.0 - acc.pi) * acc.Xout) @ p + p @ (acc.X @ acc.pi)) / cf_value
    trade = float(acc.Imp @ p) / e_value
    return bool(
        abs(rho - 1.0) <= RHO_TOL
        and np.abs(Mp - p).max() <= RHO_TOL
        and abs(household - y[m]) / max(1.0, y[m]) <= max(RHO_TOL, DEFAULT_TOL)
        and abs(trade - y[m + 1]) / max(1.0, y[m + 1]) <= max(RHO_TOL, DEFAULT_TOL)
        and cf_value > DEFAULT_TOL_POS
        and e_value > DEFAULT_TOL_POS
        and (p[list(J)] <= DEFAULT_TOL_POS).all()
    )


def reference_solve(acc: IOAccounts) -> dict:
    """The seed-path national solve at the default ``tol`` with every
    matrix formed in full: the stacked demand columns ``[X | Cf | E]``, the
    coefficients ``A`` and the price system ``M = diag(y/pi) A^T`` as a
    second buffer, whose Perron vector is the price."""
    m = acc.m
    A = acc.coefficients()
    C_big = np.column_stack([acc.X, acc.Cf, acc.E])
    taxed_use = acc.X @ acc.pi
    target = acc.Xout + acc.Imp + taxed_use
    y = np.concatenate([1.0 + acc.pi, [1.0, 1.0]])
    residual = C_big @ y - target
    inside, below, _ = _classify(residual, target, max(DEFAULT_TOL, CONE_TOL))
    M = (y[:m] / acc.pi)[:, None] * A.T
    irreducible = _irreducible(M)
    rho_m, p, _, _, _ = _dominant(M)
    rho = rho_m if irreducible else float(np.abs(np.linalg.eigvals(M)).max())
    J = tuple(np.flatnonzero(below).tolist())
    certified = certifies(acc, y, p, rho, J)
    return dict(
        y=y, p=p, rho=rho, I=tuple(np.flatnonzero(inside).tolist()), J=J,
        certified=certified, target=target, residual=residual, rho_m=rho_m,
        Mp=M @ p, input_value=A.T @ p,
    )


def reference_certificate(acc: IOAccounts, sol, tol: float) -> dict:
    """The national solve's certificate tail in the form it had before each
    clause was formed once: from the solution's price, scales, spectral
    radius, deficit set and first nine diagnostics, the closures and both
    flags, then ``certified`` with ``positivity_ok`` in the conjunction.
    Returns the diagnostics with ``certified`` under its own key."""
    m, y, p, rho = acc.m, sol.y, sol.p, sol.rho
    diag = dict(list(sol.diagnostics.items())[:9])
    below = np.zeros(m, dtype=bool)
    below[list(sol.J)] = True
    e_total, imp_total = float(np.add.reduce(acc.E)), float(np.add.reduce(acc.Imp))
    household_income = float(((1.0 - acc.pi) * acc.Xout) @ p + p @ (acc.X @ acc.pi))
    cf_value = float(acc.Cf @ p)
    e_value = float(acc.E @ p)
    imp_value = float(acc.Imp @ p)

    closure_tol = max(RHO_TOL, tol)
    if cf_value > DEFAULT_TOL_POS:
        household_scale = household_income / cf_value
        diag["closure_household"] = abs(household_scale - y[m]) / max(1.0, abs(y[m]))
    else:
        diag["closure_household"] = np.inf
    if e_value > DEFAULT_TOL_POS:
        trade_scale = imp_value / e_value
        diag["closure_trade"] = abs(trade_scale - y[m + 1]) / max(1.0, abs(y[m + 1]))
    elif e_total + imp_total == 0.0:
        diag["closure_trade"] = 0.0  # vacuous trade agent
    else:
        diag["closure_trade"] = np.inf

    prices_vanish_on_J = bool(np.logical_and.reduce(p[below] <= DEFAULT_TOL_POS))
    positivity_ok = cf_value > DEFAULT_TOL_POS and (
        e_value > DEFAULT_TOL_POS or e_total + imp_total == 0.0
    )
    certified = (
        abs(rho - 1.0) <= RHO_TOL
        and diag["value_equation_residual"] <= RHO_TOL
        and diag["closure_household"] <= closure_tol
        and diag["closure_trade"] <= closure_tol
        and positivity_ok
        and prices_vanish_on_J
    )
    diag["positivity_ok"] = positivity_ok
    diag["prices_vanish_on_J"] = prices_vanish_on_J
    return {**diag, "certified": certified}


def _same_bits(got, want) -> bool:
    """Equal type and value; floats compared by ``.hex()``."""
    if type(got) is not type(want):
        return False
    return got.hex() == want.hex() if isinstance(got, float) else got == want


class TestIOAccounts:
    def test_validation(self):
        with pytest.raises(ValueError):
            IOAccounts(X=[[1.0, -1.0], [0.0, 1.0]], Xout=[1, 1], Cf=[1, 1],
                       E=[0, 0], Imp=[0, 0], pi=[1, 1])
        with pytest.raises(ValueError):
            IOAccounts(X=np.ones((2, 2)), Xout=[1, 1], Cf=[1, 1],
                       E=[0, 0], Imp=[0, 0], pi=[1.5, 1.0])

    @pytest.mark.parametrize("field", ["X", "Xout", "Cf", "E", "Imp", "pi"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        values = dict(X=np.ones((2, 2)), Xout=np.ones(2), Cf=np.ones(2),
                      E=np.ones(2), Imp=np.ones(2), pi=np.full(2, 0.5))
        values[field] = values[field].copy()
        values[field].flat[1] = bad
        with pytest.raises(ValueError):
            IOAccounts(**values)

    def test_scalar_pi_broadcast(self):
        acc = IOAccounts(X=np.ones((3, 3)), Xout=np.ones(3), Cf=np.ones(3),
                         E=np.ones(3), Imp=np.ones(3), pi=[0.5])
        np.testing.assert_array_equal(acc.pi, [0.5, 0.5, 0.5])

    def test_from_physical_and_back(self):
        rng = np.random.default_rng(0)
        m = 3
        A = rng.uniform(0.05, 0.25, (m, m))
        x = rng.uniform(10, 20, m)
        p = rng.uniform(0.5, 2.0, m)
        acc = IOAccounts.from_physical(A, x, p, cf=np.ones(m), e=np.ones(m),
                                       imp=np.ones(m), pi=np.ones(m))
        np.testing.assert_allclose(acc.Xout, p * x)
        np.testing.assert_allclose(acc.X, p[:, None] * A * x[None, :])
        np.testing.assert_allclose(acc.coefficients(), p[:, None] * A / p[None, :] * 1.0, rtol=1e-12)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        m=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        dead_outputs=st.floats(0.0, 1.0),
        zero_columns=st.floats(0.0, 1.0),
    )
    def test_coefficients_match_column_division(self, m, seed, dead_outputs, zero_columns):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1e3, (m, m)) * 10.0 ** rng.integers(-6, 6, (m, m))
        X[:, rng.uniform(size=m) < zero_columns] = 0.0
        Xout = rng.uniform(1e-3, 1e6, m)
        Xout[rng.uniform(size=m) < dead_outputs] = 0.0
        acc = IOAccounts(X=X, Xout=Xout, Cf=np.ones(m), E=np.ones(m), Imp=np.ones(m), pi=np.ones(m))
        expected = np.zeros((m, m))
        for i in range(m):
            if Xout[i] > 0:
                expected[:, i] = X[:, i] / Xout[i]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = acc.coefficients()
        assert got.tobytes() == expected.tobytes()

    def test_balance_residual_on_consistent_accounts(self):
        acc, p, x = random_consistent_accounts(1, 5)
        np.testing.assert_allclose(
            acc.balance_residual(), np.zeros(5), atol=1e-9 * acc.Xout.max()
        )


class TestAggregation:
    def test_block_sum_vector(self):
        mapping = AggregationMap(((0, 1), (2,)))
        np.testing.assert_array_equal(mapping.apply([1.0, 2.0, 3.0]), [3.0, 3.0])

    def test_identity_map(self):
        mapping = AggregationMap.identity(3)
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(mapping.apply(v), v)

    def test_partition_validation(self):
        with pytest.raises(BlockMismatch):
            AggregationMap(((0, 1), (1, 2)))
        with pytest.raises(BlockMismatch):
            AggregationMap(((0,), (2,)))
        # a repeat inside one block would sum that index twice and drop another
        with pytest.raises(BlockMismatch):
            AggregationMap(((0, 0),))
        with pytest.raises(BlockMismatch):
            AggregationMap(((0, 0), (1,)))

    def test_totals_conserved(self):
        # up to summation-order roundoff (float addition is not associative)
        rng = np.random.default_rng(2)
        v = rng.uniform(0, 10, 7)
        mapping = AggregationMap(((0, 3), (1, 2, 6), (4, 5)))
        assert mapping.apply(v).sum() == pytest.approx(v.sum(), rel=1e-14)

    def test_aggregate_economy(self):
        econ, p, parts = random_equilibrium(3, n=4, l=3, support=4)
        mapping = AggregationMap(((0, 1), (2, 3)))
        small = aggregate(econ, mapping)
        assert small.n == 2 and small.l == 3
        np.testing.assert_allclose(small.total_supply().sum(), econ.total_supply().sum())

    def test_aggregate_accounts_weighted_pi(self):
        acc = toy_accounts(pi=(1.0, 0.5))
        merged = aggregate_accounts(acc, AggregationMap(((0, 1),)))
        assert merged.m == 1
        np.testing.assert_allclose(merged.Xout, [200.0])
        np.testing.assert_allclose(merged.X, [[70.0]])
        assert merged.pi[0] == pytest.approx(0.75)  # output-weighted

    def test_overflowing_block_sum_raises(self):
        # numpy once warned "overflow encountered in reduce" and returned [inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="aggregated data must be finite"):
                aggregate([1e308, 1e308], AggregationMap(((0, 1),)))
            # the merged gross output weights the merged share
            acc = IOAccounts(X=np.eye(2), Xout=[1e308, 1e308], Cf=[1, 1], E=[1, 1], Imp=[1, 1], pi=[1.0, 0.5])
            with pytest.raises(ValueError, match="aggregated data must be finite"):
                aggregate_accounts(acc, AggregationMap(((0, 1),)))


class TestAggregationAgreement:
    def test_identity_aggregation_agrees(self):
        econ, p, parts = random_equilibrium(4, n=4, l=3, support=4)
        mapping = AggregationMap.identity(4)
        assert check_aggregation_agreement(econ, p, mapping, p)

    def test_full_aggregation_exact_economy(self):
        # equality everywhere, so the single aggregated inequality is tight
        econ, p, parts = random_equilibrium(5, n=4, l=3, support=4)
        mapping = AggregationMap((tuple(range(4)),))
        assert check_aggregation_agreement(econ, p, mapping, np.array([1.0]))

    def test_full_aggregation_slack_economy_disagrees(self):
        # total demand < total supply, but the aggregated model always clears
        econ, p, parts = random_equilibrium(6, n=4, l=3, support=2, slack=True)
        mapping = AggregationMap((tuple(range(4)),))
        assert not check_aggregation_agreement(econ, p, mapping, np.array([1.0]))

    def test_block_constant_prices_agree(self):
        # synthesize an equilibrium whose price is constant on each block:
        # the block prices then clear the aggregated economy the same way
        rng = np.random.default_rng(7)
        blocks = ((0, 1), (2, 3), (4,))
        n, l = 5, 4
        C = rng.uniform(0.2, 1.2, (n, l))
        p = np.empty(n)
        levels = rng.uniform(0.5, 1.5, len(blocks))
        for j, b in enumerate(blocks):
            p[list(b)] = levels[j]
        parts = RepresentationParts(
            y=rng.uniform(0.5, 1.5, l),
            a=np.full((n, l), 1.0 / l),
            d0=np.zeros((n, l)),
            I=tuple(range(n)),
        )
        B = synthesize_property(C, p, parts)
        econ = ExchangeEconomy(C, B)
        assert check_aggregation_agreement(econ, p, AggregationMap(blocks), levels)

    def test_requires_equilibrium(self):
        econ, p, parts = random_equilibrium(8, n=4, l=3, support=4)
        bad = np.asarray(p) * 0 + np.array([1.0, 10.0, 0.1, 0.1])
        with pytest.raises(NotAnEquilibrium):
            check_aggregation_agreement(econ, bad, AggregationMap.identity(4), bad)


class TestBuildExchange:
    def test_agent_layout(self):
        acc, p, x = random_consistent_accounts(9, 3, pi=np.ones(3))
        econ = build_exchange_from_iot(acc, p, x)
        assert econ.n == 3 and econ.l == 7
        np.testing.assert_allclose(np.diag(econ.B[:, :3]), x)
        A = acc.coefficients()  # value-form coefficients at unit prices
        phys_A = acc.X / (p[:, None] * x[None, :])
        np.testing.assert_allclose(econ.C[:, :3], phys_A * x[None, :], rtol=1e-12)
        np.testing.assert_allclose(np.diag(econ.B[:, 3:6]), phys_A @ x, rtol=1e-12)
        np.testing.assert_allclose(econ.B[:, 6] * p, acc.Imp, rtol=1e-12)
        np.testing.assert_allclose(econ.C[:, 6] * p, acc.E, rtol=1e-12)

    def test_full_tax_households_live_on_resource_income(self):
        acc, p, x = random_consistent_accounts(10, 4, pi=np.ones(4))
        econ = build_exchange_from_iot(acc, p, x)
        phys_A = acc.X / (p[:, None] * x[None, :])
        resource_income = p * (phys_A @ x)
        weights = resource_income / (p @ x)
        cf = acc.Cf / p
        np.testing.assert_allclose(econ.C[:, 4:8], cf[:, None] * weights[None, :], rtol=1e-10)

    def test_excess_demand_matches_value_gap(self):
        for seed in range(5):
            acc, p, x = random_consistent_accounts(seed, 4, pi=np.ones(4))
            econ = build_exchange_from_iot(acc, p, x)
            z = excess_demand(econ, p)
            gap = demand_vector(acc) - supply_vector(acc)
            np.testing.assert_allclose(p * z, gap, atol=1e-9 * np.abs(gap).max())

    def test_toy_accounts_cross_module(self):
        acc = toy_accounts()
        p = np.ones(2)
        econ = build_exchange_from_iot(acc, p, acc.Xout)
        z = excess_demand(econ, p)
        np.testing.assert_allclose(p * z, [13.75, -13.75], atol=1e-9)

    def test_vacuous_production_raises_on_evaluation(self):
        # single industry with no inputs: its demand column is zero
        acc = IOAccounts(X=[[0.0]], Xout=[1.0], Cf=[1.0], E=[0.0], Imp=[0.0], pi=[1.0])
        econ = build_exchange_from_iot(acc, np.array([1.0]), np.array([1.0]))
        with pytest.raises(ZeroDemandValue):
            excess_demand(econ, np.array([1.0]))

    def test_single_industry_scalar_reduction(self):
        # no inputs, no trade, untaxed: household demand is exactly final
        # consumption and the market clears with equality
        acc = IOAccounts(X=[[0.0]], Xout=[1.0], Cf=[1.0], E=[0.0], Imp=[0.0], pi=[0.0])
        D, S = demand_vector(acc), supply_vector(acc)
        np.testing.assert_allclose(D, S, atol=1e-15)
        report = check_value_equilibrium(acc)
        assert report.is_equilibrium
        np.testing.assert_allclose(report.residual, [0.0], atol=1e-15)

    def test_zero_consumption_value_rejected(self):
        acc = IOAccounts(X=[[0.5]], Xout=[1.0], Cf=[0.0], E=[0.0], Imp=[0.0], pi=[1.0])
        with pytest.raises(ZeroDenominator):
            build_exchange_from_iot(acc, np.array([1.0]), np.array([1.0]))

    def test_imports_without_exports_rejected(self):
        acc = IOAccounts(X=[[0.5]], Xout=[1.0], Cf=[1.0], E=[0.0], Imp=[0.5], pi=[1.0])
        with pytest.raises(ZeroDenominator):
            build_exchange_from_iot(acc, np.array([1.0]), np.array([1.0]))


class TestValueEquilibrium:
    def test_toy_accounts_violation_pattern(self):
        report = check_value_equilibrium(toy_accounts())
        np.testing.assert_allclose(report.residual, [13.75, -13.75])
        assert report.violated == (0,)
        assert not report.is_equilibrium

    def test_balanced_autarky_clears(self):
        # one industry, all value taxed back into production, no trade
        a, x = 0.3, 10.0
        acc = IOAccounts(
            X=[[a * x]], Xout=[x], Cf=[(1 - a) * x], E=[0.0], Imp=[0.0], pi=[1.0]
        )
        report = check_value_equilibrium(acc)
        np.testing.assert_allclose(report.residual, [0.0], atol=1e-12)
        assert report.is_equilibrium

    def test_homogeneity(self):
        acc = toy_accounts(pi=(0.8, 0.6))
        base = check_value_equilibrium(acc)
        for alpha in (1e-3, 7.0, 1e4):
            scaled = check_value_equilibrium(acc.scaled(alpha))
            np.testing.assert_allclose(scaled.residual, alpha * base.residual, rtol=1e-12)
            assert scaled.violated == base.violated

    def test_missing_consumption_rejected(self):
        acc = IOAccounts(X=[[1.0]], Xout=[2.0], Cf=[0.0], E=[1.0], Imp=[1.0], pi=[1.0])
        with pytest.raises(ZeroDenominator):
            check_value_equilibrium(acc)


@pytest.fixture
def kernel_steps(monkeypatch):
    """The power steps of each call the national solve makes to its eigen kernel."""
    steps = []

    def counted(*args):
        out = _dominant(*args)
        steps.append(out[2])
        return out

    monkeypatch.setattr("demandgap.leontief._dominant", counted)
    return steps


class TestNationalEquilibrium:
    def test_seed_identity_consistent_accounts(self):
        for seed in range(10):
            acc, _, _ = random_consistent_accounts(seed, int(3 + seed % 5))
            C_big = np.column_stack([acc.X, acc.Cf, acc.E])
            seed_y = np.concatenate([1.0 + acc.pi, [1.0, 1.0]])
            target = acc.Xout + acc.Imp + acc.X @ acc.pi
            gap = np.abs(C_big @ seed_y - target) / np.maximum(1.0, target)
            assert gap.max() <= 1e-12

    def test_certified_solution(self):
        acc = certified_accounts(5, 4)
        sol = solve_national_equilibrium(acc, strict=False)
        assert sol.certified
        assert abs(sol.rho - 1.0) <= 1e-6
        assert (sol.p > 0).all()
        assert sol.J == ()
        assert sol.diagnostics["seed_used"]
        # scales solve the supply system exactly
        C_big = np.column_stack([acc.X, acc.Cf, acc.E])
        target = acc.Xout + acc.Imp + acc.X @ acc.pi
        np.testing.assert_allclose(C_big @ sol.y, target, rtol=1e-9)

    def test_price_solves_value_equations(self):
        acc = certified_accounts(6, 5)
        sol = solve_national_equilibrium(acc, strict=False)
        A = acc.coefficients()
        lhs = sol.y[:5] * (A.T @ sol.p)
        np.testing.assert_allclose(lhs, acc.pi * sol.p, atol=1e-8)

    def test_fitting_seed_skips_nnls(self, monkeypatch):
        def no_nnls(*args, **kwargs):
            raise AssertionError("NNLS ran although the guaranteed seed fits")

        monkeypatch.setattr("demandgap.leontief._solve_nonneg", no_nnls)
        sol = solve_national_equilibrium(certified_accounts(5, 4), strict=False)
        assert sol.diagnostics["seed_used"] and sol.certified

    @pytest.mark.parametrize("m", [24, 40])
    def test_cyclic_supply_chain_certifies(self, m, kernel_steps):
        sol = solve_national_equilibrium(cyclic_accounts(m, m), strict=False)
        assert sol.certified
        assert abs(sol.rho - 1.0) <= 1e-6
        assert (sol.p > 0).all()
        # the kernel's uniform start vector is the unit price, which solves
        # the price system of a certified table: it answers at once
        assert sol.diagnostics["perron_method"] == "power"
        assert kernel_steps == [0]

    @pytest.mark.parametrize("m", [24, 40])
    def test_uncertified_cyclic_supply_chain_goes_dense(self, m, kernel_steps):
        acc = balanced_accounts("cyclic", m, m, shrink=0.7)
        sol = solve_national_equilibrium(acc, strict=False)
        assert not sol.certified
        assert (sol.p > 0).all()
        # at 0.7 pi the unit price misses; M is periodic, so power
        # iteration spends its whole budget and the dense solve answers
        assert sol.diagnostics["perron_method"] == "dense"
        assert kernel_steps == [PF_MAX_ITER]

    def test_price_is_left_perron_vector_over_pi(self):
        for seed, m in ((6, 5), (7, 8), (8, 12)):
            acc = certified_accounts(seed, m)
            sol = solve_national_equilibrium(acc, strict=False)
            assert not sol.diagnostics["reducible"]
            A_y = acc.coefficients() * sol.y[None, :m] / acc.pi[:, None]
            budget = 0 if 2 * m <= PF_MAX_ITER else PF_MAX_ITER
            path = "dense" if power_steps(A_y.T) > budget else "power"
            assert sol.diagnostics["perron_method"] == path
            _, left = dense_perron_oracle(A_y.T)
            expected = left / acc.pi
            np.testing.assert_allclose(sol.p, expected / expected.max(), atol=1e-8)

    @pytest.mark.parametrize("kind", ["engineered", "cyclic"])
    def test_certified_table_runs_no_dense_eigen_solve(self, kind, kernel_steps, monkeypatch):
        # the unit price solves the price system of a certified table, so
        # the kernel's start vector answers: no power step, no eig, no eigvals
        calls = []
        for name in ("eig", "eigvals"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        for seed, m in ((0, 3), (1, 12), (2, 40)):
            sol = solve_national_equilibrium(balanced_accounts(kind, seed, m), strict=False)
            assert sol.certified and sol.diagnostics["perron_method"] == "power"
        assert calls == [] and kernel_steps == [0, 0, 0]

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["engineered", "random", "cyclic", "dead"]),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 40),
        decades=st.one_of(st.none(), st.floats(0.0, 4.0)),
    )
    def test_price_is_the_left_perron_vector_of_a_y_over_pi(self, kind, seed, m, decades):
        # the price the solve once took, left(A(y)) / pi, from a dense
        # oracle: at each table's own pi (decades=None) or at shares drawn
        # from 10 ** U(-decades, 0)
        acc = balanced_accounts(kind, seed, m)
        if decades is not None:
            pi = 10.0 ** np.random.default_rng(seed).uniform(-decades, 0.0, m)
            acc = IOAccounts(X=acc.X, Xout=acc.Xout, Cf=acc.Cf, E=acc.E, Imp=acc.Imp, pi=pi)
        sol = solve_national_equilibrium(acc, strict=False)
        A_y = acc.coefficients() * sol.y[None, :m] / acc.pi[:, None]
        rho, left = dense_perron_oracle(A_y.T)
        _, right = dense_perron_oracle(A_y)
        old = left / acc.pi
        old /= old.max()
        # no computed Perron vector is closer than about eps times the
        # condition number of rho, |u| |v| / (u . v) over the left and right
        # vectors of M: well below 1e-8 unless the prices span some ten
        # decades (a 40-cycle at four decades of shares reaches 4e9)
        u = right * acc.pi
        kappa = np.linalg.norm(old) * np.linalg.norm(u) / (old @ u)
        np.testing.assert_allclose(sol.p, old, rtol=0, atol=1e-8 + np.finfo(float).eps * kappa)
        assert certifies(acc, sol.y, old, rho, sol.J) == sol.certified

    def test_uncertified_raises_in_strict_mode(self):
        acc = toy_accounts()
        with pytest.raises(RhoNotOne) as exc:
            solve_national_equilibrium(acc)
        assert exc.value.solution is not None
        assert exc.value.rho == pytest.approx(exc.value.solution.rho)

    def test_vacuous_production_reports_zero_rho(self):
        acc = IOAccounts(X=[[0.0]], Xout=[1.0], Cf=[1.0], E=[0.0], Imp=[0.0], pi=[1.0])
        with pytest.raises(RhoNotOne) as exc:
            solve_national_equilibrium(acc)
        assert exc.value.rho == 0.0

    def test_inputless_industry_fails_share_precondition(self):
        # the solve takes demand_vector's effective share 0; with the
        # configured share it would give A(y) a zero column and p_2 ~ 1e-51
        acc = inputless_accounts()
        assert np.abs(acc.balance_residual()).max() <= 1e-12 * acc.Xout.max()
        assert (acc.pi > 0).all()
        with pytest.warns(RuntimeWarning, match=r"positions \[2\] buy no inputs"):
            with pytest.raises(ZeroDenominator, match=r"pi at positions \[2\]"):
                solve_national_equilibrium(acc, strict=False)

    def test_overflowing_demand_refused_before_the_fit(self, monkeypatch):
        # Cf's total overflows, so no finite D exists; the solve once fitted
        # y = (0, 0, 3e-308, 0) after numpy's overflow warnings (any warning
        # fails here), and the CLI exited 3 only from the value check after it
        def no_fit(*args):
            raise AssertionError("the cone fit ran on a table without a finite D")

        monkeypatch.setattr("demandgap.leontief._solve_nonneg", no_fit)
        acc = IOAccounts(X=np.ones((2, 2)), Xout=[1, 1], Cf=[1e308, 1e308], E=[1, 1], Imp=[1, 1], pi=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^D must be finite$"):
                solve_national_equilibrium(acc, strict=False)

    def test_seed_test_does_not_overflow(self):
        # Cf far above the target: the seed test's squared norm once overflowed
        # ("overflow encountered in dot", any warning fails here) before the fit refused
        acc = IOAccounts(X=np.ones((2, 2)), Xout=[1, 1], Cf=[1e200, 1], E=[1, 1], Imp=[1, 1], pi=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotInCone):
                solve_national_equilibrium(acc, strict=False)

    @settings(max_examples=60, deadline=None, database=None)
    @given(m=st.integers(3, 40), seed=st.integers(0, 2**32 - 1))
    def test_nnls_fallback_matches_scipy_on_near_balanced_tables(self, m, seed):
        # each Xout entry off balance by 1-2 x 1e-6 of itself, either way,
        # misses the guaranteed seed (CONE_TOL = 1e-8 of the target), so the
        # scales come from the cone fit of [X | Cf | E], an m x (m + 2)
        # system with many solutions: scipy's nnls on the same system, in
        # the same units, is the reference
        acc = balanced_accounts("engineered", seed, m)
        rng = np.random.default_rng(seed)
        Xout = acc.Xout * (1.0 + 1e-6 * rng.uniform(1.0, 2.0, m) * rng.choice([-1.0, 1.0], m))
        acc = IOAccounts(X=acc.X, Xout=Xout, Cf=acc.Cf, E=acc.E, Imp=acc.Imp, pi=acc.pi)
        sol = solve_national_equilibrium(acc, strict=False)
        assert not sol.diagnostics["seed_used"]
        target = acc.Xout + acc.Imp + acc.X @ acc.pi
        unit = target.max()
        ref, _ = nnls(np.column_stack([acc.X, acc.Cf, acc.E]) / unit, target / unit, maxiter=10 * (m + 2))
        np.testing.assert_array_equal(sol.y > 0, ref > 0)
        np.testing.assert_allclose(sol.y, ref, rtol=0, atol=1e-10 * ref.max())

    def test_unreachable_supply_not_in_cone(self):
        acc = IOAccounts(
            X=[[1.0, 1.0], [1.0, 1.0]],
            Xout=[1000.0, 1.0],
            Cf=[1.0, 1.0],
            E=[1.0, 1.0],
            Imp=[1.0, 1.0],
            pi=[1.0, 1.0],
        )
        with pytest.raises(NotInCone):
            solve_national_equilibrium(acc, strict=False)

    def test_m300_solve_keeps_few_full_size_buffers(self):
        # M^T = A diag(y/pi), written in place over A, is the one m x m float
        # buffer; the graph test's boolean adjacency adds m x m / 8 doubles
        m = 300
        acc = certified_accounts(3, m)
        solve_national_equilibrium(acc, strict=False)  # first-call set-up
        tracemalloc.start()
        try:
            sol = solve_national_equilibrium(acc, strict=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.diagnostics["seed_used"] and sol.certified
        assert peak < 1.5 * 8 * m * m

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["engineered", "random", "cyclic", "dead"]),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 40),
        shrink=st.sampled_from([1.0, 0.7, 0.5]),
    )
    def test_matches_the_solve_with_every_matrix_formed(self, kind, seed, m, shrink):
        acc = balanced_accounts(kind, seed, m, shrink)
        ref = reference_solve(acc)
        sol = solve_national_equilibrium(acc, strict=False)
        assert sol.diagnostics["seed_used"]
        assert np.array_equal(sol.y, ref["y"]) and np.array_equal(sol.p, ref["p"])
        assert sol.rho == ref["rho"]
        assert (sol.I, sol.J, sol.certified) == (ref["I"], ref["J"], ref["certified"])
        # the residuals come from A^T p = (X^T p) / Xout and from the
        # balance gap, so they agree with the full matrices to rounding
        diag, eps = sol.diagnostics, np.finfo(float).eps
        scale = max(1.0, float(ref["Mp"].max()))
        assert abs(diag["price_eigen_residual"] - np.abs(ref["Mp"] - ref["rho_m"] * ref["p"]).max()) <= 8 * eps * scale
        assert abs(diag["value_equation_residual"] - np.abs(ref["Mp"] - ref["p"]).max()) <= 8 * eps * scale
        scale = max(1.0, float(ref["input_value"].max()))
        assert abs(diag["input_value_min"] - ref["input_value"].min()) <= 8 * eps * scale
        bound = 1e-12 * max(1.0, float(ref["target"].max()))
        assert abs(diag["scales_residual"] - np.abs(ref["residual"]).max()) <= bound

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["engineered", "random", "cyclic", "dead"]),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 30),
        variant=st.sampled_from(["plain", "no trade", "zero Cf", "shrink"]),
        tol=st.sampled_from([0.0, 1e-9, DEFAULT_TOL, 1e-3]),
    )
    # the household and the trade value vanish at the price (test_raise_sites)
    @example(kind="unpriced", seed=0, m=2, variant="plain", tol=DEFAULT_TOL)
    def test_certificate_keeps_the_bits_of_the_reference_tail(self, kind, seed, m, variant, tol):
        if kind == "unpriced":
            acc = IOAccounts(
                X=[[10.0, 20.0], [0.0, 30.0]], Xout=[85.0, 30.0], Cf=[40.0, 0.0], E=[20.0, 0.0],
                Imp=[5.0, 0.0], pi=[1.0, 1.0],
            )
        else:
            acc = balanced_accounts(kind, seed, m, 0.6 if variant == "shrink" else 1.0)
        fields = dict(X=acc.X, Xout=acc.Xout, Cf=np.array(acc.Cf), E=acc.E, Imp=acc.Imp, pi=acc.pi)
        if variant == "no trade":  # a vacuous trade agent
            fields.update(Cf=np.maximum(acc.Cf + acc.E - acc.Imp, 0.0), E=np.zeros(m), Imp=np.zeros(m))
        elif variant == "zero Cf":  # households buy nothing from some industries
            fields["Cf"][np.random.default_rng(seed).random(m) < 0.5] = 0.0
        acc = IOAccounts(**fields)
        try:
            sol = solve_national_equilibrium(acc, tol=tol, strict=False)
        except DemandGapError:
            return
        got = {**sol.diagnostics, "certified": sol.certified}
        want = reference_certificate(acc, sol, tol)
        assert list(got) == list(want)
        assert all(_same_bits(got[k], want[k]) for k in want), (got, want)
        if want["rho_gap"] > RHO_TOL:
            with pytest.raises(RhoNotOne):
                solve_national_equilibrium(acc, tol=tol)
        else:
            assert solve_national_equilibrium(acc, tol=tol).certified == sol.certified

    @settings(max_examples=120, deadline=None, database=None)
    @given(
        kind=st.sampled_from(["toy", "engineered", "random", "consistent", "unbalanced"]),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 30),
        k=st.integers(50, 290),
    )
    # at 1e153 the squared entries overflowed and the seed "fitted" the
    # unbalanced toy table with y = (2, 2, 1, 1) against (3.08, 0, 2.08, 0)
    @example(kind="toy", seed=0, m=2, k=153)
    def test_solve_is_free_of_the_table_scale(self, kind, seed, m, k):
        # the seed test squares no raw entry, so it neither overflows nor
        # underflows, and the NNLS fit sees the same system at every scale
        if kind == "toy":
            acc = toy_accounts()
        elif kind == "consistent":
            acc = random_consistent_accounts(seed, m)[0]
        elif kind == "unbalanced":
            acc = random_value_accounts(seed, m)
        else:
            acc = balanced_accounts(kind, seed, m)

        def solve(table):
            try:
                return solve_national_equilibrium(table, strict=False)
            except DemandGapError as e:
                return type(e)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            base, big = solve(acc), solve(acc.scaled(10.0**k))
        if isinstance(base, type):
            assert big is base
            return
        assert big.diagnostics["seed_used"] == base.diagnostics["seed_used"]
        assert (big.I, big.J, big.certified) == (base.I, base.J, base.certified)
        np.testing.assert_allclose(big.y, base.y, rtol=1e-9, atol=0)
        assert big.rho == pytest.approx(base.rho, rel=1e-9, abs=0)

    def test_overflowing_target_rejected(self):
        # Xout_0 + Imp_0 overflows; the seed once "fitted" it in norm
        acc = IOAccounts(
            X=[[1e307, 1.0], [1.0, 1.0]], Xout=[1.7e308, 10.0], Cf=[1.6e308, 7.0],
            E=[1.0, 1.0], Imp=[1.7e308, 1.0], pi=0.5,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="supply plus taxed use must be finite"):
                solve_national_equilibrium(acc, strict=False)

    def test_zero_pi_rejected(self):
        acc = toy_accounts(pi=(0.0, 1.0))
        with pytest.raises(ZeroDenominator):
            solve_national_equilibrium(acc, strict=False)

    @pytest.mark.parametrize(
        "pi0, X, final",
        [
            (1e-310, [[10.0, 20.0], [30.0, 10.0]], {}),  # A(y) would overflow
            (1e-310, [[0.0, 0.0], [30.0, 10.0]], {}),  # left / pi and y / pi would overflow
            # balanced, so the seed y = (1 + pi, 2, 1, 1) fits and a_01 y_1 = 1.9
            (1e-308, [[5.0, 95.0], [30.0, 1.0]], dict(Cf=[1.0, 60.0], E=[1.0, 10.0], Imp=[2.0, 1.0])),
        ],
    )
    def test_share_too_small_to_divide_by_rejected(self, pi0, X, final):
        toy = toy_accounts()
        final = {"Cf": toy.Cf, "E": toy.E, "Imp": toy.Imp, **final}
        acc = IOAccounts(X=X, Xout=toy.Xout, pi=(pi0, 1.0), **final)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any division overflows
            with pytest.raises(
                ZeroDenominator,
                match=r"pi at positions \[0\] \(taxation shares too small: dividing by them can overflow\)",
            ):
                solve_national_equilibrium(acc, strict=False)

    def test_small_share_that_divides_finitely_is_solved(self):
        sol = solve_national_equilibrium(toy_accounts(pi=(1e-300, 1.0)), strict=False)
        assert not sol.certified
        assert np.isfinite(sol.p).all() and np.isfinite(sol.diagnostics["value_equation_residual"])


def test_final_demand_totals_are_formed_in_one_place():
    # household and trade demand divide by the totals of Cf, E and Imp, and
    # _final_totals refuses one that overflows; a sum taken anywhere else,
    # as a method (acc.Cf.sum()) or a ufunc reduction (np.add.reduce(acc.Cf)),
    # would go round that refusal
    def totals(node):
        return isinstance(node, ast.Attribute) and node.attr in ("Cf", "E", "Imp")

    offenders = []
    for path in sorted(Path(demandgap.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef) or func.name == "_final_totals":
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                method = node.func.attr == "sum" and totals(node.func.value)
                reduction = (
                    node.func.attr == "reduce"
                    and ast.unparse(node.func.value) == "np.add"
                    and bool(node.args)
                    and totals(node.args[0])
                )
                if method or reduction:
                    offenders.append(f"{path.name}:{node.lineno} in {func.name}")
    assert offenders == []
