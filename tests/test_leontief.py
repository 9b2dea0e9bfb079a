"""National model: accounts, aggregation, agent construction, the
constructive solve, and the value-form clearing test."""

import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import dense_perron_oracle, inputless_accounts, power_steps
from hypothesis import given, settings
from hypothesis import strategies as st

from demandgap import (
    AggregationMap,
    BlockMismatch,
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
from demandgap.solvers import PF_MAX_ITER, _dominant
from demandgap.structure import RepresentationParts
from demandgap.fixtures import (
    random_consistent_accounts,
    random_equilibrium,
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
    def test_cyclic_supply_chain_certifies(self, m, monkeypatch):
        steps = []

        def counted(*args):
            out = _dominant(*args)
            steps.append(out[2])
            return out

        monkeypatch.setattr("demandgap.leontief._dominant", counted)
        sol = solve_national_equilibrium(cyclic_accounts(m, m), strict=False)
        assert sol.certified
        assert abs(sol.rho - 1.0) <= 1e-6
        assert (sol.p > 0).all()
        assert sol.diagnostics["perron_method"] == "dense"
        # A(y) is periodic, so the kernel runs no power step
        assert steps == [0]

    def test_price_is_left_perron_vector_over_pi(self):
        for seed, m in ((6, 5), (7, 8), (8, 12)):
            acc = certified_accounts(seed, m)
            sol = solve_national_equilibrium(acc, strict=False)
            assert not sol.diagnostics["reducible"]
            A_y = acc.coefficients() * sol.y[None, :m] / acc.pi[:, None]
            budget = min(PF_MAX_ITER, 2 * m)
            path = "dense" if power_steps(A_y.T) > budget else "power"
            assert sol.diagnostics["perron_method"] == path
            _, left = dense_perron_oracle(A_y.T)
            expected = left / acc.pi
            np.testing.assert_allclose(sol.p, expected / expected.max(), atol=1e-8)

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
        # A, the stacked demand columns [X | Cf | E] and A(y), each freed
        # or overwritten before the next, peak at about 2.3 m x m doubles
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
        assert peak < 3 * 8 * m * m

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
