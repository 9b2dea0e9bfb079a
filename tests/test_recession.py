"""Demand/supply vectors, recession set, ratio, rankings."""

import numpy as np
import pytest

from demandgap import (
    IOAccounts,
    NonpositiveGDP,
    analyze_accounts,
    check_value_equilibrium,
    demand_vector,
    rank_industries,
    recession_industries,
    recession_ratio,
    supply_vector,
)
from demandgap.fixtures import random_value_accounts, toy_accounts


class TestDemandVector:
    def test_toy_accounts_term_by_term(self):
        np.testing.assert_allclose(demand_vector(toy_accounts()), [118.75, 101.25])

    def test_zero_tax_reduces_to_consumption_share(self):
        # with pi = 0 and no trade, only households spend: D_k = Cf_k * sum(X) / sum(Cf)
        acc = IOAccounts(
            X=np.diag([5.0, 7.0]),
            Xout=[40.0, 60.0],
            Cf=[30.0, 10.0],
            E=[0.0, 0.0],
            Imp=[0.0, 0.0],
            pi=[0.0, 0.0],
        )
        np.testing.assert_allclose(
            demand_vector(acc), np.array([30.0, 10.0]) * 100.0 / 40.0
        )

    def test_homogeneity(self):
        acc = toy_accounts(pi=(0.7, 0.4))
        np.testing.assert_allclose(
            demand_vector(acc.scaled(10.0)), 10.0 * demand_vector(acc), rtol=1e-12
        )


class TestSupplyVector:
    def test_toy_accounts(self):
        np.testing.assert_allclose(supply_vector(toy_accounts()), [105.0, 115.0])

    def test_no_imports(self):
        acc = toy_accounts()
        trimmed = IOAccounts(X=acc.X, Xout=acc.Xout, Cf=acc.Cf, E=acc.E,
                             Imp=np.zeros(2), pi=acc.pi)
        np.testing.assert_array_equal(supply_vector(trimmed), acc.Xout)

    def test_import_heavy_industry(self):
        # gross output 28986 plus imports 109950 supplies 138936
        acc = IOAccounts(
            X=[[1.0, 1.0], [1.0, 1.0]],
            Xout=[28986.0, 100.0],
            Cf=[1.0, 1.0],
            E=[1.0, 1.0],
            Imp=[109950.0, 0.0],
            pi=[1.0, 1.0],
        )
        assert supply_vector(acc)[0] == pytest.approx(138936.0)


class TestRecessionSet:
    def test_toy_accounts(self):
        D, S = demand_vector(toy_accounts()), supply_vector(toy_accounts())
        idx, magnitudes = recession_industries(D, S)
        assert idx == (1,)
        np.testing.assert_allclose(magnitudes, [13.75])

    def test_cleared_market_empty(self):
        idx, magnitudes = recession_industries([5.0, 6.0], [5.0, 6.0])
        assert idx == ()
        assert magnitudes.size == 0

    def test_relative_band(self):
        idx, _ = recession_industries([99.9995], [100.0], tol=1e-4)
        assert idx == ()


class TestRecessionRatio:
    def test_toy_accounts(self):
        assert recession_ratio(toy_accounts()) == pytest.approx(13.75 / 130.0, abs=1e-12)

    def test_agrees_with_recession_set_under_tol(self):
        # at tol 0.2 the shortfall 13.75 of industry 2 is inside the band
        # 0.2 * S_2 = 23, so the recession set is empty and r must be 0
        acc = toy_accounts()
        report = analyze_accounts(acc, tol=0.2)
        assert report.recession_set == ()
        assert report.r == recession_ratio(acc, tol=0.2) == 0.0
        assert analyze_accounts(acc, tol=0.1).r == recession_ratio(acc)

    def test_no_deficit_is_zero(self):
        acc = IOAccounts(
            X=np.diag([5.0, 7.0]),
            Xout=[40.0, 60.0],
            Cf=[30.0, 10.0],
            E=[0.0, 0.0],
            Imp=[0.0, 0.0],
            pi=[0.0, 0.0],
        )
        D, S = demand_vector(acc), supply_vector(acc)
        if (D >= S).all():
            assert recession_ratio(acc) >= 0.0

    def test_scale_invariance(self):
        acc = toy_accounts(pi=(0.9, 0.5))
        base = recession_ratio(acc)
        for alpha in (1e-3, 42.0):
            assert recession_ratio(acc.scaled(alpha)) == pytest.approx(base, rel=1e-12)

    def test_nonpositive_gdp(self):
        acc = IOAccounts(X=[[10.0]], Xout=[5.0], Cf=[1.0], E=[0.0], Imp=[0.0], pi=[1.0])
        with pytest.raises(NonpositiveGDP):
            recession_ratio(acc)


class TestRankings:
    def test_toy_single_deficit(self):
        report = analyze_accounts(toy_accounts(), names=("Alpha", "Beta"))
        for mode in ("sensitive", "contributing"):
            rows = rank_industries(report, 1, mode)
            assert [r.index for r in rows] == [2]
            assert rows[0].name == "Beta"
            assert rows[0].demand_reduction == pytest.approx(13.75)
            assert rows[0].gross_output == pytest.approx(100.0)
            assert rows[0].imports == pytest.approx(15.0)
            assert rows[0].exports == pytest.approx(10.0)

    def test_modes_order_differently(self):
        # industry 1: big absolute shortfall on a huge base;
        # industry 2: small absolute shortfall but relatively severe
        report = analyze_accounts(toy_accounts())
        object.__setattr__(report, "deficit", np.array([-100.0, -9.0]))
        object.__setattr__(report, "recession_set", (1, 2))
        object.__setattr__(report, "gross_output", np.array([10_000.0, 10.0]))
        contributing = rank_industries(report, 2, "contributing")
        sensitive = rank_industries(report, 2, "sensitive")
        assert [r.index for r in contributing] == [1, 2]
        assert [r.index for r in sensitive] == [2, 1]

    def test_empty_recession_set(self):
        report = analyze_accounts(toy_accounts())
        object.__setattr__(report, "recession_set", ())
        assert rank_industries(report, 4, "contributing") == []

    def test_missing_names_fall_back_to_codes(self):
        report = analyze_accounts(toy_accounts(), names=("Alpha", ""))
        rows = rank_industries(report, 1, "contributing")
        assert rows[0].name == "2"

    def test_bad_mode(self):
        report = analyze_accounts(toy_accounts())
        with pytest.raises(ValueError):
            rank_industries(report, 1, "alphabetical")


class TestInvariants:
    def test_value_balance(self):
        for seed in range(50):
            m = int(np.random.default_rng(seed).integers(2, 12))
            acc = random_value_accounts(seed, m)
            D, S = demand_vector(acc), supply_vector(acc)
            assert abs(D.sum() - S.sum()) / S.sum() <= 1e-9

    def test_deficit_matches_value_residual(self):
        for seed in range(20):
            acc = random_value_accounts(seed, 6)
            gap = demand_vector(acc) - supply_vector(acc)
            report = check_value_equilibrium(acc)
            np.testing.assert_allclose(
                gap, report.residual, atol=1e-12 * max(1.0, np.abs(gap).max())
            )

    def test_export_monotonicity(self):
        # raising one industry's exports (imports fixed) cannot lower its demand
        rng = np.random.default_rng(11)
        for seed in range(10):
            acc = random_value_accounts(seed, 5)
            D = demand_vector(acc)
            k = int(rng.integers(0, 5))
            bumped = IOAccounts(
                X=acc.X, Xout=acc.Xout, Cf=acc.Cf,
                E=acc.E + 10.0 * np.eye(5)[k], Imp=acc.Imp, pi=acc.pi,
            )
            assert demand_vector(bumped)[k] >= D[k] - 1e-9

    def test_report_fields(self):
        report = analyze_accounts(toy_accounts(), top=4)
        assert report.recession_set == (2,)
        assert report.r == pytest.approx(13.75 / 130.0)
        assert report.gdp == pytest.approx(130.0)
        assert report.D.sum() == pytest.approx(report.S.sum(), rel=1e-12)
        assert set(report.rankings) == {"sensitive", "contributing"}
