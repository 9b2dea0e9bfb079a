"""Demand/supply vectors, recession set, ratio, rankings."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demandgap import (
    DemandGapError,
    IOAccounts,
    NonpositiveGDP,
    RecessionReport,
    analyze_accounts,
    build_exchange_from_iot,
    check_value_equilibrium,
    demand_vector,
    rank_industries,
    recession_industries,
    recession_ratio,
    solve_national_equilibrium,
    supply_vector,
)
from demandgap.fixtures import random_value_accounts, toy_accounts
from demandgap.leontief import _shortfall

# Tables at the edge of the float range: a final-consumption total that
# overflows (no finite D); a gross output whose sum overflows while the value
# added does not (r = 1.61373 on it); a shortfall of 1e308 over a value
# added of 0.4, whose r overflows; and three sums that once overflowed with
# numpy's "overflow encountered in reduce" before the call refused, or
# without a refusal: household income (D infinite), value added, and the
# shortfalls of two industries that each import 8.5e307.  Last, a finite D
# whose production demand X @ (pi Xout / col) = 2e308 once overflowed before
# the taxed use X @ pi = 1.6e308 was taken off it: r = 2e307 / 4e307 = 0.5
OVERFLOW_TABLES = {
    "final-demand total": dict(
        X=np.full((2, 2), 0.01), Xout=[0.1, 0.1], Cf=[1e308, 1e308], E=[1, 1], Imp=[1, 1], pi=0.5
    ),
    "gross output": dict(
        X=[[4.74e307, 1.05e307], [3.39e307, 9.0e306]], Xout=[1.54e308, 3.1e307], Cf=[0.03, 0.5],
        E=[1.2e150, 1.4e150], Imp=[1.8e149, 1.6e150], pi=[0.087, 0.78],
    ),
    "ratio": dict(X=np.full((2, 2), 0.4), Xout=[1, 1], Cf=[1, 1], E=[0, 1], Imp=[1e308, 0], pi=0.5),
    "household income": dict(
        X=np.full((2, 2), 0.01), Xout=[1.7e308, 1.7e308], Cf=[1, 1], E=[1, 1], Imp=[1, 1], pi=0.0
    ),
    "value added": dict(X=np.diag([1e307, 1e307]), Xout=[1.2e308, 1.2e308], Cf=[1, 1], E=[1, 1], Imp=[1, 1], pi=1.0),
    "shortfall sum": dict(
        X=[[0.1] * 4, [0.1] * 4, [0] * 4, [0] * 4], Xout=[1, 1, 1e307, 1e307], Cf=[1] * 4,
        E=[1, 1, 0, 0], Imp=[0, 0, 8.5e307, 8.5e307], pi=1.0,
    ),
    "production demand": dict(
        X=[[8e307, 8e307], [1, 1]], Xout=[1e308, 1e308], Cf=[1, 1], E=[1, 1], Imp=[1, 1], pi=1.0
    ),
}

VALUE_FORM_CALLS = {
    "demand_vector": demand_vector,
    "check_value_equilibrium": check_value_equilibrium,
    "recession_ratio": recession_ratio,
    "analyze_accounts": analyze_accounts,
    "solve_national_equilibrium": lambda acc: solve_national_equilibrium(acc, strict=False),
    "build_exchange_from_iot": lambda acc: build_exchange_from_iot(acc, np.ones(acc.m), acc.Xout),
}

# the ValueError each call raises on each table; every other call returns,
# or the solve raises one of its typed verdicts
REFUSALS = {
    "final-demand total": dict.fromkeys(VALUE_FORM_CALLS, "D must be finite"),
    "gross output": {"build_exchange_from_iot": "gross output value must be finite"},
    "ratio": {"recession_ratio": "r must be finite", "analyze_accounts": "r must be finite"},
    "household income": {
        **dict.fromkeys(["demand_vector", "check_value_equilibrium", "recession_ratio", "analyze_accounts"],
                        "D must be finite"),
        "build_exchange_from_iot": "gross output value must be finite",
    },
    "value added": {
        "recession_ratio": "gross value added must be finite",
        "analyze_accounts": "gross value added must be finite",
        "build_exchange_from_iot": "gross output value must be finite",
    },
    "shortfall sum": {"recession_ratio": "r must be finite", "analyze_accounts": "r must be finite"},
    "production demand": {
        "solve_national_equilibrium": "supply plus taxed use must be finite",
        "build_exchange_from_iot": "gross output value must be finite",
    },
}


@st.composite
def value_tables(draw):
    """Value-form tables of 1-4 industries with entries of everyday size or
    up to 1.7e308; inputs are shares of each column's output, so most
    tables have positive value added."""
    m = draw(st.integers(1, 4))

    def entries(n, top, unit=1.0):
        return unit * np.array(draw(st.lists(st.floats(0.0, top), min_size=n, max_size=n)))

    def vector():
        return entries(m, 1.7e3, draw(st.sampled_from([1.0, 1.0, 1e150, 1e305])))

    Xout = vector()
    return dict(
        X=entries(m * m, 1.0 / m).reshape(m, m) * Xout, Xout=Xout, Cf=vector(), E=vector(),
        Imp=vector(), pi=entries(m, 1.0),
    )


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


    @pytest.mark.parametrize("pi", [1.0, 0.5, 0.0])
    def test_inputless_industries_keep_totals_balanced(self, pi):
        # an industry that buys no inputs has no column to spread its taxed
        # value over, so that value goes to households instead of vanishing
        for seed, dead in ((3, (2,)), (4, (0, 4)), (5, (1, 2, 3))):
            acc = random_value_accounts(seed, 5, pi=np.full(5, pi))
            X = acc.X.copy()
            X[:, list(dead)] = 0.0
            acc = IOAccounts(X=X, Xout=acc.Xout, Cf=acc.Cf, E=acc.E, Imp=acc.Imp, pi=acc.pi)
            if pi > 0:
                named = rf"positions \[{', '.join(map(str, dead))}\]"
                with pytest.warns(RuntimeWarning, match=named):
                    D = demand_vector(acc)
            else:
                D = demand_vector(acc)
            S = supply_vector(acc)
            assert abs(D.sum() - S.sum()) <= 1e-12 * S.sum()
            # the same table with those shares set to 0 gives the same demand
            zeroed = np.full(5, pi)
            zeroed[list(dead)] = 0.0
            plain = IOAccounts(X=X, Xout=acc.Xout, Cf=acc.Cf, E=acc.E, Imp=acc.Imp, pi=zeroed)
            np.testing.assert_array_equal(D, demand_vector(plain))

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), m=st.integers(1, 5))
    def test_affine_in_the_shares(self, data, m):
        # D(pi) = D(0) + K pi_eff with K = (X diag(1/col) - Cf 1^T / sum(Cf))
        # diag(Xout - col) formed explicitly (1/col read as 0 on input-less
        # columns, whose effective share is 0), to within 16 (m + 4) units of
        # roundoff of the sum of the terms' magnitudes
        def entries(*shape, low=0.0):
            flat = data.draw(st.lists(
                st.one_of(st.just(low), st.floats(max(low, 1e-3), 100.0)),
                min_size=int(np.prod(shape)), max_size=int(np.prod(shape)),
            ))
            return np.array(flat, dtype=float).reshape(shape)

        X = entries(m, m) * (entries(m) > 50.0)  # about half the input columns zeroed
        acc = IOAccounts(
            X=X, Xout=100.0 * entries(m), Cf=entries(m, low=0.1), E=entries(m, low=0.1),
            Imp=entries(m), pi=entries(m) / 100.0,
        )
        col = X.sum(axis=0)
        inv_col = np.divide(1.0, col, out=np.zeros(m), where=col > 0)
        K = (X * inv_col - acc.Cf[:, None] / acc.Cf.sum()) * (acc.Xout - col)
        pi_eff = np.where(col > 0, acc.pi, 0.0)
        zero = IOAccounts(X=X, Xout=acc.Xout, Cf=acc.Cf, E=acc.E, Imp=acc.Imp, pi=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            D = demand_vector(acc)
        assert all("buy no inputs" in str(w.message) for w in caught)
        magnitude = (
            X @ (inv_col * np.abs(acc.Xout - col))
            + acc.Cf * (acc.Xout.sum() + np.abs(acc.Xout - col).sum()) / acc.Cf.sum()
            + acc.E * acc.Imp.sum() / acc.E.sum()
        )
        bound = 16 * (m + 4) * np.finfo(float).eps * magnitude
        assert (np.abs(D - (demand_vector(zero) + K @ pi_eff)) <= bound).all()


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

    def test_negative_k_rejected(self):
        report = analyze_accounts(toy_accounts())
        assert rank_industries(report, 0, "sensitive") == []
        for mode in ("sensitive", "contributing"):
            with pytest.raises(ValueError, match="nonnegative"):
                rank_industries(report, -1, mode)
        with pytest.raises(ValueError, match="nonnegative"):
            analyze_accounts(toy_accounts(), top=-1)


    @settings(max_examples=200, deadline=None, database=None)
    @given(
        m=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(0, 12),
        mode=st.sampled_from(["sensitive", "contributing"]),
    )
    def test_matches_brute_force_ordering(self, m, seed, k, mode):
        # small integer deficits and zero outputs make ties and infinite
        # sensitivities; the recession set comes in an arbitrary order
        rng = np.random.default_rng(seed)
        indices = tuple(rng.choice(10**6, m, replace=False).tolist())
        deficit = -rng.integers(0, 4, m).astype(float)
        gross = rng.integers(0, 3, m).astype(float)
        members = rng.permutation(m)[: rng.integers(0, m + 1)]
        report = RecessionReport(
            D=np.zeros(m), S=np.zeros(m), deficit=deficit,
            recession_set=tuple(indices[pos] for pos in members), r=0.0, gdp=1.0,
            rankings={}, tol=0.0, indices=indices,
            names=tuple(rng.choice(["", "n"], m).tolist()),
            gross_output=gross, imports=rng.uniform(0, 1, m), exports=rng.uniform(0, 1, m),
        )
        positions = [indices.index(i) for i in report.recession_set]
        if mode == "contributing":
            key = lambda pos: -deficit[pos]
        else:
            key = lambda pos: -deficit[pos] / gross[pos] if gross[pos] > 0 else np.inf
        expected = sorted(positions, key=key, reverse=True)[:k]
        rows = rank_industries(report, k, mode)
        assert [r.index for r in rows] == [indices[pos] for pos in expected]
        names = [report.names[pos] or str(indices[pos]) for pos in expected]
        assert [r.name for r in rows] == names
        assert [r.demand_reduction for r in rows] == [-deficit[pos] for pos in expected]
        assert [r.gross_output for r in rows] == [gross[pos] for pos in expected]
        assert [r.imports for r in rows] == [report.imports[pos] for pos in expected]


class TestAnalyzeArguments:
    def test_duplicate_indices_rejected(self):
        acc = random_value_accounts(1, 3)
        with pytest.raises(ValueError, match="distinct"):
            analyze_accounts(acc, indices=(7, 7, 9))

    @pytest.mark.parametrize("indices", [(7, 9), (7, 8, 9, 10)])
    def test_wrong_number_of_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="indices must have length 3"):
            analyze_accounts(random_value_accounts(1, 3), indices=indices)

    @pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c", "d")])
    def test_wrong_number_of_names_rejected(self, names):
        with pytest.raises(ValueError, match="names must have length 3"):
            analyze_accounts(random_value_accounts(1, 3), names=names)

    def test_nan_in_flows_rejected(self):
        # unchecked, the NaN reaches r
        acc = toy_accounts()
        X = acc.X.copy()
        X[0, 1] = np.nan
        with pytest.raises(ValueError, match="X must be finite"):
            analyze_accounts(IOAccounts(X=X, Xout=acc.Xout, Cf=acc.Cf, E=acc.E, Imp=acc.Imp, pi=acc.pi))


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

    def test_value_check_refuses_an_overflowing_table(self):
        # D is NaN (Cf * income overflows); unchecked, violated was empty
        acc = IOAccounts(X=np.ones((2, 2)), Xout=[1, 1], Cf=[1e308, 1e308], E=[1, 1], Imp=[1, 1], pi=0.5)
        with pytest.raises(ValueError, match="D must be finite"):
            check_value_equilibrium(acc)

    @settings(max_examples=300, deadline=None, database=None)
    @given(table=value_tables())
    @example(table=OVERFLOW_TABLES["final-demand total"])
    @example(table=OVERFLOW_TABLES["gross output"])
    @example(table=OVERFLOW_TABLES["ratio"])
    @example(table=OVERFLOW_TABLES["value added"])  # finite D and S, value added whose sum overflows
    @example(table=OVERFLOW_TABLES["production demand"])
    def test_every_value_form_verdict_agrees(self, table):
        acc = IOAccounts(**table)
        calls = {
            "check_value_equilibrium": lambda: check_value_equilibrium(acc),
            "recession_ratio": lambda: recession_ratio(acc),
            "analyze_accounts": lambda: analyze_accounts(acc),
            "recession_industries": lambda: recession_industries(demand_vector(acc), supply_vector(acc)),
        }
        outcome = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # input-less industries
            for name, call in calls.items():
                try:
                    outcome[name] = call()
                except (ValueError, DemandGapError) as e:
                    outcome[name] = e
        refused = {name for name, o in outcome.items() if isinstance(o, ValueError)}
        if refused == {"recession_ratio", "analyze_accounts"}:
            # D and S are finite but the gross value added or r is not: only
            # the two calls that form r refuse, with the same message
            assert str(outcome["recession_ratio"]) == str(outcome["analyze_accounts"]) in (
                "gross value added must be finite", "r must be finite",
            ), outcome
        else:
            assert refused in (set(), set(calls)), outcome
        balance, report = outcome["check_value_equilibrium"], outcome["analyze_accounts"]
        if isinstance(report, RecessionReport):
            assert math.isfinite(report.r) and math.isfinite(report.gdp)
            assert np.array_equal(balance.residual, report.deficit)
            masks = _shortfall(report.D, report.S, balance.tol)[1:]
            assert (sum(mask.astype(int) for mask in masks) == 1).all()
            assert balance.is_equilibrium == (not masks[2].any())

    @pytest.mark.parametrize("table", sorted(OVERFLOW_TABLES))
    def test_overflowing_tables_refused_or_finite(self, table):
        # each value-form call refuses the table with its ValueError or
        # returns (the solve may raise a typed verdict), with no numpy warning;
        # a returned r is finite and sums the shortfalls of the recession set
        acc = IOAccounts(**OVERFLOW_TABLES[table])
        outcome = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, call in VALUE_FORM_CALLS.items():
                try:
                    outcome[name] = call(acc)
                except ValueError as e:
                    outcome[name] = str(e)
                except DemandGapError as e:
                    assert name == "solve_national_equilibrium", e
        refusals = {name: o for name, o in outcome.items() if isinstance(o, str)}
        assert refusals == REFUSALS[table]
        report = outcome["analyze_accounts"]
        if isinstance(report, RecessionReport):
            assert math.isfinite(report.r) and math.isfinite(report.gdp)
            shortfall = -report.deficit[[report.indices.index(i) for i in report.recession_set]]
            assert report.r == outcome["recession_ratio"] == float(shortfall.sum()) / report.gdp
            if table == "gross output":
                assert report.r == pytest.approx(1.61373, rel=1e-5)
            if table == "production demand":
                np.testing.assert_allclose(report.D, [1.2e308, 8e307], rtol=1e-15)
                assert report.recession_set == (2,) and report.r == 0.5

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
