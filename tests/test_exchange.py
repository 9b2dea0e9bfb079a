"""Core exchange model: supply, demand scales, clearing checks,
certificates."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandgap import (
    DimensionMismatch,
    ExchangeEconomy,
    PriceVector,
    ZeroDemandValue,
    check_equilibrium,
    decompose_property,
    degenerate_transform,
    demand_scales,
    excess_demand,
    is_equivalent,
    real_money_value,
    total_supply,
    verify_certificate,
)
from demandgap.exchange import _unit_price
from demandgap.fixtures import economy_e1, economy_e2, random_equilibrium


class TestTotalSupply:
    def test_e1_endowments(self):
        B = np.array([[4 / 3, 2 / 3], [2 / 3, 1 / 3]])
        np.testing.assert_allclose(total_supply(B), [2.0, 1.0])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(total_supply(np.zeros((3, 2))), np.zeros(3))

    def test_identity(self):
        np.testing.assert_array_equal(total_supply(np.eye(2)), [1.0, 1.0])


class TestDemandScales:
    def test_e1_unit_prices(self):
        econ, p = economy_e1()
        np.testing.assert_allclose(demand_scales(econ, p), [1.0, 1.0])

    def test_b_equals_c_gives_ones(self):
        rng = np.random.default_rng(0)
        C = rng.uniform(0.1, 2.0, (4, 3))
        econ = ExchangeEconomy(C, C)
        for _ in range(5):
            p = rng.uniform(0.1, 2.0, 4)
            np.testing.assert_allclose(demand_scales(econ, p), np.ones(3), atol=1e-12)

    @pytest.mark.parametrize("b21", [0.0, 0.3, 1.0])
    def test_e2_money_only_prices(self, b21):
        econ, p = economy_e2(b21)
        np.testing.assert_allclose(demand_scales(econ, p), [1.0, 1.0])

    def test_zero_demand_value_raises(self):
        C = np.array([[1.0, 0.0], [1.0, 1.0]])
        econ = ExchangeEconomy(C, np.ones((2, 2)))
        with pytest.raises(ZeroDemandValue) as exc:
            demand_scales(econ, np.array([1.0, 0.0]))
        assert exc.value.consumer == 1


class TestExcessDemand:
    def test_e1_clears(self):
        econ, p = economy_e1()
        np.testing.assert_allclose(excess_demand(econ, p), [0.0, 0.0], atol=1e-12)

    def test_b_equals_c_clears_everywhere(self):
        rng = np.random.default_rng(1)
        C = rng.uniform(0.1, 2.0, (5, 4))
        econ = ExchangeEconomy(C, C)
        p = rng.uniform(0.1, 2.0, 5)
        np.testing.assert_allclose(excess_demand(econ, p), np.zeros(5), atol=1e-12)

    def test_e2_full_money_endowment(self):
        econ, p = economy_e2(1.0)
        np.testing.assert_allclose(excess_demand(econ, p), [0.0, 0.0], atol=1e-12)

    def test_walras_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, l = rng.integers(2, 7), rng.integers(2, 7)
            econ = ExchangeEconomy(
                rng.uniform(0.1, 2.0, (n, l)), rng.uniform(0.0, 2.0, (n, l))
            )
            p = rng.uniform(0.1, 2.0, n)
            z = excess_demand(econ, p)
            q = PriceVector(p).normalized()
            scale = max(1.0, float(np.abs(z) @ q))
            assert abs(float(z @ q)) <= 1e-9 * scale

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        econ = ExchangeEconomy(rng.uniform(0.1, 2.0, (4, 3)), rng.uniform(0.0, 2.0, (4, 3)))
        p = rng.uniform(0.1, 2.0, 4)
        z = excess_demand(econ, p)
        for alpha in (1e-6, 0.5, 3.0, 1e7):
            z_scaled = excess_demand(econ, alpha * p)
            np.testing.assert_allclose(z_scaled, z, rtol=1e-12, atol=1e-12)


class TestCheckEquilibrium:
    def test_e1_unit_prices(self):
        econ, p = economy_e1()
        report = check_equilibrium(econ, p)
        assert report.is_equilibrium
        assert report.equality_set == (0, 1)
        assert report.strict_set == ()

    def test_e2_degenerate_endowment(self):
        econ, p = economy_e2(1.0)
        report = check_equilibrium(econ, p)
        assert report.is_equilibrium
        assert report.equality_set == (0, 1)
        assert report.max_violation() == 0.0

    def test_e1_wrong_price_violates_money_good(self):
        econ, _ = economy_e1()
        report = check_equilibrium(econ, np.array([1.0, 10.0]))
        # direct substitution: y = (8/11, 4), demand = (52/11, 8/11)
        np.testing.assert_allclose(report.residual, [30 / 11, -3 / 11])
        assert not report.is_equilibrium
        assert report.violated_set == (0,)
        assert report.max_violation() == pytest.approx(30 / 11)
        assert report.strict_set == (1,)
        assert not report.zero_price_on_deficit  # good 1 is priced yet in deficit

    def test_full_degeneracy_baseline(self):
        rng = np.random.default_rng(4)
        C = rng.uniform(0.1, 2.0, (5, 3))
        econ = ExchangeEconomy(C, C)
        report = check_equilibrium(econ, rng.uniform(0.1, 2.0, 5))
        assert report.is_equilibrium
        assert report.equality_set == tuple(range(5))

    def test_deficit_goods_carry_zero_price(self):
        # degenerate economies built with deficits off the price support
        for seed in range(20):
            econ, p, parts = random_equilibrium(seed, n=5, l=4, support=3, slack=True)
            report = check_equilibrium(econ, p)
            assert report.is_equilibrium
            assert set(report.strict_set) <= set(range(5)) - set(parts.I)
            assert report.zero_price_on_deficit

    def test_zero_supply_warns(self):
        C = np.ones((2, 2))
        B = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="zero total supply") as record:
            check_equilibrium(ExchangeEconomy(C, B), np.array([1.0, 0.0]))
        # the warning points at the caller of check_equilibrium
        assert record[0].filename == __file__


class TestVerifyCertificate:
    def test_e1_certificate(self):
        econ, p = economy_e1()
        result = verify_certificate(econ, p, y=[1.0, 1.0], psi_bar=[2.0, 1.0])
        assert result.ok
        assert result.failed == ()

    def test_degenerate_zero_certificate_rejected(self):
        econ, p = economy_e1()
        result = verify_certificate(econ, p, y=[0.0, 0.0], psi_bar=[0.0, 0.0])
        assert not result.ok
        assert "nonzero" in result.failed

    def test_e2_money_price_certificate(self):
        econ, p = economy_e2(1.0)
        result = verify_certificate(econ, p, y=[1.0, 1.0], psi_bar=[2.0, 1.0])
        assert result.ok

    def test_both_nonzero_failures_are_diagnosed(self):
        econ, p = economy_e1()
        result = verify_certificate(econ, p, y=[-1.0, -1.0], psi_bar=[-1.0, -1.0])
        assert result.failed.count("nonzero") == 1
        assert "y must be" in result.diagnostics["nonzero"]
        assert "psi_bar must be" in result.diagnostics["nonzero"]

    def test_reports_failing_clause(self):
        econ, p = economy_e1()
        result = verify_certificate(econ, p, y=[1.0, 2.0], psi_bar=[2.0, 1.0])
        assert not result.ok
        assert "cone" in result.failed

    def test_psi_bar_above_supply_rejected(self):
        econ, p = economy_e1()
        result = verify_certificate(econ, p, y=[2.0, 2.0], psi_bar=[4.0, 2.0])
        assert not result.ok
        assert "bounded" in result.failed

    def test_dimension_mismatch(self):
        econ, p = economy_e1()
        with pytest.raises(DimensionMismatch):
            verify_certificate(econ, p, y=[1.0], psi_bar=[2.0, 1.0])

    def test_zero_demand_column_fails_demand_value(self):
        # consumer 1 demands nothing, so its bundle has zero value at any price
        C = np.array([[1.0, 0.0], [1.0, 0.0]])
        econ = ExchangeEconomy(C, np.ones((2, 2)))
        result = verify_certificate(econ, [1.0, 1.0], y=[1.0, 1.0], psi_bar=[1.0, 1.0])
        assert not result.ok
        assert result.failed == ("demand-value",)
        assert result.diagnostics["demand-value"] == 0.0
        assert "transfers" not in result.diagnostics  # it would divide by that value

    def test_economy_without_consumers_is_refused_not_raised(self):
        # C and B of shape (n, 0): the demand values and the per-consumer
        # transfer gaps are empty, and their reductions start from identities
        econ = ExchangeEconomy(np.zeros((2, 0)), np.zeros((2, 0)))
        result = verify_certificate(econ, [1.0, 1.0], y=[], psi_bar=[1.0, 1.0])
        assert not result.ok
        assert "nonzero" in result.failed
        assert result.diagnostics["demand-value"] == np.inf
        assert result.diagnostics["transfers"] == 1.0  # the supply-sum gap alone


class TestEconomyValidation:
    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            ExchangeEconomy(np.array([[1.0], [-0.1]]), np.ones((2, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ExchangeEconomy(np.ones((2, 2)), np.ones((3, 2)))

    def test_price_vector_validation(self):
        with pytest.raises(ValueError):
            PriceVector(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            PriceVector(np.array([1.0, -1.0]))
        assert PriceVector(np.array([2.0, 1.0, 0.0])).support == (0, 1)
        assert PriceVector(np.array([0.0, 3.0])).support == (1,)


class TestNonFiniteInput:
    """NaN and infinity are rejected where negativity is; unchecked, each of
    these cases reads as an equilibrium with all three sets empty."""

    @pytest.mark.parametrize("p", [[1.0, np.nan], [np.inf, 1.0], [1.0, np.inf]])
    def test_price_rejected(self, p):
        econ, _ = economy_e1()
        with pytest.raises(ValueError, match="prices must be finite"):
            check_equilibrium(econ, p)

    def test_nan_in_demand_matrix_rejected(self):
        econ, _ = economy_e1()
        C = econ.C.copy()
        C[1, 1] = np.nan
        with pytest.raises(ValueError, match="C and B must be finite"):
            ExchangeEconomy(C, econ.B)

    def test_negative_named_before_non_finite(self):
        with pytest.raises(ValueError, match="prices must be nonnegative"):
            PriceVector(np.array([np.nan, -1.0]))


class TestOverflowingPrice:
    """A price whose normalisation overflows, or whose clearing arithmetic
    does, is refused.  Unchecked, each case below reads as an equilibrium
    with all three sets empty, or as a passing certificate, made of NaN."""

    README_ECONOMY = (
        np.array([[1.0, 1.0], [1.0, 0.0]]),
        np.array([[4 / 3, 2 / 3], [2 / 3, 1 / 3]]),
    )
    CALLS = {
        "PriceVector": lambda econ, p: PriceVector(p),
        "check_equilibrium": lambda econ, p: check_equilibrium(econ, p),
        "degenerate_transform": lambda econ, p: degenerate_transform(econ, p, I=(0, 1)),
        "verify_certificate": lambda econ, p: verify_certificate(econ, p, (1, 1), (2, 1)),
    }

    @pytest.mark.parametrize("p", [(1e-310, 1.0), (1e-300, 1e10), (5e-324, 1.0)])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_normalisation_overflow_raises(self, call, p):
        econ = ExchangeEconomy(*self.README_ECONOMY)
        with pytest.raises(ValueError, match="prices overflow at unit money price"):
            self.CALLS[call](econ, p)

    def test_overflowing_demand_value_raises(self):
        # C^T q overflows in consumer 0, so y and the residuals are NaN
        C = np.array([[1.0, 1.0], [10.0, 1.0]])
        with pytest.raises(ValueError, match="clearing check overflows .* goods \\[0, 1\\]"):
            check_equilibrium(ExchangeEconomy(C, C), (1.0, 1e308))

    @pytest.mark.parametrize("call", [demand_scales, check_equilibrium])
    def test_infinite_demand_value_raises(self, call):
        # <C_0, q> = 1 + 1e309 overflows to inf while <b_0, q> = 11 stays
        # finite: unchecked, y_0 reads 0 and the check reports equilibrium
        C = np.array([[1.0, 1.0], [1e308, 1.0]])
        with pytest.raises(ValueError, match="clearing check overflows .* goods \\[0, 1\\]"):
            call(ExchangeEconomy(C, np.ones((2, 2))), (1.0, 10.0))

    def test_nan_measure_fails_its_clause(self):
        C = np.array([[1.0, 1.0], [10.0, 1.0]])
        result = verify_certificate(ExchangeEconomy(C, C), (1.0, 1e308), (1, 1), (2, 11))
        assert np.isnan(result.diagnostics["transfers"])
        assert not result.ok
        assert result.failed == ("transfers",)


class TestOverflowWithoutNumpyWarnings:
    """Arithmetic that overflows at a valid price is refused with the
    package's own ValueError, or fails a certificate clause, and numpy
    warns of nothing on the way."""

    # <b_0, q> = 2e308 overflows, so y_0 is inf, good 0's demand inf and
    # good 1's demand 0 * inf
    SCALE = ([[1.0, 1.0], [0.0, 1.0]], [[1e308, 0.0], [1e308, 1.0]], (1.0, 1.0))
    # y = (1e10, 1e-10) is finite, but the demand for good 1 is 1e300 * 1e10
    DEMAND = ([[0.0, 1.0], [1e300, 0.0]], [[1e300, 0.0], [0.0, 1.0]], (1.0, 1e-10), 1)
    # the supply of good 0, 1e308 + 1e308, overflows
    SUPPLY = ([[1.0, 0.0], [0.0, 1.0]], [[1e308, 1e308], [0.0, 1.0]], (1.0, 1.0), 0)

    CALLS = {
        "check_equilibrium": check_equilibrium,
        "demand_scales": demand_scales,
        "excess_demand": excess_demand,
        "decompose_property": lambda econ, p: decompose_property(econ, p, (0, 1)),
        "degenerate_transform": lambda econ, p: degenerate_transform(econ, p, (0, 1)),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_overflowing_scale_raises(self, call):
        # demand_scales names the goods the infinite scale demands; the
        # clearing check names those whose residual is not finite
        C, B, p = self.SCALE
        goods = "0" if call == "demand_scales" else "0, 1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"clearing check overflows .* goods \\[{goods}\\]"):
                self.CALLS[call](ExchangeEconomy(C, B), p)

    @pytest.mark.parametrize("case", ["DEMAND", "SUPPLY"])
    @pytest.mark.parametrize("call", ["check_equilibrium", "excess_demand"])
    def test_overflowing_demand_or_supply_raises(self, call, case):
        C, B, p, good = getattr(self, case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"clearing check overflows .* goods \\[{good}\\]"):
                self.CALLS[call](ExchangeEconomy(C, B), p)

    def test_certificate_measures_that_overflow_fail_their_clauses(self):
        C, B, p = self.SCALE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = verify_certificate(ExchangeEconomy(C, B), p, (1.0, 1.0), (1.0, 1.0))
        assert not result.ok
        assert np.isnan(result.diagnostics["transfers"])

    def test_equivalence_and_real_money_value_refuse_overflow(self):
        C, B, p = self.SCALE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="per-consumer values overflow"):
                is_equivalent(B, B, p)
            with pytest.raises(ValueError, match="real money value overflows"):
                real_money_value([1.0, 1e308], [1.0, 1e308])


def _outcome(call):
    """The result of ``call()``, or the type and message of what it raised."""
    try:
        return "ok", call()
    except Exception as e:  # noqa: BLE001 - the exception is the outcome compared
        return "raised", type(e), str(e)


def _same_array(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


ENTRIES = st.one_of(
    st.floats(width=64),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 1e308]),
)


@st.composite
def raw_prices(draw):
    """A raw price argument: a list, an int list, a 1-d or 2-d array, empty
    or all zero, with negative, NaN and infinite entries among the draws."""
    values = draw(st.lists(ENTRIES, max_size=6))
    form = draw(st.sampled_from(["list", "ints", "array", "row", "column", "zeros"]))
    if form == "ints":
        return [int(v) if np.isfinite(v) else 0 for v in values]
    if form == "zeros":
        return [0.0] * len(values)
    if form == "list":
        return values
    arr = np.array(values, dtype=float)
    return {"array": arr, "row": arr.reshape(1, -1), "column": arr.reshape(-1, 1)}[form]


class TestPricePath:
    """One helper checks and normalises every price; a raw array and a
    :class:`PriceVector` of it take the same path."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(p=raw_prices())
    def test_helper_matches_price_vector(self, p):
        raw = _outcome(lambda: _unit_price(p))
        held = _outcome(lambda: PriceVector(p).normalized())
        assert raw[0] == held[0]
        if raw[0] == "ok":
            assert _same_array(raw[1], held[1])
        else:
            assert raw[1:] == held[1:]
            assert raw[1] is ValueError

    @settings(max_examples=300, deadline=None, database=None)
    @given(p=raw_prices(), seed=st.integers(0, 2**32 - 1))
    def test_raw_and_held_price_give_equal_reports(self, p, seed):
        n = max(1, np.asarray(p).size)
        rng = np.random.default_rng(seed)
        econ = ExchangeEconomy(rng.uniform(0.1, 2.0, (n, 3)), rng.uniform(0.1, 2.0, (n, 3)))
        raw = _outcome(lambda: check_equilibrium(econ, p))
        held = _outcome(lambda: check_equilibrium(econ, PriceVector(p)))
        assert raw[0] == held[0]
        if raw[0] == "raised":
            assert raw[1:] == held[1:]
            return
        a, b = raw[1], held[1]
        assert _same_array(a.demand, b.demand) and _same_array(a.residual, b.residual)
        assert (a.equality_set, a.strict_set, a.violated_set) == (
            b.equality_set,
            b.strict_set,
            b.violated_set,
        )
        assert (a.is_equilibrium, a.zero_price_on_deficit, a.tol) == (
            b.is_equilibrium,
            b.zero_price_on_deficit,
            b.tol,
        )
