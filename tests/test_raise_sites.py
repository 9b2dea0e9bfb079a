"""Raise sites and verdict branches that the other tests do not reach.

Each case pins the exception type and message of one guard, reached
through public input.  Four guards check laws that hold in exact
arithmetic, yet public input reaches them: a partial-case deficit on a
barely priced support good, a single-good support at ``tol = 0``, an
exact-mode transfer whose clearing band is wider than its column-sum
band, and a national table that fits in norm but not industry by
industry.  Those cases are pinned as the code behaves today.
"""

import re

import numpy as np
import pytest

from demandgap import (
    AggregationMap,
    BlockMismatch,
    DimensionMismatch,
    ExchangeEconomy,
    IOAccounts,
    NotAnEquilibrium,
    NotInCone,
    RankDeficiency,
    RepresentationParts,
    SupportMismatch,
    UnknownFixture,
    ZeroDenominator,
    build_exchange_from_iot,
    check_aggregation_agreement,
    clearing_basis,
    decompose_property,
    degeneracy_multiplicity,
    degenerate_transform,
    recession_industries,
    run_demo,
    solve_nonneg,
    solve_national_equilibrium,
    spectral_equilibrium,
    synthesize_property,
)
from demandgap.fixtures import economy_e1, economy_e2, random_equilibrium, toy_accounts
from demandgap.solvers import _dominant


def _parts(d0, I=(0,), case="exact", y=(1.0, 1.0)):
    """Two-consumer representation parts with uniform coefficients."""
    return RepresentationParts(y=y, a=np.full((len(I), 2), 0.5), d0=d0, I=I, case=case)


ZEROS = np.zeros((2, 2))
# the only good with a price carries no endowment value worth 1e-12
WORTHLESS = ExchangeEconomy(np.ones((2, 2)), [[1e-14, 1e-14], [1.0, 1.0]])
# good 1 is priced at 1e-10, so a deficit of 10 there offsets an excess of
# 1e-9 on money, inside the band at tol = 1e-6
BARELY_PRICED = ExchangeEconomy([[1.0], [10.0]], [[1.0], [20.0]])
# y = (1, 1, 1, 1); good 1 falls 2e-6 short of its supply of 4, inside the
# clearing band 4e-6 but outside the column-sum band tol * max|B| = 1e-6
WIDE_BAND = ExchangeEconomy([[1.0] * 4, [1.0 - 0.5e-6] * 4], np.ones((2, 4)))
# an industry of 1e9 beside one of 3 that is 0.5 out of balance: the seed
# fits in norm (0.5 <= 1e-8 * |target|) but not in the small industry's band
LOPSIDED = IOAccounts(
    X=[[1e9, 1e9], [0.0, 1.0]], Xout=[3e9, 2.5], Cf=[1e9, 1.0], E=[1.0, 1.0],
    Imp=[1.0, 0.0], pi=[1.0, 1.0],
)

SITES = {
    # structure
    "index-set-duplicates": (
        lambda: clearing_basis([1.0, 1.0], I=(0, 0)),
        ValueError, "index set has duplicates: (0, 0)",
    ),
    "index-set-out-of-range": (
        lambda: clearing_basis([1.0, 1.0], I=(0, 2)),
        ValueError, "index set (0, 2) out of range for n = 2",
    ),
    "support-price-zero": (
        lambda: clearing_basis([1.0, 0.0], I=(0, 1)),
        SupportMismatch, "prices must exceed 0.0 on I = (0, 1)",
    ),
    "parts-shapes": (
        lambda: _parts(ZEROS, y=(1.0,)).validate(),
        ValueError, "inconsistent shapes: y (1,), a (1, 2), d0 (2, 2), |I| = 1",
    ),
    "parts-d0-on-support": (
        lambda: _parts([[1.0, -1.0], [0.0, 0.0]]).validate(),
        ValueError, "d0 must vanish on the support rows",
    ),
    "parts-exact-row-sum": (
        lambda: _parts([[0.0, 0.0], [1.0, 0.0]]).validate(),
        ValueError, "d0 columns must sum to zero in the exact case",
    ),
    "parts-partial-row-sum": (
        lambda: _parts([[0.0, 0.0], [-1.0, 0.0]], case="partial").validate(),
        ValueError, "d0 column sums must be nonnegative in the partial case",
    ),
    "synthesis-d0-shape": (
        lambda: synthesize_property(np.ones((3, 2)), [1.0, 1.0, 1.0], _parts(ZEROS, I=(0, 1))),
        ValueError, "d0 shape (2, 2) does not match C (3, 2)",
    ),
    "synthesis-zero-demand-value": (
        lambda: synthesize_property([[1.0, 0.0], [1.0, 1.0]], [1.0, 0.0], _parts(ZEROS)),
        ValueError, "every consumer must demand something on the support",
    ),
    "synthesis-unsupplied-support": (
        lambda: synthesize_property([[0.0, 0.0], [1.0, 1.0]], [1.0, 0.0], _parts(ZEROS)),
        ValueError, "sum_i y_i C_i must be strictly positive on the support",
    ),
    "decompose-no-valued-supply": (
        lambda: decompose_property(WORTHLESS, [1.0, 0.0], I=(0,), case="partial"),
        NotAnEquilibrium, "the economy has no valued supply at this price",
    ),
    "decompose-deficit-on-support": (
        lambda: decompose_property(BARELY_PRICED, [1.0, 1e-10], I=(0, 1), case="partial", tol=1e-6),
        NotAnEquilibrium, "deficits on the price support [1]",
    ),
    "degenerate-deficit-on-support": (
        lambda: degenerate_transform(BARELY_PRICED, [1.0, 1e-10], I=(0, 1), mode="partial", tol=1e-6),
        NotAnEquilibrium, "deficits on the price support [1]",
    ),
    "decompose-single-good-roundoff": (
        lambda: decompose_property(
            ExchangeEconomy([[0.1, 0.1], [1.0, 1.0]], [[0.1, 0.7], [10.0, 10.0]]),
            [1.0, 0.0], I=(0,), case="partial", tol=0.0,
        ),
        RankDeficiency, "single-good support left a nonzero on-support transfer",
    ),
    "degenerate-column-sum-law": (
        lambda: degenerate_transform(WIDE_BAND, [1.0, 0.0], I=(0,), tol=1e-6),
        RankDeficiency, "degenerating transfer violates its column-sum law (mode=exact)",
    ),
    "multiplicity-below-bound": (
        lambda: degeneracy_multiplicity(np.eye(2), np.ones((2, 2)), [1.0, 1.0], I=(0,)),
        RankDeficiency,
        "multiplicity 0 below the guaranteed bound 1; rank tolerance likely misjudged",
    ),
    # leontief
    "empty-block": (
        lambda: AggregationMap(((), (0,))),
        BlockMismatch, "empty aggregation block",
    ),
    "map-rows": (
        lambda: AggregationMap(((0,), (1,))).apply([1.0, 2.0, 3.0]),
        BlockMismatch, "data has 3 rows, map expects 2",
    ),
    "conversion-price-zero": (
        lambda: build_exchange_from_iot(toy_accounts(), [1.0, 0.0], [100.0, 100.0]),
        ValueError, "conversion prices must be strictly positive",
    ),
    "conversion-no-output": (
        lambda: build_exchange_from_iot(toy_accounts(), [1.0, 1.0], [0.0, 0.0]),
        ZeroDenominator, "zero denominator: gross output value",
    ),
    "conversion-negative-new-value": (
        lambda: build_exchange_from_iot(toy_accounts(pi=(0.0, 0.0)), [1.0, 1.0], [1.0, 1.0]),
        ValueError,
        "industry 0 has negative untaxed new value; cannot form household demand weights",
    ),
    "national-fit-per-industry": (
        lambda: solve_national_equilibrium(LOPSIDED, strict=False),
        NotInCone, "target is outside the nonnegative column cone (residual 5.000e-01 > 3.500e-08)",
    ),
    # solvers
    "kernel-infinite-entry": (
        lambda: _dominant(np.array([[1.0, np.inf], [1.0, 1.0]])),
        ValueError, "M must be finite",
    ),
    "kernel-nan-entry": (
        lambda: _dominant(np.array([[1.0, np.nan], [1.0, 1.0]])),
        ValueError, "M must be finite",
    ),
    "cone-matrix-1d": (
        lambda: solve_nonneg([1.0, 2.0], [1.0]),
        ValueError, "C must be a 2-d array, got shape (2,)",
    ),
    "factor-shape": (
        lambda: spectral_equilibrium(np.ones((2, 3)), np.eye(2)),
        ValueError, "C shape (2, 3) does not match B1 shape (2, 2)",
    ),
    "factor-zero-column": (
        lambda: spectral_equilibrium([[1.0, 0.0], [1.0, 0.0]], np.eye(2)),
        ValueError, "every column of C must have a positive sum",
    ),
    # recession, exchange, fixtures, demo
    "recession-lengths": (
        lambda: recession_industries([1.0, 2.0], [1.0]),
        ValueError, "D and S lengths differ: 2 vs 1",
    ),
    "economy-1d": (
        lambda: ExchangeEconomy([1.0, 2.0], [1.0, 2.0]),
        DimensionMismatch, "C must be a 2-d array, got shape (2,)",
    ),
    "e2-parameter": (
        lambda: economy_e2(1.5),
        ValueError, "b21 must lie in [0, 1], got 1.5",
    ),
    "random-support": (
        lambda: random_equilibrium(0, n=3, l=2, support=4),
        ValueError, "support must be in 1..3, got 4",
    ),
    "demo-non-integer": (
        lambda: run_demo("random:seed=x"),
        UnknownFixture,
        "unknown fixture \"random:seed=x (invalid literal for int() with base 10: 'x')\"; "
        "try E1, E2 or random:...",
    ),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_raise_site(site):
    call, error, message = SITES[site]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as err:
        call()
    assert err.type is error


def test_wider_tol_clears_what_tol_zero_refuses():
    econ = ExchangeEconomy([[0.1, 0.1], [1.0, 1.0]], [[0.1, 0.7], [10.0, 10.0]])
    _, residual = decompose_property(econ, [1.0, 0.0], I=(0,), case="partial", tol=1e-9)
    assert residual <= 1e-15


def test_aggregated_price_that_does_not_clear_disagrees():
    econ, p = economy_e1()
    assert check_aggregation_agreement(econ, p, AggregationMap.identity(2), p)
    assert not check_aggregation_agreement(econ, p, AggregationMap.identity(2), [1.0, 0.5])


def test_closures_fail_when_final_demand_is_unpriced():
    # industry 1 supplies only itself and has the larger root, so the left
    # Perron vector, and with it the price, vanishes on industry 0, the
    # only good that households and exports buy
    acc = IOAccounts(
        X=[[10.0, 20.0], [0.0, 30.0]], Xout=[85.0, 30.0], Cf=[40.0, 0.0], E=[20.0, 0.0],
        Imp=[5.0, 0.0], pi=[1.0, 1.0],
    )
    sol = solve_national_equilibrium(acc, strict=False)
    np.testing.assert_array_equal(sol.p, [0.0, 1.0])
    assert sol.diagnostics["closure_household"] == np.inf
    assert sol.diagnostics["closure_trade"] == np.inf
    assert not sol.diagnostics["positivity_ok"]
    assert not sol.certified
