"""Representation, equivalence, and degeneracy machinery."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandgap import (
    AggregationMap,
    DemandGapError,
    DimensionMismatch,
    EmptySupport,
    ExchangeEconomy,
    NegativeEndowment,
    NoMoneySupply,
    NotAnEquilibrium,
    PriceVector,
    RankDeficiency,
    RepresentationParts,
    SupportMismatch,
    check_aggregation_agreement,
    check_equilibrium,
    clearing_basis,
    decompose_property,
    degeneracy_multiplicity,
    degenerate_transform,
    demand_scales,
    excess_demand,
    is_equivalent,
    real_money_value,
    synthesize_property,
    verify_certificate,
)
from demandgap import exchange, structure
from demandgap._policy import _quiet
from demandgap.exchange import DEFAULT_TOL, DEFAULT_TOL_POS
from demandgap.fixtures import economy_e1, economy_e2, random_equilibrium
from demandgap.structure import DEFAULT_RANK_TOL


class TestClearingBasis:
    def test_two_goods_unit_prices(self):
        basis = clearing_basis([1.0, 1.0], I=(0, 1))
        np.testing.assert_allclose(basis.G[:, 0], [0.5, -0.5])
        np.testing.assert_allclose(basis.G[:, 1], [-0.5, 0.5])

    def test_singleton_support_is_zero(self):
        basis = clearing_basis([1.0, 0.0], I=(0,))
        np.testing.assert_array_equal(basis.G, np.zeros((2, 1)))
        assert basis.rank == 0

    def test_three_goods_partial_support(self):
        basis = clearing_basis([2.0, 1.0, 0.0], I=(0, 1))
        np.testing.assert_allclose(basis.G[:, 0], [1 / 3, -2 / 3, 0.0])
        np.testing.assert_allclose(basis.G[:, 1], [-1 / 3, 2 / 3, 0.0])

    def test_empty_support_raises(self):
        with pytest.raises(EmptySupport):
            clearing_basis([1.0, 1.0], I=())

    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data(), n=st.integers(1, 320), log_spread=st.floats(0.0, 12.0))
    def test_zero_value_and_sum_invariants(self, data, n, log_spread):
        k = data.draw(st.integers(1, min(n, 300)), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        I = sorted(rng.choice(n, size=k, replace=False).tolist())
        p = np.zeros(n)
        p[I] = 10.0 ** rng.uniform(0.0, log_spread, k)
        basis = clearing_basis(p, I)
        np.testing.assert_array_equal(basis.G, _loop_clearing_matrix(p, I))
        np.testing.assert_allclose(basis.G.T @ (p / p.max()), np.zeros(k), atol=1e-12)
        np.testing.assert_allclose(basis.G.sum(axis=1), np.zeros(n), atol=1e-12)
        # the rank |I| - 1 that clearing_basis takes by construction
        sv = np.linalg.svd(basis.G, compute_uv=False)
        assert int((sv > 1e-8 * max(sv[0], 1e-300)).sum()) == k - 1
        if k > 1:
            u = p[I] / p[I].sum()
            # nonzero singular values: 1 and sqrt(|I|) |u|, within [1, sqrt(|I|)]
            assert sv[0] == pytest.approx(np.sqrt(k) * np.linalg.norm(u), rel=1e-12)
            assert sv[k - 2] >= 1.0 - 1e-12 and sv[0] <= np.sqrt(k) * (1.0 + 1e-12)


def _loop_clearing_matrix(p, I) -> np.ndarray:
    """Reference: the clearing basis column by column, as the formula reads."""
    q = PriceVector(p).normalized()
    total = q[list(I)].sum()
    G = np.zeros((q.shape[0], len(I)))
    for j, s in enumerate(I):
        G[list(I), j] = -q[s] / total
        G[s, j] += 1.0
    return G


class TestSynthesize:
    def test_e1_from_uniform_parts(self):
        C = np.array([[1.0, 1.0], [1.0, 0.0]])
        parts = RepresentationParts(
            y=[1.0, 1.0], a=np.full((2, 2), 0.5), d0=np.zeros((2, 2)), I=(0, 1)
        )
        B = synthesize_property(C, [1.0, 1.0], parts)
        np.testing.assert_allclose(B, [[4 / 3, 2 / 3], [2 / 3, 1 / 3]])

    def test_uniform_parts_give_supply_proportional_columns(self):
        rng = np.random.default_rng(1)
        n, l = 4, 3
        C = rng.uniform(0.2, 1.5, (n, l))
        p = rng.uniform(0.3, 2.0, n)
        parts = RepresentationParts(
            y=np.ones(l), a=np.full((n, l), 1.0 / l), d0=np.zeros((n, l)), I=tuple(range(n))
        )
        B = synthesize_property(C, p, parts)
        psi = C @ np.ones(l)
        for i in range(l):
            ratio = B[:, i] / psi
            np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        econ = ExchangeEconomy(C, B)
        np.testing.assert_allclose(
            econ.C @ demand_scales(econ, p) - econ.total_supply(), 0.0, atol=1e-12
        )

    def test_off_support_transfers_keep_clearing(self):
        rng = np.random.default_rng(2)
        n, l, support = 5, 3, 3
        I = (0, 1, 2)
        C = rng.uniform(0.2, 1.5, (n, l))
        p = np.zeros(n)
        p[list(I)] = rng.uniform(0.5, 1.5, support)
        d0 = np.zeros((n, l))
        raw = rng.uniform(0.0, 0.2, (2, l))
        d0[3:, :] = raw - raw.mean(axis=1, keepdims=True)
        parts = RepresentationParts(
            y=rng.uniform(0.5, 1.5, l), a=np.full((support, l), 1.0 / l), d0=d0, I=I
        )
        B = synthesize_property(C, p, parts)
        report = check_equilibrium(ExchangeEconomy(C, B), p)
        assert report.is_equilibrium
        assert report.equality_set == tuple(range(n))

    def test_infeasible_coefficients_raise(self):
        C = np.array([[1.0, 1.0], [1.0, 0.0]])
        parts = RepresentationParts(
            y=[1.0, 1.0],
            a=np.array([[5.0, -4.0], [-4.0, 5.0]]),
            d0=np.zeros((2, 2)),
            I=(0, 1),
        )
        with pytest.raises(NegativeEndowment):
            synthesize_property(C, [1.0, 1.0], parts)

    def test_infinite_demand_value_raises(self):
        # <C_0, q> overflows to inf; unchecked, column 0 of B is NaN
        C = np.array([[1.0, 1.0], [1e308, 1.0]])
        parts = RepresentationParts(y=[1.0, 1.0], a=np.full((2, 2), 0.5), d0=np.zeros((2, 2)), I=(0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="clearing check overflows .* goods \\[0, 1\\]"):
                synthesize_property(C, [1.0, 10.0], parts)

    def test_overflowing_scaled_demand_raises(self):
        # sum_i y_i C_i overflows on good 0; unchecked, row 0 of B was NaN
        C = np.array([[1e308, 1e308], [1.0, 1.0]])
        parts = RepresentationParts(y=[1.0, 1.0], a=np.full((2, 2), 0.5), d0=np.zeros((2, 2)), I=(0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"sum_i y_i C_i overflows on goods \[0\]"):
                synthesize_property(C, [1.0, 1.0], parts)

    def test_overflowing_total_value_is_answered(self):
        # <psi_bar, q> = 2 + 2e308 overflows, but the shares 1/2 do not: B was
        # 0 (every share divided by inf); in units of the largest price it is
        # the economy's own endowment, which clears at p
        p = [1.0, 1e308]
        parts = RepresentationParts(y=[1.0, 1.0], a=np.full((2, 2), 0.5), d0=np.zeros((2, 2)), I=(0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            B = synthesize_property(np.ones((2, 2)), p, parts)
            np.testing.assert_array_equal(B, np.ones((2, 2)))
            assert check_equilibrium(ExchangeEconomy(np.ones((2, 2)), B), p).is_equilibrium

    def test_invalid_parts_rejected(self):
        C = np.ones((2, 2))
        bad = RepresentationParts(
            y=[1.0, 1.0], a=np.array([[0.9, 0.9], [0.1, 0.1]]), d0=np.zeros((2, 2)), I=(0, 1)
        )
        with pytest.raises(ValueError, match="sum to 1"):
            synthesize_property(C, [1.0, 1.0], bad)


def _spread_economy(seed, n, l, k, log_spread, partial):
    """Random parts with support prices spread over ``10**log_spread`` and
    the economy they synthesize (after ``fixtures.random_equilibrium``)."""
    rng = np.random.default_rng(seed)
    I = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    J = [s for s in range(n) if s not in I]
    C = rng.uniform(0.2, 1.2, (n, l))
    p = np.zeros(n)
    p[list(I)] = 10.0 ** rng.uniform(0.0, log_spread, k)
    y = rng.uniform(0.5, 1.5, l)
    q = PriceVector(p).normalized()
    delta = rng.normal(0.0, 1.0, (k, l))
    delta -= delta.mean(axis=1, keepdims=True)
    d0 = np.zeros((n, l))
    raw = rng.normal(0.0, 1.0, (len(J), l))
    raw -= raw.mean(axis=1, keepdims=True)
    d0[J, :] = raw + (rng.uniform(0.1, 0.6, (len(J), 1)) / l if partial else 0.0)
    base = np.outer(C @ y, y * (C.T @ q) / float(C @ y @ q))
    pert = clearing_basis(p, I).G @ delta + d0
    mask = pert < 0
    alpha = min(1.0, 0.45 * float((base[mask] / -pert[mask]).min())) if mask.any() else 1.0
    parts = RepresentationParts(
        y=y, a=alpha * delta + 1.0 / l, d0=alpha * d0, I=I,
        case="partial" if partial else "exact",
    )
    return ExchangeEconomy(C, synthesize_property(C, p, parts)), p, parts


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        data=st.data(),
        n=st.integers(1, 40),
        l=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        log_spread=st.floats(0.0, 6.0),
        partial=st.booleans(),
    )
    def test_synthesize_decompose_round_trip(self, data, n, l, seed, log_spread, partial):
        k = data.draw(st.integers(1, n), label="k")
        econ, p, parts = _spread_economy(seed, n, l, k, log_spread, partial)
        got, residual = decompose_property(econ, p, I=parts.I, case=parts.case)
        assert residual <= 1e-9
        np.testing.assert_allclose(got.y, parts.y, rtol=1e-9)
        # reference: the pseudo-inverse of the clearing basis on the support
        q = PriceVector(p).normalized()
        psi_bar = econ.C @ got.y
        shares = got.y * (econ.C.T @ q) / float(psi_bar @ q)
        rows = list(parts.I)
        d1 = econ.B[rows, :] - np.outer(psi_bar[rows], shares)
        G_I = clearing_basis(p, parts.I).G[rows, :]
        expected = np.linalg.pinv(G_I) @ d1 + 1.0 / l
        np.testing.assert_allclose(
            got.a, expected, rtol=0, atol=1e-10 * max(1.0, float(np.abs(d1).max()))
        )


    @settings(max_examples=200, deadline=None, database=None)
    @given(
        data=st.data(),
        n=st.integers(1, 8),
        l=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        slack=st.booleans(),
        log_scale=st.integers(-3, 9),
        tol=st.sampled_from([0.0, 1e-9, 1e-6]),
    )
    def test_what_clears_decomposes_and_degenerates(self, data, n, l, seed, slack, log_scale, tol):
        support = data.draw(st.integers(1, n), label="support")
        base, p, parts = random_equilibrium(seed, n=n, l=l, support=support, slack=slack)
        econ = ExchangeEconomy(base.C, base.B * 10.0**log_scale)
        report = check_equilibrium(econ, p, tol=tol)
        if report.violated_set or set(report.strict_set) & set(parts.I):
            return
        psi = econ.total_supply()
        band = tol * np.maximum(1.0, psi) + 4 * np.spacing(np.maximum(1.0, psi))
        for case in ("exact", "partial"):
            if case == "exact" and report.strict_set:
                continue
            _, residual = decompose_property(econ, p, I=parts.I, case=case, tol=tol)
            assert residual <= 1e-15
            net = degenerate_transform(econ, p, I=parts.I, mode=case, tol=tol).transfer.sum(axis=1)
            assert (net <= band).all()
            if case == "exact":
                assert (net >= -band).all()


class TestDecompose:
    def test_overflowing_total_value_is_answered(self):
        # the clearing check accepts this economy at p, and <psi_bar, q>
        # overflows: the round trip once missed B by 1.0 (every share was 0)
        econ = ExchangeEconomy(np.ones((2, 2)), np.ones((2, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_equilibrium(econ, [1.0, 1e308]).is_equilibrium
            parts, residual = decompose_property(econ, [1.0, 1e308], (0, 1))
        assert residual == 0.0
        np.testing.assert_array_equal(parts.a, np.full((2, 2), 0.5))

    def test_support_prices_past_the_float_range(self):
        # sum(p_I) = 2e308 overflows: the clearing basis warned and the round
        # trip residual was NaN; in units of the largest price u = (5e-309, 1/2, 1/2)
        C = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        econ, p = ExchangeEconomy(C, C), [1.0, 1e308, 1e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_equilibrium(econ, p).is_equilibrium
            parts, residual = decompose_property(econ, p, (0, 1, 2))
            G = clearing_basis(p, (0, 1, 2)).G
        assert residual == 0.0
        np.testing.assert_array_equal(G[:, 1], [-0.5, 0.5, -0.5])  # e_1 - u_1 e_I

    def test_scaled_supply_past_the_float_range_raises(self):
        # each good's supply is finite, but their value 2e308 at unit prices
        # is not, even in units of the largest price
        econ = ExchangeEconomy(np.eye(2), np.diag([1e308, 1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_equilibrium(econ, [1.0, 1.0]).is_equilibrium
            with pytest.raises(ValueError, match=r"<sum_i y_i C_i, p> overflows"):
                decompose_property(econ, [1.0, 1.0], (0, 1))

    def test_e1_uniform_gauge(self):
        econ, p = economy_e1()
        parts, residual = decompose_property(econ, p, I=(0, 1))
        np.testing.assert_allclose(parts.y, [1.0, 1.0])
        np.testing.assert_allclose(parts.a, np.full((2, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(parts.d0, np.zeros((2, 2)), atol=1e-12)
        assert residual <= 1e-12

    def test_b_equals_c_roundtrip(self):
        rng = np.random.default_rng(3)
        C = rng.uniform(0.2, 1.5, (4, 4))
        econ = ExchangeEconomy(C, C)
        p = rng.uniform(0.3, 2.0, 4)
        parts, residual = decompose_property(econ, p, I=tuple(range(4)))
        np.testing.assert_allclose(parts.y, np.ones(4), atol=1e-12)
        assert residual <= 1e-9

    def test_e2_singleton_support_slack_on_free_good(self):
        econ, p = economy_e2(1.0)
        parts, residual = decompose_property(econ, p, I=(0,))
        assert residual <= 1e-12
        np.testing.assert_allclose(parts.a, np.full((1, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(parts.d0[0], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(parts.d0[1], [0.5, -0.5], atol=1e-12)

    def test_not_an_equilibrium_raises(self):
        econ, _ = economy_e1()
        with pytest.raises(NotAnEquilibrium):
            decompose_property(econ, np.array([1.0, 10.0]), I=(0, 1))

    def test_nan_price_off_support_rejected(self):
        # unchecked, the NaN flows into the parts and the round-trip residual
        econ, _ = economy_e2(1.0)
        with pytest.raises(ValueError, match="prices must be finite"):
            decompose_property(econ, np.array([1.0, np.nan]), I=(0,), case="partial")

    def test_support_mismatch_raises(self):
        econ, p = economy_e1()
        with pytest.raises(SupportMismatch):
            decompose_property(econ, p, I=(0,))

    def test_bad_case_raises_before_the_clearing_check(self):
        econ, _ = economy_e1()
        with pytest.raises(ValueError, match="case must be"):
            decompose_property(econ, np.array([1.0, 10.0]), I=(0, 1), case="bogus")

    def test_large_round_trip_runs_no_svd_or_pinv(self, monkeypatch):
        econ, p, parts = random_equilibrium(4, n=200, l=150, support=100)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense SVD or pseudo-inverse on the round trip")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        monkeypatch.setattr(np.linalg, "pinv", forbidden)
        B = synthesize_property(econ.C, p, parts)
        got, residual = decompose_property(ExchangeEconomy(econ.C, B), p, I=parts.I)
        np.testing.assert_array_equal(B, econ.B)
        np.testing.assert_allclose(got.y, parts.y, rtol=1e-9)
        assert residual <= 1e-9

    def test_roundtrip_random(self):
        for seed in range(30):
            econ, p, parts = random_equilibrium(seed, n=6, l=5, support=3)
            got, residual = decompose_property(econ, p, I=parts.I)
            assert residual <= 1e-9
            np.testing.assert_allclose(got.y, parts.y, rtol=1e-9)

    def test_partial_case_roundtrip(self):
        for seed in range(15):
            econ, p, parts = random_equilibrium(seed, n=5, l=4, support=2, slack=True)
            got, residual = decompose_property(econ, p, I=parts.I, case="partial")
            assert residual <= 1e-9
            assert (got.d0.sum(axis=1) >= -1e-9).all()

    def test_partial_data_rejected_in_exact_mode(self):
        econ, p, parts = random_equilibrium(8, n=5, l=4, support=2, slack=True)
        with pytest.raises(NotAnEquilibrium):
            decompose_property(econ, p, I=parts.I, case="exact")


class TestIsEquivalent:
    def test_identical(self):
        econ, p = economy_e1()
        assert is_equivalent(econ.B, econ.B, p)

    def test_clearing_basis_shifts_are_equivalent(self):
        econ, p = economy_e1()
        basis = clearing_basis(p, (0, 1))
        B_bar = econ.B + np.column_stack([0.3 * basis.G[:, 0], -0.1 * basis.G[:, 1]])
        assert is_equivalent(econ.B, B_bar, p)

    def test_priced_transfer_changes_value(self):
        econ, p = economy_e1()
        B_bar = econ.B + np.outer(np.array([1.0, 0.0]), np.array([0.2, 0.1]))
        assert not is_equivalent(econ.B, B_bar, p)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_equivalent(np.ones((2, 2)), np.ones((3, 2)), [1.0, 1.0])


class TestDegenerateTransform:
    def test_e2_family(self):
        for b21 in (0.0, 0.4, 1.0):
            econ, p = economy_e2(b21)
            tr = degenerate_transform(econ, p, I=(0,))
            np.testing.assert_allclose(tr.B_bar, [[1.0, 1.0], [1.0, 0.0]])
            assert tr.multiplicity_lower_bound == 1
            degenerate = ExchangeEconomy(econ.C, tr.B_bar)
            for q2 in (0.0, 0.7, 3.0, 100.0):
                report = check_equilibrium(degenerate, np.array([1.0, q2]))
                assert report.is_equilibrium
                np.testing.assert_allclose(report.residual, 0.0, atol=1e-12)

    def test_full_support_is_identity(self):
        econ, p, parts = random_equilibrium(5, n=4, l=3, support=4)
        tr = degenerate_transform(econ, p, I=parts.I)
        np.testing.assert_allclose(tr.transfer, np.zeros((4, 3)), atol=1e-12)
        assert tr.multiplicity_lower_bound == 0

    def test_transfer_invariants_exact_mode(self):
        for seed in range(20):
            econ, p, parts = random_equilibrium(seed, n=5, l=4, support=2)
            tr = degenerate_transform(econ, p, I=parts.I)
            q = np.asarray(p, dtype=float)
            np.testing.assert_allclose(tr.transfer.T @ q, 0.0, atol=1e-12)
            np.testing.assert_allclose(tr.transfer.sum(axis=1), 0.0, atol=1e-9)
            # equivalence preserves the aggregate endowment
            np.testing.assert_allclose(
                tr.B_bar.sum(axis=1), econ.B.sum(axis=1), atol=1e-9
            )
            J = [k for k in range(5) if k not in parts.I]
            np.testing.assert_allclose(
                tr.B_bar[J, :], econ.C[J, :] * tr.y[None, :], atol=1e-12
            )

    def test_partial_mode_shrinks_supply(self):
        for seed in range(10):
            econ, p, parts = random_equilibrium(seed, n=5, l=3, support=2, slack=True)
            tr = degenerate_transform(econ, p, I=parts.I, mode="partial")
            assert (tr.transfer.sum(axis=1) <= 1e-9).all()
            degenerate = ExchangeEconomy(econ.C, tr.B_bar)
            rng = np.random.default_rng(seed)
            off = [k for k in range(5) if k not in parts.I]
            for _ in range(10):
                q = np.asarray(p, dtype=float).copy()
                q[off] = rng.uniform(0.0, 2.0, len(off))
                report = check_equilibrium(degenerate, q)
                assert report.is_equilibrium
                assert not report.strict_set

    def test_random_perturbations_keep_equilibrium(self):
        econ, p, parts = random_equilibrium(11, n=4, l=3, support=2)
        tr = degenerate_transform(econ, p, I=parts.I)
        degenerate = ExchangeEconomy(econ.C, tr.B_bar)
        psi = degenerate.total_supply()
        rng = np.random.default_rng(99)
        off = [k for k in range(4) if k not in parts.I]
        for _ in range(100):
            q = np.asarray(p, dtype=float).copy()
            q[off] = rng.uniform(0.0, 3.0, len(off))
            report = check_equilibrium(degenerate, q)
            assert (np.abs(report.residual) <= 1e-9 * np.maximum(1.0, psi)).all()

    def test_requires_equilibrium(self):
        econ, _ = economy_e1()
        with pytest.raises(SupportMismatch):
            degenerate_transform(econ, np.array([1.0, 10.0]), I=(0,))

    def test_scales_preserved_by_transform(self):
        econ, p, parts = random_equilibrium(21, n=5, l=4, support=3)
        tr = degenerate_transform(econ, p, I=parts.I)
        degenerate = ExchangeEconomy(econ.C, tr.B_bar)
        np.testing.assert_allclose(
            demand_scales(degenerate, p), demand_scales(econ, p), rtol=1e-12
        )


class TestEquivalentRedistributionInvariance:
    def test_zero_value_zero_sum_transfers_preserve_equilibrium(self):
        rng = np.random.default_rng(7)
        for seed in range(15):
            econ, p, parts = random_equilibrium(seed, n=5, l=4, support=3)
            y0 = demand_scales(econ, p)
            basis = clearing_basis(p, parts.I)
            h = rng.normal(0.0, 1.0, (3, 4))
            h -= h.mean(axis=1, keepdims=True)
            D = basis.G @ h
            off = [k for k in range(5) if k not in parts.I]
            raw = rng.normal(0.0, 1.0, (len(off), 4))
            D[off, :] += raw - raw.mean(axis=1, keepdims=True)
            # scale the transfer to keep endowments nonnegative
            mask = D < 0
            if mask.any():
                D *= 0.45 * float((econ.B[mask] / np.abs(D[mask])).min())
            B_bar = econ.B + D
            assert is_equivalent(econ.B, B_bar, p)
            report = check_equilibrium(ExchangeEconomy(econ.C, B_bar), p)
            assert report.is_equilibrium and not report.strict_set
            np.testing.assert_allclose(
                demand_scales(ExchangeEconomy(econ.C, B_bar), p), y0, atol=1e-12
            )


class TestDegeneracyMultiplicity:
    def test_e2_original_endowments(self):
        # generic member of the family: residual columns live on the free good
        econ, _ = economy_e2(0.3)
        assert degeneracy_multiplicity(econ.B, econ.C, [1.0, 1.0]) == 1

    def test_e2_after_transform_is_fully_degenerate(self):
        # the transform makes B equal C * diag(y), so the residual vanishes
        econ, p = economy_e2(0.3)
        tr = degenerate_transform(econ, p, I=(0,))
        assert degeneracy_multiplicity(tr.B_bar, econ.C, tr.y, I=tr.I) == 2

    def test_b_equals_c_full_multiplicity(self):
        C = np.random.default_rng(0).uniform(0.1, 1.0, (4, 3))
        assert degeneracy_multiplicity(C, C, np.ones(3)) == 4

    def test_matches_full_matrix_rank_with_and_without_zero_rows(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n, l = int(rng.integers(2, 30)), int(rng.integers(1, 20))
            C = rng.uniform(0.1, 1.0, (n, l))
            y = rng.uniform(0.5, 1.5, l)
            rank = int(rng.integers(0, min(n, l) + 1))
            R = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, l))
            if trial % 2:
                R[rng.random(n) < 0.5, :] = 0.0
            B_bar = C * y[None, :] + R
            sv = np.linalg.svd(B_bar - C * y[None, :], compute_uv=False)
            full_rank = int((sv > 1e-8 * sv[0]).sum()) if sv[0] > 0 else 0
            assert degeneracy_multiplicity(B_bar, C, y) == n - full_rank

    def test_shape_mismatch_raises(self):
        econ, _ = economy_e1()
        with pytest.raises(DimensionMismatch):
            degeneracy_multiplicity(econ.B, econ.C[:1], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            degeneracy_multiplicity(econ.B, econ.C, [1.0, 1.0, 1.0])

    def test_bound_holds_on_random_transforms(self):
        for seed in range(20):
            econ, p, parts = random_equilibrium(seed, n=6, l=4, support=2)
            tr = degenerate_transform(econ, p, I=parts.I)
            mult = degeneracy_multiplicity(tr.B_bar, econ.C, tr.y, I=tr.I)
            assert mult >= 6 - len(parts.I)


class TestFullSizeBuffers:
    """Each structure call forms its n x l quantities in a bounded number of
    full-size buffers.  Tracemalloc peaks at 200 x 150, in units of one
    n x l float array: measured 2.31, 3.83, 1.60, 1.52 and 0.07 with numpy
    2.4, against 3.31, 7.54, 2.04, 2.00 and 1.02 for the out-of-place forms
    of :class:`TestReferenceForms` and :func:`_reference_laws`; each bound
    is at least 10 % above the measured peak and below the out-of-place one."""

    BOUNDS = {
        "synthesize_property": 2.6,
        "decompose_property": 4.3,
        "verify_certificate": 1.8,
        "degeneracy_multiplicity": 1.7,
        "validate": 0.3,
    }

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_peak_at_200_by_150(self, name):
        n, l = 200, 150
        econ, p, parts = random_equilibrium(7, n=n, l=l, support=100)
        tr = degenerate_transform(econ, p, I=parts.I)
        psi_bar = econ.C @ parts.y
        decomposed = decompose_property(econ, p, I=parts.I)[0]
        call = {
            "synthesize_property": lambda: synthesize_property(econ.C, p, parts),
            "decompose_property": lambda: decompose_property(econ, p, I=parts.I),
            "verify_certificate": lambda: verify_certificate(econ, p, parts.y, psi_bar),
            "degeneracy_multiplicity": lambda: degeneracy_multiplicity(tr.B_bar, econ.C, tr.y, parts.I),
            "validate": decomposed.validate,
        }[name]
        call()  # first-call set-up
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.BOUNDS[name] * 8 * n * l


def _reference_laws(parts, tol):
    """The two laws of :meth:`RepresentationParts.validate` in the form they
    had before they went through ``_policy._classify``: their own band
    comparisons, the support rows copied out, and a fresh ``|d0|``."""
    col_sums = parts.a.sum(axis=1)
    if np.abs(col_sums - 1.0).max(initial=0.0) > 1e-12:
        raise ValueError("each clearing-basis coefficient row must sum to 1")
    if parts.I and parts.d0[list(parts.I)].any():
        raise ValueError("d0 must vanish on the support rows")
    row_sums = parts.d0.sum(axis=1)
    scale = max(1.0, float(np.abs(parts.d0).max(initial=0.0)))
    if parts.case == "exact":
        if np.abs(row_sums).max(initial=0.0) > tol * scale:
            raise ValueError("d0 columns must sum to zero in the exact case")
    elif row_sums.min(initial=0.0) < -tol * scale:
        raise ValueError("d0 column sums must be nonnegative in the partial case")


class TestRepresentationLaws:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        l=st.integers(1, 8),
        partial=st.booleans(),
        tol=st.sampled_from([0.0, 1e-12, DEFAULT_TOL, 1e-3]),
        log_scale=st.integers(-3, 9),
        plant=st.sampled_from(["none", "a", "d0", "d0", "support"]),
        edge=st.integers(0, 5),
    )
    def test_laws_keep_the_verdicts_of_the_reference_form(
        self, seed, n, l, partial, tol, log_scale, plant, edge
    ):
        # parts whose law sums are finite, with a coefficient row or a d0
        # sum planted around its band (one ulp either side and on it)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, n + 1))
        I = tuple(sorted(rng.choice(n, k, replace=False).tolist()))
        off = [r for r in range(n) if r not in I]
        a = rng.uniform(-1.0, 1.0, (k, l))
        a[:, 0] += 1.0 - a.sum(axis=1)
        d0 = rng.uniform(-1.0, 1.0, (n, l)) * 10.0**log_scale
        d0[list(I)] = 0.0
        d0[off, 0] -= d0[off].sum(axis=1)
        sign = 1.0 if edge % 2 else -1.0
        if plant == "a" and k:
            a[0] = 0.0
            a[0, 0] = 1.0 + sign * 1e-12 * [0.5, 1.0, 1.0, 2.0, 0.999, 1.001][edge]
        elif plant == "d0" and off:
            # in the row with the smallest entries, so that max|d0| stays
            t = tol * max(1.0, float(np.abs(d0).max()))
            r = min(off, key=lambda r: np.abs(d0[r]).max())
            d0[r] = 0.0
            d0[r, 0] = sign * [np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)][edge // 2]
        elif plant == "support" and k:
            d0[I[0], edge % l] = sign * 1e-300
        parts = RepresentationParts(y=np.ones(l), a=a, d0=d0, I=I, case="partial" if partial else "exact")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(parts.validate, tol)
        assert got == _outcome(_reference_laws, parts, tol)

    @pytest.mark.parametrize(
        "law, case, message",
        [
            ("a", "exact", "each clearing-basis coefficient row must sum to 1"),
            ("d0", "exact", "d0 columns must sum to zero in the exact case"),
            ("d0", "partial", "d0 column sums must be nonnegative in the partial case"),
        ],
        ids=["a", "d0-exact", "d0-partial"],
    )
    @pytest.mark.parametrize("overflow", ["nan", "inf"])
    def test_law_sum_that_overflows_is_refused(self, law, case, message, overflow):
        # pairwise summation adds entries 0 and 8, then 1 and 9, so the
        # sum reads inf - inf = NaN, or inf
        row = np.zeros(16)
        row[[0, 8]] = 1e308
        row[[1, 9]] = -1e308 if overflow == "nan" else 0.0
        with _quiet():
            assert np.isnan(row.sum()) if overflow == "nan" else row.sum() == np.inf
        a, d0 = np.full((1, 16), 1.0 / 16), np.zeros((2, 16))
        if law == "a":
            a[0] = row
        else:
            d0[1] = row
        parts = RepresentationParts(y=np.ones(16), a=a, d0=d0, I=(0,), case=case)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                parts.validate()


def _reference_assemble(P, u, parts):
    """``structure._assemble`` out of place, the form it had before it
    wrote into ``P``: a fresh sum, and the snap band from a fresh ``|B|``."""
    B = P + parts.d0
    B[list(parts.I)] += parts.a - u @ parts.a
    size = np.abs(B)
    neg_tol = 1e-12 * max(1.0, float(size.max()))
    if B.min() < -neg_tol:
        k, i = np.unravel_index(np.argmin(B), B.shape)
        raise NegativeEndowment(int(k), int(i), float(B[k, i]))
    B[size < neg_tol] = 0.0
    return B


def _reference_synthesize(C, p, parts):
    """:func:`synthesize_property` with the out-of-place assembly."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_assemble", _reference_assemble)
        return synthesize_property(C, p, parts)


def _reference_decompose(econ, p, I, case):
    """:func:`decompose_property` at the default ``tol`` with ``D``, ``d0``,
    ``b``, ``a`` and the residual each a fresh array, the form it had
    before they moved into buffers the call already holds; returns the
    call's result and the round trip ``B_rt``."""
    q, idx, off, y, psi_bar, demand_value = structure._cleared_support(econ, p, I, case, DEFAULT_TOL)
    q, unit = structure._in_units(q)
    total = structure._supply_value(psi_bar, q)
    if total * unit <= DEFAULT_TOL_POS:
        raise NotAnEquilibrium("the economy has no valued supply at this price")
    structure._check_supplied(psi_bar, idx)
    P = exchange._proportional(psi_bar, y * (demand_value / unit), total)
    D = econ.B - P
    d1, d0 = D[~off], np.where(off[:, None], D, 0.0)
    u = structure._weights(q, idx)
    b = d1 - u[:, None] * (u @ d1) / (u @ u)
    a = b - b.sum(axis=0) / len(idx) + 1.0 / econ.l
    parts = RepresentationParts(y=y, a=a, d0=d0, I=idx, case=case)
    B_rt = _reference_assemble(P, u, parts)
    residual = float(np.abs(B_rt - econ.B).max() / max(1.0, float(econ.B.max())))
    return (parts, residual), B_rt


def _reference_transfers(econ, p, y, psi_bar):
    """The ``transfers`` measure of :func:`verify_certificate`, with ``D``
    formed as a second array beside the rank-one part."""
    q = exchange._unit_price(p)
    with _quiet():
        excess = psi_bar - exchange._total_supply(econ)
        D = econ.B - exchange._proportional(psi_bar, y * (econ.C.T @ q), float(psi_bar @ q))
        value_gap = np.abs(D.T @ q) / np.maximum(1.0, econ.B.T @ q)
        sum_gap = np.abs(D.sum(axis=1) + excess) / np.maximum(1.0, np.abs(psi_bar))
        return float(np.maximum(value_gap.max(initial=0.0), sum_gap.max()))


def _reference_multiplicity(B_bar, C, y, I):
    """:func:`degeneracy_multiplicity` on arrays of matching shapes and
    finite entries, with ``C y`` and the residual two arrays and the
    residual held through the SVD."""
    with _quiet():
        residual = B_bar - C * y[None, :]
    sv = np.linalg.svd(residual[residual.any(axis=1)], compute_uv=False)
    rank = int((sv > DEFAULT_RANK_TOL * sv[0]).sum()) if sv.size else 0
    multiplicity = B_bar.shape[0] - rank
    bound = B_bar.shape[0] - len(I)
    if multiplicity < bound:
        raise RankDeficiency(
            f"multiplicity {multiplicity} below the guaranteed bound {bound}; "
            "rank tolerance likely misjudged"
        )
    return multiplicity


def _bits(x):
    """A result in comparable form: arrays by dtype, shape and bytes,
    floats by ``hex``, dataclasses field by field."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x


def _outcome(call, *args):
    """``call(*args)`` in comparable form, or the type and message of what it raised."""
    try:
        return "returned", _bits(call(*args))
    except Exception as exc:  # every refusal is compared, not judged
        return type(exc).__name__, str(exc)


def _drawn_parts(seed, n, l, k, partial, scale, push):
    """Random representation parts (after :func:`_spread_economy`) whose
    rank-one part and ``d0`` scale with ``scale``; the clearing-basis
    coefficients, whose rows must sum to 1 to within 1e-12, stay near
    ``1/l``.  ``push`` scales the transfers, so that some draws are
    infeasible."""
    rng = np.random.default_rng(seed)
    I = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
    J = [s for s in range(n) if s not in I]
    C = rng.uniform(0.2, 1.2, (n, l))
    p = np.zeros(n)
    p[list(I)] = rng.uniform(0.5, 1.5, k)
    y = rng.uniform(0.5, 1.5, l)
    q = PriceVector(p).normalized()
    delta = rng.normal(0.0, 1.0, (k, l))
    delta -= delta.mean(axis=1, keepdims=True)
    d0 = np.zeros((n, l))
    raw = rng.normal(0.0, 1.0, (len(J), l))
    raw -= raw.mean(axis=1, keepdims=True)
    d0[J, :] = raw + (rng.uniform(0.1, 0.6, (len(J), 1)) / l if partial else 0.0)
    base = np.outer(C @ y, y * (C.T @ q) / float(C @ y @ q))
    pert = clearing_basis(p, I).G @ delta + d0
    mask = pert < 0
    alpha = push * (min(1.0, 0.45 * float((base[mask] / -pert[mask]).min())) if mask.any() else 1.0)
    a = alpha * min(1.0, scale) * delta + 1.0 / l
    return C, p, y * scale, a, alpha * scale * d0, I, J


def _around(t, boundary=False):
    """Entries one ulp either side of the snap band ``t`` and on it, of
    both signs; with ``boundary``, first the one just past ``-t``, which
    is negative beyond the band."""
    below, above = np.nextafter(t, 0.0), np.nextafter(t, np.inf)
    return [-above] * boundary + [below, t, above, -below, -t]


class TestReferenceForms:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        data=st.data(),
        n=st.integers(1, 40),
        l=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        partial=st.booleans(),
        log_scale=st.integers(-3, 9),
        push=st.sampled_from([1.0, 1.0, 3.0]),
        plant=st.sampled_from(["none", "band", "boundary"]),
    )
    def test_structure_calls_keep_the_bits_of_the_reference_forms(
        self, data, n, l, seed, partial, log_scale, push, plant
    ):
        k = data.draw(st.integers(1, n), label="k")
        C, p, y, a, d0, I, J = _drawn_parts(seed, n, l, k, partial, 10.0**log_scale, push)
        case = "partial" if partial else "exact"
        planted = plant != "none" and l > 1 and J
        if planted:
            # consumer l-1 demands nothing, so its rank-one column is exactly
            # 0 and its off-support endowments are exactly its d0 entries
            y[-1] = 0.0
            for arr in (a, d0):  # keep the sums across consumers
                arr[:, 0] += arr[:, -1]
                arr[:, -1] = 0.0
        parts = RepresentationParts(y=y, a=a, d0=d0, I=I, case=case)
        try:
            B = _reference_synthesize(C, p, parts)
        except (ValueError, DemandGapError):
            planted = False
        if planted:
            top = float(np.abs(B).max())
            t = 1e-12 * max(1.0, top)
            values = _around(t, plant == "boundary")
            # consumer 0 takes each planted entry back, so the sums across
            # consumers hold, in rows where that leaves max|B| as it is
            rows = [r for r in J if abs(B[r, 0]) + 2 * t < top]
            for i, r in enumerate(rows):
                d0[r, -1] = values[i % len(values)]
                d0[r, 0] -= d0[r, -1]
            planted = bool(rows)
            parts = RepresentationParts(y=y, a=a, d0=d0, I=I, case=case)
        got = _outcome(synthesize_property, C, p, parts)
        assert got == _outcome(_reference_synthesize, C, p, parts)
        if planted and plant == "boundary":  # the one entry past -t is refused
            assert got == ("NegativeEndowment", str(NegativeEndowment(rows[0], l - 1, values[0])))
        if got[0] != "returned":
            return
        B = synthesize_property(C, p, parts)
        if planted:  # each planted entry reached the snap band of B
            np.testing.assert_array_equal(B[rows, -1], [v if abs(v) >= t else 0.0 for v in d0[rows, -1]])

        econ = ExchangeEconomy(C, np.maximum(B, 0.0))
        B_rt = None
        if planted:
            # the same column of the round trip B_rt holds what is planted
            # in the economy's endowments, against the band of B_rt
            B_plant = np.array(econ.B)
            B_plant[J, -1] = 0.0
            try:
                _, B_rt = _reference_decompose(ExchangeEconomy(C, B_plant), p, I, "partial")
            except (ValueError, DemandGapError):
                pass
            if B_rt is not None:
                t = 1e-12 * max(1.0, float(np.abs(B_rt).max()))
                values = _around(t)[:3]
                B_plant[J, -1] = [values[i % 3] for i in range(len(J))]
                econ = ExchangeEconomy(C, B_plant)
        for mode in ("exact", "partial"):
            got = _outcome(decompose_property, econ, p, I, mode)
            assert got == _outcome(lambda *args: _reference_decompose(*args)[0], econ, p, I, mode)
            if got[0] != "returned":
                continue
            if B_rt is not None:  # each planted entry reached the snap band of B_rt
                B_rt = _reference_decompose(econ, p, I, mode)[1]
                np.testing.assert_array_equal(B_rt[J, -1], [v if v >= t else 0.0 for v in econ.B[J, -1]])
            back, _ = decompose_property(econ, p, I, mode)
            psi_bar = C @ back.y
            for y_cert in (back.y, back.y * 1.001):
                measure = verify_certificate(econ, p, y_cert, psi_bar).diagnostics.get("transfers")
                if isinstance(measure, float):
                    assert measure.hex() == _reference_transfers(econ, p, y_cert, psi_bar).hex()
            tr = degenerate_transform(econ, p, I, mode)
            for B_bar, y_bar in ((tr.B_bar, tr.y), (econ.B, back.y)):
                assert _outcome(degeneracy_multiplicity, B_bar, C, y_bar, I) == _outcome(
                    _reference_multiplicity, B_bar, C, y_bar, I
                )


class TestRealMoneyValue:
    def test_simple_ratio(self):
        assert real_money_value([1.0, 1.0], [2.0, 1.0]) == pytest.approx(0.5)

    def test_worthless_goods(self):
        assert real_money_value([1.0, 0.0, 0.0], [1.0, 5.0, 7.0]) == 0.0

    def test_degenerate_family_erodes_value(self):
        econ, p = economy_e2(1.0)
        psi = econ.total_supply()
        values = [real_money_value([1.0, q2], psi) for q2 in (0.0, 1.0, 10.0, 1000.0)]
        np.testing.assert_allclose(values, [q2 / 2 for q2 in (0.0, 1.0, 10.0, 1000.0)])

    def test_no_money_supply(self):
        with pytest.raises(NoMoneySupply):
            real_money_value([1.0, 1.0], [0.0, 1.0])

    def test_free_money_cannot_normalise(self):
        with pytest.raises(ValueError, match="money price must be positive"):
            real_money_value([0.0, 1.0], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            real_money_value([1, 2, 3], [1, 2])

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="prices must be nonnegative"):
            real_money_value([1, -5], [1, 1])

    def test_negative_supply_rejected(self):
        with pytest.raises(ValueError, match="psi must be nonnegative"):
            real_money_value([1, 2], [1, -3])

    @pytest.mark.parametrize("p, psi", [([1, np.nan], [1, 1]), ([1, 2], [1, np.inf])])
    def test_non_finite_rejected(self, p, psi):
        with pytest.raises(ValueError, match="must be finite"):
            real_money_value(p, psi)


class TestPriceEntryPoints:
    """Each public call validates and normalises its price once."""

    CALLS = {
        "demand_scales": lambda econ, p, parts: demand_scales(econ, p),
        "excess_demand": lambda econ, p, parts: excess_demand(econ, p),
        "check_equilibrium": lambda econ, p, parts: check_equilibrium(econ, p),
        "synthesize_property": lambda econ, p, parts: synthesize_property(econ.C, p, parts),
        "decompose_property": lambda econ, p, parts: decompose_property(econ, p, parts.I),
        "degenerate_transform": lambda econ, p, parts: degenerate_transform(econ, p, parts.I),
        "is_equivalent": lambda econ, p, parts: is_equivalent(econ.B, econ.B, p),
        "check_aggregation_agreement": lambda econ, p, parts: check_aggregation_agreement(
            econ, p, AggregationMap.identity(econ.n), p[: econ.n]
        ),
    }

    NORMALISING = {
        **CALLS,
        "verify_certificate": lambda econ, p, parts: verify_certificate(
            econ, p, parts.y, econ.C @ parts.y
        ),
    }

    @pytest.mark.parametrize(
        "name",
        [
            "check_equilibrium",
            "demand_scales",
            "synthesize_property",
            "decompose_property",
            "degenerate_transform",
            "verify_certificate",
        ],
    )
    def test_one_normalisation_per_call(self, name, monkeypatch):
        econ, p, parts = random_equilibrium(4, n=6, l=4, support=3)
        calls = []
        unit_price = exchange._unit_price

        def counted(p):
            calls.append(1)
            return unit_price(p)

        for module in (exchange, structure):
            monkeypatch.setattr(module, "_unit_price", counted)
        self.NORMALISING[name](econ, p, parts)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("extra", [0.0, 1.0])
    def test_wrong_length_price_raises(self, name, extra):
        econ, p, parts = random_equilibrium(4, n=6, l=4, support=3)
        with pytest.raises(DimensionMismatch, match="price length 7 != good count 6"):
            self.CALLS[name](econ, np.append(p, extra), parts)
        with pytest.raises(DimensionMismatch, match="price length 5 != good count 6"):
            self.CALLS[name](econ, p[:5] + 0.1, parts)

    def test_zero_supply_warning_kept_by_structure_calls(self):
        # good 1 has zero supply and zero demand, so p = (1, 0) clears exactly
        C = np.array([[1.0, 1.0], [0.0, 0.0]])
        econ = ExchangeEconomy(C, C.copy())
        p = np.array([1.0, 0.0])
        with pytest.warns(RuntimeWarning, match="zero total supply: \\[1\\]"):
            decompose_property(econ, p, I=(0,))
        with pytest.warns(RuntimeWarning, match="zero total supply: \\[1\\]"):
            degenerate_transform(econ, p, I=(0,))
