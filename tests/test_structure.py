"""Representation, equivalence, and degeneracy machinery."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandgap import (
    AggregationMap,
    DimensionMismatch,
    EmptySupport,
    ExchangeEconomy,
    NegativeEndowment,
    NoMoneySupply,
    NotAnEquilibrium,
    PriceVector,
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
from demandgap.fixtures import economy_e1, economy_e2, random_equilibrium


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
