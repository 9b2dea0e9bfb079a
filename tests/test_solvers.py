"""Perron eigenpairs, cone solves, and the constructive equilibria."""

import math
import re
import warnings

import numpy as np
import pytest
from conftest import (
    cycle_gcd,
    dense_perron_oracle,
    interior_cone_instance,
    perron_path,
    random_irreducible,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls
from scipy.sparse.csgraph import connected_components

from demandgap import (
    NoConvergence,
    NoPositivePrice,
    NotInCone,
    NotIrreducible,
    PreconditionFailed,
    is_irreducible,
    perron_eigen,
    solve_nonneg,
    spectral_equilibrium,
    unit_value_equilibrium,
)
from demandgap import solvers
from demandgap.exchange import EquilibriumReport
from demandgap.solvers import CONE_TOL, PF_MAX_ITER, PF_TOL, _dominant, _irreducible


class TestIrreducibility:
    def test_two_cycle(self):
        assert is_irreducible([[0.0, 1.0], [1.0, 0.0]])

    def test_block_triangular(self):
        assert not is_irreducible([[1.0, 1.0], [0.0, 1.0]])

    def test_one_by_one_conventions(self):
        assert not is_irreducible([[0.0]])
        assert is_irreducible([[0.5]])

    def test_random_cycles_are_irreducible(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert is_irreducible(random_irreducible(rng, int(rng.integers(2, 8))))

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 1.0),
        kind=st.sampled_from(["random", "cycle", "block-triangular", "zero", "hub"]),
    )
    def test_agrees_with_scipy_strong_components(self, n, seed, density, kind):
        M = _graph_case(n, seed, density, kind)
        assert is_irreducible(M) == _irreducible(M) == _scipy_irreducible(M)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        n=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "periodic", "one-loop"]),
    )
    def test_periodic_and_one_loop_draws_agree_with_scipy(self, n, seed, kind):
        if kind == "one-loop":
            # a pure cycle with exactly one positive diagonal entry: primitive
            order = np.random.default_rng(seed).permutation(n)
            M = np.zeros((n, n))
            M[order, np.roll(order, -1)] = 1.0
            M[order[0], order[0]] = 0.5
        else:
            M = _irreducible_case(n, seed, kind)
        assert is_irreducible(M) == _irreducible(M) == _scipy_irreducible(M)

    def test_long_weighted_cycle(self):
        # a pure cycle is the longest sweep: n steps in each direction
        n = 300
        rng = np.random.default_rng(300)
        order = rng.permutation(n)
        M = np.zeros((n, n))
        M[order, np.roll(order, -1)] = rng.uniform(0.5, 2.0, n)
        assert is_irreducible(M) and _scipy_irreducible(M)
        M[order[n // 2], order[n // 2 + 1]] = 0.0
        assert not is_irreducible(M) and not _scipy_irreducible(M)
        assert not _irreducible(M)


def _scipy_irreducible(M: np.ndarray) -> bool:
    """Reference: one strongly connected component (self-loop convention
    for 1x1)."""
    if M.shape[0] == 1:
        return bool(M[0, 0] > 0)
    n_comp, _ = connected_components(M > 0, directed=True, connection="strong")
    return n_comp == 1


def _graph_case(n: int, seed: int, density: float, kind: str) -> np.ndarray:
    """Nonnegative n x n matrix with a random pattern of the given density;
    ``cycle`` plants a permutation cycle through every vertex (always
    irreducible), ``block-triangular`` zeroes the block below a random cut
    (always reducible for n > 1), ``zero`` is all zeros, and ``hub`` makes
    row 0 and column 0 positive off the diagonal (each sweep of the graph
    test ends at its first level), then in half the draws removes one edge
    of vertex 0."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.1, 1.1, (n, n)) * (rng.uniform(size=(n, n)) < density)
    if kind == "cycle":
        order = rng.permutation(n)
        M[order, np.roll(order, -1)] = rng.uniform(0.1, 1.1, n)
    elif kind == "block-triangular" and n > 1:
        cut = int(rng.integers(1, n))
        M[cut:, :cut] = 0.0
    elif kind == "zero":
        M[:] = 0.0
    elif kind == "hub" and n > 1:
        M[0, 1:] = rng.uniform(0.1, 1.1, n - 1)
        M[1:, 0] = rng.uniform(0.1, 1.1, n - 1)
        if rng.random() < 0.5:
            k = int(rng.integers(1, n))
            if rng.random() < 0.5:
                M[0, k] = 0.0
            else:
                M[k, 0] = 0.0
    return M


class TestPerronEigen:
    def test_permutation_matrix(self):
        result = perron_eigen([[0.0, 1.0], [1.0, 0.0]])
        assert result.rho == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(result.right, [1.0, 1.0], atol=1e-8)

    def test_symmetric_two_by_two(self):
        result = perron_eigen([[2.0, 1.0], [1.0, 2.0]])
        assert result.rho == pytest.approx(3.0, abs=1e-9)
        np.testing.assert_allclose(result.right, [1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(result.left, [1.0, 1.0], atol=1e-8)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            M = rng.uniform(0.1, 1.0, (6, 6))
            result = perron_eigen(M)
            rho_oracle, v_oracle = dense_perron_oracle(M)
            assert result.rho == pytest.approx(rho_oracle, abs=1e-8)
            np.testing.assert_allclose(result.right, v_oracle, atol=1e-8)
            assert (result.method, result.iterations) == perron_path(M)

    def test_left_right_agreement_and_collatz_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            M = random_irreducible(rng, int(rng.integers(2, 7)))
            result = perron_eigen(M)
            assert abs(result.rho - result.rho_left) <= 1e-8
            ratios = (M @ result.right) / result.right
            assert ratios.min() <= result.rho + 1e-8
            assert ratios.max() >= result.rho - 1e-8
            assert (result.right > 0).all() and (result.left > 0).all()

    def test_residual_invariant(self):
        rng = np.random.default_rng(3)
        M = random_irreducible(rng, 5)
        result = perron_eigen(M)
        assert np.abs(M @ result.right - result.rho * result.right).max() <= 1e-10

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducible):
            perron_eigen([[1.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [50, 120])
    def test_weighted_cycle_matches_closed_form(self, n):
        # a pure n-cycle has n eigenvalues of modulus rho, so the power
        # budget runs out and the dense fallback answers
        rng = np.random.default_rng(n)
        order = rng.permutation(n)
        w = rng.uniform(0.5, 2.0, n)
        M = np.zeros((n, n))
        M[order, np.roll(order, -1)] = w
        rho = float(np.exp(np.log(w).mean()))
        right, left = np.empty(n), np.empty(n)
        right[order[0]] = left[order[0]] = 1.0
        for k in range(n - 1):
            right[order[k + 1]] = rho * right[order[k]] / w[k]
            left[order[k + 1]] = left[order[k]] * w[k] / rho
        result = perron_eigen(M)
        assert result.method == "dense"
        assert result.rho == pytest.approx(rho, abs=1e-8)
        assert result.rho_left == pytest.approx(rho, abs=1e-8)
        np.testing.assert_allclose(result.right, right / right.max(), atol=1e-8)
        np.testing.assert_allclose(result.left, left / left.max(), atol=1e-8)
        assert result.residual <= PF_TOL

    @pytest.mark.parametrize("n", [2, 3, 7, 19, 24])
    def test_pure_cycle_spends_one_budget(self, n):
        # with unequal weights the start vector is not exact; up to order 20
        # both sides go straight to the dense solve, and above it power
        # iteration cannot converge on a pure n-cycle, so the right side
        # spends its whole budget and the left side none
        rng = np.random.default_rng(n)
        order = rng.permutation(n)
        M = np.zeros((n, n))
        M[order, np.roll(order, -1)] = rng.uniform(0.5, 2.0, n)
        result = perron_eigen(M)
        assert result.method == "dense"
        assert result.iterations == (0 if 2 * n <= PF_MAX_ITER else PF_MAX_ITER)
        assert result.residual <= PF_TOL

    @pytest.mark.parametrize(
        "M",
        [
            [[0.0, 1e300], [1e300, 0.0]],
            [[0.0, 2.5, 0.0], [0.0, 0.0, 2.5], [2.5, 0.0, 0.0]],
            np.kron([[0.0, 1.0], [1.0, 0.0]], [[1.0, 2.0], [2.0, 1.0]]),
        ],
        ids=["two-cycle-1e300", "three-cycle", "period-2-blocks"],
    )
    def test_equal_row_sums_are_answered_by_the_start_vector(self, M):
        # periodic, but every row and column sum is equal, so the uniform
        # start vector is the exact Perron vector on both sides; eig would
        # leave a residual of about 3e284 on the 1e300 matrix
        assert cycle_gcd(np.asarray(M)) > 1
        result = perron_eigen(M)
        assert (result.method, result.iterations, result.residual) == ("power", 0, 0.0)
        np.testing.assert_array_equal(result.right, np.ones(len(M)))
        np.testing.assert_array_equal(result.left, np.ones(len(M)))

    def test_no_convergence_reports_the_budget_spent(self):
        # two 2-cycles of root 1, the first with access to the second:
        # rho is defective, and eig misses PF_TOL on the transpose; at
        # order 4 the default budget is 0
        M = np.zeros((4, 4))
        M[0, 1] = M[1, 0] = M[2, 3] = M[3, 2] = M[0, 2] = 1.0
        for budget, spent in ((None, 0), (8, 8)):
            with pytest.raises(NoConvergence) as exc:
                _dominant(M.T, budget=budget)
            assert exc.value.iterations == spent


def _irreducible_case(n: int, seed: int, kind: str) -> np.ndarray:
    """Irreducible nonnegative matrix: random (a cycle plus dense extras),
    or periodic with period d > 1 (a cycle plus sparse extras that jump a
    multiple of d plus one steps along it, which keeps every cycle length
    a multiple of d)."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_irreducible(rng, n)
    order = rng.permutation(n)
    M = np.zeros((n, n))
    M[order, np.roll(order, -1)] = rng.uniform(0.1, 1.1, n)
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    d = divisors[int(rng.integers(len(divisors)))]
    for step in range(1 + d, n, d):
        starts = np.flatnonzero(rng.uniform(size=n) < 0.3)
        M[order[starts], order[(starts + step) % n]] = rng.uniform(0.1, 1.1, starts.size)
    return M


class TestPerronProperties:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        n=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "periodic"]),
        log_scale=st.floats(-12.0, 0.0),
    )
    def test_verified_positive_pair_in_collatz_wielandt_bracket(self, n, seed, kind, log_scale):
        M = _irreducible_case(n, seed, kind)
        s = 10.0**log_scale
        S = s * M
        result = perron_eigen(S)
        bounds = []
        for vec, rho, A in ((result.right, result.rho, S), (result.left, result.rho_left, S.T)):
            assert (vec > 0).all()
            assert vec.max() == 1.0
            # below unit norm the bound shrinks with the matrix: PF_TOL * |A|_inf
            bounds.append(PF_TOL * min(1.0, float((A @ np.ones(n)).max())))
            assert float(np.abs(A @ vec - rho * vec).max()) <= bounds[-1]
        assert result.residual <= max(bounds)
        assert result.rho / s == pytest.approx(perron_eigen(M).rho, rel=1e-9)
        # rho is the Rayleigh quotient of the right vector, a weighted mean
        # of the ratios (M v)_i / v_i; the slack covers rounding only
        ratios = (S @ result.right) / result.right
        slack = 1e-12 * max(s, result.rho)
        assert ratios.min() - slack <= result.rho <= ratios.max() + slack

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        n=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "periodic"]),
    )
    def test_each_side_keeps_its_budget(self, n, seed, kind):
        M = _irreducible_case(n, seed, kind)
        budget = 0 if 2 * n <= PF_MAX_ITER else PF_MAX_ITER
        sides = [_dominant(A, budget=budget) for A in (M, M.T)]
        for A, (rho, v, steps, residual, method) in zip((M, M.T), sides):
            assert steps <= budget
            assert method == "power" or steps == budget
            assert residual <= PF_TOL
            assert float(np.abs(A @ v - rho * v).max()) <= PF_TOL
        (_, _, it_r, _, method_r), (_, _, it_l, _, _) = sides
        result = perron_eigen(M)
        assert result.iterations == it_r + (0 if method_r == "dense" else it_l)
        assert (result.method, result.iterations) == perron_path(M)
        assert result.residual <= PF_TOL


    @settings(max_examples=150, deadline=None, database=None)
    @given(
        n=st.integers(2, 20),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "periodic"]),
    )
    def test_small_orders_go_straight_to_the_dense_solve(self, n, seed, kind):
        M = _irreducible_case(n, seed, kind)
        sums = M.sum(axis=1)
        assume(float(np.abs(sums - sums.mean()).max()) > PF_TOL * min(1.0, float(sums.max())))
        rho, v, steps, residual, method = _dominant(M)
        assert (steps, method) == (0, "dense")
        assert residual <= PF_TOL
        rho_oracle, v_oracle = dense_perron_oracle(M)
        assert rho == pytest.approx(rho_oracle, abs=1e-8)
        np.testing.assert_allclose(v, v_oracle, atol=1e-8)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["power", "dense", "equal-rows", "periodic"]),
    )
    def test_kernel_keeps_the_bits_of_the_reference_loop(self, seed, kind):
        # power: irreducible of order 21-60; dense: order 1-20; equal-rows:
        # the uniform start vector is exact; periodic: a weighted pure cycle
        # above order 20, which spends the budget before eig answers
        rng = np.random.default_rng(seed)
        if kind == "power":
            M = random_irreducible(rng, int(rng.integers(21, 61)))
        elif kind == "dense":
            M = random_irreducible(rng, int(rng.integers(1, 21)))
        elif kind == "equal-rows":
            M = random_irreducible(rng, int(rng.integers(1, 61)))
            M /= M.sum(axis=1, keepdims=True)
        else:
            n = int(rng.integers(21, 61))
            order = rng.permutation(n)
            M = np.zeros((n, n))
            M[order, np.roll(order, -1)] = rng.uniform(0.5, 2.0, n)
        expected = {"equal-rows": ("power", 0), "periodic": ("dense", PF_MAX_ITER)}.get(kind)
        for A in (M, M.T):
            got = _dominant(A)
            assert _bits(got) == _bits(_reference_dominant(A))
            if expected and A is M:
                assert (got[4], got[2]) == expected

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["power", "dense", "equal-rows", "equal-columns", "periodic"]),
    )
    def test_perron_eigen_keeps_the_bits_of_the_reference_loop(self, seed, kind):
        # the kinds of the kernel's property, plus equal-columns, where only
        # the left side's start vector is exact; each side must keep the bits
        # of its own reference loop, the left one with no power step once the
        # right one fell back
        rng = np.random.default_rng(seed)
        if kind == "periodic":
            n = int(rng.integers(21, 61))
            order = rng.permutation(n)
            M = np.zeros((n, n))
            M[order, np.roll(order, -1)] = rng.uniform(0.5, 2.0, n)
        else:
            low, high = {"power": (21, 61), "dense": (1, 21)}.get(kind, (1, 61))
            M = random_irreducible(rng, int(rng.integers(low, high)))
            if kind == "equal-rows":
                M /= M.sum(axis=1, keepdims=True)
            elif kind == "equal-columns":
                M /= M.sum(axis=0, keepdims=True)
        right = _reference_dominant(M)
        left = _reference_dominant(M.T, 0 if right[4] == "dense" else None)
        got = perron_eigen(M)
        (rho, v, it_r, res_r, method_r), (rho_l, u, it_l, res_l, method_l) = right, left
        assert (got.rho.hex(), got.right.tobytes()) == (rho.hex(), v.tobytes())
        assert (got.rho_left.hex(), got.left.tobytes()) == (rho_l.hex(), u.tobytes())
        assert got.residual.hex() == max(res_r, res_l).hex()
        assert got.iterations == it_r + it_l
        assert got.method == ("dense" if "dense" in (method_r, method_l) else "power")
        if kind == "equal-columns":
            assert (method_l, it_l) == ("power", 0)


def _bits(result) -> tuple:
    rho, v, iterations, residual, method = result
    return rho.hex(), v.tobytes(), iterations, residual.hex(), method


def _reference_dominant(
    M: np.ndarray, budget: int | None = None
) -> tuple[float, np.ndarray, int, float, str]:
    """The eigen kernel with a fresh product ``M @ v`` and a Rayleigh call
    per step and a fresh dense vector, the form it had before its steps
    moved into held buffers; :func:`solvers._dominant` must return the same
    bits at its default budget, and each side of :func:`perron_eigen` at
    that side's budget."""
    n = M.shape[0]
    if budget is None:
        budget = 0 if 2 * n <= PF_MAX_ITER else PF_MAX_ITER
    top = float(M.max(initial=0.0))
    if top == 0.0:
        return 0.0, np.ones(n), 0, 0.0, "power"
    shift = 1e-3 * top
    v = np.ones(n)
    mv = M @ v
    bound = PF_TOL * min(1.0, float(mv.max()))
    work = np.empty(n)
    rho, residual = _reference_rayleigh(v, mv, work)
    it = 0
    while residual > bound and it < budget:
        np.multiply(v, shift, out=work)
        work += mv
        np.divide(work, work.max(), out=v)
        mv = M @ v
        rho, residual = _reference_rayleigh(v, mv, work)
        it += 1
    if residual <= bound:
        return rho, v, it, residual, "power"
    vals, vecs = np.linalg.eig(M)
    v = np.abs(vecs[:, int(np.argmax(vals.real))])
    v = v / v.max()
    mv = M @ v
    rho, residual = _reference_rayleigh(v, mv, work)
    if not residual <= bound:
        raise NoConvergence(budget, residual)
    return rho, v, budget, residual, "dense"


def _reference_rayleigh(v, mv, work) -> tuple[float, float]:
    rho = float(v @ mv) / float(v @ v)
    np.multiply(v, rho, out=work)
    np.subtract(mv, work, out=work)
    return rho, float(np.abs(work, out=work).max())


class TestSolveNonneg:
    def test_square_solve(self):
        C = np.array([[1.0, 1.0], [1.0, 0.0]])
        sol = solve_nonneg(C, [2.0, 1.0])
        np.testing.assert_allclose(sol.y, [1.0, 1.0], atol=1e-12)
        assert sol.interior

    def test_zero_target_boundary(self):
        sol = solve_nonneg(np.ones((3, 2)), np.zeros(3))
        np.testing.assert_array_equal(sol.y, np.zeros(2))
        assert not sol.interior
        assert sol.residual == 0.0

    def test_orthogonal_target_outside_cone(self):
        C = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotInCone):
            solve_nonneg(C, [0.0, 1.0])

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            solve_nonneg(np.ones((2, 2)), [1.0, -1.0])

    def test_kkt_spot_check(self):
        # dropping any active coordinate strictly worsens the fit
        rng = np.random.default_rng(4)
        for _ in range(10):
            C = rng.uniform(0.1, 1.0, (6, 4))
            y_true = rng.uniform(0.5, 2.0, 4)
            target = C @ y_true
            sol = solve_nonneg(C, target)
            np.testing.assert_allclose(sol.y, y_true, rtol=1e-8)
            for i in range(4):
                reduced = np.delete(C, i, axis=1)
                residual = np.linalg.norm(
                    reduced @ np.linalg.lstsq(reduced, target, rcond=None)[0] - target
                )
                assert residual > 1e-6

    @settings(max_examples=400, deadline=None, database=None)
    @given(
        m=st.integers(1, 7),
        shape=st.sampled_from(["square", "underdetermined", "overdetermined", "rank-deficient"]),
        seed=st.integers(0, 2**32 - 1),
        integer=st.booleans(),
        duplicates=st.integers(0, 2),
        zeros=st.integers(0, 1),
        exponents=st.lists(st.integers(-6, 6), min_size=10, max_size=10),
        in_cone=st.booleans(),
    )
    # draws on which both answers fit exactly with different supports; at
    # seed 711, in base units, (0, 0, 1, 0, 1, 0) against scipy's (1, 0, 1, 1, 0, 0)
    @example(4, "rank-deficient", 0, True, 2, 0, [0, -1, -1, 0, 1, 0, 0, 0, 0, 0], True)
    @example(5, "rank-deficient", 711, True, 0, 0, [1, -1, 1, 0, 0, 0, 0, 0, 0, 0], True)
    @example(3, "underdetermined", 23452, True, 0, 0, [0, 0, 0, 0, 0, 5, 0, 0, 0, 0], True)
    def test_agrees_with_scipy(self, m, shape, seed, integer, duplicates, zeros, exponents, in_cone):
        # the same verdict as scipy's nnls, which runs the same active-set
        # rules.  Where base has full column rank, y is unique and the
        # support and coefficients must match too.  Otherwise many y fit and
        # the entering rule, ties included, picks one by rounding, so only
        # the fitted vector C y, the unique projection onto the cone, is
        # compared.  Small integer entries make exact ties and exact rank
        # deficiency
        rng = np.random.default_rng(seed)
        n = {"square": m, "underdetermined": m + 3, "overdetermined": max(1, m - 2)}.get(shape, m + 1)

        def draw(*size):
            return rng.integers(0, 4, size).astype(float) if integer else rng.uniform(0.0, 1.0, size)

        base = draw(m, max(1, min(m, n) - 1)) @ draw(max(1, min(m, n) - 1), n) if shape == "rank-deficient" else draw(m, n)
        for _ in range(duplicates):
            base[:, rng.integers(n)] = base[:, rng.integers(n)]
        if zeros:
            base[:, rng.integers(n)] = 0.0
        target = base @ (draw(n) * (rng.uniform(size=n) < 0.6)) if in_cone else draw(m)
        scale = 10.0 ** np.array(exponents[:n])
        C = base * scale  # the cone, and so the verdict, is that of base
        ref, ref_residual = nnls(C, target, maxiter=max(30, 10 * n))
        norm = np.linalg.norm(target)
        try:
            sol = solve_nonneg(C, target)
        except NotInCone:
            assert ref_residual > CONE_TOL * norm
            return
        assert ref_residual <= CONE_TOL * norm
        assert np.linalg.norm(C @ sol.y - target) <= CONE_TOL * norm
        if np.linalg.matrix_rank(base) < n:
            np.testing.assert_allclose(C @ sol.y, C @ ref, rtol=0, atol=1e-12 * norm)
            return
        # in base's units, where a column's scale no longer hides its share
        got, want = sol.y * scale, ref * scale
        top = max(got.max(initial=0.0), want.max(initial=0.0))
        np.testing.assert_array_equal(got > 1e-9 * top, want > 1e-9 * top)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * top)

    @pytest.mark.parametrize(
        "C, target, support",
        [
            # column 2 enters first and swaps with column 0, so column 1,
            # column 0's twin, comes first among the others and wins the tie
            ([[1.0, 1.0, 2.0], [1.0, 1.0, 0.0]], [3.0, 1.0], (1, 2)),
            # twin columns 0 and 4, 3 and 6, which a matrix-vector product
            # can round apart
            (
                [
                    [0.32261993, 0.24879409, 0.5392329, 0.59435382, 0.32261993, 0.90652507, 0.59435382],
                    [0.85494094, 0.61986826, 0.0459774, 0.51428551, 0.85494094, 0.26737646, 0.51428551],
                ],
                [1.51436529, 0.77338607],
                (4, 5),
            ),
        ],
        ids=["swapped-order", "float-twins"],
    )
    def test_ties_go_as_in_scipy(self, C, target, support):
        sol = solve_nonneg(C, target)
        assert tuple(np.flatnonzero(sol.y)) == support
        np.testing.assert_allclose(sol.y, nnls(np.array(C), np.array(target))[0], rtol=1e-12, atol=0)

    def test_ill_conditioned_cones_fit_to_rounding(self):
        # cones of condition 1e6-1e12 whose target lies inside: the fit ends
        # at rounding level, as scipy's does; a residual holding rounding
        # from the span of the passive columns once stopped fits at 1e-9
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(3, 9))
            n = m + int(rng.integers(0, 3))
            U = np.linalg.qr(rng.normal(size=(m, m)))[0]
            V = np.linalg.qr(rng.normal(size=(n, n)))[0]
            C = np.abs(U @ np.diag(np.logspace(0, -rng.uniform(6, 12), m)) @ V[:m])
            target = C @ (rng.uniform(0.5, 2.0, n) * (rng.uniform(size=n) < 0.7))
            if target.any():
                assert np.linalg.norm(C @ solve_nonneg(C, target).y - target) <= 1e-13 * np.linalg.norm(target)

    def test_rank_deficient_and_scaled_cones_stop(self):
        # at a residual of rounding level two columns of a rank-deficient
        # cone once swapped places until the iteration cap; the solve stops
        # once a step no longer lowers the residual
        rng = np.random.default_rng(3)
        for trial in range(1500):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 11))
            kind = trial % 5
            C = rng.normal(size=(m, n)) if kind == 1 else rng.uniform(0.0, 1.0, (m, n))
            if kind == 2 and n > 1:  # twin columns
                C[:, rng.integers(0, n)] = C[:, rng.integers(0, n)]
                C[:, rng.integers(0, n)] = C[:, rng.integers(0, n)]
            if kind == 3:
                rank = int(rng.integers(1, max(2, min(m, n))))
                C = rng.uniform(0.0, 1.0, (m, rank)) @ rng.uniform(0.0, 1.0, (rank, n))
            if trial % 2:
                target = C @ np.where(rng.uniform(size=n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
            else:
                target = rng.uniform(0.0, 1.0, m)
            if kind == 4:
                C = C * 10.0 ** rng.integers(-6, 7, n)[None, :]
                if n > 1:
                    C[:, rng.integers(0, n)] = 0.0
            solvers._lawson_hanson(C, np.abs(target), max(30, 10 * n))

    def test_iteration_cap_raises_no_convergence(self):
        # each column that enters takes one step: the second passes a cap of 1
        with pytest.raises(NoConvergence) as err:
            solvers._lawson_hanson(np.eye(2), np.ones(2), 1)
        assert (err.value.iterations, err.value.residual) == (1, 1.0)
        assert str(err.value) == "no convergence after 1 iterations (residual 1.000e+00)"

    @pytest.mark.parametrize(
        "C, target, y",
        [
            ([[1e300, 0.0], [0.0, 1e160]], [2.0, 3.0], [2e-300, 3e-160]),
            ([[1e-300, 0.0], [0.0, 1e-160]], [2.0, 3.0], [2e300, 3e160]),
            ([[1.0, 1.0], [1.0, 2.0]], [1e300, 1.5e300], [5e299, 5e299]),
        ],
        ids=["huge-columns", "tiny-columns", "huge-target"],
    )
    def test_far_from_unit_scale(self, C, target, y):
        # the solve runs in powers of two of the largest entries of C and
        # of the target, so no square overflows or underflows (a
        # RuntimeWarning fails the test)
        np.testing.assert_allclose(solve_nonneg(C, target).y, y, rtol=1e-15)

    def test_target_whose_norm_leaves_the_float_range(self):
        # |target| = 2.1e308 once read inf, so the threshold was inf and a
        # fit missing the second entry by 1.5e308 was accepted
        with pytest.raises(NotInCone) as err:
            solve_nonneg([[1.0], [0.0]], [1.5e308, 1.5e308])
        assert err.value.residual == 1.5e308
        assert err.value.threshold == pytest.approx(CONE_TOL * 1e308 * math.hypot(1.5, 1.5))


def _one_violated_good(econ, p, tol):
    """A substitution check that finds good 1 of a 2-good economy violated,
    in place of :func:`exchange.check_equilibrium`: the constructive solvers
    build prices that pass it, so only a stand-in reaches their refusal."""
    return EquilibriumReport(
        demand=np.ones(2),
        residual=np.array([0.0, 2.5e-3]),
        equality_set=(0,),
        strict_set=(),
        violated_set=(1,),
        is_equilibrium=False,
        zero_price_on_deficit=True,
        tol=tol,
    )


class TestSpectralEquilibrium:
    def test_two_good_swap(self):
        result = spectral_equilibrium(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(result.p, [1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(result.budget, [1.0, 1.0], atol=1e-9)
        assert result.report.is_equilibrium
        assert result.report.strict_set == ()
        assert result.strictly_positive

    def test_identity_factor_is_reducible(self):
        # the identity has no path between goods, so the hypothesis fails
        with pytest.raises(NotIrreducible):
            spectral_equilibrium(np.array([[2.0, 1.0], [1.0, 1.0]]), np.eye(2))

    def test_near_identity_factor_inverts_demand(self):
        # irreducible perturbation of the identity: uniform budgets, and the
        # price solves C.T p = d exactly (C invertible)
        C = np.array([[2.0, 1.0], [1.0, 1.0]])
        B1 = np.array([[1.0, 0.01], [0.01, 1.0]])
        result = spectral_equilibrium(C, B1)
        np.testing.assert_allclose(result.budget, [1.0, 1.0], atol=1e-9)
        fit = C.T @ result.p
        np.testing.assert_allclose(fit / fit[0], result.budget, rtol=1e-8)
        expected = np.linalg.solve(C.T, np.ones(2))
        np.testing.assert_allclose(result.p, expected / expected.max(), atol=1e-8)
        assert result.report.is_equilibrium

    def test_cycle_factor_random_demand(self):
        rng = np.random.default_rng(5)
        B1 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        for _ in range(10):
            C, _ = interior_cone_instance(rng, 3, 3, np.ones(3))
            result = spectral_equilibrium(C, B1)
            psi = (C @ B1).sum(axis=1)
            assert (np.abs(result.report.residual) <= 1e-9 * np.maximum(1.0, psi)).all()
            assert result.report.strict_set == ()

    def test_budget_identity(self):
        # the defining identity: sum_i (b_is - y_s C_is) p_i = 0 for every s
        rng = np.random.default_rng(6)
        for _ in range(10):
            l = int(rng.integers(2, 6))
            n = int(rng.integers(l, l + 3))
            B1 = random_irreducible(rng, l)
            y = B1.sum(axis=1)
            _, stationary = dense_perron_oracle((B1 / y[:, None]).T)
            budget = stationary / y
            C, _ = interior_cone_instance(rng, n, l, budget / budget.max())
            result = spectral_equilibrium(C, B1)
            B = C @ B1
            gap = (B - C * result.scales[None, :]).T @ result.p
            assert np.abs(gap).max() <= 1e-8

    def test_budget_is_the_stationary_vector_over_the_scales(self):
        # the kernel runs on diag(1/y) B1^T, whose Perron vector is the
        # left vector of the row-normalised B1 divided by the scales
        rng = np.random.default_rng(10)
        for _ in range(10):
            l = int(rng.integers(2, 7))
            B1 = random_irreducible(rng, l)
            y = B1.sum(axis=1)
            _, stationary = dense_perron_oracle((B1 / y[:, None]).T)
            budget = stationary / y
            budget /= budget.max()
            C, _ = interior_cone_instance(rng, l + 1, l, budget)
            result = spectral_equilibrium(C, B1)
            np.testing.assert_allclose(result.budget, budget, rtol=0, atol=1e-10)

    def test_reducible_factor_rejected(self):
        with pytest.raises(NotIrreducible):
            spectral_equilibrium(np.eye(2), [[1.0, 1.0], [0.0, 1.0]])

    def test_periodic_factor_takes_the_dense_path(self, monkeypatch):
        # B1 has period 2, and the column sums of its row-normalised form
        # differ, so the start vector is not exact: no power step, then eig
        B1 = np.array(
            [[0.0, 0.0, 1.0, 3.0], [0.0, 0.0, 2.0, 1.0], [1.0, 1.0, 0.0, 0.0], [4.0, 1.0, 0.0, 0.0]]
        )
        paths = []

        def recorded(*args):
            out = _dominant(*args)
            paths.append(out[2:])
            return out

        monkeypatch.setattr(solvers, "_dominant", recorded)
        y = B1.sum(axis=1)
        _, stationary = dense_perron_oracle((B1 / y[:, None]).T)
        budget = stationary / y
        C, _ = interior_cone_instance(np.random.default_rng(9), 4, 4, budget / budget.max())
        result = spectral_equilibrium(C, B1)
        assert [(steps, method) for steps, _, method in paths] == [(0, "dense")]
        assert paths[0][1] <= PF_TOL
        assert result.report.is_equilibrium

    def test_price_failing_substitution_is_refused(self, monkeypatch):
        monkeypatch.setattr(solvers, "check_equilibrium", _one_violated_good)
        message = "constructed price fails substitution on goods (1,) (max violation 2.500e-03)"
        with pytest.raises(NoPositivePrice, match=f"^{re.escape(message)}$"):
            spectral_equilibrium(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])

    def test_budget_outside_cone(self):
        # demand rows collinear on (1, 1), but the factor prices bundles (1, 2)
        C = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(NoPositivePrice):
            spectral_equilibrium(C, [[0.0, 2.0], [1.0, 0.0]])

    @pytest.mark.parametrize(
        "B1, consumers",
        [
            ([[1e-300, 1e-300], [1e300, 1e300]], r"\[0\]"),  # B1[1, 0] / y_0 = 5e599
            ([[1.0, 1.0], [1e308, 1e308]], r"\[1\]"),  # y_1 = 2e308
        ],
    )
    def test_budget_system_past_the_float_range(self, B1, consumers):
        # once numpy warned "overflow encountered in divide" and the kernel
        # then refused an M the caller never passed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoPositivePrice, match="for consumers " + consumers):
                spectral_equilibrium(np.eye(2), B1)


class TestUnitValueEquilibrium:
    def test_identity_demand(self):
        B1 = np.array([[0.3, 0.7], [0.7, 0.3]])
        result = unit_value_equilibrium(np.eye(2), B1, psi=[1.0, 1.0])
        np.testing.assert_allclose(result.p, [1.0, 1.0], atol=1e-10)
        assert result.strictly_positive
        assert result.report.is_equilibrium

    def test_boundary_price_flagged(self):
        C = np.array([[1.0, 1.0], [1.0, 0.0]])
        B1 = np.full((2, 2), 0.5)
        result = unit_value_equilibrium(C, B1, psi=[2.0, 1.0])
        np.testing.assert_allclose(result.p, [1.0, 0.0], atol=1e-10)
        assert not result.strictly_positive
        assert result.report.is_equilibrium

    def test_symmetric_factor_passes_precondition(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            l = int(rng.integers(2, 5))
            n = int(rng.integers(l, l + 3))
            raw = rng.uniform(0.1, 1.0, (l, l))
            B1 = (raw + raw.T) / 2
            C, _ = interior_cone_instance(rng, n, l, np.ones(l))
            psi = C @ B1.sum(axis=0)
            result = unit_value_equilibrium(C, B1, psi)
            assert result.report.is_equilibrium
            assert result.report.strict_set == ()

    def test_failing_supply_balance(self):
        C = np.array([[1.0, 1.0], [1.0, 0.0]])
        B1 = np.array([[0.2, 0.8], [0.3, 0.7]])
        with pytest.raises(PreconditionFailed):
            unit_value_equilibrium(C, B1, psi=[5.0, 5.0])

    def test_price_failing_substitution_is_refused(self, monkeypatch):
        monkeypatch.setattr(solvers, "check_equilibrium", _one_violated_good)
        message = (
            "constructed price fails substitution on goods (1,); "
            "psi is inconsistent with the economy's supply"
        )
        with pytest.raises(NoPositivePrice, match=f"^{re.escape(message)}$"):
            unit_value_equilibrium(np.eye(2), [[0.3, 0.7], [0.7, 0.3]], psi=[1.0, 1.0])

    def test_ones_outside_cone(self):
        C = np.array([[1.0, 2.0], [2.0, 4.0]])  # rays are collinear
        B1 = np.full((2, 2), 0.5)
        psi = C @ B1.sum(axis=0)
        with pytest.raises(NoPositivePrice):
            unit_value_equilibrium(C, B1, psi)
