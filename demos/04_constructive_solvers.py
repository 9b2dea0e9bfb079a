"""
Constructing equilibria instead of searching for them
=====================================================

When the property matrix factors through the demand matrix, B = C @ B1,
equilibrium prices can be computed directly from the factor's spectral
structure; no tatonnement, no fixed-point iteration over prices.

Ingredients demonstrated below: irreducibility, dominant eigenpairs of
nonnegative matrices (budgeted power iteration, dense fallback), nonnegative least squares
as a cone-membership test, and the two constructive routes.
"""

import numpy as np

from demandgap import (
    NoPositivePrice,
    is_irreducible,
    perron_eigen,
    solve_nonneg,
    spectral_equilibrium,
    unit_value_equilibrium,
)

rng = np.random.default_rng(3)

# --- dominant eigenpairs --------------------------------------------------
M = np.array([[2.0, 1.0], [1.0, 2.0]])
result = perron_eigen(M)
print("irreducible:", is_irreducible(M))
print(f"dominant eigenvalue {result.rho:.12f} after {result.iterations} iterations ({result.method})")
print("right vector:", result.right, "| residual:", result.residual)

# the periodic worst case: on a weighted cycle every eigenvalue has modulus
# rho, so power iteration cannot converge; at order 3 the kernel runs none,
# and the dense solve answers
cycle = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.0]])
result = perron_eigen(cycle)
print(f"\nweighted 3-cycle: rho = {result.rho:.12f} ({result.method}), vector = {result.right}")

# --- cone membership -------------------------------------------------------
C = np.array([[1.0, 1.0], [1.0, 0.0]])
sol = solve_nonneg(C, [2.0, 1.0])
print("\ncoefficients reproducing (2, 1):", sol.y, "| interior:", sol.interior)
try:
    solve_nonneg(np.array([[1.0, 1.0], [0.0, 0.0]]), [0.0, 1.0])
except Exception as e:
    print("target off the cone ->", type(e).__name__)

# --- spectral route ---------------------------------------------------------
# Consumers swap bundles in a cycle; the stationary weights of the
# row-normalised factor price the bundles, and the goods prices follow.
B1 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
C = rng.uniform(0.3, 1.2, (3, 3))
C = C / (C.T @ np.array([1.0, 0.7, 1.1]))[None, :]   # puts uniform budgets in the cone
result = spectral_equilibrium(C, B1)
print("\nspectral route: p =", np.round(result.p, 6))
print("bundle budgets d =", np.round(result.budget, 6))
print("clears with zero slack:", result.report.is_equilibrium,
      "| deficits:", result.report.strict_set)

# the hypothesis really is needed: collinear demand rows cannot span a
# two-sided budget
try:
    spectral_equilibrium(np.array([[1.0, 1.0], [2.0, 2.0]]),
                         np.array([[0.0, 2.0], [1.0, 0.0]]))
except NoPositivePrice as e:
    print("collinear demands ->", type(e).__name__)

# --- unit-value route -------------------------------------------------------
# A symmetric factor balances what consumers give and take, so pricing
# every demand bundle at 1 clears the market.
raw = rng.uniform(0.1, 1.0, (3, 3))
B1 = (raw + raw.T) / 2
psi = C @ B1.sum(axis=0)
result = unit_value_equilibrium(C, B1, psi)
print("\nunit-value route: p =", np.round(result.p, 6))
print("every bundle costs:", np.round(C.T @ result.p, 12))
print("strictly positive prices:", result.strictly_positive)
