"""Numerical kernels behind the existence results.

Three primitives: irreducibility of nonnegative matrices (strong
connectivity of the positive-entry digraph), dominant eigenpairs of
nonnegative matrices, and nonnegative least-squares membership tests for
column cones.  On top of them sit two constructive equilibrium solvers for
economies whose property matrix factors as ``B = C @ B1``:

* :func:`spectral_equilibrium` prices the goods so that every consumer's
  budget matches the stationary weights of the row-normalised factor
  ``B1`` (valid when ``B1`` is irreducible and the resulting budget vector
  lies in the cone spanned by the rows of ``C``);
* :func:`unit_value_equilibrium` prices every demand bundle at unit value
  (valid when the column sums of ``B1`` reproduce total supply through
  ``C``).

Both verify the returned price by substitution and never return an
unverified price.

Irreducibility is tested in numpy with the reachability criterion of
Tarjan (1972): a digraph is strongly connected iff every vertex is
reachable from vertex 0 both in the graph and in its transpose.  Each of
the two breadth-first sweeps takes one vectorised step per level, so a
dense matrix needs a few steps and a pure n-cycle needs n.  The same pass
gives the period of a strongly connected digraph, the gcd of
``level(i) + 1 - level(j)`` over its edges with ``level`` the breadth-first
distance from vertex 0 (Denardo 1977): the forward sweep folds it in one
vectorised step per level, and one positive diagonal entry settles it at 1
without any gcd (the costs are tabled above ``PF_MAX_ITER``).  An
irreducible matrix of period h has exactly h eigenvalues of modulus
``rho`` (Berman and Plemmons 1994, ch. 2).  scipy is
loaded only by the nonnegative least-squares solve (``scipy.optimize.nnls``,
imported on its first call), so importing the package, and solving a
balanced national table whose guaranteed scale seed fits, never load it.

The eigenpair kernel always terminates.  It first checks its uniform start
vector, which is exact when every row sum is equal.  On a primitive matrix
it then runs shifted power iteration for at most ``min(PF_MAX_ITER, 2 n)``
steps on an n x n matrix, about what one dense solve costs, which is
enough for the primitive matrices of national tables, and otherwise hands
the matrix to dense ``np.linalg.eig``.  A periodic matrix (supply chains
that form a cycle) has several eigenvalues on its spectral circle, so
power iteration cannot converge on it: every caller passes the kernel the
period from its graph test, and a periodic matrix gets a budget of 0, so it
goes from the start vector straight to ``eig``.  A matrix and its transpose share
their spectrum, so power iteration converges at the same rate on both:
when the right eigenvector falls back, the left one goes straight to
``eig``, and each spectrum falls back at most once.  Whichever path
answers, the answer is checked: the vector is made nonnegative at max-norm
1 and must satisfy ``max |M v - rho v| <= PF_TOL``, or
:class:`NoConvergence` is raised; the tolerance is never loosened.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NoPositivePrice,
    NotInCone,
    NotIrreducible,
    PreconditionFailed,
)
from .exchange import (
    DEFAULT_TOL,
    EquilibriumReport,
    ExchangeEconomy,
    _check_finite,
    _check_tol,
    _nonneg_square,
    _vector,
    check_equilibrium,
)

PF_TOL = 1e-10
# Cap on the power iterations before the dense fallback; an n x n matrix
# gets min(PF_MAX_ITER, 2 n).  The scaled production matrices of balanced
# 34-300 industry tables converge in 6-10 steps, the toy table in 4 and its
# 10-block aggregate in 7; a periodic matrix needs thousands.  Measured
# cost (best of 7 x 500 calls, 2 CPUs, numpy 2.4 with OpenBLAS):
#
#     n                          2       8      12      34
#     one power step, us       8-11    12-13   13-15    8-10
#     np.linalg.eig, us       12-21    36-40   45-81    300-314
#     whole fallback, us      27-50    55-72   58-88    348-355
#
# (the fallback adds taking the eigenvector and checking its residual), so
# 2 n steps spend about what the fallback costs before falling back.  A
# periodic matrix spends none: the graph test that every caller runs first
# gives the period.  Its cost, against two reachability sweeps that run
# until the frontier is empty and take no gcd (best of 7 x 200 calls, three
# runs, random dense matrices and pure n-cycles):
#
#     n                                2       8       24      300
#     period test, us
#       positive diagonal, dense     13-14   12-14   13-22    26-29
#       zero diagonal, dense         22-25   21-23   25-40    55-60
#       zero diagonal, pure cycle    21-23   84-88  271-419  4000-4900
#     two full sweeps, us
#       dense                        24-28   25-33   27-46   101-117
#       pure cycle                   25-26   77-87  255-377  3300-4300
#
# The test stops once every vertex is reached and the period is 1, so a
# dense graph costs less than the full sweeps; a pure cycle folds one gcd
# step into each of its n levels.
PF_MAX_ITER = 40
CONE_TOL = 1e-8

__all__ = [
    "PF_TOL",
    "PF_MAX_ITER",
    "CONE_TOL",
    "PerronResult",
    "ConeSolution",
    "ConstructedEquilibrium",
    "is_irreducible",
    "perron_eigen",
    "solve_nonneg",
    "spectral_equilibrium",
    "unit_value_equilibrium",
]


def is_irreducible(M) -> bool:
    """True when the digraph with an edge i -> j for ``M[i, j] > 0`` is
    strongly connected.  A 1x1 matrix is irreducible iff its entry is
    positive (self-loop convention).  Raises ValueError unless ``M`` is
    square and non-empty with finite nonnegative entries."""
    return _period(_nonneg_square(M)) > 0


def _period(M: np.ndarray) -> int:
    """Graph test of a matrix its caller has already checked: 0 when the
    digraph of ``M`` is not strongly connected, and otherwise its period,
    the gcd of its cycle lengths (1 means primitive).

    One positive diagonal entry is a cycle of length 1, so it settles the
    period at 1 and neither sweep takes a gcd.  Otherwise the forward sweep
    folds in the gcd of ``level(i) + 1 - level(j)`` over the edges
    ``i -> j``, with ``level`` the breadth-first distance from vertex 0,
    which is the period of a strongly connected digraph (Denardo 1977)."""
    if M.shape[0] == 1:
        return int(M[0, 0] > 0)
    adj = M > 0
    period = _sweep(adj, int(adj.diagonal().any()))
    return period if period and _sweep(adj.T, 1) else 0


def _sweep(adj: np.ndarray, period: int) -> int:
    """Breadth-first frontier sweeps from vertex 0 along the edges
    ``i -> j`` with ``adj[i, j]``.  Returns 0 unless every vertex is
    reached, and otherwise the gcd of ``period`` and, while that gcd is not
    1, of ``level(i) + 1 - level(j)`` over the edges.  The edges out of
    level k reach the set ``reach``, each vertex of which was reached at
    most k + 1 levels deep, so the number of sweeps since it was reached,
    ``k + 1 - level(j)``, is its term of the gcd: the gcd takes one
    vectorised step per level, and no edge list is built.  With
    ``period = 1`` this is the plain reachability test, which stops as soon
    as every vertex is reached."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    age = np.zeros(adj.shape[0], dtype=np.intp)
    unseen = adj.shape[0] - 1
    while True:
        reach = adj[frontier].any(axis=0)
        if period != 1:
            age += seen  # k + 1 - level(j) where reached, 0 elsewhere
            period = int(np.gcd.reduce(age[reach], initial=period))
        frontier = reach & ~seen
        seen |= frontier
        found = np.count_nonzero(frontier)
        unseen -= found
        if not found or not unseen and period == 1:
            return 0 if unseen else period


@dataclass(frozen=True)
class PerronResult:
    """Dominant eigenpair of a nonnegative matrix.

    ``right`` and ``left`` are scaled to max-norm 1 and are strictly
    positive when the matrix is irreducible.  ``residual`` is the larger of
    the two eigen-residuals ``max |M v - rho v|``; ``rho_left`` is the
    eigenvalue computed from the transpose (it agrees with ``rho`` up to
    the residual tolerance).  ``method`` is ``"power"`` when the uniform
    start vector or shifted power iteration answered both sides, and
    ``"dense"`` when either side went to ``np.linalg.eig``.
    ``iterations`` counts the power steps of both sides: 0 on a periodic
    matrix, which runs none; otherwise at most ``min(PF_MAX_ITER, 2 n)``
    each, and only the right side's budget when it fell back (the left side
    then runs none).
    """

    rho: float
    right: np.ndarray
    left: np.ndarray
    iterations: int
    residual: float
    rho_left: float
    method: str


def _dominant(
    M: np.ndarray, period: int = 1, budget: int | None = None
) -> tuple[float, np.ndarray, int, float, str]:
    """Verified dominant eigenpair of a nonnegative matrix.

    Starts from the uniform vector, which always overlaps the dominant
    nonnegative eigenvector and is that eigenvector exactly when every row
    sum of ``M`` is equal, so it is checked first, for every matrix.  Then
    runs at most ``budget`` steps of power iteration on ``M + eps I`` with
    ``eps = 1e-3 * max(M)``.  ``period`` is the period of the graph of
    ``M`` from :func:`_period`; a reducible matrix (0) is budgeted like a
    primitive one (1).  The
    budget defaults to ``min(PF_MAX_ITER, 2 n)`` for an n x n matrix: one
    step costs 8-15 us below n = 40 and the whole fallback 27-88 us at
    n = 2-12 (the table above ``PF_MAX_ITER``), so the iteration spends
    about what the fallback costs before giving up.  The shift barely damps
    the oscillation of a periodic matrix (period > 1), so its budget
    defaults to 0.  When the budget runs out the matrix goes to dense
    ``np.linalg.eig``, which takes the eigenvalue with the largest real
    part: on a periodic matrix several eigenvalues share the modulus
    ``rho``, but only ``rho`` itself has real part ``rho``.

    Either way the vector is taken in absolute value at max-norm 1, the
    eigenvalue is its Rayleigh quotient on ``M`` (a weighted mean of the
    Collatz-Wielandt ratios ``(M v)_i / v_i``), and the pair is returned
    only if ``max |M v - rho v| <= PF_TOL``; otherwise
    :class:`NoConvergence` is raised with the budget spent.  Returns
    ``(rho, v, iterations, residual, method)`` with ``method`` ``"power"``
    (the start vector answers with 0 iterations) or ``"dense"``; a dense
    answer reports the whole budget as its iterations.

    The callers pass checked matrices or, in the national solve, a product
    of checked arrays divided by shares that the solve has checked for
    overflow; the maximum taken for the shift still rejects an infinite
    or NaN entry with ValueError.
    """
    n = M.shape[0]
    if budget is None:
        budget = 0 if period > 1 else min(PF_MAX_ITER, 2 * n)
    top = float(M.max(initial=0.0))
    if not top < np.inf:
        raise ValueError("M must be finite")
    if top == 0.0:
        return 0.0, np.ones(n), 0, 0.0, "power"
    shift = 1e-3 * top
    v = np.ones(n)
    mv = M @ v
    rho, residual = _rayleigh(v, mv)
    it = 0
    while residual > PF_TOL and it < budget:
        w = mv + shift * v  # (M + eps I) v from the M v in hand: one product per step
        v = w / w.max()
        mv = M @ v
        rho, residual = _rayleigh(v, mv)
        it += 1
    if residual <= PF_TOL:
        return rho, v, it, residual, "power"
    vals, vecs = np.linalg.eig(M)
    v = np.abs(vecs[:, int(np.argmax(vals.real))])
    v = v / v.max()
    mv = M @ v
    rho, residual = _rayleigh(v, mv)
    if not residual <= PF_TOL:
        raise NoConvergence(budget, residual)
    return rho, v, budget, residual, "dense"


def _rayleigh(v: np.ndarray, mv: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient of ``v`` and the eigen-residual it leaves."""
    rho = float(v @ mv) / float(v @ v)
    return rho, float(np.abs(mv - rho * v).max())


def perron_eigen(M) -> PerronResult:
    """Dominant eigenvalue and strictly positive eigenvectors of an
    irreducible nonnegative matrix.

    The pair is verified at ``max |M v - rho v| <= PF_TOL`` with ``v`` at
    max-norm 1, an absolute tolerance on the scale of the matrix entries:
    rescale a matrix far from unit scale (``rho`` scales with it, the
    vectors do not) before the call.  The graph test that proves ``M``
    irreducible also gives its period.  A periodic matrix (period > 1) has
    that many eigenvalues of modulus ``rho``, so power iteration cannot
    converge on it: each side runs no power step and, unless the uniform
    start vector is exact, goes to the dense solve.  On a primitive matrix
    the right side runs at most ``min(PF_MAX_ITER, 2 n)`` power iterations
    before the dense fallback.  ``M.T`` has the same spectrum, so power
    iteration converges at the same rate on it: the left side gets the same
    budget when the right side converged, and none when it fell back.
    Raises ValueError unless ``M`` is square and non-empty with finite
    nonnegative entries, and :class:`NotIrreducible` unless it is
    irreducible.
    """
    M = _nonneg_square(M)
    period = _period(M)
    if not period:
        raise NotIrreducible("matrix graph is not strongly connected")
    rho_r, right, it_r, res_r, method_r = _dominant(M, period)
    rho_l, left, it_l, res_l, method_l = _dominant(M.T, period, 0 if method_r == "dense" else None)
    return PerronResult(
        rho=rho_r,
        right=right,
        left=left,
        iterations=it_r + it_l,
        residual=max(res_r, res_l),
        rho_left=rho_l,
        method="dense" if "dense" in (method_r, method_l) else "power",
    )


@dataclass(frozen=True)
class ConeSolution:
    """Nonnegative coefficients fitting a target in a column cone.

    ``interior`` is true when every coefficient stays above 1e-10 after
    max-normalisation; a zero target yields the boundary solution y = 0.
    """

    y: np.ndarray
    residual: float
    interior: bool


def solve_nonneg(C, target) -> ConeSolution:
    """Solve ``C y = target`` for ``y >= 0`` (nonnegative least squares).

    Succeeds when the residual is within ``CONE_TOL * ||target||``;
    otherwise the target lies outside the cone of the columns and
    :class:`NotInCone` is raised.  A non-finite entry of ``C``, or a
    negative or non-finite entry of ``target``, raises ValueError before
    scipy is loaded.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"C must be a 2-d array, got shape {C.shape}")
    _check_finite(C, "C")
    return _solve_nonneg(C, target)


def _solve_nonneg(C: np.ndarray, target) -> ConeSolution:
    """:func:`solve_nonneg` of a finite 2-d float matrix its caller has
    already checked; only the target is checked here."""
    target = _vector(target, C.shape[0], "target")
    norm = float(np.linalg.norm(target))
    if norm == 0.0:
        return ConeSolution(y=np.zeros(C.shape[1]), residual=0.0, interior=False)
    from scipy.optimize import nnls  # the only scipy use; imported on the first cone solve

    y, rnorm = nnls(C, target, maxiter=max(30, 10 * C.shape[1]))
    threshold = CONE_TOL * norm
    if rnorm > threshold:
        raise NotInCone(float(rnorm), threshold)
    ymax = float(y.max(initial=0.0))
    interior = ymax > 0 and float(y.min()) / ymax > 1e-10
    return ConeSolution(y=y, residual=float(rnorm), interior=interior)


@dataclass(frozen=True)
class ConstructedEquilibrium:
    """Price constructed by one of the existence solvers, plus evidence.

    ``scales`` are the per-consumer demand scales realised at ``p``;
    ``budget`` is the per-consumer bundle-value vector used by the spectral
    construction (None for the unit-value route); ``report`` is the
    substitution check of the clearing conditions.
    """

    p: np.ndarray
    strictly_positive: bool
    scales: np.ndarray
    report: EquilibriumReport
    budget: np.ndarray | None = None


def _factored_economy(C, B1) -> tuple[ExchangeEconomy, np.ndarray]:
    """The economy ``(C, C @ B1)`` of the constructive solvers, and ``B1``
    as a float array.  Raises ValueError unless ``B1`` is square with
    finite nonnegative entries and one row per column of ``C``, ``C``
    passes the economy's own entry check and every column of ``C`` has a
    positive sum."""
    C = np.asarray(C, dtype=float)
    B1 = _nonneg_square(B1, "B1")
    if C.ndim != 2 or C.shape[1] != B1.shape[0]:
        raise ValueError(f"C shape {C.shape} does not match B1 shape {B1.shape}")
    econ = ExchangeEconomy(C, C @ B1)
    if (econ.C.sum(axis=0) <= 0).any():
        raise ValueError("every column of C must have a positive sum")
    return econ, B1


def spectral_equilibrium(C, B1, tol: float = DEFAULT_TOL) -> ConstructedEquilibrium:
    """Equilibrium price for the economy ``(C, C @ B1)`` with ``B1``
    irreducible.

    The consumer scales are the row sums ``y_k`` of ``B1``.  Row-normalising
    ``B1`` by them gives a stochastic matrix whose left dominant vector,
    divided by the scales, is the budget vector ``d``: pricing the goods so
    that bundle ``k`` costs ``d_k`` clears every market exactly.  The price
    solves ``C.T p = d`` and exists (nonnegatively) iff ``d`` lies in the
    cone of the rows of ``C``; otherwise :class:`NoPositivePrice` is
    raised.  The returned price is rescaled to max-norm 1.
    """
    econ, B1 = _factored_economy(C, B1)
    period = _period(B1)
    if not period:
        raise NotIrreducible("B1 graph is not strongly connected")

    y = B1.sum(axis=1)
    stochastic = B1 / y[:, None]  # row scaling keeps the graph tested above
    _, left, _, _, _ = _dominant(stochastic.T, period)
    d = left / y
    d = d / d.max()

    try:
        sol = _solve_nonneg(econ.C.T, d)
    except NotInCone as e:
        raise NoPositivePrice(
            f"budget vector is outside the row cone of C: {e}"
        ) from e

    p = sol.y
    p = p / p.max()
    report = check_equilibrium(econ, p, tol=tol)
    if not report.is_equilibrium:
        raise NoPositivePrice(
            f"constructed price fails substitution on goods {report.violated_set} "
            f"(max violation {report.max_violation():.3e})"
        )
    return ConstructedEquilibrium(
        p=p,
        strictly_positive=sol.interior,
        scales=y,
        report=report,
        budget=d,
    )


def unit_value_equilibrium(C, B1, psi, tol: float = DEFAULT_TOL) -> ConstructedEquilibrium:
    """Equilibrium price for ``(C, C @ B1)`` with unit bundle values.

    Requires the column sums of ``B1`` to reproduce the supply ``psi``
    through ``C`` (verified, not assumed; :class:`PreconditionFailed`
    otherwise).  The price solves ``<C_i, p> = 1`` for every consumer; a
    boundary solution (some zero prices) is returned with
    ``strictly_positive=False``.
    """
    econ, B1 = _factored_economy(C, B1)
    psi = _vector(psi, econ.n, "psi")
    _check_tol(tol)

    y_bar = B1.sum(axis=0)
    gap = np.abs(econ.C @ y_bar - psi) / np.maximum(1.0, np.abs(psi))
    if gap.max(initial=0.0) > tol:
        raise PreconditionFailed(
            "supply-balance",
            f"column sums of B1 miss the supply through C by {gap.max():.3e}",
        )

    try:
        sol = _solve_nonneg(econ.C.T, np.ones(econ.l))
    except NotInCone as e:
        raise NoPositivePrice(
            f"the all-ones budget is outside the row cone of C: {e}"
        ) from e

    p = sol.y
    report = check_equilibrium(econ, p, tol=tol)
    if not report.is_equilibrium:
        raise NoPositivePrice(
            f"constructed price fails substitution on goods {report.violated_set}; "
            "psi is inconsistent with the economy's supply"
        )
    return ConstructedEquilibrium(
        p=p,
        strictly_positive=sol.interior,
        scales=y_bar,
        report=report,
        budget=None,
    )
