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
the two breadth-first sweeps reads its first level straight from vertex 0's
row (its column, for the transpose) and then takes one vectorised step per
level: a sweep ends at its first level when vertex 0 trades both ways with
every vertex, as in a dense table, and a pure n-cycle needs n levels.

The cone membership test is a numpy nonnegative least-squares solve, the
active-set method of Lawson and Hanson (1995, ch. 23) that
``scipy.optimize.nnls`` also implements, with the same rule for the column
that enters, so it returns scipy's solution when there are many; its thin
QR grows by one Gram-Schmidt column and shrinks by Givens rotations, never
by refactoring.  The package imports no scipy module.

The eigenpair kernel always terminates.  It first checks its uniform start
vector, which is exact when every row sum is equal: in the national solve,
whose matrix is the price system of a value-form table, that vector is the
unit price, and it answers every table that certifies.  Then the order of
the matrix alone sets its route.  Up to order 20 (``2 n <= PF_MAX_ITER``)
dense ``np.linalg.eig`` costs less than the power steps a random matrix
needs, so the matrix goes there at once; above it the kernel runs shifted
power iteration for at most ``PF_MAX_ITER`` steps, enough for the
matrices of national tables, and hands a matrix that needs more to
``eig``.  A periodic matrix (supply chains that form a cycle) has several
eigenvalues on its spectral circle, so power iteration cannot converge on
it: above order 20 it spends the whole budget before ``eig`` answers.  A
matrix and its transpose share their spectrum, so power iteration
converges at the same rate on both: when the right eigenvector falls back,
the left one goes straight to ``eig``, one ``eig`` call serves both, and
each spectrum falls back at most once.  Whichever path answers, the answer
is checked: the vector is made nonnegative at max-norm 1 and must satisfy
``max |M v - rho v| <= PF_TOL * min(1, |M|_inf)``, or
:class:`NoConvergence` is raised; the tolerance is never loosened.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConvergence,
    NoPositivePrice,
    NotInCone,
    NotIrreducible,
    PreconditionFailed,
)
from ._policy import _check_entries, _check_tol, _finite, _nonneg_square, _quiet, _vector
from .exchange import (
    DEFAULT_TOL,
    EquilibriumReport,
    ExchangeEconomy,
    check_equilibrium,
)

PF_TOL = 1e-10
# Power steps of the eigen kernel on an n x n matrix before the dense
# fallback: none when 2 n <= PF_MAX_ITER, PF_MAX_ITER above that.  The price
# systems of balanced 34-300 industry tables converge in 6-10 steps; a
# periodic matrix needs thousands.  Measured on random irreducible matrices
# (median of 5 matrices per order, each the best of 7 x 300 calls, one
# pinned core of a 2-CPU Xeon, numpy 2.4 with OpenBLAS; both rows of times
# measured in one run):
#
#     n                               8      12      16      20      24      34
#     power steps to PF_TOL          24      21      19      19      18      16
#     power iteration, us           175     162     153     146     135     123
#     start check + eig, us          44      63      88     114     148     312
#
# so up to n = 20 the dense solve is cheaper than the steps the matrix
# needs, and above it power iteration is.
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
    return _irreducible(_nonneg_square(M)[0])


def _irreducible(M: np.ndarray) -> bool:
    """:func:`is_irreducible` of a matrix its caller has already checked:
    breadth-first frontier sweeps from vertex 0 along the edges of the
    digraph and then of its transpose, each stopping as soon as every
    vertex is reached or no new one is.  The first level is vertex 0's row
    of ``M > 0`` (its column, for the transpose), read with one copy and one
    count; each later level is one vectorised step."""
    n = M.shape[0]
    if n == 1:
        return bool(M[0, 0] > 0)
    adj = M > 0
    for graph in (adj, adj.T):
        seen = graph[0].copy()
        seen[0] = True
        unseen = n - np.count_nonzero(seen)
        frontier = seen
        while unseen:
            frontier = np.logical_or.reduce(graph[frontier], axis=0)
            np.greater(frontier, seen, out=frontier)  # frontier & ~seen
            found = np.count_nonzero(frontier)
            if not found:
                return False
            seen |= frontier
            unseen -= found
    return True


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
    ``iterations`` counts the power steps of both sides: 0 up to order 20,
    which runs none; otherwise at most ``PF_MAX_ITER`` each, and only the
    right side's budget when it fell back (the left side then runs none).
    """

    rho: float
    right: np.ndarray
    left: np.ndarray
    iterations: int
    residual: float
    rho_left: float
    method: str


def _dominant(
    M: np.ndarray, budget: int | None = None, top: float | None = None, eig=None
) -> tuple[float, np.ndarray, int, float, str]:
    """Verified dominant eigenpair of a nonnegative matrix.

    Starts from the uniform vector, which always overlaps the dominant
    nonnegative eigenvector and is that eigenvector exactly when every row
    sum of ``M`` is equal, so it is checked first, for every matrix.  Then
    runs at most ``budget`` steps of power iteration on ``M + eps I`` with
    ``eps = 1e-3 * max(M)``.  The budget defaults to 0 for an n x n matrix
    with ``2 n <= PF_MAX_ITER`` and to ``PF_MAX_ITER`` above that: up to
    order 20 the dense solve costs less than the steps a matrix needs (the
    table above ``PF_MAX_ITER``).  The shift barely damps the oscillation
    of a periodic matrix, which spends its whole budget.  When the budget
    runs out the matrix goes to dense ``np.linalg.eig``, which takes the
    eigenvalue with the largest real part: on a periodic matrix several
    eigenvalues share the modulus ``rho``, but only ``rho`` itself has real
    part ``rho``.

    Either way the vector is taken in absolute value at max-norm 1, the
    eigenvalue is its Rayleigh quotient on ``M`` (a weighted mean of the
    Collatz-Wielandt ratios ``(M v)_i / v_i``), and the pair is returned
    only if ``max |M v - rho v| <= PF_TOL * min(1, |M|_inf)``; otherwise
    :class:`NoConvergence` is raised with the budget spent.  Returns
    ``(rho, v, iterations, residual, method)`` with ``method`` ``"power"``
    (the start vector answers with 0 iterations) or ``"dense"``; a dense
    answer reports the whole budget as its iterations.  Every product
    ``M v`` goes into one held buffer and each residual into a second, so
    no step allocates a vector, and the dense answer is normalised in place.

    The decomposition ``(vals, vecs)`` of ``M`` comes from ``eig()`` when
    the caller passes it, so that :func:`perron_eigen` can serve both sides
    from one ``np.linalg.eig`` call, and from ``np.linalg.eig(M)`` otherwise;
    ``eig`` is called only when the budget runs out, and at most once.
    The callers pass checked matrices or, in the national solve, the price
    system ``diag(y/pi) A^T`` of checked arrays, with shares that the solve
    has checked for overflow.  The shift comes from the maximum of ``M``,
    ``top`` when the caller passes it; taken here, it still rejects an
    infinite or NaN entry with ValueError.  A product of a matrix whose
    row sums leave the float range overflows, so the callers run the kernel
    inside ``with _quiet():``; the overflow then reads inf or NaN, which no
    acceptance test passes.
    """
    n = M.shape[0]
    if budget is None:
        budget = 0 if 2 * n <= PF_MAX_ITER else PF_MAX_ITER
    if top is None:
        top = _finite(float(np.maximum.reduce(M, axis=None, initial=0.0)), "M must be finite")
    if top == 0.0:
        return 0.0, np.ones(n), 0, 0.0, "power"
    shift = 1e-3 * top
    v = np.ones(n)
    mv = M @ v
    bound = PF_TOL * min(1.0, float(np.maximum.reduce(mv)))  # M @ 1 is the row sums: |M|_inf
    work = np.empty(n)
    it = 0
    dense = False
    while True:
        # the Rayleigh quotient of v and the residual M v - rho v, in work,
        # as numpy floats until they are returned
        rho = v.dot(mv) / v.dot(v)
        np.multiply(v, rho, out=work)
        np.subtract(mv, work, out=work)
        residual = np.maximum.reduce(np.abs(work, out=work))
        if residual <= bound or dense:
            break
        if residual > bound and it < budget:
            # (M + eps I) v from the M v in hand: one product per step
            np.multiply(v, shift, out=work)
            work += mv
            np.divide(work, np.maximum.reduce(work), out=v)
            it += 1
        else:  # the budget is spent, or the residual is NaN
            vals, vecs = np.linalg.eig(M) if eig is None else eig()
            np.abs(vecs[:, int(np.argmax(vals.real))], out=v)
            np.divide(v, np.maximum.reduce(v), out=v)
            dense = True
        np.matmul(M, v, out=mv)
    rho, residual = float(rho), float(residual)
    if not residual <= bound:
        raise NoConvergence(budget, residual)
    if dense:
        return rho, v, budget, residual, "dense"
    return rho, v, it, residual, "power"


def perron_eigen(M) -> PerronResult:
    """Dominant eigenvalue and strictly positive eigenvectors of an
    irreducible nonnegative matrix.

    The pair is verified at ``max |M v - rho v| <= PF_TOL * min(1,
    |M|_inf)`` with ``v`` at max-norm 1, relative below unit norm and
    absolute above: rescale a matrix far above unit norm before the
    call (``rho`` scales with it).  Up to order 20 each side goes from the
    uniform start vector, unless it is exact, straight to the dense solve;
    above that the right side runs at most ``PF_MAX_ITER`` power iterations
    before the dense fallback.  ``M.T`` has the same spectrum, so power
    iteration converges at the same rate on it: the left side gets the same
    budget when the right side converged, and none when it fell back.
    When the right side falls back, one ``np.linalg.eig`` call on the stack
    of ``M`` and ``M.T`` serves it, and the left side too if it reaches the
    dense solve; each slice has the bits of its own call.  A left side
    that its start vector answers (equal column sums, unequal row sums)
    leaves its half of the stack unused, and a left side that falls back
    alone makes its own call.  The maximum of ``M``, which ``M.T`` shares,
    is taken once for both sides, by the entry check.
    Raises ValueError unless ``M`` is square and non-empty with finite
    nonnegative entries, and :class:`NotIrreducible` unless it is
    irreducible.
    """
    M, top = _nonneg_square(M)  # top: the maximum the entry check took
    if not _irreducible(M):
        raise NotIrreducible("matrix graph is not strongly connected")
    both = []  # eig's (vals, vecs) of the stack (M, M.T), once the right side falls back

    def stacked():
        both.extend(np.linalg.eig(np.array((M, M.T))))
        return both[0][0], both[1][0]

    with _quiet():
        rho_r, right, it_r, res_r, method_r = _dominant(M, None, top, stacked)
        if both:  # the right side fell back: the left side runs no power step
            rho_l, left, it_l, res_l, method_l = _dominant(M.T, 0, top, lambda: (both[0][1], both[1][1]))
        else:
            rho_l, left, it_l, res_l, method_l = _dominant(M.T, None, top)
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
    the solve starts.  The solve is the active-set method of Lawson and
    Hanson, which takes at most ``max(30, 10 n)`` steps on ``n`` columns
    or raises :class:`NoConvergence`; on a problem with many solutions it
    returns the one ``scipy.optimize.nnls`` returns.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"C must be a 2-d array, got shape {C.shape}")
    return _solve_nonneg(_finite(C, "C must be finite"), target)


def _solve_nonneg(C: np.ndarray, target) -> ConeSolution:
    """:func:`solve_nonneg` of a finite 2-d float matrix its caller has
    already checked; only the target is checked here."""
    target = _vector(target, C.shape[0], "target")
    top = float(target.max(initial=0.0))
    if top == 0.0:
        return ConeSolution(y=np.zeros(C.shape[1]), residual=0.0, interior=False)
    # the norm in units of the power of two of the largest entry, so that a
    # norm beyond the float range still gives the finite threshold
    e = math.frexp(top)[1]
    threshold = math.ldexp(CONE_TOL * float(np.hypot.reduce(np.ldexp(target, -e))), e)
    y, rnorm = _lawson_hanson(C, target, max(30, 10 * C.shape[1]))
    if rnorm > threshold:
        raise NotInCone(float(rnorm), threshold)
    ymax = float(y.max(initial=0.0))
    interior = ymax > 0 and float(y.min()) / ymax > 1e-10
    return ConeSolution(y=y, residual=rnorm, interior=interior)


def _lawson_hanson(A: np.ndarray, b: np.ndarray, maxiter: int) -> tuple[np.ndarray, float]:
    """``(y, |A y - b|)`` for the ``y >= 0`` that minimises ``|A y - b|``
    (``A`` finite, ``b`` finite and nonnegative), by the active-set method
    of Lawson and Hanson (1995, ch. 23).

    The passive columns ``P`` hold the positive coefficients.  Each outer
    step moves into ``P`` the column with the largest entry of the dual
    vector ``w = A^T (b - A y)``, ties going to the first in scipy's order
    of the others, unless that column lies too close to the span of ``P``
    (a hundredth of its distance from that span, added to the norm of its
    projection onto it, changes nothing in floating point) or its
    least-squares coefficient would not be positive; then its ``w`` is
    zeroed and the next is tried.  Both tests are free of the column's
    scale.  The loop stops when no ``w`` is positive, when ``P`` has
    ``min(m, n)`` columns, or, raising :class:`NoConvergence`, after
    ``maxiter`` inner steps; and once an outer step leaves the residual no
    smaller, which in exact arithmetic none does, so that only rounding is
    left to fit (on a rank-deficient cone two columns could otherwise
    swap places until the cap).  An inner step fits ``P`` by least squares;
    while a coefficient is not positive, ``y`` moves towards the fit until
    the first coefficient reaches 0, that column leaves ``P`` (with any
    other that reached 0) and ``P`` is fitted again.  These are the rules
    of ``scipy.optimize.nnls``, so on a problem with many solutions both
    return the same one, unless the cone is so ill-conditioned that
    rounding decides between them.

    ``P`` is held as a thin QR, ``A_P = QT[:k].T @ R[:k, :k]``: an entering
    column is orthogonalised against ``QT`` twice (Gram-Schmidt with one
    re-orthogonalisation), and a leaving one is deleted from ``R`` and the
    triangle restored with Givens rotations, applied also to ``QT`` and
    ``qtb = QT @ b``.  numpy has no triangular solve, so ``S``, the inverse
    of ``R``, is kept beside it: an entering column adds one column to
    ``S``, and after a deletion the columns of ``S`` from the first deleted
    position on are formed again from the new ``R``, never by rotating the
    old inverse.  The fit of ``P`` is then ``S @ qtb``, and its residual
    ``r = b - QT.T @ qtb`` is orthogonalised against ``QT`` once more, so
    that ``w`` holds no rounding from the span of ``P``: a column close to
    that span has a true ``w`` far below that rounding, and a fit could
    otherwise stop at a residual near ``CONE_TOL`` where scipy's, which
    forms ``w`` from the transformed columns, reaches rounding level.

    ``A`` and ``b`` are first scaled by the powers of two that bring their
    largest entries into ``[0.5, 1)``: that rounds nothing, so every step
    rounds as it would unscaled, and no square can overflow.  A column
    below about ``1e-150`` of the largest entry of ``A`` then has a square
    that underflows, and counts as a zero column.  A solution that leaves
    the float range when scaled back raises ValueError, found from the
    exponents before the shift; a residual norm beyond it reads inf.
    """
    m, n = A.shape
    ea = math.frexp(float(np.abs(A).max(initial=0.0)))[1]
    eb = math.frexp(float(b.max(initial=0.0)))[1]
    A = np.ldexp(A, -ea)
    b = np.ldexp(b, -eb)
    kmax = min(m, n)
    QT = np.zeros((kmax, m))
    R = np.zeros((kmax, kmax))
    S = np.zeros((kmax, kmax))
    qtb = np.zeros(kmax)
    yp = np.zeros(kmax)  # the coefficients of P, in its order
    # P, then the other columns in scipy's order: an entering column swaps
    # with the first of the others, and a leaving one goes in front of them
    order = np.arange(n)
    # two dot products of one column (norm below sqrt(m)) with r differ by
    # at most this times |r|, however they are summed
    slack = 2.0 * m * math.sqrt(m) * sys.float_info.epsilon
    k = steps = 0
    r = b
    rr = math.inf
    while k < kmax:
        last, rr = rr, r.dot(r)
        if not rr < last:
            break
        w = r.dot(A)
        entering = _entering(A, QT[:k], order[k:], w, r, slack * math.sqrt(rr))
        if entering is None:
            break
        pos, j, c, v, d, t = entering
        np.divide(v, d, out=QT[k])
        R[:k, k] = c
        R[k, k] = d
        S[k, k] = 1.0 / d
        S[:k, k] = (S[:k, :k] @ c) * (-1.0 / d)
        qtb[k] = t
        yp[k] = 0.0
        order[k + pos] = order[k]
        order[k] = j
        k += 1
        z = S[:k, :k] @ qtb[:k]
        while True:
            steps += 1
            if steps > maxiter:
                fit = A[:, order[:k]] @ yp[:k] - b
                raise NoConvergence(maxiter, float(np.ldexp(math.sqrt(fit.dot(fit)), eb)))
            if z[z.argmin()] > 0:
                break
            yk = yp[:k]
            low = np.flatnonzero(z <= 0)
            step = yk[low] / (yk[low] - z[low])
            q = int(step.argmin())
            yk += step[q] * (z - yk)
            leave = first = int(low[q])
            while True:
                k = _leave(QT, R, qtb, yp, order, k, leave)
                zero = np.flatnonzero(yp[:k] <= 0)
                if not zero.size:
                    break
                leave = int(zero[0])
                first = min(first, leave)
            for i in range(first, k):
                S[i, i] = 1.0 / R[i, i]
                S[:i, i] = (S[:i, :i] @ R[:i, i]) * -S[i, i]
            z = S[:k, :k] @ qtb[:k]
        yp[:k] = z
        Q = QT[:k]
        r = b - qtb[:k].dot(Q)
        r -= Q.dot(r).dot(Q)
    top = float(yp[:k].max(initial=0.0))
    if top > 0.0 and math.frexp(top)[1] + eb - ea > sys.float_info.max_exp:
        raise ValueError("the cone solve's coefficients y leave the float range")
    y = np.zeros(n)
    y[order[:k]] = yp[:k]
    rs = math.sqrt(r.dot(r))
    rnorm = math.ldexp(rs, eb) if math.frexp(rs)[1] + eb <= sys.float_info.max_exp else math.inf
    return np.ldexp(y, eb - ea), rnorm


def _entering(A, Q, others, w, r, slack):
    """The column that enters ``P`` (rows ``Q`` of its orthonormal basis)
    in :func:`_lawson_hanson`: ``(pos, j, c, v, d, t)`` with ``pos`` its
    position in ``others``, ``j`` its column, ``c`` its coordinates in
    ``Q``, ``v`` its remainder, ``d = |v|`` and ``t = v . r / d``; None when
    no column enters.  Zeroes ``w`` at each column it rejects.

    Dual values within ``slack`` of the largest are summed again one column
    at a time, so identical columns tie exactly and the first in ``others``
    wins: a matrix-vector product may round equal columns differently."""
    while True:
        wz = w[others]
        pos = int(wz.argmax())
        top = wz[pos]
        if not top > 0:
            return None
        floor = max(top - slack, 0.0)
        wz[pos] = floor
        if wz[wz.argmax()] > floor:
            wz[pos] = top
            near = np.flatnonzero(wz > floor)
            pos = int(near[(A[:, others[near]] * r[:, None]).sum(axis=0).argmax()])
        j = others[pos]
        a = A[:, j]
        if len(Q):
            c = Q.dot(a)
            v = a - c.dot(Q)
            again = Q.dot(v)
            v -= again.dot(Q)
            c += again
            unorm = math.sqrt(c.dot(c))
        else:
            c, v, unorm = a[:0], a, 0.0
        d = math.sqrt(v.dot(v))
        if (unorm + 0.01 * d) - unorm > 0:
            t = v.dot(r) / d
            if t > 0:
                return pos, j, c, v, d, t
        w[j] = 0.0


def _leave(QT, R, qtb, yp, order, k, i):
    """Delete position ``i`` of the ``k`` passive columns in
    :func:`_lawson_hanson` and return ``k - 1``: the later columns of ``R``
    shift left and Givens rotations of neighbouring rows zero the entries
    that fall below its diagonal, in ``R``, ``QT`` and ``qtb`` alike."""
    j = order[i]
    order[i:k - 1] = order[i + 1:k]
    order[k - 1] = j
    yp[i:k - 1] = yp[i + 1:k]
    R[:k, i:k - 1] = R[:k, i + 1:k]
    for p in range(i, k - 1):
        a, b = R[p, p], R[p + 1, p]
        G = np.array([[a, b], [-b, a]]) / math.hypot(a, b)
        R[p:p + 2, p:k - 1] = G @ R[p:p + 2, p:k - 1]
        R[p + 1, p] = 0.0
        QT[p:p + 2] = G @ QT[p:p + 2]
        qtb[p:p + 2] = G @ qtb[p:p + 2]
    return k - 1


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
    passes the economy's own entry check, ``C @ B1`` is finite (with no
    numpy warning) and every column of ``C`` has a positive sum."""
    C = np.asarray(C, dtype=float)
    B1, _ = _nonneg_square(B1, "B1")
    if C.ndim != 2 or C.shape[1] != B1.shape[0]:
        raise ValueError(f"C shape {C.shape} does not match B1 shape {B1.shape}")
    _check_entries(C, "C and B")
    with _quiet():
        econ = ExchangeEconomy(C, _finite(C @ B1, "the property matrix C @ B1 must be finite"))
        if (econ.C.sum(axis=0) <= 0).any():  # a sum that overflows is inf
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

    :class:`NoPositivePrice` also names, before any division and with no
    numpy warning, the consumers whose scale ``y_j`` or row of the budget
    system ``diag(1/y) B1^T`` (entries ``B1[k, j] / y_j``) could leave the
    float range: no float budget vector prices them.
    """
    econ, B1 = _factored_economy(C, B1)
    if not _irreducible(B1):
        raise NotIrreducible("B1 graph is not strongly connected")

    with _quiet():  # an overflow is refused below, or fails the kernel's test
        y = B1.sum(axis=1)
        inflow = B1.sum(axis=0)
        # Row j of the budget system diag(1/y) B1^T sums to inflow_j / y_j,
        # which bounds its entries B1[k, j] / y_j; as with the national
        # solve's shares, a consumer whose row could leave the float range is
        # refused before any division.
        wide = ~(inflow / sys.float_info.max < 0.5 * y) | (y == np.inf)
        if wide.any():
            raise NoPositivePrice(
                "the budget system diag(1/y) B1^T leaves the float range for consumers "
                f"{np.flatnonzero(wide).tolist()} (y_j or B1[:, j].sum() / y_j overflows)"
            )
        # d is the Perron vector of diag(1/y) B1^T, which has the graph tested
        # above and is similar to the transposed stochastic matrix
        _, d, _, _, _ = _dominant(B1.T / y[:, None])

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

    with _quiet():  # a supply gap that overflows is inf, or NaN, and fails
        y_bar = B1.sum(axis=0)
        gap = np.abs(econ.C @ y_bar - psi) / np.maximum(1.0, np.abs(psi))
    if not gap.max(initial=0.0) <= tol:
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
