"""National economy as an aggregated exchange model.

A country with ``m`` pure industries is described in value form by the
intermediate-flow matrix ``X`` (``X[k, i]`` = value of good k used by
industry i), gross output values, final consumption (household consumption
plus gross capital formation), exports, imports, and the taxation shares
``pi`` that channel each industry's newly produced value back into
production-side demand.

From these accounts one can build the underlying exchange economy with
``2m + 1`` agents (industries, industry households, one foreign-trade
agent), test the value-form clearing inequalities industry by industry, and
run the constructive national equilibrium solve: find nonnegative demand
scales reproducing supply, certify that the scaled production matrix has
spectral radius one, and read the prices off its dominant eigenvector.

The canonical internal representation is value form, because national
tables are published in value terms; physical-form inputs are converted on
ingestion at declared prices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockMismatch,
    NotAnEquilibrium,
    NotInCone,
    RhoNotOne,
    ZeroDenominator,
)
from ._policy import (
    _check_entries,
    _check_tol,
    _classify,
    _finite,
    _hold_read_only,
    _nonneg_square,
    _positions,
    _quiet,
    _vector,
    _warn,
)
from .exchange import (
    DEFAULT_TOL,
    DEFAULT_TOL_POS,
    ExchangeEconomy,
    _clearing,
    _normalized_price,
    check_equilibrium,
)
from .solvers import CONE_TOL, _dominant, _irreducible, _solve_nonneg

RHO_TOL = 1e-6

__all__ = [
    "RHO_TOL",
    "IOAccounts",
    "AggregationMap",
    "NationalEquilibrium",
    "ValueBalanceReport",
    "aggregate",
    "aggregate_accounts",
    "check_aggregation_agreement",
    "build_exchange_from_iot",
    "solve_national_equilibrium",
    "check_value_equilibrium",
]


def _shares(pi) -> np.ndarray:
    """The taxation shares ``pi`` as a 1-d float array; raises ValueError
    unless every entry lies in [0, 1] (NaN lies in no interval)."""
    pi = np.asarray(pi, dtype=float).reshape(-1)
    if not ((pi >= 0) & (pi <= 1)).all():
        raise ValueError("pi entries must lie in [0, 1]")
    return pi


@dataclass(frozen=True)
class IOAccounts:
    """Value-form input-output accounts for ``m`` industries.

    ``X[k, i]`` is the value of good k absorbed by industry i; ``Xout`` the
    gross output values; ``Cf`` final consumption (households plus capital
    formation); ``E`` exports; ``Imp`` imports; ``pi`` the taxation shares
    in [0, 1].  All value entries are finite and nonnegative.  The fields
    are read-only views of the arrays passed in, not copies, as in
    :class:`ExchangeEconomy`.
    """

    X: np.ndarray
    Xout: np.ndarray
    Cf: np.ndarray
    E: np.ndarray
    Imp: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        X = _nonneg_square(self.X, "X")
        m = X.shape[0]
        Xout = _vector(self.Xout, m, "Xout")
        Cf = _vector(self.Cf, m, "Cf")
        E = _vector(self.E, m, "E")
        Imp = _vector(self.Imp, m, "Imp")
        pi = _shares(self.pi)
        if pi.shape == (1,) and m > 1:
            pi = np.full(m, float(pi[0]))
        if pi.shape[0] != m:
            raise ValueError(f"pi must have length {m}, got {pi.shape[0]}")
        _hold_read_only(self, X=X, Xout=Xout, Cf=Cf, E=E, Imp=Imp, pi=pi)

    @classmethod
    def from_physical(cls, A, x, p, cf, e, imp, pi) -> "IOAccounts":
        """Convert technical coefficients and physical quantities to value
        form at the declared prices."""
        A = np.asarray(A, dtype=float)
        x = np.asarray(x, dtype=float).reshape(-1)
        p = np.asarray(p, dtype=float).reshape(-1)
        return cls(
            X=p[:, None] * A * x[None, :],
            Xout=p * x,
            Cf=p * np.asarray(cf, dtype=float),
            E=p * np.asarray(e, dtype=float),
            Imp=p * np.asarray(imp, dtype=float),
            pi=pi,
        )

    @property
    def m(self) -> int:
        return self.X.shape[0]

    def input_value(self) -> np.ndarray:
        """Per-industry value of intermediate inputs (column sums of X).  A
        sum that overflows reads inf, with no numpy warning."""
        with _quiet():
            return _input_value(self)

    def gross_value_added(self) -> float:
        """Value added summed over the industries, ``sum(Xout - X^T 1)``: it
        overflows (to inf or NaN, with no numpy warning) only when value added does."""
        with _quiet():
            return _value_added(self, _input_value(self))

    def coefficients(self) -> np.ndarray:
        """Technical coefficients at unit prices: X[:, i] / Xout[i], with
        zero columns for industries with no output.

        Each entry is the one division a column-by-column loop would make:
        a zero output is replaced by 1 for the division and its column is
        zeroed afterwards.  An entry that overflows reads inf, with no numpy
        warning, as :meth:`gross_value_added` does for its sum.
        """
        with _quiet():
            return _coefficients(self, self.Xout > 0)

    def balance_residual(self) -> np.ndarray:
        """Interindustry balance gap: Xout - (X @ 1 + Cf + E - Imp).  A sum
        that overflows reads inf (or NaN), with no numpy warning."""
        with _quiet():
            return self.Xout - _net_use(self)

    def scaled(self, alpha: float) -> "IOAccounts":
        return IOAccounts(
            X=alpha * self.X,
            Xout=alpha * self.Xout,
            Cf=alpha * self.Cf,
            E=alpha * self.E,
            Imp=alpha * self.Imp,
            pi=self.pi,
        )


def _input_value(acc: IOAccounts) -> np.ndarray:
    """:meth:`IOAccounts.input_value`, inside the caller's ``with _quiet():``."""
    return np.add.reduce(acc.X, axis=0)


def _net_use(acc: IOAccounts) -> np.ndarray:
    """Each good's use net of imports, ``X @ 1 + Cf + E - Imp``, the part of
    :meth:`IOAccounts.balance_residual` that the national solve's seed
    residual shares, inside the caller's ``with _quiet():``."""
    return np.add.reduce(acc.X, axis=1) + acc.Cf + acc.E - acc.Imp


def _value_added(acc: IOAccounts, col: np.ndarray) -> float:
    """:meth:`IOAccounts.gross_value_added` from the input values ``col``
    (column sums of ``X``) its caller formed, inside the caller's
    ``with _quiet():``."""
    return float(np.add.reduce(acc.Xout - col))


def _coefficients(acc: IOAccounts, live: np.ndarray) -> np.ndarray:
    """:meth:`IOAccounts.coefficients` from the output mask ``live``
    (``Xout > 0``) its caller formed, inside the caller's ``with _quiet():``."""
    out = acc.X / np.where(live, acc.Xout, 1.0)
    if not np.logical_and.reduce(live):
        out[:, ~live] = 0.0
    return out


def _final_totals(acc: IOAccounts) -> tuple[float, float, float]:
    """Total final consumption, exports and imports, the one place they are
    formed, inside the caller's ``with _quiet():``.  Household and trade
    demand divide by them, so a total that overflows raises ValueError "D
    must be finite", and :class:`ZeroDenominator` is raised when household
    or trade demand would divide by a zero total."""
    totals = float(np.add.reduce(acc.Cf)), float(np.add.reduce(acc.E)), float(np.add.reduce(acc.Imp))
    _finite(max(totals), "D must be finite")
    cf_total, e_total, imp_total = totals
    if cf_total <= 0:
        raise ZeroDenominator("total final consumption")
    if e_total <= 0 and imp_total > 0:
        raise ZeroDenominator("total exports (imports present)")
    return totals


def _effective_pi(acc: IOAccounts, live: np.ndarray) -> np.ndarray:
    """The taxation shares with 0 for every industry that buys no inputs
    (``live`` is false: zero input column) but has taxed output
    ``pi_i * Xout_i > 0``; a ``RuntimeWarning`` at the caller's line names
    their 0-based positions."""
    if np.logical_and.reduce(live):
        return acc.pi
    inputless = ~live & (acc.pi * acc.Xout > 0)
    if not np.logical_or.reduce(inputless):
        return acc.pi
    _warn(
        f"industries at positions {np.flatnonzero(inputless).tolist()} buy no inputs; "
        "their taxed value goes to households (effective pi = 0)"
    )
    return np.where(inputless, 0.0, acc.pi)


def demand_vector(acc: IOAccounts) -> np.ndarray:
    """Per-industry demand in value units.

    With ``col`` each industry's input value (column sums of ``X``) and
    ``g = pi * (Xout - col)`` its taxed value added, ``D`` is the sum of
    three terms: production demand ``X (g / col)``, which spreads each
    industry's taxed value over its input flows; household demand, the
    final-consumption pattern scaled to the untaxed income
    ``sum(Xout - g)``; and export demand scaled by the import/export value
    ratio (zero for a table with no exports and no imports).  The terms
    sum to ``sum(g)``, ``sum(Xout - g)`` and ``sum(Imp)``, so total demand
    equals total supply term by term.  ``D`` is affine in the shares,
    ``D(pi) = D(0) + K pi`` with
    ``K = (X diag(1/col) - Cf 1^T / sum(Cf)) diag(Xout - col)``; this
    evaluates it without forming ``K``, in one product with ``X``.

    An industry that buys no inputs (zero input column) has nothing to
    spread its taxed value over, so its effective taxation share is 0: all
    of its new value goes to households, which keeps total demand equal to
    total supply.  A ``RuntimeWarning`` names every industry (0-based
    position) whose share this overrides.

    A total of final consumption, exports or imports that overflows raises
    ValueError "D must be finite", before that warning; so does, with no
    numpy warning, a term that overflows: household income, say, or an
    input value (column sum of ``X``).  The taxed value per unit of input
    ``g / col`` is formed in units of a power of two at or above
    ``max|g|``, so it overflows only where an input value is below the
    smallest normal float.  No term is the difference of two larger ones,
    so no other intermediate product can overflow where ``D`` does not.
    """
    with _quiet():
        return _demand(acc, _input_value(acc))


def _demand(acc: IOAccounts, col: np.ndarray) -> np.ndarray:
    """:func:`demand_vector` from the input values ``col`` (column sums of
    ``X``) its caller formed, inside the caller's ``with _quiet():``.
    ``g / col`` is formed in units of ``2**e >= max|g|`` and the product
    scaled back, which in the normal range is bit for bit ``X @ (g / col)``."""
    cf_total, e_total, imp_total = _final_totals(acc)
    live = col > 0
    pi = _effective_pi(acc, live)
    taxed = pi * (acc.Xout - col)
    e = math.frexp(float(np.abs(taxed).max()))[1]
    per_input = np.divide(np.ldexp(taxed, -e), col, out=np.zeros(acc.m), where=live)
    D = np.ldexp(acc.X @ per_input, e)
    D += acc.Cf * float((acc.Xout - taxed).sum()) / cf_total
    if e_total > 0:
        D += acc.E * imp_total / e_total
    return _finite(D, "D must be finite")


def supply_vector(acc: IOAccounts) -> np.ndarray:
    """Per-industry supply in value units: gross output plus imports.  A sum
    that overflows raises ValueError "S must be finite", with no numpy warning."""
    with _quiet():
        return _supply(acc)


def _supply(acc: IOAccounts) -> np.ndarray:
    """:func:`supply_vector`, inside the caller's ``with _quiet():``."""
    return _finite(acc.Xout + acc.Imp, "S must be finite")


def _shortfall(D: np.ndarray, S: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """The deficit ``D - S`` and its equal, strict and violated masks at
    ``tol``, inside the caller's ``with _quiet():``.  ``D`` and ``S`` are
    checked finite where they are formed (:func:`_demand`, :func:`_supply`)
    or passed in; a deficit that overflows raises ValueError "D - S must be
    finite"."""
    gap = _finite(D - S, "D - S must be finite")
    return (gap, *_classify(gap, S, tol))


@dataclass(frozen=True)
class AggregationMap:
    """Partition of ``range(n)`` into ordered blocks; maps vectors and row
    systems to their block sums."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(k) for k in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise BlockMismatch("empty aggregation block")
            if len(set(b)) < len(b):
                raise BlockMismatch("aggregation block repeats an index")
            if seen & set(b):
                raise BlockMismatch("aggregation blocks overlap")
            seen |= set(b)
        if seen != set(range(len(seen))) or not seen:
            raise BlockMismatch("blocks must partition 0..n-1 exactly")

    @classmethod
    def identity(cls, n: int) -> "AggregationMap":
        return cls(tuple((k,) for k in range(n)))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    def apply(self, v) -> np.ndarray:
        """Block sums of a vector or of the rows of a matrix.  A non-finite
        entry, or a block sum that overflows, raises ValueError "aggregated
        data must be finite" with no numpy warning: every entry lies in one
        block, so one test of the sums covers both."""
        arr = np.asarray(v, dtype=float)
        if arr.shape[0] != self.n:
            raise BlockMismatch(
                f"data has {arr.shape[0]} rows, map expects {self.n}"
            )
        with _quiet():
            sums = np.stack([arr[list(b)].sum(axis=0) for b in self.blocks])
        return _finite(sums, "aggregated data must be finite")


def aggregate(obj, mapping: AggregationMap):
    """Aggregate a vector, matrix (by rows), or exchange economy.

    Aggregation conserves totals exactly: the sum of the image equals the
    sum of the preimage.
    """
    if isinstance(obj, ExchangeEconomy):
        return ExchangeEconomy(mapping.apply(obj.C), mapping.apply(obj.B))
    return mapping.apply(obj)


def aggregate_accounts(acc: IOAccounts, mapping: AggregationMap, pi=None) -> IOAccounts:
    """Block-sum value accounts.  ``pi`` for the merged industries defaults
    to the gross-output-weighted average of the original shares, whose
    weights are the merged gross outputs.  A block sum that overflows raises
    ValueError "aggregated data must be finite", as in
    :meth:`AggregationMap.apply`."""
    if mapping.n != acc.m:
        raise BlockMismatch(f"map covers {mapping.n} industries, table has {acc.m}")
    X_u = mapping.apply(mapping.apply(acc.X).T).T
    Xout_u = mapping.apply(acc.Xout)
    if pi is None:
        pi_u = np.empty(mapping.m)
        for j, b in enumerate(mapping.blocks):
            # pi <= 1, so the weighted sum is at most the finite Xout_u[j]
            shares = acc.pi[list(b)]
            if Xout_u[j] > 0:
                pi_u[j] = float(shares @ acc.Xout[list(b)] / Xout_u[j])
            else:
                pi_u[j] = float(shares.mean())
    else:
        pi_u = np.asarray(pi, dtype=float)
    return IOAccounts(
        X=X_u,
        Xout=Xout_u,
        Cf=mapping.apply(acc.Cf),
        E=mapping.apply(acc.E),
        Imp=mapping.apply(acc.Imp),
        pi=pi_u,
    )


def check_aggregation_agreement(
    econ: ExchangeEconomy,
    p0,
    mapping: AggregationMap,
    p_u,
    tol: float = DEFAULT_TOL,
) -> bool:
    """True when the aggregated clearing inequalities at ``p_u`` hold and
    their equality pattern matches the aggregation of the disaggregated
    equilibrium at ``p0``."""
    report, y, _ = _clearing(econ, _normalized_price(p0, econ.n), tol)
    if not report.is_equilibrium:
        raise NotAnEquilibrium(
            f"p0 is not an equilibrium (violations on {report.violated_set})"
        )
    C_u = mapping.apply(econ.C)
    B_u = mapping.apply(econ.B)
    psi_u = B_u.sum(axis=1)
    equal_disagg = _positions(_classify(C_u @ y - psi_u, psi_u, tol)[0])

    report_u = check_equilibrium(ExchangeEconomy(C_u, B_u), p_u, tol=tol)
    if not report_u.is_equilibrium:
        return False
    return equal_disagg == report_u.equality_set


def build_exchange_from_iot(acc: IOAccounts, p, x) -> ExchangeEconomy:
    """Underlying exchange economy with ``2m + 1`` agents.

    Conversion to physical units uses the declared prices ``p`` (finite,
    > 0) and gross outputs ``x`` (finite, >= 0).  Agent layout: industries
    0..m-1 supply their own output and demand intermediate inputs;
    households m..2m-1 supply the intermediate use of their industry's good
    and demand the final-consumption pattern, weighted by resource income
    plus the untaxed share of new value; the last agent is foreign trade
    (supplies imports, demands exports).

    Degenerate agents (zero output, no inputs, or a vacuous trade agent)
    produce zero demand columns; price evaluations on such economies raise
    ``ZeroDemandValue`` when they touch them.  The interindustry balance is
    reported by :meth:`IOAccounts.balance_residual`, not enforced here.

    A final-demand total that overflows raises ValueError "D must be
    finite", as in :func:`demand_vector`.  So does, with its own message and
    no numpy warning, a technical coefficient ``X / (p x)`` that leaves the
    float range, a total gross output value that overflows (the household
    weights divide by it), and any other entry of the physical economy
    that overflows.
    """
    m = acc.m
    p = _vector(p, m, "p")
    if (p <= 0).any():
        raise ValueError("conversion prices must be strictly positive")
    x = _vector(x, m, "x")

    with _quiet():
        _final_totals(acc)
        A = np.zeros((m, m))
        live = x > 0
        A[:, live] = acc.X[:, live] / (p[:, None] * x[None, live])
        _finite(A, "technical coefficients X / (p x) must be finite")
        cf = acc.Cf / p
        e = acc.E / p
        imp = acc.Imp / p

        new_value = x * (p - A.T @ p)
        resource = A @ x
        resource_income = p * resource
        total_value = _finite(
            float(resource_income.sum() + new_value.sum()), "gross output value must be finite"
        )
        if total_value <= 0:
            raise ZeroDenominator("gross output value")
        weights = ((1.0 - acc.pi) * new_value + resource_income) / total_value
        if (weights < 0).any():
            bad = int(np.argmin(weights))
            raise ValueError(
                f"industry {bad} has negative untaxed new value; cannot form "
                "household demand weights"
            )

        C = np.zeros((m, 2 * m + 1))
        B = np.zeros((m, 2 * m + 1))
        C[:, :m] = A * x[None, :]
        B[:, :m] = np.diag(x)
        C[:, m:2 * m] = cf[:, None] * weights[None, :]
        B[:, m:2 * m] = np.diag(resource)
        C[:, 2 * m] = e
        B[:, 2 * m] = imp
    message = "the economy in physical units must be finite"
    return ExchangeEconomy(_finite(C, message), _finite(B, message))


@dataclass(frozen=True)
class ValueBalanceReport:
    """Per-industry residuals of the value-form clearing inequalities.

    ``residual`` is demand-side minus supply-side, so positive entries are
    violations; the economy is in the aggregated equilibrium state iff all
    residuals are below the tolerance band.
    """

    residual: np.ndarray
    violated: tuple[int, ...]
    is_equilibrium: bool
    tol: float


def check_value_equilibrium(acc: IOAccounts, tol: float = DEFAULT_TOL) -> ValueBalanceReport:
    """Evaluate the value-form clearing inequalities industry by industry.

    The residual is the demand deficit ``D_k - S_k`` of the recession
    diagnostics: production demand (the taxed value added spread over input
    flows) + household demand + export demand, minus gross output +
    imports.  Verdict:
    equilibrium iff every residual is at most ``tol * max(1, S_k)``.  A
    non-finite ``D`` or ``S`` raises ValueError, as in the recession
    diagnostics; ``D`` is refused so by :func:`demand_vector`, which forms it.
    """
    with _quiet():
        residual, _, _, violated = _shortfall(_demand(acc, _input_value(acc)), _supply(acc), tol)
    return ValueBalanceReport(
        residual=residual,
        violated=_positions(violated),
        is_equilibrium=not violated.any(),
        tol=tol,
    )


@dataclass(frozen=True)
class NationalEquilibrium:
    """Result of the constructive national equilibrium solve.

    ``y`` has ``m + 2`` components (industry scales, household scale, trade
    scale); ``p`` is the certified-or-candidate price vector at max-norm 1;
    ``I``/``J`` split the industries into equality and strict-slack sets.
    ``certified`` is true only when the spectral radius is one within
    tolerance, the price solves the value equations, the household/trade
    closure identities hold at ``p``, and prices vanish on ``J``.
    """

    y: np.ndarray
    p: np.ndarray
    rho: float
    I: tuple[int, ...]
    J: tuple[int, ...]
    certified: bool
    diagnostics: dict = field(compare=False)


def solve_national_equilibrium(
    acc: IOAccounts, tol: float = DEFAULT_TOL, strict: bool = True
) -> NationalEquilibrium:
    """Run the constructive equilibrium procedure on value accounts.

    Steps:

    (a) find nonnegative scales ``y`` with ``[X | Cf | E] y`` reproducing
        supply plus taxed use.  The guaranteed seed ``(1 + pi, 1, 1)``,
        whose residual is minus :meth:`IOAccounts.balance_residual` (its
        ``X pi`` cancels the target's), is used whenever it fits within
        ``CONE_TOL``; otherwise ``[X | Cf | E]`` is built for a nonnegative
        least-squares fit.  Both run in units of the largest target entry
        (as does a :class:`NotInCone` from the fit), free of the table's scale.
    (b) form the price system ``M = diag(y/pi) A^T`` of the value equations
        ``M p = p``, as ``M^T`` in place in the coefficient matrix ``A``, the
        solve's only m x m float buffer.  ``M`` is similar to the scaled
        production matrix ``A(y)[i, j] = a_ij y_j / pi_i``.  Test its graph
        once for irreducibility, and compute its spectral radius and Perron
        vector ``p`` in one call to the verified eigen kernel, whose start
        vector, the unit price, answers a certified table with no power
        step; otherwise the order of ``M`` sets the kernel's route (the
        spectral radius of a reducible ``M`` comes from its full spectrum).
    (c) check ``p`` with ``A^T p = (X^T p) / Xout`` from one product with ``X``.
    (d) check the closure identities for the household and trade scales
        and the positivity side conditions.

    The diagnostics name the kernel's path in ``perron_method``.

    A total of final consumption, exports or imports that overflows
    raises ValueError "D must be finite" before the fit, as it does in every
    value-form call; so, with their own messages, do a target
    ``Xout + Imp + X pi``, a column of the fit in units of the largest
    target entry and a coefficient ``X / Xout`` that leave the float range.
    numpy warns of nothing: an overflow in the seed test, the eigen kernel
    or the checks at ``p`` reads inf or NaN and fails that test.

    Every share must be positive, after the override of
    :func:`demand_vector` that gives an industry buying no inputs an
    effective share of 0 (with the same warning), and at least
    ``2 max(1, y) max(1, A)`` over the largest float, so that no entry of
    ``y/pi`` or of the price system can overflow when divided by it;
    otherwise :class:`ZeroDenominator` names the positions, before any
    division by them.  A table with no
    intermediate flows at all has ``A(y) = 0`` whatever the shares, so its
    configured shares stand and the solve reports ``rho = 0``.

    The solve never rescales ``y`` to force the spectral radius to one: it
    certifies or it reports.  With ``strict=True`` a spectral radius away
    from one raises :class:`RhoNotOne` (the exception carries the partial
    solution); ``strict=False`` returns the uncertified solution for
    inspection.
    """
    _check_tol(tol)
    m = acc.m
    with _quiet():
        _, e_total, imp_total = _final_totals(acc)
        live = _input_value(acc) > 0  # a column sum that overflows is inf
        pi = _effective_pi(acc, live) if np.logical_or.reduce(live) else acc.pi
        # One minimum decides both share guards (once the first passes, pi
        # holds the configured shares); positions are listed only to raise.
        low = float(np.minimum.reduce(pi))
        if low <= 0:
            raise ZeroDenominator(
                f"pi at positions {np.flatnonzero(pi <= 0).tolist()} "
                "(taxation shares must be positive here)"
            )
        taxed_use = acc.X @ acc.pi
        target = acc.Xout + acc.Imp + taxed_use
        unit = _check_entries(target, "supply plus taxed use") or 1.0
        # a residual that overflows, before or after the division, does not fit
        residual = _net_use(acc) - acc.Xout
        seed_used = bool(
            np.hypot.reduce(residual / unit, initial=0.0)
            <= CONE_TOL * np.hypot.reduce(target / unit, initial=0.0)
        )
        if seed_used:
            y = np.ones(m + 2)
            y[:m] += acc.pi
        else:
            C_big = np.column_stack([acc.X, acc.Cf, acc.E])
            scaled = _finite(C_big / unit, "[X | Cf | E] over the largest target entry must be finite")
            y = _solve_nonneg(scaled, target / unit).y
            residual = C_big @ y - target
            del C_big, scaled

        fit_tol = max(tol, CONE_TOL)
        inside, below, over = _classify(residual, target, fit_tol)
        if np.logical_or.reduce(over):
            raise NotInCone(
                float(residual[over].max()), fit_tol * max(1.0, float(target[over].max()))
            )
        I, J = _positions(inside), _positions(below)

        # No entry of y/pi or of M = diag(y/pi) A^T exceeds
        # max(1, y) max(1, A) / pi_i, so a share that puts twice that bound
        # out of the float range is refused, as a zero share is.
        # M^T = A diag(y/pi) is then scaled in place in A's buffer.
        produces = acc.Xout > 0  # the columns of A, and entries of A^T p, that can be nonzero
        M_T = _coefficients(acc, produces)
        top = _finite(
            float(np.maximum.reduce(M_T, axis=None)), "technical coefficients X / Xout must be finite"
        )
        bound = 2.0 * max(1.0, float(np.maximum.reduce(y[:m]))) * max(1.0, top)
        if low * sys.float_info.max < bound:
            raise ZeroDenominator(
                f"pi at positions {np.flatnonzero(acc.pi * sys.float_info.max < bound).tolist()} "
                "(taxation shares too small: dividing by them can overflow)"
            )
        scale = y[:m] / acc.pi
        M_T *= scale
        M = M_T.T

        # The kernel's products and the sums at p can overflow where M's
        # entries do not: an overflow reads inf or NaN, which fails its check.
        # One eigen call on M serves the spectral radius and the prices.
        reducible = not _irreducible(M)
        rho_m, p, _, _, method = _dominant(M)
        rho = float(np.abs(np.linalg.eigvals(M)).max()) if reducible else rho_m
        # A^T p = (X^T p) / Xout, 0 on the columns of zero output, takes one
        # product with X, and M p follows from it.
        input_value_at_p = np.divide(p @ acc.X, acc.Xout, out=np.zeros(m), where=produces)
        Mp = scale * input_value_at_p
        household_income = float(((1.0 - acc.pi) * acc.Xout) @ p + p @ taxed_use)

    diag: dict = {
        "rho_gap": abs(rho - 1.0),
        "rho_price_system": rho_m,
        "price_eigen_residual": float(np.maximum.reduce(np.abs(Mp - rho_m * p))),
        "value_equation_residual": float(np.maximum.reduce(np.abs(Mp - p))),
        "perron_method": method,
        "seed_used": seed_used,
        "scales_residual": float(np.maximum.reduce(np.abs(residual))),
        "reducible": reducible,
        "input_value_min": float(np.minimum.reduce(input_value_at_p, initial=np.inf)),
    }

    cf_value = float(acc.Cf @ p)
    e_value = float(acc.E @ p)
    imp_value = float(acc.Imp @ p)

    closure_tol = max(RHO_TOL, tol)
    if cf_value > DEFAULT_TOL_POS:
        household_scale = household_income / cf_value
        diag["closure_household"] = abs(household_scale - y[m]) / max(1.0, abs(y[m]))
    else:
        diag["closure_household"] = np.inf
    if e_value > DEFAULT_TOL_POS:
        trade_scale = imp_value / e_value
        diag["closure_trade"] = abs(trade_scale - y[m + 1]) / max(1.0, abs(y[m + 1]))
    elif e_total + imp_total == 0.0:
        diag["closure_trade"] = 0.0  # vacuous trade agent
    else:
        diag["closure_trade"] = np.inf

    prices_vanish_on_J = bool(np.logical_and.reduce(p[below] <= DEFAULT_TOL_POS))
    positivity_ok = cf_value > DEFAULT_TOL_POS and (
        e_value > DEFAULT_TOL_POS or e_total + imp_total == 0.0
    )
    certified = (
        abs(rho - 1.0) <= RHO_TOL
        and diag["value_equation_residual"] <= RHO_TOL
        and diag["closure_household"] <= closure_tol
        and diag["closure_trade"] <= closure_tol
        and positivity_ok
        and prices_vanish_on_J
    )
    diag["positivity_ok"] = positivity_ok
    diag["prices_vanish_on_J"] = prices_vanish_on_J

    result = NationalEquilibrium(
        y=y, p=p, rho=rho, I=I, J=J, certified=certified, diagnostics=diag
    )
    if strict and abs(rho - 1.0) > RHO_TOL:
        raise RhoNotOne(rho, solution=result)
    return result
