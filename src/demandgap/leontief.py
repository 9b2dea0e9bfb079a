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

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockMismatch,
    NotAnEquilibrium,
    NotInCone,
    RhoNotOne,
    ZeroDenominator,
)
from .exchange import (
    DEFAULT_TOL,
    DEFAULT_TOL_POS,
    ExchangeEconomy,
    _check_finite,
    _check_tol,
    _classify,
    _clearing,
    _hold_read_only,
    _nonneg_square,
    _normalized_price,
    _positions,
    _vector,
    check_equilibrium,
)
from .solvers import CONE_TOL, _dominant, _period, _solve_nonneg

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
        """Per-industry value of intermediate inputs (column sums of X)."""
        return self.X.sum(axis=0)

    def gross_value_added(self) -> float:
        return float(self.Xout.sum() - self.X.sum())

    def coefficients(self) -> np.ndarray:
        """Technical coefficients at unit prices: X[:, i] / Xout[i], with
        zero columns for industries with no output.

        Each entry is the one division a column-by-column loop would make:
        a zero output is replaced by 1 for the division and its column is
        zeroed afterwards.
        """
        live = self.Xout > 0
        out = self.X / np.where(live, self.Xout, 1.0)
        if not live.all():
            out[:, ~live] = 0.0
        return out

    def balance_residual(self) -> np.ndarray:
        """Interindustry balance gap: Xout - (X @ 1 + Cf + E - Imp)."""
        return self.Xout - (self.X.sum(axis=1) + self.Cf + self.E - self.Imp)

    def scaled(self, alpha: float) -> "IOAccounts":
        return IOAccounts(
            X=alpha * self.X,
            Xout=alpha * self.Xout,
            Cf=alpha * self.Cf,
            E=alpha * self.E,
            Imp=alpha * self.Imp,
            pi=self.pi,
        )


def _final_totals(acc: IOAccounts) -> tuple[float, float, float]:
    """Total final consumption, exports and imports; raises
    :class:`ZeroDenominator` when household or trade demand would divide by
    a zero total."""
    cf_total = float(acc.Cf.sum())
    if cf_total <= 0:
        raise ZeroDenominator("total final consumption")
    e_total = float(acc.E.sum())
    imp_total = float(acc.Imp.sum())
    if e_total <= 0 and imp_total > 0:
        raise ZeroDenominator("total exports (imports present)")
    return cf_total, e_total, imp_total


def _effective_pi(acc: IOAccounts, live: np.ndarray) -> np.ndarray:
    """The taxation shares with 0 for every industry that buys no inputs
    (``live`` is false: zero input column) but has taxed output
    ``pi_i * Xout_i > 0``; a ``RuntimeWarning`` addressed to the caller's
    caller names their 0-based positions."""
    if live.all():
        return acc.pi
    inputless = ~live & (acc.pi * acc.Xout > 0)
    if not inputless.any():
        return acc.pi
    warnings.warn(
        "industries at positions "
        f"{np.flatnonzero(inputless).tolist()} buy no inputs; their taxed "
        "value goes to households (effective pi = 0)",
        RuntimeWarning,
        stacklevel=3,
    )
    return np.where(inputless, 0.0, acc.pi)


def demand_vector(acc: IOAccounts) -> np.ndarray:
    """Per-industry demand in value units.

    Sum of the taxed production demand spread over input flows, the
    household demand spread over the final-consumption pattern, and the
    export demand scaled by the import/export value ratio, net of the taxed
    intermediate use.  A table with no exports and no imports has a zero
    trade term.

    An industry that buys no inputs (zero input column) has nothing to
    spread its taxed value over, so its effective taxation share is 0: all
    of its new value goes to households, which keeps total demand equal to
    total supply.  A ``RuntimeWarning`` names every industry (0-based
    position) whose share this overrides.
    """
    col = acc.input_value()
    live = col > 0
    pi = _effective_pi(acc, live)
    share = np.zeros(acc.m)
    share[live] = pi[live] * acc.Xout[live] / col[live]
    production = acc.X @ share

    cf_total, e_total, imp_total = _final_totals(acc)
    taxed_use = acc.X @ pi
    household_income = float(((1.0 - pi) * acc.Xout).sum() + taxed_use.sum())
    household = acc.Cf * household_income / cf_total

    if e_total <= 0:
        trade = np.zeros(acc.m)
    else:
        trade = acc.E * imp_total / e_total

    return production + household + trade - taxed_use


def supply_vector(acc: IOAccounts) -> np.ndarray:
    """Per-industry supply in value units: gross output plus imports."""
    return acc.Xout + acc.Imp


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
        """Block sums of a vector or of the rows of a matrix; a non-finite
        entry raises ValueError."""
        arr = np.asarray(v, dtype=float)
        if arr.shape[0] != self.n:
            raise BlockMismatch(
                f"data has {arr.shape[0]} rows, map expects {self.n}"
            )
        _check_finite(arr, "aggregated data")
        return np.stack([arr[list(b)].sum(axis=0) for b in self.blocks])


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
    to the gross-output-weighted average of the original shares."""
    if mapping.n != acc.m:
        raise BlockMismatch(f"map covers {mapping.n} industries, table has {acc.m}")
    X_u = mapping.apply(mapping.apply(acc.X).T).T
    Xout_u = mapping.apply(acc.Xout)
    if pi is None:
        pi_u = np.empty(mapping.m)
        for j, b in enumerate(mapping.blocks):
            w = acc.Xout[list(b)]
            pi_u[j] = float(acc.pi[list(b)] @ w / w.sum()) if w.sum() > 0 else float(
                acc.pi[list(b)].mean()
            )
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
    """
    m = acc.m
    p = _vector(p, m, "p")
    if (p <= 0).any():
        raise ValueError("conversion prices must be strictly positive")
    x = _vector(x, m, "x")
    _final_totals(acc)

    A = np.zeros((m, m))
    live = x > 0
    A[:, live] = acc.X[:, live] / (p[:, None] * x[None, live])
    cf = acc.Cf / p
    e = acc.E / p
    imp = acc.Imp / p

    new_value = x * (p - A.T @ p)
    resource = A @ x
    resource_income = p * resource
    total_value = float(resource_income.sum() + new_value.sum())
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
    return ExchangeEconomy(C, B)


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
    diagnostics: production demand + household demand + export demand
    minus taxed intermediate use, minus gross output + imports.  Verdict:
    equilibrium iff every residual is at most ``tol * max(1, S_k)``.
    """
    S = supply_vector(acc)
    residual = demand_vector(acc) - S
    violated = _positions(_classify(residual, S, tol)[2])
    return ValueBalanceReport(
        residual=residual,
        violated=violated,
        is_equilibrium=not violated,
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

    Steps: (a) find nonnegative scales ``y`` reproducing supply from the
    demand columns ``[X | Cf | E]`` — the guaranteed seed ``(1 + pi, 1, 1)``
    is used whenever it fits within ``CONE_TOL``, and nonnegative least
    squares runs only when it does not; (b) form the scaled production
    matrix ``A(y)[i, j] = a_ij y_j / pi_i``, test its graph once for
    irreducibility and period, and compute its spectral radius and left
    Perron vector in one call to the verified eigen kernel, which runs no
    power step when ``A(y)`` is periodic (the spectral radius of a
    reducible ``A(y)`` comes from its full spectrum); (c) read the
    candidate prices ``p ∝ left / pi`` of the value system off that
    vector; (d) check the closure identities for the household
    and trade scales and the positivity side conditions.  The diagnostics
    name the kernel's path in ``perron_method``.

    Every share must be positive, after the override of
    :func:`demand_vector` that gives an industry buying no inputs an
    effective share of 0 (with the same warning), and at least
    ``2 max(1, y) max(1, A)`` over the largest float, so that no entry of
    ``A(y)``, of the price system or of ``p`` can overflow when divided by
    it; otherwise :class:`ZeroDenominator` names the positions, before any
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
    _, e_total, imp_total = _final_totals(acc)
    live = acc.input_value() > 0
    pi = _effective_pi(acc, live) if live.any() else acc.pi
    if (pi <= 0).any():
        raise ZeroDenominator(
            f"pi at positions {np.flatnonzero(pi <= 0).tolist()} "
            "(taxation shares must be positive here)"
        )

    A = acc.coefficients()
    C_big = np.column_stack([acc.X, acc.Cf, acc.E])
    taxed_use = acc.X @ acc.pi
    target = acc.Xout + acc.Imp + taxed_use

    seed = np.concatenate([1.0 + acc.pi, [1.0, 1.0]])
    residual = C_big @ seed - target
    seed_residual = float(np.linalg.norm(residual))
    seed_used = seed_residual <= CONE_TOL * float(np.linalg.norm(target))
    if not seed_used:
        sol = _solve_nonneg(C_big, target)
        seed_used = seed_residual <= sol.residual * (1.0 + 1e-9)
        if not seed_used:
            residual = C_big @ sol.y - target
    y = seed if seed_used else sol.y
    # Each fresh m x m buffer costs about as much as the arithmetic that
    # fills it, so every large array is freed before the next is made.
    del C_big

    fit_tol = max(tol, CONE_TOL)
    inside, below, over = _classify(residual, target, fit_tol)
    if over.any():
        raise NotInCone(
            float(residual[over].max()), fit_tol * max(1.0, float(target[over].max()))
        )
    I, J = _positions(inside), _positions(below)

    # Row i of A(y), y_i and the Perron entry left_i <= 1 are divided by
    # pi_i, and M scales column i of A by y_i / pi_i.  None of these
    # quotients exceeds max(1, y) max(1, A) / pi_i, so a share that puts
    # twice that bound out of the float range is refused, as a zero share is.
    bound = 2.0 * max(1.0, float(y[:m].max())) * max(1.0, float(A.max()))
    tiny = acc.pi * sys.float_info.max < bound
    if tiny.any():
        raise ZeroDenominator(
            f"pi at positions {np.flatnonzero(tiny).tolist()} "
            "(taxation shares too small: dividing by them can overflow)"
        )

    # One eigen call on A(y)^T serves the spectral radius and the prices:
    # the price system diag(y/pi) A^T p = p has the matrix
    # M = D A(y)^T D^-1 with D = diag(1/pi), so its Perron vector is
    # left(A(y)) / pi.
    A_y = A * y[None, :m]
    A_y /= acc.pi[:, None]
    period = _period(A_y)
    reducible = not period
    rho_m, left, _, _, method = _dominant(A_y.T, period)
    if reducible:
        rho = float(np.abs(np.linalg.eigvals(A_y)).max())
    else:
        rho = rho_m
    p = left / acc.pi
    p = p / p.max()
    # M = diag(y/pi) A^T, written over A(y), which is no longer needed; as
    # the transpose of a C-ordered buffer it keeps the Fortran layout.
    M = np.multiply((y[:m] / acc.pi)[:, None], A.T, out=A_y.T)
    Mp = M @ p

    diag: dict = {
        "rho_gap": abs(rho - 1.0),
        "rho_price_system": rho_m,
        "price_eigen_residual": float(np.abs(Mp - rho_m * p).max()),
        "value_equation_residual": float(np.abs(Mp - p).max()),
        "perron_method": method,
        "seed_used": seed_used,
        "scales_residual": float(np.abs(residual).max()),
        "reducible": reducible,
    }

    cf_value = float(acc.Cf @ p)
    e_value = float(acc.E @ p)
    imp_value = float(acc.Imp @ p)
    input_value_at_p = A.T @ p
    diag["input_value_min"] = float(input_value_at_p.min(initial=np.inf))

    closure_tol = max(RHO_TOL, tol)
    if cf_value > DEFAULT_TOL_POS:
        household_scale = float(
            (((1.0 - acc.pi) * acc.Xout) @ p + p @ taxed_use) / cf_value
        )
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

    prices_vanish_on_J = bool((p[list(J)] <= DEFAULT_TOL_POS).all())
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
