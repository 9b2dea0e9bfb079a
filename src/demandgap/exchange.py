"""Exchange economy state and market-clearing tests.

The model: ``l`` consumers trade ``n`` goods.  Consumer ``i`` owns the
endowment column ``b_i`` of the property matrix ``B`` (physical units) and
wants a bundle proportional to the demand column ``C_i`` of the demand
matrix ``C``.  Good 0 is money by convention.  At prices ``p`` the consumer
sells the endowment and buys ``y_i * C_i`` where the demand scale is

    y_i = <b_i, p> / <C_i, p>,

so each consumer exactly spends the endowment value.  Markets clear when
aggregate demand ``sum_i C_i y_i`` does not exceed total supply
``psi = sum_i b_i`` in every good, with equality on the goods that carry a
positive price.

One private helper checks each price (finite, nonnegative, nonzero) and
normalises it to unit money price, or unit max-norm when money is free,
once per call, whether it arrives as an array or a :class:`PriceVector`.

Everything here is a pure function over immutable value objects; it is safe
to evaluate in parallel over prices or economies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroDemandValue
from ._policy import (
    _as_matrix,
    _check_entries,
    _check_tol,
    _classify,
    _finite,
    _hold_read_only,
    _positions,
    _quiet,
    _warn,
)

DEFAULT_TOL = 1e-9
DEFAULT_TOL_POS = 1e-12

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_TOL_POS",
    "ExchangeEconomy",
    "PriceVector",
    "EquilibriumReport",
    "CertificateReport",
    "total_supply",
    "demand_scales",
    "excess_demand",
    "check_equilibrium",
    "verify_certificate",
]


def total_supply(B) -> np.ndarray:
    """Total supply ``psi_k = sum_i B[k, i]`` (sum over consumers).

    Zero rows are allowed here; the equilibrium checks flag them.  A
    non-finite entry, or a sum that overflows, raises ValueError.
    """
    B = _finite(_as_matrix(B, "B"), "B must be finite")
    with _quiet():
        return _finite(B.sum(axis=1), "total supply overflows on goods {}")


@dataclass(frozen=True)
class ExchangeEconomy:
    """Demand matrix ``C`` and property matrix ``B``, both ``n x l``.

    Columns index consumers, rows index goods; good 0 is money.  Entries
    must be finite and nonnegative.  Zero demand columns are tolerated at construction
    (industrial constructions can produce them) but any price evaluation
    that touches them raises :class:`ZeroDemandValue`.

    ``C`` and ``B`` are read-only views of the arrays passed in, not
    copies: the caller's arrays stay writeable, and editing them in place
    edits the economy behind its checks.
    """

    C: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        C = _as_matrix(self.C, "C")
        B = _as_matrix(self.B, "B")
        if C.shape != B.shape:
            raise DimensionMismatch(
                f"C and B must have the same shape, got {C.shape} vs {B.shape}"
            )
        _check_entries(C, "C and B")
        _check_entries(B, "C and B")
        _hold_read_only(self, C=C, B=B)

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def l(self) -> int:
        return self.C.shape[1]

    def total_supply(self) -> np.ndarray:
        """Total supply ``psi_k = sum_i B[k, i]``.  A sum that overflows
        reads inf, with no numpy warning."""
        with _quiet():
            return _total_supply(self)


def _total_supply(econ: ExchangeEconomy) -> np.ndarray:
    """:meth:`ExchangeEconomy.total_supply`, inside the caller's ``with _quiet():``."""
    return econ.B.sum(axis=1)


@dataclass(frozen=True)
class PriceVector:
    """Finite nonnegative price vector; component 0 is the money price.

    ``support`` is the set of strictly positive components, decided at
    ``DEFAULT_TOL_POS`` after normalising to unit money price when possible
    (unit max-norm otherwise).  ``p`` is a read-only view of the array
    passed in, not a copy, as in :class:`ExchangeEconomy`.  A negative,
    non-finite or all-zero price, or one whose normalisation would
    overflow, raises ValueError.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(-1)
        _unit_price(p)  # the one price check; the scaled copy is not kept
        _hold_read_only(self, p=p)

    def normalized(self) -> np.ndarray:
        """Prices scaled to money price 1 (max-norm 1 when money is free)."""
        return _unit_price(self)

    @property
    def support(self) -> tuple[int, ...]:
        q = self.normalized()
        return tuple(int(k) for k in np.flatnonzero(q > DEFAULT_TOL_POS))


def _unit_price(p) -> np.ndarray:
    """The price ``p`` (array-like or :class:`PriceVector`) scaled to money
    price 1, or to max-norm 1 when money is free.  The one check of a
    price: raises ValueError unless its entries are finite, nonnegative
    and not all zero, and, before dividing, unless ``max(p) / p[0]`` is
    finite, so the scaled price cannot overflow."""
    p = np.asarray(p.p if isinstance(p, PriceVector) else p, dtype=float).reshape(-1)
    top = _check_entries(p, "prices")
    if not top > 0.0:
        raise ValueError("price vector must be nonzero")
    unit = p[0] if p[0] > 0.0 else top
    if float(top) / float(unit) == np.inf:
        raise ValueError(
            "prices overflow at unit money price: "
            f"max(p) / p[0] = {float(top)!r} / {float(unit)!r}"
        )
    return p / unit


@dataclass(frozen=True)
class EquilibriumReport:
    """Per-good clearing diagnosis at a price vector.

    ``equality_set`` holds goods where demand meets supply within tolerance,
    ``strict_set`` goods in strict deficit, ``violated_set`` goods where
    demand exceeds supply.  The three sets partition ``range(n)``.
    ``zero_price_on_deficit`` records whether every strict-deficit good
    carries a (numerically) zero price, the consistency law tying deficits
    to worthless goods.
    """

    demand: np.ndarray
    residual: np.ndarray
    equality_set: tuple[int, ...]
    strict_set: tuple[int, ...]
    violated_set: tuple[int, ...]
    is_equilibrium: bool
    zero_price_on_deficit: bool
    tol: float

    def max_violation(self) -> float:
        if not self.violated_set:
            return 0.0
        return float(self.residual[list(self.violated_set)].max())


def _normalized_price(p, n: int) -> np.ndarray:
    """The price ``p`` at unit money price (see :meth:`PriceVector.normalized`);
    raises :class:`DimensionMismatch` unless it has ``n`` components."""
    q = _unit_price(p)
    if q.shape[0] != n:
        raise DimensionMismatch(f"price length {q.shape[0]} != good count {n}")
    return q


def _scales(econ: ExchangeEconomy, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Demand scales at the normalized price ``q``, and the values ``C^T q``,
    which are checked; a scale that overflows is infinite.  The caller
    silences numpy's overflow warning."""
    demand_value = econ.C.T @ q
    if demand_value.min(initial=np.inf) <= DEFAULT_TOL_POS:
        bad = np.flatnonzero(demand_value <= DEFAULT_TOL_POS)[0]
        raise ZeroDemandValue(int(bad), float(demand_value[bad]))
    _check_consumers(econ.C, demand_value)
    return (econ.B.T @ q) / demand_value, demand_value


_CLEARING = "the clearing check overflows at this price on goods {}"


def _market(econ: ExchangeEconomy, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """The demand scales ``y`` and values ``C^T q`` of :func:`_scales` at the
    normalized price ``q``, the aggregate demand ``C y``, the total supply
    and the residual ``C y - psi``.  Raises ValueError naming the goods
    whose residual is not finite, because a scale, the demand or the supply
    overflowed; numpy warns of nothing."""
    with _quiet():
        y, demand_value = _scales(econ, q)
        demand = econ.C @ y
        psi = _total_supply(econ)
        residual = _finite(demand - psi, _CLEARING)
    return y, demand_value, demand, psi, residual


def _check_consumers(C: np.ndarray, values: np.ndarray) -> None:
    """Raise the clearing check's ValueError naming the goods in the demand
    columns of every consumer whose entry of ``values`` (bundle values
    ``C^T q`` or demand scales, nonnegative) overflows; the goods are looked
    up only then."""
    if not math.isfinite(values.max(initial=0.0)):
        goods = C[:, ~np.isfinite(values)].any(axis=1)
        raise ValueError(_CLEARING.format(np.flatnonzero(goods).tolist()))


def _proportional(psi_bar, values, total: float) -> np.ndarray:
    """The rank-one part: the scaled supply ``psi_bar`` split among the
    consumers in shares ``values / total``, the values ``y_i <C_i, q>`` of
    their scaled bundles over ``<psi_bar, q>`` (or both in one unit)."""
    return psi_bar[:, None] * (values / total)


def _clearing(
    econ: ExchangeEconomy, q: np.ndarray, tol: float
) -> tuple[EquilibriumReport, np.ndarray, np.ndarray]:
    """The clearing verdict of :func:`check_equilibrium` at the normalized
    price ``q``, and the demand scales and values it was computed from.
    Raises ValueError, and numpy warns of nothing, when ``C^T q``,
    ``B^T q / C^T q``, ``C y`` or ``psi`` overflows, so the residual it
    classifies is finite and the three sets partition the goods."""
    y, demand_value, demand, psi, residual = _market(econ, q)

    if not psi.all():
        _warn(f"goods with zero total supply: {np.flatnonzero(psi == 0).tolist()}")

    equal, strict, violated = _classify(residual, psi, tol)
    equality_set, strict_set = _positions(equal), _positions(strict)
    violated_set = _positions(violated)
    return EquilibriumReport(
        demand=demand,
        residual=residual,
        equality_set=equality_set,
        strict_set=strict_set,
        violated_set=violated_set,
        is_equilibrium=not violated_set,
        zero_price_on_deficit=not strict_set or bool((q[strict] <= DEFAULT_TOL_POS).all()),
        tol=tol,
    ), y, demand_value


def demand_scales(econ: ExchangeEconomy, p) -> np.ndarray:
    """Demand scales ``y_i = <b_i, p> / <C_i, p>`` for every consumer.

    Raises :class:`ZeroDemandValue` when some bundle value ``<C_i, p>`` is
    not positive, which signals a violated support precondition on the
    demand matrix, and ValueError when a value or a scale overflows.
    """
    with _quiet():
        y = _scales(econ, _normalized_price(p, econ.n))[0]
    _check_consumers(econ.C, y)
    return y


def excess_demand(econ: ExchangeEconomy, p) -> np.ndarray:
    """Aggregate demand minus total supply, per good (sign of the clearing
    violation; nonpositive everywhere at an equilibrium price).  Raises
    ValueError when the arithmetic overflows."""
    return _market(econ, _normalized_price(p, econ.n))[4]


def check_equilibrium(econ: ExchangeEconomy, p, tol: float = DEFAULT_TOL) -> EquilibriumReport:
    """Classify every good as cleared, in strict deficit, or violated.

    The equality comparison is relative: ``|residual_k| <= tol * max(1,
    psi_k)``.  ``is_equilibrium`` is true iff no good is violated.  A
    ``RuntimeWarning`` names the goods with zero total supply.
    """
    return _clearing(econ, _normalized_price(p, econ.n), tol)[0]


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the equilibrium certificate check.

    ``ok`` summarises the verdict; ``failed`` names the violated clauses.
    ``diagnostics`` maps clause names to the measured discrepancies,
    including the supply-value identity ``<psi, p> == <psi_bar, p>``
    (evaluated against the satisfied supply ``psi_bar``; a literal reading
    against itself would be vacuous, so the check is reported explicitly).
    """

    ok: bool
    failed: tuple[str, ...]
    diagnostics: dict


def verify_certificate(
    econ: ExchangeEconomy,
    p,
    y,
    psi_bar,
    tol: float = DEFAULT_TOL,
) -> CertificateReport:
    """Check the certificate (y, psi_bar, p) for an equilibrium of ``econ``.

    Clauses checked, in order:

    * ``nonzero``:    y and psi_bar are nonnegative and nonzero;
    * ``cone``:       psi_bar == sum_i y_i C_i within tolerance;
    * ``bounded``:    psi_bar <= psi componentwise;
    * ``demand-value``: <C_i, p> > 0 for every consumer;
    * ``transfers``:  d_i = b_i - y_i <C_i,p>/<psi_bar,p> psi_bar has
      zero value per consumer and sums to psi - psi_bar;
    * ``supply-value``: <psi, p> == <psi_bar, p>.

    A non-finite entry of ``y`` or ``psi_bar``, or a negative, NaN or
    infinite ``tol``, raises ValueError; a negative entry fails ``nonzero``.
    A clause passes only when its measure is at most ``tol``, so a measure
    that overflows to infinity or NaN fails it, and numpy warns of nothing.
    """
    _check_tol(tol)
    y = np.asarray(y, dtype=float).reshape(-1)
    psi_bar = np.asarray(psi_bar, dtype=float).reshape(-1)
    _finite(y, "y must be finite")
    _finite(psi_bar, "psi_bar must be finite")
    q = _unit_price(p)
    if y.shape[0] != econ.l or psi_bar.shape[0] != econ.n or q.shape[0] != econ.n:
        raise DimensionMismatch(
            f"certificate dimensions (y: {y.shape[0]}, psi_bar: {psi_bar.shape[0]}, "
            f"p: {q.shape[0]}) do not match economy ({econ.n} goods, {econ.l} consumers)"
        )

    failed: list[str] = []
    diag: dict = {}

    pairs = (("y", y), ("psi_bar", psi_bar))
    zero = [
        name for name, v in pairs if not (v.min(initial=0.0) >= 0.0 and v.max(initial=0.0) > 0.0)
    ]
    if zero:
        failed.append("nonzero")
        diag["nonzero"] = "; ".join(f"{name} must be nonnegative and nonzero" for name in zero)

    with _quiet():
        psi = _total_supply(econ)
        scale = np.maximum(1.0, np.abs(psi_bar))
        cone_gap = np.abs(econ.C @ y - psi_bar)
        diag["cone"] = float((cone_gap / scale).max()) if cone_gap.size else 0.0
        if not diag["cone"] <= tol:
            failed.append("cone")

        excess = psi_bar - psi
        diag["bounded"] = float(np.maximum(excess / np.maximum(1.0, psi), 0.0).max())
        if not diag["bounded"] <= tol:
            failed.append("bounded")

        demand_value = econ.C.T @ q
        diag["demand-value"] = float(demand_value.min(initial=np.inf))
        if not diag["demand-value"] > DEFAULT_TOL_POS:
            failed.append("demand-value")
            # The transfer clause below would divide by these values.
            return CertificateReport(False, tuple(failed), diag)

        psi_bar_value = float(psi_bar @ q)
        if not psi_bar_value > DEFAULT_TOL_POS:
            failed.append("transfers")
            diag["transfers"] = "psi_bar has zero value at p"
            return CertificateReport(False, tuple(failed), diag)

        D = _proportional(psi_bar, y * demand_value, psi_bar_value)
        np.subtract(econ.B, D, out=D)  # in the rank-one part's buffer
        # B and q are nonnegative, so <b_i, q> needs no abs
        value_gap = np.abs(D.T @ q) / np.maximum(1.0, econ.B.T @ q)
        sum_gap = np.abs(D.sum(axis=1) + excess) / scale
        diag["transfers"] = float(np.maximum(value_gap.max(initial=0.0), sum_gap.max()))
        if not diag["transfers"] <= tol:
            failed.append("transfers")

        supply_value_gap = abs(float(excess @ q)) / max(1.0, abs(float(psi @ q)))
        diag["supply-value"] = supply_value_gap
        if not supply_value_gap <= tol:
            failed.append("supply-value")

    return CertificateReport(not failed, tuple(failed), diag)
