"""Structure of the endowments that make a given price an equilibrium.

Fixing the demand matrix ``C`` and a price vector ``p`` whose support is
``I``, every property matrix that clears the market decomposes into three
parts: a rank-one "proportional to total supply" term, a combination of
zero-value transfer directions supported on ``I`` (the clearing basis), and
transfers supported off the price support.  This module synthesizes
endowments from such parts, decomposes given endowments back, builds the
equivalent redistribution that makes the equilibrium degenerate (prices off
the support become arbitrary), and computes the real-money-value indicator
that degeneracy erodes.

Index sets are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySupport,
    NegativeEndowment,
    NoMoneySupply,
    NotAnEquilibrium,
    RankDeficiency,
    SupportMismatch,
)
from .exchange import (
    DEFAULT_TOL,
    DEFAULT_TOL_POS,
    ExchangeEconomy,
    _check_consumers,
    _check_entries,
    _check_tol,
    _classify,
    _clearing,
    _finite,
    _normalized_price,
    _proportional,
    _quiet,
    _unit_price,
)

DEFAULT_RANK_TOL = 1e-8

__all__ = [
    "RepresentationParts",
    "ClearingBasis",
    "DegenerateTransform",
    "clearing_basis",
    "synthesize_property",
    "decompose_property",
    "is_equivalent",
    "degenerate_transform",
    "degeneracy_multiplicity",
    "real_money_value",
]


def _index_set(I, n: int) -> tuple[int, ...]:
    idx = tuple(sorted(map(int, I)))
    if len(set(idx)) != len(idx):
        raise ValueError(f"index set has duplicates: {I}")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"index set {I} out of range for n = {n}")
    return idx


def _positive_support(q: np.ndarray, I, tol_pos: float = 0.0) -> tuple[int, ...]:
    """The sorted support ``I``; raises unless it is nonempty and ``q``
    exceeds ``tol_pos`` on it."""
    idx = _index_set(I, q.shape[0])
    if not idx:
        raise EmptySupport("the price support I is empty")
    if q[list(idx)].min() <= tol_pos:
        raise SupportMismatch(f"prices must exceed {tol_pos} on I = {idx}")
    return idx


def _exact_support(q: np.ndarray, I) -> tuple[tuple[int, ...], np.ndarray]:
    """The support ``I`` and a boolean mask of its complement; raises unless
    ``I`` is exactly where ``q`` exceeds ``DEFAULT_TOL_POS``."""
    idx = _positive_support(q, I, DEFAULT_TOL_POS)
    # q exceeds the threshold on all of I, so I is exact iff it does nowhere else
    off = q <= DEFAULT_TOL_POS
    if np.count_nonzero(off) + len(idx) != q.shape[0]:
        raise SupportMismatch(
            f"price support must be exactly I = {idx} (tol_pos = {DEFAULT_TOL_POS})"
        )
    return idx, off


def _check_case(case: str, name: str = "case") -> None:
    if case not in ("exact", "partial"):
        raise ValueError(f"{name} must be 'exact' or 'partial', got {case!r}")


def _cleared_support(
    econ: ExchangeEconomy, p, I, case: str, tol: float, name: str = "case"
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The normalized price, its exact support ``I`` with the complement
    mask, the demand scales ``y``, the scaled demand ``C y`` and the demand
    values ``C^T q``; raises NotAnEquilibrium unless demand never exceeds
    supply at ``p``, with no deficit at all in the ``exact`` case and none
    on the support in the ``partial`` one."""
    _check_case(case, name)
    q = _normalized_price(p, econ.n)
    idx, off = _exact_support(q, I)
    report, y, demand_value = _clearing(econ, q, tol)
    if report.violated_set:
        raise NotAnEquilibrium(f"demand exceeds supply on goods {report.violated_set}")
    if case == "exact" and report.strict_set:
        raise NotAnEquilibrium(
            f"strict deficits on goods {report.strict_set}; use the partial case"
        )
    if report.strict_set:
        on_support = sorted(set(report.strict_set) & set(idx))
        if on_support:
            raise NotAnEquilibrium(f"deficits on the price support {on_support}")
    return q, idx, off, y, report.demand, demand_value


@dataclass(frozen=True)
class RepresentationParts:
    """Ingredients of the endowment representation.

    ``y``: demand scales solving ``sum_i y_i C_i = psi_bar``.
    ``a``: expansion coefficients of the on-support transfers in the
    clearing basis, shape ``(|I|, l)``, each row summing to 1 across
    consumers.
    ``d0``: off-support transfers, shape ``(n, l)``, identically zero on the
    rows in ``I``; columns sum to zero in the ``exact`` case and to a
    nonnegative vector in the ``partial`` (deficit-carrying) case.
    Decomposed parts meet these laws to the clearing band of their ``tol``.
    """

    y: np.ndarray
    a: np.ndarray
    d0: np.ndarray
    I: tuple[int, ...]
    case: str = "exact"

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).reshape(-1))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "d0", np.asarray(self.d0, dtype=float))
        object.__setattr__(self, "I", _index_set(self.I, self.d0.shape[0]))
        _check_case(self.case)

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        """Raise ValueError when an invariant is broken, an entry is not
        finite or ``tol`` is negative, NaN or infinite."""
        _check_tol(tol)
        n, l = self.d0.shape
        if self.y.shape != (l,) or self.a.shape != (len(self.I), l):
            raise ValueError(
                f"inconsistent shapes: y {self.y.shape}, a {self.a.shape}, "
                f"d0 {self.d0.shape}, |I| = {len(self.I)}"
            )
        _check_entries(self.y, "y")
        _finite(self.a, "a must be finite")
        _finite(self.d0, "d0 must be finite")
        col_sums = self.a.sum(axis=1)
        if np.abs(col_sums - 1.0).max(initial=0.0) > 1e-12:
            raise ValueError("each clearing-basis coefficient row must sum to 1")
        if self.I and self.d0[list(self.I)].any():
            raise ValueError("d0 must vanish on the support rows")
        row_sums = self.d0.sum(axis=1)
        scale = max(1.0, float(np.abs(self.d0).max(initial=0.0)))
        if self.case == "exact":
            if np.abs(row_sums).max(initial=0.0) > tol * scale:
                raise ValueError("d0 columns must sum to zero in the exact case")
        elif row_sums.min(initial=0.0) < -tol * scale:
            raise ValueError("d0 column sums must be nonnegative in the partial case")


@dataclass(frozen=True)
class ClearingBasis:
    """Zero-value transfer directions on the price support.

    Column ``j`` is ``g_s = e_s - (p_s / sum_{t in I} p_t) * e_I`` for the
    j-th support index ``s``.  The columns have zero value at any price
    agreeing on ``I``, sum to the zero vector, and span a space of dimension
    ``|I| - 1`` by construction: its rows in ``I`` form the oblique
    projector ``E - 1 u^T`` with ``u = p_I / sum(p_I)``, whose kernel is
    exactly ``span(1)`` (as ``u^T 1 = 1``) and whose nonzero singular values
    are 1 and ``sqrt(|I|) |u|_2``, all in ``[1, sqrt(|I|)]``; other rows are 0.
    """

    G: np.ndarray
    I: tuple[int, ...]

    @property
    def rank(self) -> int:
        return max(len(self.I) - 1, 0)


def clearing_basis(p, I) -> ClearingBasis:
    """Build the clearing basis (rank ``|I| - 1``, see :class:`ClearingBasis`)
    for price vector ``p`` on support ``I``."""
    q = _unit_price(p)
    idx = _positive_support(q, I)
    rows = list(idx)
    u = _weights(_in_units(q)[0], idx)
    G = np.zeros((q.shape[0], len(rows)))
    G[rows] = -u
    G[rows, range(len(rows))] = 1.0 - u
    return ClearingBasis(G=G, I=idx)


def _weights(q: np.ndarray, idx) -> np.ndarray:
    """The weights ``u = p_I / sum(p_I)`` of :class:`ClearingBasis`, on a
    checked support, from the price in the units of :func:`_in_units`."""
    q_I = q[list(idx)]
    return q_I / q_I.sum()


def _in_units(q: np.ndarray) -> tuple[np.ndarray, float]:
    """The price ``q`` in units of the power of two at or below ``max(q)``,
    so that no entry exceeds 2, and that unit.  Scaling by a power of two
    rounds nothing (above the subnormal range), so a ratio of values at
    ``q``, as the weights of the clearing basis or the shares of the
    rank-one part, is the same to the bit; in these units a sum of prices
    cannot overflow, and a value ``<v, q>`` only when ``2 sum(v)`` does."""
    unit = 2.0 ** (math.frexp(q.max())[1] - 1)
    return q / unit, unit


def _supply_value(psi_bar: np.ndarray, q: np.ndarray) -> float:
    """``<psi_bar, q>`` at a price in the units of :func:`_in_units`;
    raises ValueError, with no numpy warning, when it overflows."""
    with _quiet():
        return _finite(float(psi_bar @ q), "the value <sum_i y_i C_i, p> overflows at this price")


def synthesize_property(
    C,
    p,
    parts: RepresentationParts,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Build the property matrix realised by ``parts`` at price ``p``.

    The result clears the market at ``p`` by construction: every column has
    value ``y_i <C_i, p>`` and the columns sum to ``sum_i y_i C_i`` plus the
    declared off-support slack.  Negative entries mean the chosen
    coefficients are infeasible; the function raises instead of projecting,
    because projection would silently destroy the clearing property.
    Magnitudes below the negativity tolerance are snapped to zero.  A
    non-finite entry of ``C`` raises ValueError, and so does, before any
    division and with no numpy warning, a scaled demand ``sum_i y_i C_i``,
    bundle value ``<C_i, p>`` or total value ``<sum_i y_i C_i, p>`` that
    overflows, the last in the units of the largest price that the
    rank-one shares and the clearing-basis weights are formed in; so does
    an entry of the result that overflows.
    """
    C = _finite(np.asarray(C, dtype=float), "C must be finite")
    parts.validate(tol=tol)
    n, l = C.shape
    if parts.d0.shape != (n, l):
        raise ValueError(f"d0 shape {parts.d0.shape} does not match C {C.shape}")
    q = _normalized_price(p, n)
    _exact_support(q, parts.I)
    with _quiet():  # each overflow is refused
        psi_bar = _finite(C @ parts.y, "sum_i y_i C_i overflows on goods {}")
        demand_value = C.T @ q
        _check_supplied(psi_bar, parts.I)
        if not demand_value.min(initial=np.inf) > DEFAULT_TOL_POS:
            raise ValueError("every consumer must demand something on the support")
        _check_consumers(C, demand_value)
        q, unit = _in_units(q)
        P = _proportional(psi_bar, parts.y * (demand_value / unit), _supply_value(psi_bar, q))
        B = _assemble(P, _weights(q, parts.I), parts)
    return _finite(B, "the synthesized property matrix must be finite")


def _check_supplied(psi_bar: np.ndarray, I) -> None:
    """Raise ValueError unless the scaled demand ``psi_bar = C y`` is
    positive on the support ``I``."""
    if (psi_bar[list(I)] <= 0).any():
        raise ValueError("sum_i y_i C_i must be strictly positive on the support")


def _assemble(P: np.ndarray, u: np.ndarray, parts: RepresentationParts) -> np.ndarray:
    """The property matrix of validated ``parts`` with the rank-one part
    ``P`` of :func:`exchange._proportional` and the clearing basis of
    weights ``u``, whose rows in ``I`` are ``G_I = E - 1 u^T`` and others 0,
    so ``G a`` adds ``a - u^T a`` to the rows in ``I`` without forming ``G``;
    magnitudes below the negativity tolerance are snapped to zero."""
    B = P + parts.d0
    B[list(parts.I)] += parts.a - u @ parts.a
    size = np.abs(B)
    neg_tol = 1e-12 * max(1.0, float(size.max()))
    if B.min() < -neg_tol:
        k, i = np.unravel_index(np.argmin(B), B.shape)
        raise NegativeEndowment(int(k), int(i), float(B[k, i]))
    B[size < neg_tol] = 0.0
    return B


def decompose_property(
    econ: ExchangeEconomy,
    p,
    I,
    case: str = "exact",
    tol: float = DEFAULT_TOL,
) -> tuple[RepresentationParts, float]:
    """Split the economy's endowments into representation parts at ``p``.

    ``case='exact'`` requires demand to equal supply in every good;
    ``case='partial'`` allows strict deficits off the support.  Returns the
    parts and the relative reconstruction residual of the round trip
    through the synthesis of :func:`synthesize_property` on the same
    clearing basis (which is zero up to roundoff).

    The clearing-basis expansion is gauged by the uniform ``1/l``
    symmetrisation, so repeated decompositions are deterministic.
    Raises what the clearing check of :func:`degenerate_transform` raises,
    :class:`NotAnEquilibrium` when the economy has no valued supply at
    ``p`` and ValueError when ``sum_i y_i C_i`` vanishes somewhere on ``I``.
    The shares of the rank-one part and the clearing-basis weights are
    formed in units of the largest price (see :func:`_in_units`), so a
    price at which ``<sum_i y_i C_i, p>`` or the sum of the support prices
    overflows is answered; only a scaled supply whose sum nearly leaves
    the float range raises ValueError, before any division and with no
    numpy warning.
    """
    q, idx, off, y, psi_bar, demand_value = _cleared_support(econ, p, I, case, tol)
    q, unit = _in_units(q)
    total = _supply_value(psi_bar, q)
    if total * unit <= DEFAULT_TOL_POS:  # <psi_bar, q> at unit money price, perhaps inf
        raise NotAnEquilibrium("the economy has no valued supply at this price")
    _check_supplied(psi_bar, idx)
    P = _proportional(psi_bar, y * (demand_value / unit), total)
    D = econ.B - P

    d1, d0 = D[~off], np.where(off[:, None], D, 0.0)
    # h = pinv(G_I) d1 for G_I = E - 1 u^T (kernel span(1), range u-perp):
    # pinv(G_I) d1 = b - mean(b) with b = d1 - u (u^T d1) / (u^T u); 0 if |I| = 1.
    u = _weights(q, idx)
    b = d1 - u[:, None] * (u @ d1) / (u @ u)
    a = b - b.sum(axis=0) / len(idx) + 1.0 / econ.l

    parts = RepresentationParts(y=y, a=a, d0=d0, I=idx, case=case)
    B_rt = _assemble(P, u, parts)
    residual = float(np.abs(B_rt - econ.B).max() / max(1.0, float(econ.B.max())))
    return parts, residual


def is_equivalent(B, B_bar, p, tol: float = DEFAULT_TOL) -> bool:
    """True when the two property distributions have the same per-consumer
    value at price ``p`` (an equivalent redistribution), within the
    relative band ``tol * max(1, |value under B|)``.  A non-finite entry,
    or a value or value gap that overflows at ``p``, raises ValueError."""
    B = np.asarray(B, dtype=float)
    B_bar = np.asarray(B_bar, dtype=float)
    if B.shape != B_bar.shape:
        raise DimensionMismatch(f"shapes differ: {B.shape} vs {B_bar.shape}")
    _finite(B, "B must be finite")
    _finite(B_bar, "B_bar must be finite")
    q = _normalized_price(p, B.shape[0])
    message = "the per-consumer values overflow at this price"
    with _quiet():
        gap = _finite((B_bar - B).T @ q, message)
        value = _finite(np.abs(B.T @ q), message)
    return bool(_classify(gap, value, tol)[0].all())


@dataclass(frozen=True)
class DegenerateTransform:
    """Equivalent redistribution that degenerates the equilibrium.

    After the transfer, endowments off the price support equal the scaled
    demands ``y_i C_i`` there, so any choice of off-support prices leaves
    the equilibrium (and the demand scales) intact.  The family of
    equilibrium prices through ``p`` then has dimension at least
    ``multiplicity_lower_bound = n - |I|``.
    """

    transfer: np.ndarray
    B_bar: np.ndarray
    multiplicity_lower_bound: int
    I: tuple[int, ...]
    mode: str
    y: np.ndarray


def degenerate_transform(
    econ: ExchangeEconomy,
    p,
    I,
    mode: str = "exact",
    tol: float = DEFAULT_TOL,
) -> DegenerateTransform:
    """Construct the degenerating redistribution at equilibrium price ``p``.

    ``mode='exact'`` preserves total supply (column sums of the transfer are
    zero); ``mode='partial'`` starts from a deficit-carrying equilibrium and
    shrinks off-support supply down to demand (column sums nonpositive).
    Those sums are the clearing residuals ``C y - psi``, so they meet their
    law to the clearing band of ``tol``.  Raises only what the clearing
    check raises: ValueError, DimensionMismatch, SupportMismatch or
    EmptySupport on a bad argument, ZeroDemandValue and NotAnEquilibrium.
    """
    _, idx, off, y, _, _ = _cleared_support(econ, p, I, mode, tol, "mode")
    B_bar = econ.B.copy()
    B_bar[off, :] = econ.C[off, :] * y[None, :]
    return DegenerateTransform(
        transfer=B_bar - econ.B,
        B_bar=B_bar,
        multiplicity_lower_bound=econ.n - len(idx),
        I=idx,
        mode=mode,
        y=y,
    )


def degeneracy_multiplicity(B_bar, C, y, I=None) -> int:
    """Dimension of the price family fixed by the residual columns.

    Computes ``n - rank([b_i - y_i C_i])`` with the rank read off the
    singular values at ``DEFAULT_RANK_TOL`` relative to the largest one, after
    dropping all-zero rows (which change no singular value).  When the
    support ``I`` is supplied the result is checked against the guaranteed
    lower bound ``n - |I|``.  Raises :class:`DimensionMismatch` unless ``C``
    has the shape of ``B_bar`` and ``y`` one entry per column, and
    ValueError on a non-finite entry or, with no numpy warning, a residual
    column that overflows.
    """
    B_bar = np.asarray(B_bar, dtype=float)
    C = np.asarray(C, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if C.shape != B_bar.shape or y.shape != B_bar.shape[1:]:
        raise DimensionMismatch(
            f"B_bar {B_bar.shape}, C {C.shape} and y {y.shape} do not match"
        )
    for name, arr in (("B_bar", B_bar), ("C", C), ("y", y)):
        _finite(arr, f"{name} must be finite")
    with _quiet():
        residual = _finite(B_bar - C * y[None, :], "the residual columns b_i - y_i C_i must be finite")
    sv = np.linalg.svd(residual[residual.any(axis=1)], compute_uv=False)
    rank = int((sv > DEFAULT_RANK_TOL * sv[0]).sum()) if sv.size else 0
    multiplicity = B_bar.shape[0] - rank
    if I is not None:
        bound = B_bar.shape[0] - len(_index_set(I, B_bar.shape[0]))
        if multiplicity < bound:
            raise RankDeficiency(
                f"multiplicity {multiplicity} below the guaranteed bound {bound}; "
                "rank tolerance likely misjudged"
            )
    return multiplicity


def real_money_value(p, psi) -> float:
    """Value of the non-money supply per unit of money supply.

    ``p`` passes the one price check of :class:`PriceVector` and is
    normalised to money price 1; ``psi`` must be finite and nonnegative, or
    :class:`ValueError` is raised, as it is when the value overflows.
    Under a degenerate equilibrium family this is set-valued: sample the
    off-support prices to trace the range.
    (The display defining the indicator is ambiguous about taking a
    reciprocal; this returns the ratio as shown, and callers can invert
    it.)
    """
    q = _unit_price(p)
    psi = np.asarray(psi, dtype=float).reshape(-1)
    _check_entries(psi, "psi")
    if q.shape != psi.shape:
        raise DimensionMismatch(f"p has {q.shape[0]} entries, psi {psi.shape[0]}")
    if psi[0] <= 0:
        raise NoMoneySupply(f"money supply {psi[0]!r} must be positive")
    if q[0] <= 0:
        raise ValueError("money price must be positive to normalise")
    with _quiet():
        return _finite(float(q[1:] @ psi[1:] / psi[0]), "the real money value overflows at this price")
