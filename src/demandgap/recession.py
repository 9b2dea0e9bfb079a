"""Recession diagnostics from value-form input-output accounts.

Demand per industry is what production, households, and foreign trade
together would buy at the recorded value structure; supply is gross output
plus imports.  Industries whose demand falls short of supply create
recession pressure; the recession ratio relates the total shortfall to the
gross value added of the same table, so it is dimensionless and comparable
across countries.

Total demand always equals total supply (the production, household, and
trade terms redistribute exactly the taxed value added ``g = pi (Xout -
X^T 1)``, the rest of gross output ``Xout - g`` and the import values),
which is the strongest internal check on the formulas.  Demand is affine in
the taxation shares, ``D(pi) = D(0) + K pi``; :func:`demand_vector` gives
``K`` and evaluates that form in one product with ``X``, and refuses
``D`` (ValueError "D must be finite") only when one of its terms
overflows, or the taxed value per unit of an input value below the
smallest normal float.
An industry that buys no inputs has no input column to spread its taxed
value over, so :func:`demand_vector` gives it an effective taxation share
of 0 (its whole new value funds households) and warns with a
``RuntimeWarning`` naming it; without that the identity would fail by
``pi_i * Xout_i``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveGDP
from ._policy import _finite, _positions, _quiet
from .leontief import (
    IOAccounts,
    _demand,
    _input_value,
    _shortfall,
    _supply,
    _value_added,
    demand_vector,
    supply_vector,
)

__all__ = [
    "RecessionReport",
    "RankedIndustry",
    "demand_vector",
    "supply_vector",
    "recession_industries",
    "recession_ratio",
    "rank_industries",
    "analyze_accounts",
]


def recession_industries(D, S, tol: float = 0.0) -> tuple[tuple[int, ...], np.ndarray]:
    """Positions (0-based) of industries whose demand falls short of supply,
    with the shortfall magnitudes.

    ``tol`` widens the cut to a relative band for noisy data; the default 0
    is the strict sign test.  A non-finite entry of ``D`` or ``S`` raises
    ValueError (``D`` may be negative).
    """
    D = np.asarray(D, dtype=float).reshape(-1)
    S = np.asarray(S, dtype=float).reshape(-1)
    if D.shape != S.shape:
        raise ValueError(f"D and S lengths differ: {D.shape[0]} vs {S.shape[0]}")
    _finite(D, "D must be finite")
    _finite(S, "S must be finite")
    with _quiet():
        gap, _, strict, _ = _shortfall(D, S, tol)
    return _positions(strict), np.abs(gap[strict])


def recession_ratio(acc: IOAccounts, tol: float = 0.0) -> float:
    """Total demand shortfall over gross value added (both from the table).

    The shortfall is summed over the industries that
    :func:`recession_industries` returns at the same ``tol`` (the default 0
    is the strict sign test), so ``r`` and the recession set always agree;
    the denominator is the value added recomputed from the same table,
    never an external figure.  A table whose ``D``, gross value added or
    ``r`` is not finite raises ValueError, never a ratio of ``inf`` or 0.
    """
    with _quiet():
        return _diagnosis(acc, tol)[-1]


def _diagnosis(acc: IOAccounts, tol: float) -> tuple:
    """``D``, ``S``, the deficit ``D - S``, its strict mask at ``tol``, the
    gross value added and ``r``, from one pass of ``X``'s column sums,
    inside the caller's ``with _quiet():``.  Raises ValueError unless
    ``D``, ``gdp`` and ``r`` are finite, and :class:`NonpositiveGDP`
    unless ``gdp > 0``."""
    col = _input_value(acc)
    D = _demand(acc, col)
    S = _supply(acc)
    deficit, _, strict, _ = _shortfall(D, S, tol)
    gdp = _finite(_value_added(acc, col), "gross value added must be finite")
    if gdp <= 0:
        raise NonpositiveGDP(f"gross value added {gdp:.6g} is not positive")
    r = _finite(float(np.abs(deficit[strict]).sum()) / gdp, "r must be finite")
    return D, S, deficit, strict, gdp, r


@dataclass(frozen=True)
class RankedIndustry:
    """One row of a ranking table (demand reduction is the positive
    shortfall magnitude)."""

    index: int
    name: str
    demand_reduction: float
    gross_output: float
    imports: float
    exports: float


@dataclass(frozen=True)
class RecessionReport:
    """Full diagnostic for one table.

    ``deficit`` is ``D - S`` (negative entries create recession);
    ``recession_set`` lists the declared indices of those industries
    (1-based table positions unless the source declared its own numbering).
    ``rankings`` holds the "sensitive" and "contributing" top tables;
    ``gross_output``/``imports``/``exports`` are carried along so rankings
    can be recomputed at any cutoff.
    """

    D: np.ndarray
    S: np.ndarray
    deficit: np.ndarray
    recession_set: tuple[int, ...]
    r: float
    gdp: float
    rankings: dict
    tol: float
    indices: tuple[int, ...]
    names: tuple[str, ...]
    gross_output: np.ndarray
    imports: np.ndarray
    exports: np.ndarray


def rank_industries(report: RecessionReport, k: int, mode: str) -> list[RankedIndustry]:
    """Top-``k`` recession industries.

    ``mode='sensitive'`` orders by shortfall relative to gross output (the
    industries hit hardest for their size; an industry with no gross output
    has infinite sensitivity and comes first); ``mode='contributing'``
    orders by absolute shortfall.  Ties keep the order of the recession
    set.  Industries without a registry name are labelled by their numeric
    index.  ``k`` must be nonnegative.
    """
    position = {index: pos for pos, index in enumerate(report.indices)}
    positions = np.array([position[i] for i in report.recession_set], dtype=np.intp)
    with _quiet():
        return _ranked(report, positions, k, mode)


def _ranked(
    report: RecessionReport, positions: np.ndarray, k: int, mode: str
) -> list[RankedIndustry]:
    """:func:`rank_industries`, given the table positions of the recession
    set in its order, inside the caller's ``with _quiet():`` (a sensitivity
    that overflows is inf, as for a zero gross output)."""
    if mode not in ("sensitive", "contributing"):
        raise ValueError(f"mode must be 'sensitive' or 'contributing', got {mode!r}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    reduction = -report.deficit[positions]
    if mode == "contributing":
        key = reduction
    else:
        gross = report.gross_output[positions]
        key = np.divide(reduction, gross, out=np.full(len(positions), np.inf), where=gross > 0)
    # a stable sort of the negated key orders as sorted(..., reverse=True):
    # ties keep the order of the recession set, infinite keys come first
    top = (-key).argsort(kind="stable")[:k]
    chosen = positions[top]
    cells = zip(
        *(a.tolist() for a in (chosen, reduction[top], report.gross_output[chosen],
                               report.imports[chosen], report.exports[chosen]))
    )
    return [
        RankedIndustry(report.indices[pos], report.names[pos] or str(report.indices[pos]), *values)
        for pos, *values in cells
    ]


def analyze_accounts(
    acc: IOAccounts,
    names=None,
    indices=None,
    tol: float = 0.0,
    top: int = 4,
) -> RecessionReport:
    """Compute the full recession diagnostic for one set of accounts.

    ``indices`` (declared industry numbers, default ``1..m``) must be ``m``
    distinct integers and ``names`` (default: the indices) ``m`` labels;
    otherwise :class:`ValueError` is raised.  So is it, as in
    :func:`recession_ratio`, for a table whose ``D``, gross value added or
    ``r`` is not finite: a returned report's ``r`` and ``gdp`` are finite.
    ``X``'s column sums are formed once, for both ``D`` and ``gdp``.  The
    rankings hold the top ``top`` industries of each mode of
    :func:`rank_industries`: ties keep the order of the recession set, and
    an industry with no gross output is the most sensitive.
    """
    with _quiet():
        D, S, deficit, strict, gdp, r = _diagnosis(acc, tol)
        indices, names = _labels(acc.m, indices, names)
        positions = strict.nonzero()[0]
        rankings = {}
        report = RecessionReport(
            D=D,
            S=S,
            deficit=deficit,
            recession_set=tuple(map(indices.__getitem__, positions.tolist())),
            r=r,
            gdp=gdp,
            rankings=rankings,
            tol=tol,
            indices=indices,
            names=names,
            gross_output=acc.Xout,
            imports=acc.Imp,
            exports=acc.E,
        )
        for mode in ("sensitive", "contributing"):
            rankings[mode] = _ranked(report, positions, top, mode)
    return report


@functools.lru_cache(maxsize=16)
def _default_labels(m: int) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The default indices ``1..m`` and their strings, built once per size."""
    indices = tuple(range(1, m + 1))
    return indices, tuple(map(str, indices))


def _labels(m: int, indices, names) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The report's ``indices`` and ``names`` for a table of ``m``
    industries, checked as :func:`analyze_accounts` says."""
    if indices is None and names is None:
        return _default_labels(m)
    if indices is None:
        indices = _default_labels(m)[0]
    else:
        indices = tuple(int(i) for i in indices)
        if len(indices) != m:
            raise ValueError(f"indices must have length {m}, got {len(indices)}")
        if len(set(indices)) != m:
            raise ValueError("indices must be distinct")
    if names is None:
        names = tuple(map(str, indices))
    else:
        names = tuple(str(nm) for nm in names)
        if len(names) != m:
            raise ValueError(f"names must have length {m}, got {len(names)}")
    return indices, names
