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
``D`` (ValueError "D must be finite") only when one of its terms, or the
taxed value per unit of input, overflows.
An industry that buys no inputs has no input column to spread its taxed
value over, so :func:`demand_vector` gives it an effective taxation share
of 0 (its whole new value funds households) and warns with a
``RuntimeWarning`` naming it; without that the identity would fail by
``pi_i * Xout_i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveGDP
from .exchange import _finite, _positions, _quiet
from .leontief import IOAccounts, _demand, _shortfall, _supply, demand_vector, supply_vector

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
    gdp = acc.gross_value_added()
    with _quiet():
        deficit, _, strict, _ = _shortfall(_demand(acc), _supply(acc), tol)
        return _ratio(np.abs(deficit[strict]), gdp)


def _ratio(shortfall: np.ndarray, gdp: float) -> float:
    """``r`` from the shortfalls and the gross value added, inside the
    caller's ``with _quiet():``; raises ValueError unless both ``gdp`` and
    ``r`` are finite, and :class:`NonpositiveGDP` unless ``gdp > 0``."""
    _finite(gdp, "gross value added must be finite")
    if gdp <= 0:
        raise NonpositiveGDP(f"gross value added {gdp:.6g} is not positive")
    return _finite(float(shortfall.sum()) / gdp, "r must be finite")


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
    industries hit hardest for their size); ``mode='contributing'`` orders
    by absolute shortfall.  Industries without a registry name are labelled
    by their numeric index.  ``k`` must be nonnegative.
    """
    position = {index: pos for pos, index in enumerate(report.indices)}
    return _ranked(report, [position[i] for i in report.recession_set], k, mode)


def _ranked(
    report: RecessionReport, positions: list[int], k: int, mode: str
) -> list[RankedIndustry]:
    """:func:`rank_industries` given the table positions of the recession
    set, in its order."""
    if mode not in ("sensitive", "contributing"):
        raise ValueError(f"mode must be 'sensitive' or 'contributing', got {mode!r}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    reduction = -report.deficit[positions]
    if mode == "contributing":
        key = reduction
    else:
        gross = report.gross_output[positions]
        with _quiet():  # a ratio that overflows is inf, as for a zero gross output
            key = np.divide(reduction, gross, out=np.full(len(positions), np.inf), where=gross > 0)
    # sorted() is stable, so ties keep the order of the recession set
    order = sorted(range(len(positions)), key=key.tolist().__getitem__, reverse=True)
    rows = []
    for j in order[:k]:
        pos = positions[j]
        rows.append(
            RankedIndustry(
                index=report.indices[pos],
                name=report.names[pos] or str(report.indices[pos]),
                demand_reduction=float(reduction[j]),
                gross_output=float(report.gross_output[pos]),
                imports=float(report.imports[pos]),
                exports=float(report.exports[pos]),
            )
        )
    return rows


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
    """
    with _quiet():
        D = _demand(acc)
        S = _supply(acc)
        deficit, _, strict, _ = _shortfall(D, S, tol)
        positions = strict.nonzero()[0].tolist()
        gdp = acc.gross_value_added()
        r = _ratio(np.abs(deficit[strict]), gdp)
    if indices is None:
        indices = tuple(range(1, acc.m + 1))
    else:
        indices = tuple(int(i) for i in indices)
        if len(indices) != acc.m:
            raise ValueError(f"indices must have length {acc.m}, got {len(indices)}")
        if len(set(indices)) != acc.m:
            raise ValueError("indices must be distinct")
    if names is None:
        names = tuple(map(str, indices))
    else:
        names = tuple(str(nm) for nm in names)
        if len(names) != acc.m:
            raise ValueError(f"names must have length {acc.m}, got {len(names)}")

    report = RecessionReport(
        D=D,
        S=S,
        deficit=deficit,
        recession_set=tuple(indices[pos] for pos in positions),
        r=r,
        gdp=gdp,
        rankings={},
        tol=tol,
        indices=indices,
        names=names,
        gross_output=acc.Xout,
        imports=acc.Imp,
        exports=acc.E,
    )
    rankings = {
        "sensitive": _ranked(report, positions, top, "sensitive"),
        "contributing": _ranked(report, positions, top, "contributing"),
    }
    object.__setattr__(report, "rankings", rankings)
    return report
