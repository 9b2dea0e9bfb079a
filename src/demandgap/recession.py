"""Recession diagnostics from value-form input-output accounts.

Demand per industry is what production, households, and foreign trade
together would buy at the recorded value structure; supply is gross output
plus imports.  Industries whose demand falls short of supply create
recession pressure; the recession ratio relates the total shortfall to the
gross value added of the same table, so it is dimensionless and comparable
across countries.

Total demand always equals total supply (the production, household, and
trade terms redistribute exactly the taxed output, untaxed output, and
import values), which is the strongest internal check on the formulas.
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
from .leontief import IOAccounts, demand_vector, supply_vector

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
    is the strict sign test.
    """
    D = np.asarray(D, dtype=float).reshape(-1)
    S = np.asarray(S, dtype=float).reshape(-1)
    if D.shape != S.shape:
        raise ValueError(f"D and S lengths differ: {D.shape[0]} vs {S.shape[0]}")
    gap = D - S
    mask = gap < -tol * np.maximum(1.0, S)
    return tuple(np.flatnonzero(mask).tolist()), np.abs(gap[mask])


def recession_ratio(acc: IOAccounts, D=None, S=None, tol: float = 0.0) -> float:
    """Total demand shortfall over gross value added (both from the table).

    The shortfall is summed over the industries that
    :func:`recession_industries` returns at the same ``tol`` (the default 0
    is the strict sign test), so ``r`` and the recession set always agree;
    the denominator is the value added recomputed from the same table,
    never an external figure.
    """
    if D is None:
        D = demand_vector(acc)
    if S is None:
        S = supply_vector(acc)
    gdp = acc.gross_value_added()
    _, shortfall = recession_industries(D, S, tol=tol)
    return _ratio(shortfall, gdp)


def _ratio(shortfall: np.ndarray, gdp: float) -> float:
    if gdp <= 0:
        raise NonpositiveGDP(f"gross value added {gdp:.6g} is not positive")
    return float(shortfall.sum() / gdp)


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
    by their numeric index.
    """
    if mode not in ("sensitive", "contributing"):
        raise ValueError(f"mode must be 'sensitive' or 'contributing', got {mode!r}")
    position = {index: pos for pos, index in enumerate(report.indices)}
    positions = [position[i] for i in report.recession_set]
    reduction = -report.deficit[positions]
    if mode == "contributing":
        key = reduction
    else:
        gross = report.gross_output[positions]
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
    otherwise :class:`ValueError` is raised.
    """
    D = demand_vector(acc)
    S = supply_vector(acc)
    deficit = D - S
    positions, shortfall = recession_industries(D, S, tol=tol)
    gdp = acc.gross_value_added()
    r = _ratio(shortfall, gdp)
    if indices is None:
        indices = tuple(range(1, acc.m + 1))
    else:
        indices = tuple(int(i) for i in indices)
        if len(indices) != acc.m:
            raise ValueError(f"indices must have length {acc.m}, got {len(indices)}")
        if len(set(indices)) != acc.m:
            raise ValueError("indices must be distinct")
    if names is None:
        names = tuple(str(i) for i in indices)
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
        "sensitive": rank_industries(report, top, "sensitive"),
        "contributing": rank_industries(report, top, "contributing"),
    }
    object.__setattr__(report, "rankings", rankings)
    return report
