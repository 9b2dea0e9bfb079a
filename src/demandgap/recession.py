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
    idx = tuple(int(k) for k in np.flatnonzero(mask))
    return idx, np.abs(gap[mask])


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
    if gdp <= 0:
        raise NonpositiveGDP(f"gross value added {gdp:.6g} is not positive")
    _, shortfall = recession_industries(D, S, tol=tol)
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
    positions = [report.indices.index(i) for i in report.recession_set]
    reduction = -report.deficit
    if mode == "contributing":
        key = lambda pos: reduction[pos]
    else:
        key = lambda pos: (
            reduction[pos] / report.gross_output[pos]
            if report.gross_output[pos] > 0
            else np.inf
        )
    rows = []
    for pos in sorted(positions, key=key, reverse=True)[:k]:
        name = report.names[pos] if pos < len(report.names) else ""
        rows.append(
            RankedIndustry(
                index=report.indices[pos],
                name=name or str(report.indices[pos]),
                demand_reduction=float(reduction[pos]),
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
    """Compute the full recession diagnostic for one set of accounts."""
    D = demand_vector(acc)
    S = supply_vector(acc)
    deficit = D - S
    positions, _ = recession_industries(D, S, tol=tol)
    r = recession_ratio(acc, D, S, tol=tol)
    gdp = acc.gross_value_added()
    if indices is None:
        indices = tuple(range(1, acc.m + 1))
    else:
        indices = tuple(int(i) for i in indices)
    if names is None:
        names = tuple(str(i) for i in indices)
    else:
        names = tuple(str(nm) for nm in names)

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
