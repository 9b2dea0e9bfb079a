"""Deterministic report emission (JSON, CSV, histogram data).

Identical inputs and configuration produce byte-identical files: floats are
rounded to 6 significant digits before serialisation and the JSON field
order is fixed at {country, year, pi, D, S, deficit, recession_set, r, gdp,
rankings, diagnostics}.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict

import numpy as np

from .leontief import NationalEquilibrium, ValueBalanceReport
from .recession import RecessionReport

__all__ = [
    "round6",
    "analysis_dict",
    "equilibrium_dict",
    "to_json",
    "deficit_csv",
    "histogram_csv",
    "analysis_text",
    "equilibrium_text",
]


def round6(obj):
    """Recursively round Python and numpy floats (``np.float64`` is a
    ``float``) to 6 significant digits (report precision); arrays and tuples
    come back as lists, numpy bools and integers as Python ones.  Floats,
    the bulk of a payload, are tested first."""
    if isinstance(obj, (float, np.floating)):
        return float(f"{obj:.6g}")
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [round6(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round6(v) for v in obj]
    return obj


def analysis_dict(country: str, year: int, pi, report: RecessionReport, diagnostics=None) -> dict:
    """Recession analysis in the fixed JSON field order, rounded in one
    :func:`round6` pass."""
    return round6({
        "country": country,
        "year": year,
        "pi": np.asarray(pi, dtype=float),
        "D": report.D,
        "S": report.S,
        "deficit": report.deficit,
        "recession_set": report.recession_set,
        "r": report.r,
        "gdp": report.gdp,
        "rankings": {mode: [asdict(row) for row in rows] for mode, rows in report.rankings.items()},
        "diagnostics": diagnostics or {},
    })


def equilibrium_dict(
    country: str,
    year: int,
    pi,
    solution: NationalEquilibrium,
    balance: ValueBalanceReport,
) -> dict:
    """National equilibrium and its value-form check in the fixed JSON
    field order, rounded in one :func:`round6` pass."""
    return round6({
        "country": country,
        "year": year,
        "pi": np.asarray(pi, dtype=float),
        "rho": solution.rho,
        "certified": solution.certified,
        "equality_set": solution.I,
        "slack_set": solution.J,
        "y": solution.y,
        "p": solution.p,
        "value_residual": balance.residual,
        "violated": balance.violated,
        "diagnostics": solution.diagnostics,
    })


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def deficit_csv(report: RecessionReport) -> str:
    """Per-industry deficit table, one row per industry."""
    recession = set(report.recession_set)
    return _csv([
        ["industry_index", "industry_name", "demand", "supply", "deficit", "creates_recession"],
        *(
            [idx, name, f"{D:.6g}", f"{S:.6g}", f"{deficit:.6g}", int(idx in recession)]
            for idx, name, D, S, deficit in zip(
                report.indices, report.names, report.D, report.S, report.deficit
            )
        ),
    ])


def histogram_csv(report: RecessionReport) -> str:
    """Two-sided histogram data: supply bars on the right, demand
    shortfalls (negative deficits only) on the left, industries ordered
    upwards.  The supply column sums to gross output plus imports."""
    return _csv([
        ["industry_index", "shortfall_left", "supply_right"],
        *(
            [idx, f"{deficit if deficit < 0 else 0.0:.6g}", f"{S:.6g}"]
            for idx, deficit, S in zip(report.indices, report.deficit, report.S)
        ),
    ])


def analysis_text(country: str, year: int, report: RecessionReport) -> str:
    lines = [
        f"{country} {year}: recession ratio r = {report.r:.4f} "
        f"(gross value added {report.gdp:.6g})",
        f"recession-creating industries: {list(report.recession_set)}",
        "",
    ]
    for mode, title in (
        ("sensitive", "most sensitive (shortfall / gross output)"),
        ("contributing", "most contributing (absolute shortfall)"),
    ):
        lines.append(f"{title}:")
        lines += [
            f"  {row.index:>3} {row.name[:52]:<52} reduction {row.demand_reduction:>14.6g}"
            for row in report.rankings.get(mode, [])
        ]
    return "\n".join(lines) + "\n"


def equilibrium_text(
    country: str,
    year: int,
    solution: NationalEquilibrium,
    balance: ValueBalanceReport,
) -> str:
    lines = [
        f"{country} {year}: spectral radius {solution.rho:.9g}, "
        f"certified = {solution.certified}",
        f"equality industries: {list(solution.I)}",
        f"slack industries: {list(solution.J)}",
        f"value-form violations: {list(balance.violated)}",
        f"max value residual: {np.abs(balance.residual).max():.6g}",
    ]
    return "\n".join(lines) + "\n"
