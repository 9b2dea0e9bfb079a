"""Reference computations and output checks (numpy only).

Every check raises :class:`CheckFailed` with a message naming what differed.
The references are computed here from the model's formulas, never copied
from a run of the program.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9          # the program's default equality tolerance
RHO_TOL = 1e-6      # the national spectral-radius certificate
EIG_TOL = 1e-8      # power-iteration eigenvalues and vectors vs dense / closed form


class CheckFailed(AssertionError):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def recession(X, Xout, Cf, E, Imp, pi) -> dict:
    """D, S, deficit, recession set (0-based), r and value added, straight
    from the value-form formulas.

    Production demand spreads each industry's taxed output over its input
    flows; households spend the untaxed output plus the taxed intermediate
    use in the final-consumption pattern; the trade agent spends imports in
    the export pattern; the taxed intermediate use is netted out.
    """
    m = X.shape[0]
    inputs = X.sum(axis=0)
    per_input = np.zeros(m)
    live = inputs > 0
    per_input[live] = pi[live] * Xout[live] / inputs[live]
    taxed_use = X @ pi
    income = float(np.sum((1.0 - pi) * Xout) + np.sum(pi * inputs))
    D = X @ per_input + Cf / Cf.sum() * income + E / E.sum() * Imp.sum() - taxed_use
    S = Xout + Imp
    deficit = D - S
    gdp = float(Xout.sum() - inputs.sum())
    return dict(
        D=D, S=S, deficit=deficit, gdp=gdp,
        r=float(-deficit[deficit < 0].sum() / gdp),
        recession=np.flatnonzero(deficit < 0),
        # |deficit| inside the program's band: its sign is roundoff
        ambiguous=np.abs(deficit) <= TOL * np.maximum(1.0, S),
    )


def check_toy_reference() -> None:
    """Pin the reference on the two-industry toy table."""
    ref = recession(
        np.array([[10.0, 20.0], [30.0, 10.0]]), np.array([100.0, 100.0]),
        np.array([50.0, 30.0]), np.array([20.0, 10.0]), np.array([5.0, 15.0]),
        np.array([1.0, 1.0]),
    )
    require(np.allclose(ref["D"], [118.75, 101.25], rtol=0, atol=1e-12), "toy D")
    require(np.allclose(ref["S"], [105.0, 115.0], rtol=0, atol=1e-12), "toy S")
    require(abs(ref["r"] - 13.75 / 130.0) <= 1e-15, "toy r")
    require(list(ref["recession"]) == [1], "toy recession set")


def rankings(ref: dict, Xout, top: int = 4) -> dict:
    """Recession industries (0-based) ordered by shortfall over gross output
    and by absolute shortfall."""
    pos = [int(k) for k in ref["recession"]]
    short = -ref["deficit"]
    return {
        "sensitive": sorted(pos, key=lambda k: short[k] / Xout[k], reverse=True)[:top],
        "contributing": sorted(pos, key=lambda k: short[k], reverse=True)[:top],
    }


def a_of_y(X, Xout, pi, y) -> np.ndarray:
    """Scaled production matrix ``A(y)[i, j] = X[i, j] / Xout[j] * y_j / pi_i``."""
    return X / Xout[None, :] * y[None, : X.shape[0]] / pi[:, None]


def spectral_radius(M) -> float:
    return float(np.abs(np.linalg.eigvals(M)).max())


def check_recession(rep, ref: dict) -> None:
    """In-process diagnostics against the reference, plus their identities."""
    scale = np.maximum(1.0, ref["S"])
    require(np.all(np.abs(rep.D - ref["D"]) <= TOL * scale), "D differs from reference")
    require(np.all(np.abs(rep.S - ref["S"]) <= TOL * scale), "S differs from reference")
    require(np.all(np.abs(rep.deficit - ref["deficit"]) <= TOL * scale), "deficit differs")
    _check_recession_set(rep.recession_set, ref)
    require(abs(rep.r - ref["r"]) <= TOL * max(1.0, ref["r"]), "r differs from reference")
    require(abs(float(rep.D.sum() - rep.S.sum())) <= TOL * float(rep.S.sum()), "sum D != sum S")


def _check_recession_set(declared, ref: dict) -> None:
    """Declared (1-based) recession set against the reference, except where
    the deficit's sign is roundoff."""
    got = set(declared)
    m = ref["S"].shape[0]
    require(got <= set(range(1, m + 1)), f"recession set {sorted(got)} outside 1..{m}")
    for k in range(m):
        if not ref["ambiguous"][k]:
            require(((k + 1) in got) == (ref["deficit"][k] < 0), f"recession set at industry {k + 1}")


def check_value_balance(bal, ref: dict) -> None:
    scale = np.maximum(1.0, ref["S"])
    require(np.all(np.abs(bal.residual - ref["deficit"]) <= TOL * scale), "value residual != D - S")
    expect = [k for k in range(scale.shape[0]) if ref["deficit"][k] > TOL * scale[k]]
    require(list(bal.violated) == expect, "violated industries differ")


def check_solution(sol, X, Xout, Cf, E, Imp, pi, certifies: bool, rho_ref: float) -> None:
    """National solve: rho against the dense spectral radius of A(y) at the
    returned y, the scales against the target, and the verdict; certified
    solutions must carry positive prices solving the value equations."""
    m = X.shape[0]
    y = sol.y
    C_big = np.column_stack([X, Cf, E])
    target = Xout + Imp + X @ pi
    require(np.all(np.abs(C_big @ y - target) <= 1e-8 * np.maximum(1.0, target)), "C_big @ y misses target")
    require(abs(sol.rho - rho_ref) <= EIG_TOL * max(1.0, rho_ref), f"rho {sol.rho!r} vs dense {rho_ref!r}")
    require(bool(sol.certified) == certifies, f"certified={sol.certified}, expected {certifies}")
    if certifies:
        p = sol.p
        require(abs(sol.rho - 1.0) <= RHO_TOL, "certified rho away from 1")
        require(bool((p > 0).all()), "certified prices not positive")
        A = X / Xout[None, :]
        gap = np.abs(y[:m] * (A.T @ p) - pi * p)
        require(float(gap.max()) <= 1e-8 * float(p.max()), "prices miss y_i (A^T p)_i = pi_i p_i")


# --- CLI reports, printed at 6 significant digits ----------------------------

def _half_unit(x: float) -> float:
    """Half a unit in the 6th significant digit of ``x``."""
    if x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 5)


def close6(reported, reference, floor: float = 0.0) -> bool:
    """True when every reported value is the reference at 6 significant
    digits.  ``floor`` absorbs roundoff in values that are zero in exact
    arithmetic."""
    rep = np.atleast_1d(np.asarray(reported, dtype=float))
    ref = np.atleast_1d(np.asarray(reference, dtype=float))
    floors = np.broadcast_to(floor, ref.shape)
    if rep.shape != ref.shape:
        return False
    for a, b, f in zip(rep.tolist(), ref.tolist(), floors.tolist()):
        if float(f"{a:.6g}") != a:
            return False
        if abs(a - b) > _half_unit(b) * (1 + 1e-9) + f:
            return False
    return True


def check_report_json(doc: dict, ref: dict, Xout, country: str, year: int, names) -> None:
    """``analyze`` report against the reference (declared indices 1..m)."""
    floor = TOL * np.maximum(1.0, ref["S"])
    require(doc["country"] == country and doc["year"] == year, "report country/year")
    require(close6(doc["D"], ref["D"], floor), "report D")
    require(close6(doc["S"], ref["S"]), "report S")
    require(close6(doc["deficit"], ref["deficit"], floor), "report deficit")
    _check_recession_set(doc["recession_set"], ref)
    require(close6(doc["r"], ref["r"]), "report r")
    require(close6(doc["gdp"], ref["gdp"]), "report gdp")
    if ref["ambiguous"].any():
        return  # the rankings may then hold industries whose shortfall is roundoff
    for mode, order in rankings(ref, Xout).items():
        rows = doc["rankings"][mode]
        require([row["index"] for row in rows] == [k + 1 for k in order], f"ranking {mode}")
        require([row["name"] for row in rows] == [names[k] for k in order], f"ranking {mode} names")
        require(close6([row["demand_reduction"] for row in rows], [-ref["deficit"][k] for k in order]),
                f"ranking {mode} reductions")


def check_histogram(text: str, ref: dict) -> None:
    """Supply column sums to sum(Xout + Imp) within the 6-digit rounding."""
    lines = text.strip().splitlines()
    require(lines[0] == "industry_index,shortfall_left,supply_right", "histogram header")
    supply = np.array([float(line.split(",")[2]) for line in lines[1:]])
    slack = sum(_half_unit(s) for s in ref["S"]) * (1 + 1e-9)
    require(abs(supply.sum() - ref["S"].sum()) <= slack, "histogram supply column sum")


def check_equilibrium_json(doc: dict, X, Xout, Cf, E, Imp, pi, certifies: bool, rho_ref: float,
                           ref: dict) -> None:
    m = X.shape[0]
    y = np.asarray(doc["y"])
    C_big = np.column_stack([X, Cf, E])
    target = Xout + Imp + X @ pi
    require(y.shape == (m + 2,), "equilibrium y length")
    require(np.all(np.abs(C_big @ y - target) <= 1e-5 * (C_big @ np.abs(y))), "reported y misses target")
    require(close6(doc["rho"], rho_ref, EIG_TOL), "equilibrium rho")
    require(doc["certified"] is certifies, "equilibrium verdict")
    require(doc["equality_set"] == list(range(m)) and doc["slack_set"] == [], "equality/slack sets")
    floor = TOL * np.maximum(1.0, ref["S"])
    require(close6(doc["value_residual"], ref["deficit"], floor), "value residual vs D - S")
    if certifies:
        require(close6(doc["p"], np.ones(m), 1e-8), "certified prices vs closed form p = 1")
