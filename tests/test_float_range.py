"""The float-range contract of the public surface.

Every public value-form, exchange and solver call, on inputs whose entries
span the whole float range, returns finite outputs or refuses with
ValueError or a :class:`DemandGapError`, and numpy warns of nothing on the
way.  The package sets numpy's error flags in one place,
``exchange._quiet``; no other module touches them.
"""

import ast
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import demandgap as dg
from demandgap import DemandGapError, IOAccounts
from demandgap.fixtures import toy_accounts

SRC = Path(__file__).resolve().parents[1] / "src" / "demandgap"

# the package's own warnings, which the contract allows
LIBRARY_WARNINGS = ("goods with zero total supply", "industries at positions")


def _entries(rng, shape, zeros: float) -> np.ndarray:
    """Entries log-uniform over 1e-300 to 1.8e308, a share ``zeros`` of them 0."""
    a = 10.0 ** rng.uniform(-300.0, 308.25, shape)
    a[rng.random(shape) < zeros] = 0.0
    return a


def _shares(rng, m: int) -> np.ndarray:
    """Taxation shares in [0, 1], some shrunk by up to 1e-300."""
    pi = rng.uniform(0.0, 1.0, m)
    shrink = rng.random(m) < 0.3
    pi[shrink] *= 10.0 ** rng.uniform(-300.0, 0.0, int(shrink.sum()))
    return pi


def _value_calls(rng, zeros):
    m = int(rng.integers(1, 6))
    acc = IOAccounts(
        X=_entries(rng, (m, m), zeros), Xout=_entries(rng, m, zeros), Cf=_entries(rng, m, zeros),
        E=_entries(rng, m, zeros), Imp=_entries(rng, m, zeros), pi=_shares(rng, m),
    )
    p, x = _entries(rng, m, 0.0), _entries(rng, m, zeros)
    D, S = _entries(rng, m, zeros) * rng.choice([-1.0, 1.0], m), _entries(rng, m, zeros)
    blocks = dg.AggregationMap((tuple(range(m)),))
    return [
        ("demand_vector", lambda: dg.demand_vector(acc)),
        ("supply_vector", lambda: dg.supply_vector(acc)),
        ("recession_industries", lambda: dg.recession_industries(D, S)),
        ("check_value_equilibrium", lambda: dg.check_value_equilibrium(acc)),
        ("recession_ratio", lambda: dg.recession_ratio(acc)),
        ("analyze_accounts", lambda: dg.analyze_accounts(acc)),
        ("solve_national_equilibrium", lambda: dg.solve_national_equilibrium(acc, strict=False)),
        ("build_exchange_from_iot", lambda: dg.build_exchange_from_iot(acc, p, x)),
        ("aggregate_accounts", lambda: dg.aggregate_accounts(acc, blocks)),
    ]


def _exchange_calls(rng, zeros):
    n, l = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    C, B, B_bar = (_entries(rng, (n, l), zeros) for _ in range(3))
    p = _entries(rng, n, zeros)
    p[0] = p[0] or 1.0
    # the support at unit money price, in Python floats (which overflow to inf silently)
    I = tuple(k for k, v in enumerate(p.tolist()) if v / p.tolist()[0] > dg.DEFAULT_TOL_POS)
    y, psi_bar, psi = _entries(rng, l, zeros), _entries(rng, n, zeros), _entries(rng, n, zeros)
    parts = dg.RepresentationParts(
        y=y, a=np.full((len(I), l), 1.0 / l), d0=np.zeros((n, l)), I=I, case="exact"
    )
    econ = dg.ExchangeEconomy(C, B)
    case = "exact" if rng.random() < 0.5 else "partial"
    return [
        ("total_supply", lambda: dg.total_supply(B)),
        ("demand_scales", lambda: dg.demand_scales(econ, p)),
        ("excess_demand", lambda: dg.excess_demand(econ, p)),
        ("check_equilibrium", lambda: dg.check_equilibrium(econ, p)),
        ("verify_certificate", lambda: dg.verify_certificate(econ, p, y, psi_bar)),
        ("clearing_basis", lambda: dg.clearing_basis(p, I)),
        ("synthesize_property", lambda: dg.synthesize_property(C, p, parts)),
        ("decompose_property", lambda: dg.decompose_property(econ, p, I, case)),
        ("is_equivalent", lambda: dg.is_equivalent(B, B_bar, p)),
        ("degenerate_transform", lambda: dg.degenerate_transform(econ, p, I, case)),
        ("degeneracy_multiplicity", lambda: dg.degeneracy_multiplicity(B_bar, C, y)),
        ("real_money_value", lambda: dg.real_money_value(p, psi)),
        ("aggregate", lambda: dg.aggregate(econ, dg.AggregationMap((tuple(range(n)),)))),
    ]


def _solver_calls(rng, zeros):
    n, l = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    C, B1, M = _entries(rng, (n, l), zeros), _entries(rng, (l, l), zeros), _entries(rng, (l, l), zeros)
    target, psi = _entries(rng, n, zeros), _entries(rng, n, zeros)
    # the supply the unit-value route needs, in Python floats (which overflow to inf silently)
    sums = [sum(column) for column in B1.T.tolist()]
    balanced = [sum(c * s for c, s in zip(row, sums)) for row in C.tolist()]
    return [
        ("is_irreducible", lambda: dg.is_irreducible(M)),
        ("perron_eigen", lambda: dg.perron_eigen(M)),
        ("solve_nonneg", lambda: dg.solve_nonneg(C, target)),
        ("spectral_equilibrium", lambda: dg.spectral_equilibrium(C, B1)),
        ("unit_value_equilibrium", lambda: dg.unit_value_equilibrium(C, B1, psi)),
        ("unit_value_equilibrium balanced", lambda: dg.unit_value_equilibrium(C, B1, balanced)),
    ]


@st.composite
def public_calls(draw):
    """Every public call of one group (value form, exchange or solvers) on
    one draw: sizes 1-5, entries log-uniform over the float range with
    10-30 % zeros.  A draw whose inputs a constructor refuses is skipped."""
    group = draw(st.sampled_from([_value_calls, _exchange_calls, _solver_calls]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    try:
        return group(rng, rng.uniform(0.1, 0.3))
    except (ValueError, DemandGapError):
        return []


def _assert_finite(out, where: str) -> None:
    """Every float and float array in ``out`` (a result, or a dataclass or
    tuple of them) is finite; dicts of diagnostics are not results."""
    if isinstance(out, np.ndarray):
        assert out.dtype.kind != "f" or np.isfinite(out).all(), (where, out)
    elif isinstance(out, float):
        assert math.isfinite(out), (where, out)
    elif dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            value = getattr(out, f.name)
            if not isinstance(value, dict):
                _assert_finite(value, f"{where}.{f.name}")
    elif isinstance(out, (tuple, list)):
        for i, value in enumerate(out):
            _assert_finite(value, f"{where}[{i}]")


def _accounts(**fields) -> IOAccounts:
    return IOAccounts(**{"Cf": [1.0, 1.0], "E": [1.0, 1.0], "Imp": [1.0, 1.0], "pi": 1.0, **fields})


# The reproducers, each of which let a numpy warning escape before the
# guards: the technical coefficients inside the solve, the conversion to
# physical units, C @ B1 of the constructive solvers, the unit-value
# supply gap, the cone solve's last shift, the sensitivity ranking key,
# and the solve's NNLS scaling and household closure.
REPRODUCERS = {
    "coefficients": lambda: dg.solve_national_equilibrium(
        _accounts(X=[[1e308, 1.0], [1.0, 1.0]], Xout=[1e-10, 10.0]), strict=False
    ),
    "physical units": lambda: dg.build_exchange_from_iot(toy_accounts(), [1e-300, 1.0], [1e-10, 100.0]),
    "C @ B1": lambda: dg.spectral_equilibrium(np.ones((2, 2)), [[1e308, 1.0], [1e308, 1.0]]),
    "supply gap": lambda: dg.unit_value_equilibrium([[1e308, 1e308]], np.eye(2), [1.0]),
    "cone shift": lambda: dg.solve_nonneg([[1e-300]], [1e300]),
    "ranking key": lambda: dg.analyze_accounts(
        _accounts(X=[[0.0, 1.0], [0.0, 1.0]], Xout=[1e-300, 10.0], E=[0.0, 1.0], Imp=[1e300, 1.0])
    ),
    "NNLS scaling": lambda: dg.solve_national_equilibrium(
        IOAccounts(X=[[1e-119]], Xout=[1e-69], Cf=[1e254], E=[0.0], Imp=[0.0], pi=0.7), strict=False
    ),
    "household closure": lambda: dg.solve_national_equilibrium(
        IOAccounts(X=[[5e120]], Xout=[1.4e307], Cf=[1.7e-4], E=[3.8e175], Imp=[0.0], pi=0.5),
        strict=False,
    ),
}


@settings(max_examples=300, deadline=None, database=None)
@given(calls=public_calls())
@example(calls=[("solve_national_equilibrium", REPRODUCERS["coefficients"])])
@example(calls=[("build_exchange_from_iot", REPRODUCERS["physical units"])])
@example(calls=[("spectral_equilibrium", REPRODUCERS["C @ B1"])])
@example(calls=[("unit_value_equilibrium", REPRODUCERS["supply gap"])])
@example(calls=[("solve_nonneg", REPRODUCERS["cone shift"])])
@example(calls=[("analyze_accounts", REPRODUCERS["ranking key"])])
@example(calls=[("solve_national_equilibrium", REPRODUCERS["NNLS scaling"])])
@example(calls=[("solve_national_equilibrium", REPRODUCERS["household closure"])])
def test_every_public_call_answers_finite_or_refuses(calls):
    for name, call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for message in LIBRARY_WARNINGS:
                warnings.filterwarnings("ignore", message=message)
            try:
                out = call()
            except (ValueError, DemandGapError):
                continue
        _assert_finite(out, name)


def test_only_exchange_sets_numpy_error_flags():
    # the float-range policy lives in exchange._quiet; a second errstate
    # (or seterr) would be a second policy
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "exchange.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):  # from numpy import errstate
                name = node.name
            else:
                name = getattr(node, "id", None)
            if name in ("errstate", "seterr"):
                offenders.append(f"{path.name}:{node.lineno} uses {name}")
    assert offenders == []
