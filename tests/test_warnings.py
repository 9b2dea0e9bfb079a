"""Every warning of the package is a ``RuntimeWarning`` issued by one helper,
``_policy._warn``, at the caller's line, however deep inside the package
it arises."""

import ast
from pathlib import Path

import numpy as np
import pytest
from conftest import inputless_accounts

import demandgap
from demandgap import (
    AggregationMap,
    ExchangeEconomy,
    ZeroDenominator,
    analyze_accounts,
    check_aggregation_agreement,
    check_equilibrium,
    check_value_equilibrium,
    decompose_property,
    degenerate_transform,
    demand_vector,
    parse_niot,
    recession_ratio,
    solve_national_equilibrium,
    spectral_equilibrium,
    unit_value_equilibrium,
)

# good 1 has zero supply and zero demand, so p = (1, 0) clears exactly
ZERO_ROW = np.array([[1.0, 1.0], [0.0, 0.0]])
PRICE = np.array([1.0, 0.0])


def zero_supply_economy():
    return ExchangeEconomy(ZERO_ROW, ZERO_ROW.copy())


def toy_file(tmp_path, gcf="10", meta=True):
    table = tmp_path / "toy.csv"
    table.write_text(
        "industry_index,industry_name,X_1,X_2,final_consumption,"
        "gcf_inventory,export,import,gross_output\n"
        f"1,Alpha,10,20,40,{gcf},20,5,100\n2,Beta,30,10,25,5,10,15,100\n"
    )
    if meta:
        (tmp_path / "meta.csv").write_text("country,year,currency\nTOY,2010,MUAH\n")
    return table


def refused_solve(tmp_path):
    with pytest.raises(ZeroDenominator):
        solve_national_equilibrium(inputless_accounts())


CALLS = {
    "demand_vector": lambda tmp_path: demand_vector(inputless_accounts()),
    "check_value_equilibrium": lambda tmp_path: check_value_equilibrium(inputless_accounts()),
    "recession_ratio": lambda tmp_path: recession_ratio(inputless_accounts()),
    "analyze_accounts": lambda tmp_path: analyze_accounts(inputless_accounts()),
    "solve_national_equilibrium": refused_solve,
    "check_equilibrium": lambda tmp_path: check_equilibrium(zero_supply_economy(), PRICE),
    "check_aggregation_agreement": lambda tmp_path: check_aggregation_agreement(
        zero_supply_economy(), PRICE, AggregationMap.identity(2), PRICE
    ),
    "decompose_property": lambda tmp_path: decompose_property(zero_supply_economy(), PRICE, I=(0,)),
    "degenerate_transform": lambda tmp_path: degenerate_transform(zero_supply_economy(), PRICE, I=(0,)),
    "spectral_equilibrium": lambda tmp_path: spectral_equilibrium(ZERO_ROW, np.ones((2, 2))),
    "unit_value_equilibrium": lambda tmp_path: unit_value_equilibrium(
        ZERO_ROW, np.ones((2, 2)), ZERO_ROW @ np.full(2, 2.0)
    ),
    "parse_niot clamping": lambda tmp_path: parse_niot(toy_file(tmp_path, gcf="-10"), clamp_negative=True),
    "parse_niot meta": lambda tmp_path: parse_niot(toy_file(tmp_path, meta=False)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_warning_names_the_callers_file(name, tmp_path):
    with pytest.warns(RuntimeWarning) as record:
        CALLS[name](tmp_path)
    assert record[0].filename == __file__
    assert {w.filename for w in record} == {__file__}


def test_only_the_warning_helper_warns():
    # one helper issues every warning; a module that imports warnings or
    # counts frames with stacklevel= would name a library line again
    offenders = []
    for path in sorted(Path(demandgap.__file__).parent.glob("*.py")):
        if path.name == "_policy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names):
                offenders.append(f"{path.name}:{node.lineno} imports warnings")
            elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
                offenders.append(f"{path.name}:{node.lineno} imports from warnings")
            elif isinstance(node, ast.keyword) and node.arg == "stacklevel":
                offenders.append(f"{path.name}: passes stacklevel=")
    assert offenders == []
