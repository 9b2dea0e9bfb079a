"""Snapshot of the public signatures and of the CLI.

Every callable and dataclass in ``demandgap.__all__`` is listed with its
parameter names, and every CLI subcommand with its options, so adding,
removing or renaming a parameter or an option fails here until the
snapshot is edited on purpose.  ``tol`` is the only tolerance a caller
sets; the others are module constants (README, Conventions).  The CLI
flags are the only run configuration.
"""

import argparse
import inspect

import demandgap
from demandgap.cli import build_parser
from demandgap.exchange import DEFAULT_TOL
from demandgap.structure import RepresentationParts

# None: an exception class that takes only its message
SIGNATURES = {
    "DemandGapError": None,
    "DimensionMismatch": None,
    "ZeroDemandValue": ("consumer", "value"),
    "EmptySupport": None,
    "NegativeEndowment": ("good", "consumer", "value"),
    "NotAnEquilibrium": None,
    "RankDeficiency": None,
    "SupportMismatch": None,
    "NoMoneySupply": None,
    "NotIrreducible": None,
    "NoConvergence": ("iterations", "residual"),
    "NotInCone": ("residual", "threshold"),
    "NoPositivePrice": None,
    "PreconditionFailed": ("which", "detail"),
    "ZeroDenominator": ("what",),
    "RhoNotOne": ("rho", "solution"),
    "NonpositiveGDP": None,
    "BlockMismatch": None,
    "SchemaError": ("row", "col", "reason"),
    "NegativeValue": ("row", "col", "value"),
    "UnknownFixture": ("name",),
    "ExchangeEconomy": ("C", "B"),
    "PriceVector": ("p",),
    "EquilibriumReport": (
        "demand", "residual", "equality_set", "strict_set", "violated_set",
        "is_equilibrium", "zero_price_on_deficit", "tol",
    ),
    "CertificateReport": ("ok", "failed", "diagnostics"),
    "total_supply": ("B",),
    "demand_scales": ("econ", "p"),
    "excess_demand": ("econ", "p"),
    "check_equilibrium": ("econ", "p", "tol"),
    "verify_certificate": ("econ", "p", "y", "psi_bar", "tol"),
    "RepresentationParts": ("y", "a", "d0", "I", "case"),
    "ClearingBasis": ("G", "I"),
    "DegenerateTransform": ("transfer", "B_bar", "multiplicity_lower_bound", "I", "mode", "y"),
    "clearing_basis": ("p", "I"),
    "synthesize_property": ("C", "p", "parts", "tol"),
    "decompose_property": ("econ", "p", "I", "case", "tol"),
    "is_equivalent": ("B", "B_bar", "p", "tol"),
    "degenerate_transform": ("econ", "p", "I", "mode", "tol"),
    "degeneracy_multiplicity": ("B_bar", "C", "y", "I"),
    "real_money_value": ("p", "psi"),
    "PerronResult": ("rho", "right", "left", "iterations", "residual", "rho_left", "method"),
    "ConeSolution": ("y", "residual", "interior"),
    "ConstructedEquilibrium": ("p", "strictly_positive", "scales", "report", "budget"),
    "is_irreducible": ("M",),
    "perron_eigen": ("M",),
    "solve_nonneg": ("C", "target"),
    "spectral_equilibrium": ("C", "B1", "tol"),
    "unit_value_equilibrium": ("C", "B1", "psi", "tol"),
    "IOAccounts": ("X", "Xout", "Cf", "E", "Imp", "pi"),
    "AggregationMap": ("blocks",),
    "NationalEquilibrium": ("y", "p", "rho", "I", "J", "certified", "diagnostics"),
    "ValueBalanceReport": ("residual", "violated", "is_equilibrium", "tol"),
    "aggregate": ("obj", "mapping"),
    "aggregate_accounts": ("acc", "mapping", "pi"),
    "check_aggregation_agreement": ("econ", "p0", "mapping", "p_u", "tol"),
    "build_exchange_from_iot": ("acc", "p", "x"),
    "solve_national_equilibrium": ("acc", "tol", "strict"),
    "check_value_equilibrium": ("acc", "tol"),
    "RecessionReport": (
        "D", "S", "deficit", "recession_set", "r", "gdp", "rankings", "tol",
        "indices", "names", "gross_output", "imports", "exports",
    ),
    "RankedIndustry": ("index", "name", "demand_reduction", "gross_output", "imports", "exports"),
    "demand_vector": ("acc",),
    "supply_vector": ("acc",),
    "recession_industries": ("D", "S", "tol"),
    "recession_ratio": ("acc", "tol"),
    "rank_industries": ("report", "k", "mode"),
    "analyze_accounts": ("acc", "names", "indices", "tol", "top"),
    "NiotTable": (
        "country", "year", "currency", "indices", "names", "X", "fc", "gcf", "E", "Imp", "Xout",
    ),
    "parse_niot": ("path", "clamp_negative"),
    "serialize_niot": ("table", "path"),
    "run_demo": ("spec", "seed"),
}

# Tolerances and switches that are module constants, not parameters
# (DEFAULT_TOL_POS, PF_TOL, PF_MAX_ITER, CONE_TOL, RHO_TOL, DEFAULT_RANK_TOL).
FIXED = {"tol_pos", "pf_tol", "max_iter", "cone_tol", "rho_tol", "rank_tol", "a_tol", "write_meta"}


def _params(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # an exception class without its own __init__
        return None


def test_every_public_name_is_in_the_snapshot():
    public = {name for name in demandgap.__all__ if callable(getattr(demandgap, name))}
    assert public == set(SIGNATURES)


def test_parameter_names_match_the_snapshot():
    actual = {name: _params(getattr(demandgap, name)) for name in SIGNATURES}
    assert actual == SIGNATURES


def test_fixed_tolerances_are_not_parameters():
    callables = [getattr(demandgap, name) for name in SIGNATURES]
    callables += [RepresentationParts.validate]
    for obj in callables:
        assert not FIXED & set(_params(obj) or ()), obj.__name__
    assert _params(RepresentationParts.validate) == ("self", "tol")


# option strings (or the positional's name) -> (default, choices)
_TABLE_OPTIONS = {
    "table": (None, None),
    "--out": (".", None),
    "--pi": ("1.0", None),
    "--tol": (DEFAULT_TOL, None),
    "--aggregate": (None, None),
}
CLI = {
    "analyze": {
        **_TABLE_OPTIONS,
        "--format": ("text", ["json", "csv", "text"]),
        "--top": (4, None),
    },
    "equilibrium": {**_TABLE_OPTIONS, "--format": ("text", ["json", "text"])},
    "demo": {
        "fixture": (None, None),
        "--format": ("text", ["json", "text"]),
        "--seed": (None, None),
    },
}


def test_cli_options_match_the_snapshot():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actual = {
        command: {
            " ".join(a.option_strings) or a.dest: (a.default, a.choices)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for command, sub in commands.choices.items()
    }
    assert actual == CLI
    for command in ("analyze", "equilibrium"):
        assert actual[command]["--tol"][0] is DEFAULT_TOL  # one copy of the default
