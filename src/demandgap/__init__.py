"""demandgap: exchange-economy equilibrium structure and input-output
recession diagnostics.

The library has two layers.  The exchange layer models ``l`` consumers
trading ``n`` goods (equilibrium predicates, endowment synthesis and
decomposition, equivalent redistributions that degenerate prices,
constructive existence solvers).  The national layer reads value-form
input-output tables, runs the aggregated equilibrium machinery, and scores
how far an economy sits from clearing: per-industry demand shortfalls and
the recession ratio.
"""

from .errors import (
    BlockMismatch,
    DemandGapError,
    DimensionMismatch,
    EmptySupport,
    NegativeEndowment,
    NegativeValue,
    NoConvergence,
    NoMoneySupply,
    NonpositiveGDP,
    NoPositivePrice,
    NotAnEquilibrium,
    NotInCone,
    NotIrreducible,
    PreconditionFailed,
    RankDeficiency,
    RhoNotOne,
    SchemaError,
    SupportMismatch,
    UnknownFixture,
    ZeroDemandValue,
    ZeroDenominator,
)
from .exchange import (
    CertificateReport,
    EquilibriumReport,
    ExchangeEconomy,
    PriceVector,
    check_equilibrium,
    demand_scales,
    excess_demand,
    total_supply,
    verify_certificate,
)
from .structure import (
    ClearingBasis,
    DegenerateTransform,
    RepresentationParts,
    clearing_basis,
    decompose_property,
    degeneracy_multiplicity,
    degenerate_transform,
    is_equivalent,
    real_money_value,
    synthesize_property,
)
from .solvers import (
    ConeSolution,
    ConstructedEquilibrium,
    PerronResult,
    is_irreducible,
    perron_eigen,
    solve_nonneg,
    spectral_equilibrium,
    unit_value_equilibrium,
)
from .leontief import (
    AggregationMap,
    IOAccounts,
    NationalEquilibrium,
    ValueBalanceReport,
    aggregate,
    aggregate_accounts,
    build_exchange_from_iot,
    check_aggregation_agreement,
    check_value_equilibrium,
    solve_national_equilibrium,
)
from .recession import (
    RankedIndustry,
    RecessionReport,
    analyze_accounts,
    demand_vector,
    rank_industries,
    recession_industries,
    recession_ratio,
    supply_vector,
)
from .niot import NiotTable, parse_niot, serialize_niot
from .demo import run_demo

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DemandGapError", "DimensionMismatch", "ZeroDemandValue", "EmptySupport",
    "NegativeEndowment", "NotAnEquilibrium", "RankDeficiency", "SupportMismatch",
    "NoMoneySupply", "NotIrreducible", "NoConvergence", "NotInCone",
    "NoPositivePrice", "PreconditionFailed", "ZeroDenominator", "RhoNotOne",
    "NonpositiveGDP", "BlockMismatch", "SchemaError", "NegativeValue",
    "UnknownFixture",
    # exchange
    "ExchangeEconomy", "PriceVector", "EquilibriumReport", "CertificateReport",
    "total_supply", "demand_scales", "excess_demand", "check_equilibrium",
    "verify_certificate",
    # structure
    "RepresentationParts", "ClearingBasis", "DegenerateTransform",
    "clearing_basis", "synthesize_property", "decompose_property",
    "is_equivalent", "degenerate_transform", "degeneracy_multiplicity",
    "real_money_value",
    # solvers
    "PerronResult", "ConeSolution", "ConstructedEquilibrium", "is_irreducible",
    "perron_eigen", "solve_nonneg", "spectral_equilibrium",
    "unit_value_equilibrium",
    # leontief
    "IOAccounts", "AggregationMap", "NationalEquilibrium", "ValueBalanceReport",
    "aggregate", "aggregate_accounts", "check_aggregation_agreement",
    "build_exchange_from_iot", "solve_national_equilibrium",
    "check_value_equilibrium",
    # recession
    "RecessionReport", "RankedIndustry", "demand_vector", "supply_vector",
    "recession_industries", "recession_ratio", "rank_industries",
    "analyze_accounts",
    # io
    "NiotTable", "parse_niot", "serialize_niot", "run_demo",
]
