"""Input preconditions: non-finite arrays and bad tolerances are rejected.

Every public entry point raises a plain ``ValueError`` when an array
argument holds a NaN, before any arithmetic can turn it into a verdict, a
``LinAlgError`` or a scipy error.  Every user of ``tol`` rejects a negative,
NaN or infinite one.  A matrix is checked once per call, and the checked
objects freeze views, not the caller's arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandgap import (
    AggregationMap,
    ExchangeEconomy,
    IOAccounts,
    PriceVector,
    RepresentationParts,
    aggregate,
    aggregate_accounts,
    analyze_accounts,
    build_exchange_from_iot,
    check_aggregation_agreement,
    check_equilibrium,
    check_value_equilibrium,
    clearing_basis,
    decompose_property,
    degeneracy_multiplicity,
    degenerate_transform,
    demand_scales,
    excess_demand,
    is_equivalent,
    is_irreducible,
    perron_eigen,
    real_money_value,
    recession_industries,
    recession_ratio,
    solve_national_equilibrium,
    solve_nonneg,
    spectral_equilibrium,
    synthesize_property,
    total_supply,
    unit_value_equilibrium,
    verify_certificate,
)
from demandgap import _policy, exchange, leontief, solvers, structure
from demandgap.fixtures import (
    economy_e1,
    random_consistent_accounts,
    random_equilibrium,
    toy_accounts,
)

NON_FINITE = r"must be finite|must lie in \[0, 1\]"


def _equilibrium():
    econ, p, parts = random_equilibrium(3, n=5, l=4, support=3)
    return econ, p, parts


def _parts(a):
    return RepresentationParts(y=a["y"], a=a["a"], d0=a["d0"], I=a["I"])


def _exchange_args():
    econ, p, parts = _equilibrium()
    return dict(
        C=econ.C, B=econ.B, p=p, y=parts.y, psi_bar=econ.C @ parts.y,
        a=parts.a, d0=parts.d0, I=parts.I, psi=econ.total_supply(), p_u=p.copy(),
    )


def _factored_args():
    C = np.array([[1.0, 0.2], [0.1, 1.0], [0.3, 0.4]])
    B1 = np.array([[1.0, 2.0], [2.0, 1.0]])
    return dict(C=C, B1=B1, psi=(C @ B1).sum(axis=1))


def _accounts_args():
    acc, p, x = random_consistent_accounts(4, 4)
    return dict(
        X=acc.X, Xout=acc.Xout, Cf=acc.Cf, E=acc.E, Imp=acc.Imp, pi=acc.pi, p=p, x=x,
        A=acc.coefficients(), cf=acc.Cf, e=acc.E, imp=acc.Imp, pi_u=acc.pi[:3],
    )


def _accounts(a):
    return IOAccounts(X=a["X"], Xout=a["Xout"], Cf=a["Cf"], E=a["E"], Imp=a["Imp"], pi=a["pi"])


def _econ(a):
    return ExchangeEconomy(a["C"], a["B"])


# name -> (valid arguments, the array arguments a NaN goes into, the call)
ENTRY_POINTS = {
    "ExchangeEconomy": (_exchange_args, ("C", "B"), _econ),
    "PriceVector": (_exchange_args, ("p",), lambda a: PriceVector(a["p"])),
    "total_supply": (_exchange_args, ("B",), lambda a: total_supply(a["B"])),
    "demand_scales": (_exchange_args, ("p",), lambda a: demand_scales(_econ(a), a["p"])),
    "excess_demand": (_exchange_args, ("p",), lambda a: excess_demand(_econ(a), a["p"])),
    "check_equilibrium": (
        _exchange_args, ("p",), lambda a: check_equilibrium(_econ(a), a["p"])
    ),
    "verify_certificate": (
        _exchange_args,
        ("p", "y", "psi_bar"),
        lambda a: verify_certificate(_econ(a), a["p"], a["y"], a["psi_bar"]),
    ),
    "RepresentationParts.validate": (
        _exchange_args, ("y", "a", "d0"), lambda a: _parts(a).validate()
    ),
    "clearing_basis": (_exchange_args, ("p",), lambda a: clearing_basis(a["p"], a["I"])),
    "synthesize_property": (
        _exchange_args,
        ("C", "p", "y", "a", "d0"),
        lambda a: synthesize_property(a["C"], a["p"], _parts(a)),
    ),
    "decompose_property": (
        _exchange_args, ("p",), lambda a: decompose_property(_econ(a), a["p"], a["I"])
    ),
    "degenerate_transform": (
        _exchange_args, ("p",), lambda a: degenerate_transform(_econ(a), a["p"], a["I"])
    ),
    "is_equivalent": (
        _exchange_args, ("B", "C", "p"), lambda a: is_equivalent(a["B"], a["C"], a["p"])
    ),
    "degeneracy_multiplicity": (
        _exchange_args,
        ("B", "C", "y"),
        lambda a: degeneracy_multiplicity(a["B"], a["C"], a["y"]),
    ),
    "real_money_value": (
        _exchange_args, ("p", "psi"), lambda a: real_money_value(a["p"] + 1.0, a["psi"])
    ),
    "check_aggregation_agreement": (
        _exchange_args,
        ("p", "p_u"),
        lambda a: check_aggregation_agreement(
            _econ(a), a["p"], AggregationMap.identity(5), a["p_u"]
        ),
    ),
    "aggregate": (
        _exchange_args,
        ("psi", "B"),
        lambda a: [aggregate(a[k], AggregationMap.identity(5)) for k in ("psi", "B")],
    ),
    "is_irreducible": (_factored_args, ("B1",), lambda a: is_irreducible(a["B1"])),
    "perron_eigen": (_factored_args, ("B1",), lambda a: perron_eigen(a["B1"])),
    "solve_nonneg": (_factored_args, ("C", "psi"), lambda a: solve_nonneg(a["C"], a["psi"])),
    "spectral_equilibrium": (
        _factored_args, ("C", "B1"), lambda a: spectral_equilibrium(a["C"], a["B1"])
    ),
    "unit_value_equilibrium": (
        _factored_args,
        ("C", "B1", "psi"),
        lambda a: unit_value_equilibrium(a["C"], a["B1"], a["psi"]),
    ),
    "IOAccounts": (_accounts_args, ("X", "Xout", "Cf", "E", "Imp", "pi"), _accounts),
    "IOAccounts.from_physical": (
        _accounts_args,
        ("A", "x", "p", "cf", "e", "imp", "pi"),
        lambda a: IOAccounts.from_physical(
            a["A"], a["x"], a["p"], a["cf"], a["e"], a["imp"], a["pi"]
        ),
    ),
    "aggregate_accounts": (
        _accounts_args,
        ("pi_u",),
        lambda a: aggregate_accounts(
            _accounts(a), AggregationMap(((0, 1), (2,), (3,))), a["pi_u"]
        ),
    ),
    "build_exchange_from_iot": (
        _accounts_args,
        ("p", "x"),
        lambda a: build_exchange_from_iot(_accounts(a), a["p"], a["x"]),
    ),
    "recession_industries": (
        _accounts_args, ("Cf", "Xout"), lambda a: recession_industries(-a["Cf"], a["Xout"])
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_valid_arguments_pass(name):
    build, _, call = ENTRY_POINTS[name]
    call(build())


@settings(max_examples=400, deadline=None, database=None)
@given(name=st.sampled_from(sorted(ENTRY_POINTS)), data=st.data())
def test_nan_anywhere_raises_value_error(name, data):
    build, arrays, call = ENTRY_POINTS[name]
    args = build()
    target = data.draw(st.sampled_from(arrays), label="argument")
    arr = np.array(args[target], dtype=float)
    pos = data.draw(st.integers(0, arr.size - 1), label="position")
    arr.flat[pos] = np.nan
    args[target] = arr
    with pytest.raises(ValueError, match=NON_FINITE) as err:
        call(args)
    assert err.type is ValueError  # not LinAlgError, which subclasses it


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_irreducible([[np.nan, 1.0], [1.0, np.nan]]),
        lambda: perron_eigen([[np.nan, 1.0], [1.0, 1.0]]),
        lambda: total_supply([[np.nan, 1.0]]),
        lambda: recession_industries([np.nan, 1.0], [1.0, 2.0]),
        lambda: degeneracy_multiplicity([[1.0, np.nan]], [[1.0, 1.0]], [1.0, 1.0]),
        lambda: verify_certificate(economy_e1()[0], [1.0, 1.0], [1.0, np.nan], [2.0, 1.0]),
        lambda: verify_certificate(economy_e1()[0], [1.0, 1.0], [1.0, 1.0], [np.inf, 1.0]),
        lambda: unit_value_equilibrium(np.eye(2), np.eye(2), [1.0, np.nan]),
    ],
    ids=[
        "is_irreducible", "perron_eigen", "total_supply", "recession_industries",
        "degeneracy_multiplicity", "certificate-y", "certificate-psi_bar", "unit_value-psi",
    ],
)
def test_former_nan_holes_raise(call):
    # each of these used to return a verdict (True, [nan], ok=True, a
    # shorter recession set) or raise LinAlgError / NoPositivePrice
    with pytest.raises(ValueError, match="must be finite") as err:
        call()
    assert err.type is ValueError


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_irreducible(np.zeros((0, 0))),
        lambda: perron_eigen(np.zeros((0, 0))),
        lambda: spectral_equilibrium(np.zeros((2, 0)), np.zeros((0, 0))),
        lambda: unit_value_equilibrium(np.zeros((2, 0)), np.zeros((0, 0)), [1.0, 1.0]),
        lambda: IOAccounts(X=np.zeros((0, 0)), Xout=[], Cf=[], E=[], Imp=[], pi=[]),
    ],
    ids=["is_irreducible", "perron_eigen", "spectral", "unit_value", "IOAccounts"],
)
def test_empty_matrix_raises_value_error(call):
    # the graph test used to index vertex 0 and raise IndexError
    with pytest.raises(ValueError, match="must be square and non-empty") as err:
        call()
    assert err.type is ValueError


def test_synthesis_rejects_nan_demand():
    econ, p, parts = _equilibrium()
    C = econ.C.copy()
    C[2, 1] = np.nan
    with pytest.raises(ValueError, match="C must be finite"):
        synthesize_property(C, p, parts)


def test_recession_industries_accepts_negative_demand():
    assert recession_industries([-1.0, 3.0], [1.0, 2.0])[0] == (0,)


# name -> call with the tolerance as its only free argument
def _tol_users():
    econ, p, parts = _equilibrium()
    e1, p1 = economy_e1()
    acc = toy_accounts()
    fac = _factored_args()
    return {
        "check_equilibrium": lambda tol: check_equilibrium(e1, p1, tol=tol),
        "verify_certificate": lambda tol: verify_certificate(
            econ, p, parts.y, econ.C @ parts.y, tol=tol
        ),
        "RepresentationParts.validate": lambda tol: parts.validate(tol=tol),
        "synthesize_property": lambda tol: synthesize_property(econ.C, p, parts, tol=tol),
        "decompose_property": lambda tol: decompose_property(econ, p, parts.I, tol=tol),
        "degenerate_transform": lambda tol: degenerate_transform(econ, p, parts.I, tol=tol),
        "is_equivalent": lambda tol: is_equivalent(econ.B, econ.B, p, tol=tol),
        "check_aggregation_agreement": lambda tol: check_aggregation_agreement(
            econ, p, AggregationMap.identity(econ.n), p, tol=tol
        ),
        "spectral_equilibrium": lambda tol: spectral_equilibrium(fac["C"], fac["B1"], tol=tol),
        "unit_value_equilibrium": lambda tol: unit_value_equilibrium(
            fac["C"], fac["B1"], fac["psi"], tol=tol
        ),
        "check_value_equilibrium": lambda tol: check_value_equilibrium(acc, tol=tol),
        "solve_national_equilibrium": lambda tol: solve_national_equilibrium(
            acc, tol=tol, strict=False
        ),
        "recession_industries": lambda tol: recession_industries([1.0, 2.0], [2.0, 1.0], tol=tol),
        "recession_ratio": lambda tol: recession_ratio(acc, tol=tol),
        "analyze_accounts": lambda tol: analyze_accounts(acc, tol=tol),
    }


TOL_USERS = sorted(_tol_users())


@pytest.mark.parametrize("name", TOL_USERS)
def test_valid_tol_passes(name):
    _tol_users()[name](1e-9)


@pytest.mark.parametrize("tol", [-1e-3, np.nan, np.inf])
@pytest.mark.parametrize("name", TOL_USERS)
def test_bad_tol_raises(name, tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        _tol_users()[name](tol)


@pytest.mark.parametrize(
    "call",
    [
        # the strict and violated sets overlapped
        lambda: check_equilibrium(economy_e1()[0], [1.0, 1.0], tol=-1e-3),
        # an equilibrium with all three sets empty
        lambda: check_equilibrium(economy_e1()[0], [1.0, 1.0], tol=np.nan),
        # an empty recession set instead of (2,)
        lambda: analyze_accounts(toy_accounts(), tol=np.nan),
        # is_equilibrium was True
        lambda: check_value_equilibrium(toy_accounts(), tol=np.nan),
    ],
    ids=[
        "negative-tol-overlap", "nan-tol-empty-sets", "nan-tol-recession-set", "nan-tol-value-check",
    ],
)
def test_former_tol_verdicts_now_raise(call):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        call()


class TestEquivalenceBand:
    """is_equivalent uses the shared band tol * max(1, |value|)."""

    @pytest.mark.parametrize("value", [0.5, 10.0])
    def test_gap_between_the_old_and_the_shared_band(self, value):
        tol = 1e-3
        shared = tol * max(1.0, value)
        B = np.array([[value]])
        # inside tol * (1 + value), the band this function used to apply
        outside = B + 1.05 * shared
        assert 1.05 * shared < tol * (1.0 + value)
        assert not is_equivalent(B, outside, [1.0], tol=tol)
        assert is_equivalent(B, B + 0.95 * shared, [1.0], tol=tol)


class TestCheckedOnce:
    """A matrix that has been checked is not checked again."""

    @pytest.fixture
    def checks(self, monkeypatch):
        names = []
        check = _policy._nonneg_square

        def counted(M, name="M"):
            names.append(name)
            return check(M, name)

        for module in (solvers, leontief):  # the callers on the paths under test
            monkeypatch.setattr(module, "_nonneg_square", counted)
        return names

    def test_perron_eigen(self, checks):
        perron_eigen([[0.0, 1.0], [1.0, 0.5]])
        assert checks == ["M"]

    def test_spectral_equilibrium(self, checks):
        a = _factored_args()
        spectral_equilibrium(a["C"], a["B1"])
        assert checks == ["B1"]

    def test_national_solve(self, checks):
        acc, _, _ = random_consistent_accounts(3, 5, trade_balanced=True)
        checks.clear()  # the accounts' own check of X
        solution = solve_national_equilibrium(acc, strict=False)
        assert checks == []
        assert solution.diagnostics["reducible"] is False  # the graph test ran

    @pytest.fixture
    def cone_checks(self, monkeypatch):
        names = []
        check = _policy._finite

        def counted(value, message):
            if message == "C must be finite":  # the cone solve's matrix check
                names.append(message)
            return check(value, message)

        monkeypatch.setattr(solvers, "_finite", counted)
        return names

    def test_solve_nonneg(self, cone_checks):
        solve_nonneg([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0])
        assert cone_checks == ["C must be finite"]

    def test_constructive_solvers_solve_the_cone_unchecked(self, cone_checks):
        a = _factored_args()
        assert spectral_equilibrium(a["C"], a["B1"]).report.is_equilibrium
        assert unit_value_equilibrium(a["C"], a["B1"], a["psi"]).report.is_equilibrium
        assert cone_checks == []

    def test_national_nnls_fallback(self, cone_checks, monkeypatch):
        shapes = []
        solve = solvers._solve_nonneg

        def recorded(C, target):
            shapes.append(C.shape)
            return solve(C, target)

        monkeypatch.setattr(leontief, "_solve_nonneg", recorded)
        solve_national_equilibrium(toy_accounts(), strict=False)  # the seed does not fit
        assert shapes == [(2, 4)]
        assert cone_checks == []



class TestOneSplit:
    """Synthesis, decomposition and the certificate share one rank-one split."""

    @pytest.fixture
    def splits(self, monkeypatch):
        calls = []
        split = exchange._proportional

        def counted(*args):
            calls.append(args)
            return split(*args)

        for module in (exchange, structure):  # the callers on the paths under test
            monkeypatch.setattr(module, "_proportional", counted)
        return calls

    def test_each_call_splits_once(self, splits):
        econ, p, parts = random_equilibrium(3, n=5, l=4, support=3)
        splits.clear()
        synthesize_property(econ.C, p, parts)
        assert len(splits) == 1
        decompose_property(econ, p, parts.I)
        assert len(splits) == 2
        assert verify_certificate(econ, p, parts.y, econ.C @ parts.y).ok
        assert len(splits) == 3


def test_objects_freeze_views_not_the_callers_arrays():
    ex, ac = _exchange_args(), _accounts_args()
    C, B, p = (np.array(ex[k]) for k in ("C", "B", "p"))
    accounts = {k: np.array(ac[k]) for k in ("X", "Xout", "Cf", "E", "Imp", "pi")}
    econ, price, acc = ExchangeEconomy(C, B), PriceVector(p), IOAccounts(**accounts)
    for caller in (C, B, p, *accounts.values()):
        assert caller.flags.writeable
    for held in (econ.C, econ.B, price.p, *(getattr(acc, k) for k in accounts)):
        assert not held.flags.writeable
