"""Exception hierarchy for the demandgap package.

All library errors derive from :class:`DemandGapError` so callers can catch
the whole family.  Errors carry the offending indices or quantities where
that helps debugging.
"""

from __future__ import annotations


class DemandGapError(Exception):
    """Base class for all demandgap errors."""


class DimensionMismatch(DemandGapError):
    """Array shapes are inconsistent with the declared economy dimensions."""


class ZeroDemandValue(DemandGapError):
    """A consumer's demand bundle has zero value at the given prices."""

    def __init__(self, consumer: int, value: float = 0.0):
        self.consumer = consumer
        self.value = value
        super().__init__(
            f"demand bundle of consumer {consumer} has non-positive value "
            f"{value!r} at the given prices"
        )


class EmptySupport(DemandGapError):
    """The price support set is empty."""


class NegativeEndowment(DemandGapError):
    """A synthesized endowment entry came out negative."""

    def __init__(self, good: int, consumer: int, value: float):
        self.good = good
        self.consumer = consumer
        self.value = value
        super().__init__(
            f"synthesized endowment b[{good},{consumer}] = {value:.6g} < 0; "
            "choose different expansion coefficients or transfers"
        )


class NotAnEquilibrium(DemandGapError):
    """The supplied price vector does not satisfy the clearing conditions."""


class RankDeficiency(DemandGapError):
    """A numerical rank breaks the degeneracy multiplicity bound
    ``n - |I|`` that holds at a valid equilibrium: the rank tolerance of
    :func:`degeneracy_multiplicity` misjudged the residual columns."""


class SupportMismatch(DemandGapError):
    """Prices are positive off the declared support (or zero on it)."""


class NoMoneySupply(DemandGapError):
    """Money supply is non-positive, so the real money value is undefined."""


class NotIrreducible(DemandGapError):
    """The matrix is not irreducible (its directed graph is not strongly
    connected)."""


class NoConvergence(DemandGapError):
    """The Perron kernel's eigenpair failed its residual check, or the
    cone solve reached its iteration cap (``residual`` is then its fit's)."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class NotInCone(DemandGapError):
    """The target vector is not in the nonnegative cone of the columns."""

    def __init__(self, residual: float, threshold: float):
        self.residual = residual
        self.threshold = threshold
        super().__init__(
            f"target is outside the nonnegative column cone "
            f"(residual {residual:.3e} > {threshold:.3e})"
        )


class NoPositivePrice(DemandGapError):
    """No nonnegative price solves the budget/value equations."""


class PreconditionFailed(DemandGapError):
    """A stated hypothesis of a constructive solver does not hold."""

    def __init__(self, which: str, detail: str = ""):
        self.which = which
        msg = f"precondition {which!r} failed"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ZeroDenominator(DemandGapError):
    """A value-form denominator (consumption or export value) is zero."""

    def __init__(self, what: str):
        self.what = what
        super().__init__(f"zero denominator: {what}")


class RhoNotOne(DemandGapError):
    """The production-matrix spectral radius is not one, so no equilibrium
    is certified.  The partial solution is attached for inspection."""

    def __init__(self, rho: float, solution=None):
        self.rho = rho
        self.solution = solution
        super().__init__(
            f"spectral radius {rho:.9g} != 1; national equilibrium not certified"
        )


class NonpositiveGDP(DemandGapError):
    """Gross value added computed from the table is not positive."""


class BlockMismatch(DemandGapError):
    """An aggregation map does not match the data dimensions."""


class SchemaError(DemandGapError):
    """An input file violates the declared CSV schema."""

    def __init__(self, row: int | None, col: str | None, reason: str):
        self.row = row
        self.col = col
        self.reason = reason
        where = []
        if row is not None:
            where.append(f"row {row}")
        if col is not None:
            where.append(f"column {col!r}")
        loc = ", ".join(where) or "file"
        super().__init__(f"schema error at {loc}: {reason}")


class NegativeValue(SchemaError):
    """A numeric cell that must be nonnegative is negative."""

    def __init__(self, row: int, col: str, value: float):
        self.value = value
        SchemaError.__init__(
            self, row, col, f"negative value {value!r} (clamping is off)"
        )


class UnknownFixture(DemandGapError):
    """The demo fixture name is not recognised."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown fixture {name!r}; try E1, E2 or random:...")


__all__ = [
    name for name, obj in list(globals().items())
    if isinstance(obj, type) and issubclass(obj, DemandGapError)
]
