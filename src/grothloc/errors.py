"""Exception taxonomy shared across the package."""
from __future__ import annotations


class GrothlocError(Exception):
    """Base class for every error raised by this package."""


class MalformedElementError(GrothlocError):
    """An element does not belong to the carrier of the given structure."""


class AxiomViolationError(GrothlocError):
    """A claimed algebraic structure fails one of its axioms.

    Carries the name of the violated law and a concrete witness tuple.
    """

    def __init__(self, law: str, witness: tuple):
        self.law = law
        self.witness = witness
        super().__init__(f"{law} fails at {witness!r}")


class UnsupportedFamilyError(GrothlocError):
    """The operation is not defined for this structural family."""


class UndecidableConfigurationError(GrothlocError):
    """Fraction equality cannot be decided exactly for this ring/set pair."""


class OracleRequiredError(GrothlocError):
    """The exact answer needs an external witness the code cannot search for."""


class PreconditionError(GrothlocError):
    """A documented precondition of the operation does not hold."""


class InvalidInputError(GrothlocError):
    """A description file or serialized value is malformed."""


class TorsionWitnessError(GrothlocError):
    """A torsion element obstructs the requested total order.

    ``element`` is a coordinate tuple in the reported group structure and
    ``order`` is the least n >= 2 with n * element = 0.
    """

    def __init__(self, element: tuple, order: int):
        self.element = element
        self.order = order
        super().__init__(
            f"torsion element {element!r} of order {order} admits no compatible total order"
        )


class NotHomogeneousError(GrothlocError):
    """A single-degree element was required but the support is larger."""


class ZeroDegreeError(GrothlocError):
    """The zero element has no degree."""


class BaseMismatchError(GrothlocError):
    """Operands live over different base structures."""


class MalformedDenominatorError(GrothlocError):
    """A denominator is not of the required monomial shape s*eps_m."""
