"""Typed errors shared across the toolkit.

Every domain failure raises a subclass of ToolkitError so that callers (and
the CLI) can map exceptions to stable error names.
"""


class ToolkitError(Exception):
    """Base class for all domain errors."""

    @property
    def name(self) -> str:
        return type(self).__name__


class ParseError(ToolkitError):
    """Malformed input text; carries a character position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnknownVariable(ToolkitError):
    pass


class ArityMismatch(ToolkitError):
    pass


class BudgetExceeded(ToolkitError):
    """Groebner signature reduction budget exhausted."""


class SupportBudgetExceeded(ToolkitError):
    """Distribution support grew past the configured cap."""


class ClosureBudgetExceeded(ToolkitError):
    """Moment closure did not stabilize within the symbol budget.

    Raised when lifting keeps producing new monomials; the loop is then
    (likely) outside the class whose moments all satisfy linear recurrences.
    """


class IrrationalEigenvalue(ToolkitError):
    """A sequence's minimal annihilator has no full rational root split."""


class NoRecurrenceFound(ToolkitError):
    """No linear recurrence of the allowed order fits the supplied terms."""


class NotDeterministic(ToolkitError):
    pass


class ProbabilitySumError(ToolkitError):
    pass


class GuardUnsupported(ToolkitError):
    """Loop guards/conditionals are rejected by design.

    Allowing guarded branching makes the strongest-invariant computation
    provably uncomputable, so the DSL refuses comparison tokens outright.
    """


class NotASkolemReduction(ToolkitError):
    pass


class NotIntegerInstance(ToolkitError):
    pass


class OrderMismatch(ToolkitError):
    pass
