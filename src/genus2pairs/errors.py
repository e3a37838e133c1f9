"""Exception hierarchy shared across the package.

Every domain failure derives from DomainError so the command line layer
can map it to a single exit code.  Class names double as the violation
names printed on stderr (minus the ``Error`` suffix).
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""

    @property
    def violation_name(self) -> str:
        return type(self).__name__.removesuffix("Error")


class InvalidWordError(DomainError):
    """A word string that does not parse."""


class EmptyWordError(DomainError):
    """An operation that needs a nonempty word received the identity."""


class SingleGeneratorError(DomainError):
    """An operation that needs both generators saw only one."""


class NotInvertibleError(DomainError):
    """An endomorphism given by a non-basis image pair."""


class InvalidParamsError(DomainError, ValueError):
    """Parameters outside the domain of a constructor or classifier; a
    ValueError too, so callers may catch it as one."""


class UnknownCurveError(DomainError):
    """A curve name missing from a diagram."""


class UnlabeledBandError(DomainError):
    """A band without a disk-crossing label cannot be traced."""


class ParityViolationError(DomainError):
    """Endpoint counts on paired disk copies disagree."""


class BetaNotProperPowerError(DomainError):
    """The second curve of a power pair must be a proper power."""


class BudgetExceededError(DomainError):
    """A brute-force computation was asked to exceed its budget."""


def check_int(value, what: str, *args) -> int:
    """Return ``value`` if it is an exact integer, else raise
    InvalidParamsError naming ``what.format(*args)``, a text built only
    then; floats, strings and booleans are refused.  Every integer
    parameter, label or multiplicity of a diagram, a graph, a classifier
    or a referee, from the Python API or from JSON, passes here."""
    if type(value) is not int:
        raise InvalidParamsError(f"{what.format(*args)} must be an integer, got {value!r}")
    return value
