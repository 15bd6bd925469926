"""Exception types shared across the package."""

from contextlib import contextmanager


class AlexgeoError(Exception):
    """Base class for all package errors."""


class DomainError(AlexgeoError, ValueError):
    """A coordinate or argument lies outside the operation's domain."""


class ConstructionError(AlexgeoError, ValueError):
    """A descriptor, group action, or derived construction is invalid."""


class UnsupportedConstructionError(ConstructionError):
    """The requested construction is deliberately not implemented."""


class PreconditionError(AlexgeoError, RuntimeError):
    """An operation's stated precondition does not hold for the given input."""


class CapacityError(AlexgeoError, RuntimeError):
    """A net at the requested resolution would exceed the point budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class SingularityError(AlexgeoError, ArithmeticError):
    """Numerical blow-up detected; `location` holds the parameter value."""

    def __init__(self, message: str, location: float):
        super().__init__(message)
        self.location = location


@contextmanager
def json_fields(what: str):
    """Report a missing or mistyped field of a decoded JSON payload as a ConstructionError."""
    try:
        yield
    except AlexgeoError:
        raise
    except KeyError as exc:
        raise ConstructionError(f"{what} JSON is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ConstructionError(f"{what} JSON has a mistyped field: {exc}") from None
