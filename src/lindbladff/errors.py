"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition (bad shape, bad spectrum,
    malformed file, infeasible plan).  The CLI maps this to exit code 1."""


class CapacityError(ValidationError):
    """A request needs more memory than the machine physically has."""


class InvariantError(RuntimeError):
    """A result breaks a bound that holds for every valid input: a fault of
    the program or its numerics, not of the input.  CLI exit code 2."""
