"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ExistenceError(ValueError):
    """A requested quantity (moment, Lorenz curve, Gini) does not exist
    for the given parameters."""


class ValidationError(ValueError):
    """A dataset violates one or more structural invariants.

    The message lists every violated invariant, not just the first.
    """


class NonConvergenceError(RuntimeError):
    """An iterative computation failed to reach the requested accuracy."""


class EstimationError(RuntimeError):
    """A fit could not be produced (too few groups, or every optimizer run
    failed)."""
