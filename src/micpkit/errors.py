"""Exception types shared across the toolkit."""


class ModelError(ValueError):
    """Raised on malformed or inconsistent problem data."""


class NumericalFailure(RuntimeError):
    """A solver kernel exhausted its iteration budget without a certified answer.

    Carries the best iterate found so callers can report it, but callers must
    abort rather than continue with an uncertified point.
    """

    def __init__(self, message, point=None, residual=None):
        super().__init__(message)
        self.point = point
        self.residual = residual


class DecompositionFailure(RuntimeError):
    """Normal-cone decomposition residual above tolerance (broken KKT input)."""


class AssumptionViolation(ModelError):
    """A structural precondition needed for parametric cut lifting fails.

    The model, not a solve, is at fault, so it is an input error."""


class RecourseError(RuntimeError):
    """A scenario subproblem is infeasible at a visited first-stage point."""
