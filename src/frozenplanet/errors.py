"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance.

    The keyword-only fields carry the numbers behind the failure where the
    raising code knows them, and are ``None`` otherwise: the charge ``mu``,
    the orbit parameter ``a`` = q1antimax / q1max, the number of
    ``iterations`` made (evaluations of F in the solver, Newton steps in the
    trajectory inversion) and ``last``, the last estimate of the orbit mean
    or the worst remaining Newton step.
    """

    def __init__(self, *args, mu=None, a=None, iterations=None, last=None):
        super().__init__(*args)
        self.mu = mu
        self.a = a
        self.iterations = iterations
        self.last = last
