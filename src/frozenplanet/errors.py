"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to reach its tolerance.

    The keyword-only fields carry the numbers behind the failure where the
    raising code knows them, and are ``None`` otherwise: the charge ``mu``,
    the orbit parameter ``a`` = q1antimax / q1max, the number of
    ``iterations`` made (evaluations of F in the orbit solve) and ``last``,
    the last estimate of the orbit mean or a trajectory rebuild's largest
    Newton step.  A rebuild whose Newton step fails its settle bound
    carries ``mu``, ``a`` and ``last``, and names both sides of the bound
    in its message; one whose first half period fails to fall carries
    ``mu`` and ``a``, and names the first sample where q1 does not fall.
    The orbit solve adds its closed-form
    ``window`` (x_l, x_r) and the counts of the trial points it tried,
    ``decided`` by that window and ``evaluated`` by an F call.
    """

    def __init__(
        self, *args, mu=None, a=None, iterations=None, last=None,
        window=None, decided=None, evaluated=None,
    ):
        super().__init__(*args)
        self.mu = mu
        self.a = a
        self.iterations = iterations
        self.last = last
        self.window = window
        self.decided = decided
        self.evaluated = evaluated
