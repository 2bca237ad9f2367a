"""Exception types shared across the package."""


class FunnelMpcError(Exception):
    """Base class for all package-specific errors."""


class PreconditionViolation(FunnelMpcError):
    """An operation was called on data outside its admissible set."""


class SingularGainError(FunnelMpcError):
    """The input gain matrix is singular or numerically unusable.

    Carries the offending condition number when available.
    """

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class OcpInfeasibleError(FunnelMpcError):
    """No finite-cost control could be found for an optimal control problem.

    ``margin`` holds the margins psi_i - ||e_i|| of the start state to the
    r chained funnels (``funnel.chain_margins``) when they are known.
    """

    def __init__(self, message, t_start=None, margin=None):
        super().__init__(message)
        self.t_start = t_start
        self.margin = margin


class RecursiveFeasibilityViolation(FunnelMpcError):
    """The receding-horizon loop hit an infeasible subproblem.

    ``t_hat`` is the loop time at which feasibility was lost and ``margins``
    holds the funnel margins of the measured state at that time.
    """

    def __init__(self, message, t_hat=None, margins=None):
        super().__init__(message)
        self.t_hat = t_hat
        self.margins = margins
