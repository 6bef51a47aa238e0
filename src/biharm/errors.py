"""Exception hierarchy for biharm."""


class BiharmError(Exception):
    """Base class for all biharm errors; one out of shooting.shoot carries its SolveRecord."""

    record = None


class InvalidParams(BiharmError):
    """Input violates a precondition (dimension, exponent range, grid, ...)."""


class SubcriticalInput(BiharmError):
    """Exponent lies below the critical threshold; the real spectrum does not exist."""


class NoPcValue(BiharmError):
    """No finite critical exponent exists for this dimension (n <= 12)."""


class LadderMismatch(BiharmError):
    """Computed ladder structure disagrees with the closed-form prediction."""


class BracketNotFound(BiharmError):
    """Shooting probe found no (blow-up, sign-loss) bracket."""


class NoConvergence(BiharmError):
    """The root search or the collocation ended without an acceptable trajectory."""

    def __init__(self, message, rounds=()):
        super().__init__(message)
        self.rounds = rounds  # the collocation rounds finished before it, as Collocation.rounds


class StepFailure(BiharmError):
    """A leg could not go on: the adaptive integrator's step (its first
    too) fell below 10 ulp before the leg's end or event, or the series
    start has no positive radius."""


class GridTooCoarse(BiharmError):
    """Grid has too few interior points for the requested stencil."""


class IllConditioned(BiharmError):
    """Design matrix condition number exceeds the safe threshold."""


class WindowTooShort(BiharmError):
    """A fit or check window holds too few (resolved) nodes, e.g. at a short r_max."""


class DomainError(BiharmError):
    """Argument outside the mathematical domain of the function."""
