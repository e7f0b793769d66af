"""Exception types shared across the package."""


class QsrdgError(Exception):
    """Base class for all errors raised by qsrdg."""


class SingularMatrix(QsrdgError):
    """A pivot fell below the relative threshold during elimination."""


class NonFiniteEvaluation(QsrdgError):
    """A map produced NaN or infinity where a finite value was required."""


class GridMismatch(QsrdgError):
    """Two time grids that must share nodes do not align."""


class AreNotConverged(QsrdgError):
    """The Riccati solve's matrix-sign iteration missed its stop test."""


class NotStabilizing(QsrdgError):
    """A sign iterate was singular or non-finite, or A - B B^T P is not Hurwitz."""


class UnknownExample(QsrdgError):
    """Requested benchmark system name is not one of the shipped ones."""


class QuadratureNotConverged(QsrdgError):
    """The mean-value quadrature missed its secant tolerance at the panel cap."""


class IntegrationError(QsrdgError):
    """A time step failed; carries the index and time of the failing step
    and, when the caller knows it, ``state``: the last good state, from
    which the step started (None otherwise).

    ``__cause__`` is what a map or the control raised, if one did, or
    else the library's typed error that failed the step.
    """

    def __init__(self, step_index, time, message, state=None):
        super().__init__(f"step {step_index} (t = {time:.6g}) failed: {message}")
        self.step_index = step_index
        self.time = time
        self.state = state


class NewtonDidNotConverge(QsrdgError):
    """``newton_solve`` ran out of passes above its residual tolerance.  A
    step that meets it from its own state fails the run: ``integrate``
    raises :class:`IntegrationError` caused by it."""
