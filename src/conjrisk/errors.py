"""Exception hierarchy shared across the toolkit.

Input problems (bad covariances, malformed files, invalid parameters) and
numerical failures (non-finite intermediates, non-convergence) are kept
distinct so the command-line layer can map them to different exit codes.
"""


class ConjunctionAnalysisError(Exception):
    """Base class for all errors raised by this package."""


class InputValidationError(ConjunctionAnalysisError, ValueError):
    """An input value violates a documented precondition or invariant."""


class DegenerateEncounterError(InputValidationError):
    """The relative velocity is zero, so no closest-approach plane exists."""


class ParseError(InputValidationError):
    """A conjunction or config file could not be parsed.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(ConjunctionAnalysisError, RuntimeError):
    """A computation produced non-finite values or failed to converge."""


class UnsupportedPropositionError(ConjunctionAnalysisError, ValueError):
    """The operation is not implemented for this set descriptor."""
