"""Exception taxonomy shared across the package.

Parameter-level errors (bad inputs, violated assumptions) derive from
``ParameterError``; numerical failures (non-convergence, instability,
ill-posed solves) derive from ``NumericError``. The CLI maps the former
to exit code 2 and the latter to exit code 3.
"""


class ParameterError(ValueError):
    """Invalid argument or configuration detected before computation."""


class GraphFormatError(ParameterError):
    """Malformed edge-list text; carries the offending 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class AssumptionError(ParameterError):
    """A structural precondition (parity, divisibility, port placement) fails."""


class GenerationError(ParameterError):
    """Random-instance generation exhausted its retry budget."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class StabilityError(NumericError):
    """Coefficient matrix is not Hurwitz where stability is required."""


class IllPosedError(NumericError):
    """Riccati/Hamiltonian solve has spectrum too close to the imaginary axis."""


class DegenerateEigenvalueError(NumericError):
    """A repeated eigenvalue makes an eigenvector-based quantity undefined."""
