"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, AxiomError and
StrictnessError -> 3, TruncationError and BudgetError -> 4.
"""


class GammaError(Exception):
    """Base class for all package errors."""


class InputError(GammaError):
    """Malformed input file or schema violation."""


class CompositionError(GammaError):
    """Attempt to compose morphisms with mismatched source/target."""


class DisjointnessError(GammaError):
    """Power-set assignment with overlapping images."""


class AxiomError(GammaError):
    """An algebraic axiom failed; carries the axiom name and a witness."""

    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        msg = f"axiom violated: {axiom}"
        if witness is not None:
            msg += f" (witness: {witness})"
        super().__init__(msg)


class StrictnessError(GammaError):
    """A strictness precondition failed; carries the checker report, whose
    witness ends the message."""

    def __init__(self, message, report=None):
        self.report = report
        if report is not None and report.witness is not None:
            message += f" (witness: {report.witness})"
        super().__init__(message)


class TruncationError(GammaError):
    """Requested data lies beyond the available truncation."""

    def __init__(self, message, required=None):
        self.required = required
        super().__init__(message)


class BudgetError(GammaError):
    """Predicted simplex count exceeds the configured budget."""
