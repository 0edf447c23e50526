"""Exception hierarchy shared across the package."""


class GordianError(Exception):
    """Base class for all package errors."""


class FormulaSyntaxError(GordianError):
    """Raised when formula text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ArityError(GordianError):
    """Raised for out-of-range repetition counts in ``n*f`` / ``f^n``."""


class UnknownLogicError(GordianError):
    """Raised when a logic name is not registered."""


class MissingMetavariableError(GordianError):
    """Raised when a schema instantiation leaves a metavariable unbound."""


class NotMultiplicativeError(GordianError):
    """Raised when a lattice connective appears where only ->, *, 1, 0 may."""


class MissingVariableError(GordianError):
    """Raised when a valuation does not cover a formula's variables."""


class SizeBudgetExceededError(GordianError):
    """Raised when a normalization or product construction blows past its cap."""


class LogicWithoutToAError(GordianError):
    """Raised when the alternatives engine is invoked on an unsupported logic."""


class InvalidCertificateError(GordianError):
    """Raised when a certificate does not fit its goal or fails re-verification."""


class PreconditionFailedError(GordianError):
    """Raised when a transform's logical precondition does not hold."""


class UnsupportedLogicError(GordianError):
    """Raised when an operation has no procedure for the given logic."""


class EnumerationBudgetExceededError(GordianError):
    """Raised when a bounded enumeration exceeds its configured budget."""


class UnsoundModelClassError(GordianError):
    """Raised when an axiom or rule of a logic fails in a model class it declares."""
