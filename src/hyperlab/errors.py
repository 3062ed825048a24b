"""Shared exception types, and how their messages quote a value.

Every module raises subclasses of :class:`HyperlabError` so the CLI can map
failures onto structured error reports with a single handler.
"""

SHOWN_LENGTH = 80  # characters of a value's repr that a message quotes


def shown(value) -> str:
    """``repr(value)`` when it is at most SHOWN_LENGTH characters, else the
    start of it with the value's type and size, so that a message quoting a
    value from a document stays short however large the document is."""
    text = repr(value)
    if len(text) <= SHOWN_LENGTH:
        return text
    size = len(value) if isinstance(value, (str, list, tuple, dict)) else len(text)
    return f"{text[:SHOWN_LENGTH]}... ({type(value).__name__} of length {size})"


class HyperlabError(Exception):
    """Base class for all workbench errors."""

    kind = "error"


class ShapeError(HyperlabError):
    """Operand dimensions are incompatible."""

    kind = "shape-error"


class DomainError(HyperlabError):
    """Input is outside the mathematical domain of the operation."""

    kind = "domain-error"


class ParseError(HyperlabError):
    """A document is not UTF-8 JSON that the decoder can turn into values."""

    kind = "parse-error"


class ValidationError(HyperlabError):
    """A document or machine definition failed structural validation."""

    kind = "validation-error"


class NumericError(HyperlabError):
    """An iterative numerical method failed to converge."""

    kind = "numeric-error"

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ResourceError(HyperlabError):
    """The requested computation exceeds the configured desk-scale budget."""

    kind = "resource-error"


class ConfigurationError(HyperlabError):
    """A machine lacks a declaration required by the requested extension."""

    kind = "configuration-error"


class StabilityError(HyperlabError):
    """Integrator step exceeds the dt * max||H|| step-size guard (which bounds no error)."""

    kind = "stability-error"
