"""Shared exception types, and how their messages quote a value.

Every module raises subclasses of :class:`HyperlabError` so the CLI can map
failures onto structured error reports with a single handler. Each kind is one
a command can print: a bad argument to a library function is a DomainError.
"""

SHOWN_LENGTH = 32  # bytes of a JSON error line that a quoted value may take


def shown(value) -> str:
    """``ascii(value)`` if a JSON error line prints it in SHOWN_LENGTH bytes or
    fewer (JSON doubles a backslash or a quote), else its start with the value's
    type and size: a message quoting a document's or a flag's value stays short."""
    text = ascii(value)
    if len(text) + text.count("\\") + text.count('"') <= SHOWN_LENGTH:
        return text
    size = len(value) if isinstance(value, (str, list, tuple, dict)) else len(text)
    return f"{text[:SHOWN_LENGTH // 2]}... ({type(value).__name__} of length {size})"


class HyperlabError(Exception):
    """Base class for all workbench errors."""

    kind = "error"


class DomainError(HyperlabError):
    """Input is outside the mathematical domain of the operation."""

    kind = "domain-error"


class ParseError(HyperlabError):
    """A document is not UTF-8 JSON that the decoder can turn into values."""

    kind = "parse-error"


class ValidationError(HyperlabError):
    """A document or machine definition failed structural validation."""

    kind = "validation-error"


class ResourceError(HyperlabError):
    """The requested computation exceeds the configured desk-scale budget."""

    kind = "resource-error"


class StabilityError(HyperlabError):
    """Integrator step exceeds the dt * max||H|| step-size guard (which bounds no error)."""

    kind = "stability-error"
