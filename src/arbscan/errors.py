"""Shared exception types."""


class MarketFormatError(ValueError):
    """A market document failed validation; the message names the offender."""


class DomainError(ValueError):
    """A precondition on the mathematical domain was violated at runtime."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class InternalError(RuntimeError):
    """An invariant of the program itself failed: a bug, never a verdict."""
