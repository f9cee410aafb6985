"""Shared exception types."""

from __future__ import annotations


class InvariantViolation(RuntimeError):
    """An internal evolution invariant failed; the state is not trustworthy."""


class LimitExceeded(RuntimeError):
    """The instance is beyond the configured desk-scale work limits."""


class SearchLimitExceeded(LimitExceeded):
    """The exhaustive integer search hit its type or node limit before settling."""


class NotFactorableError(ValueError):
    """Construction was requested for an instance with no 1-factorization."""


class FormatError(ValueError):
    """A serialized file does not conform to the expected format."""
