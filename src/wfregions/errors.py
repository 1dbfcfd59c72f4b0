"""Exception types shared across the package."""

from __future__ import annotations


class WfregionsError(Exception):
    """Base class for every error raised by this package."""


class ParseError(WfregionsError):
    """Structurally malformed ECWS input.

    Carries an optional source position so command-line tools can point at
    the offending character.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        return f"{self.line}:{self.col}: {self.message}"


class LexError(ParseError):
    """Input contains an illegal character, or no tokens at all."""


class DuplicateLabelError(ParseError):
    """The same label is used for more than one node of a net."""


class UnknownPlaceError(WfregionsError):
    """A marking or query names a place that the net does not contain."""


class MarkingError(WfregionsError, ValueError):
    """Marking text that is not a set of labels, or a marking the net cannot
    reach.  A ``ValueError`` too, so callers that caught one keep working."""


class StateExplosionError(WfregionsError):
    """Reachability enumeration exceeded the configured state cap."""


class SoundnessError(WfregionsError):
    """A net violated a structural or behavioural well-formedness check."""
