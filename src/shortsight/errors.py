"""Exception types shared across the package."""


class ShortsightError(Exception):
    """Base class for every error raised by this package."""


class InvalidParam(ShortsightError):
    """A generator or checker was given parameters outside its domain."""


class PolicyMismatch(ShortsightError):
    """A policy's horizon or action support disagrees with the MDP."""


class ModelMismatch(ShortsightError):
    """An observation model is invalid for the MDP, or two artifacts carry
    different observation models and cannot be compared."""


class InvalidTrajectory(ShortsightError):
    """A trajectory is inconsistent with the MDP's transition support."""


class DocumentError(ShortsightError):
    """Base class for problems with serialized documents."""


class ParseError(DocumentError):
    """A document is syntactically or structurally malformed.

    `position` is a human-readable location: either "line L column C" for
    syntax errors or a field path like "transitions[3]" for structural ones.
    """

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{position}: {message}"
        super().__init__(message)


class ValidationError(DocumentError):
    """A document parsed cleanly but the described object violates invariants."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))
