"""Shared error taxonomy.

Every failure mode that callers are expected to catch gets its own class so
that the CLI can map them to stable exit codes and tests can assert on them
precisely.
"""


class IrrMeasureError(Exception):
    """Base class for all package errors."""


class SourceExhausted(IrrMeasureError):
    """An explicit partial-quotient list ran out before the request was met."""

    def __init__(self, index, available, message=None):
        self.index = index
        self.available = available
        super().__init__(
            message
            or f"source exhausted: term {index} requested, only {available} available"
        )


class NotAJumpPoint(IrrMeasureError):
    """A left limit was requested at a point that is not a jump of the staircase."""


class ComparisonUndecided(IrrMeasureError):
    """Two values could not be separated within the refinement budget.

    Either the underlying numbers coincide or the depth limit is too small.
    """

    def __init__(self, t, labels=(None, None), rounds=0):
        self.t = t
        self.labels = tuple(labels)
        self.rounds = rounds
        a, b = self.labels
        super().__init__(
            f"comparison undecided at t={t} between {a!r} and {b!r} "
            f"after {rounds} refinement rounds"
        )


class IndexOutOfRange(IrrMeasureError):
    """A triangular pair or linear position lies outside the valid range."""


class LengthMismatch(IrrMeasureError):
    """A vector's length does not match the expected triangular size."""


class UnknownLabel(IrrMeasureError):
    """A label was referenced that the tuple or vector does not contain."""


class HypothesisNotMet(IrrMeasureError):
    """A scan window contains no instance of the required denominator pattern."""


class PatternMismatch(IrrMeasureError):
    """Denominator coincidences required by a check do not hold exactly."""


class InfeasibleSchedule(IrrMeasureError):
    """No shared denominator satisfies the congruences of a scheduled event."""


class QuotientUnderflow(IrrMeasureError):
    """A derived partial quotient came out below 1."""


class EnumerationInferenceFailed(IrrMeasureError):
    """The starting order vector cannot be cast into triangular form."""
