"""Exception hierarchy shared across the package."""


class SeqfitError(Exception):
    """Base class for all domain errors raised by seqfit."""


class ScalarParseError(SeqfitError, ValueError):
    """A scalar literal did not match the accepted grammar."""


class ZeroDenominatorError(ScalarParseError):
    """A fraction literal had a zero denominator."""


class DomainError(SeqfitError, ValueError):
    """An argument was outside an operation's domain."""


class InternalConsistencyError(SeqfitError):
    """A self-check failed; indicates a bug, never bad user input."""


class NotPolynomialError(SeqfitError):
    """No constant row was found within the observed window."""

    def __init__(self, message, deepest_row):
        super().__init__(message)
        self.deepest_row = deepest_row


class InconsistentSequenceError(SeqfitError):
    """Sequence data contradicts the detected polynomial degree."""

    def __init__(self, message, sample_index):
        super().__init__(message)
        self.sample_index = sample_index


class BFileError(SeqfitError):
    """A b-file could not be fetched or parsed."""
