"""Exception types shared across the package."""


class ChebError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(ChebError):
    """A numeric argument failed validation (shape, range, NaN/Inf)."""


class UnsupportedSizeError(ChebError):
    """A dimension of ``bicheb.paper.fft2`` is not a power of two."""


class DomainError(ChebError):
    """An evaluation point lies outside the approximant's rectangle."""


class SamplingError(ChebError):
    """The sampled function returned a non-finite value at a grid node."""


class ConvergenceError(ChebError):
    """The adaptive builder reached its degree cap without converging: the
    coefficient tail stayed at or above the threshold, or the trimmed
    approximant missed f at the off-grid check points.  ``tail_magnitude``
    holds the largest tail entry of the last pass."""

    def __init__(self, message, tail_magnitude):
        super().__init__(message)
        self.tail_magnitude = tail_magnitude


class ValidationError(ChebError):
    """A coefficient document or constructed object violates an invariant."""


class PositionedError(ChebError):
    """An error tied to a character offset in some source text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LexError(PositionedError):
    """An illegal character was found while tokenizing."""


class ParseError(PositionedError):
    """A token stream or document could not be parsed."""


class EvalError(ChebError):
    """Expression evaluation produced NaN/Inf or hit a domain fault."""

    def __init__(self, message, subexpression=None):
        if subexpression is not None:
            message = f"{message} in {subexpression!r}"
        super().__init__(message)
        self.subexpression = subexpression
