"""Exception types shared across the package, one class per kind of
failure: the CLI exits 2 on ParseError, 3 on ConvergenceError, 4 on
ValidationError and 6 on DomainError, SamplingError and EvalError."""


class ChebError(Exception):
    """Base class for every error raised by this package."""


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
    """An argument, option value, document or object breaks a documented
    rule: type, shape, range, NaN/Inf, a power-of-two size, the grid budget."""


class ParseError(ChebError):
    """A formula or document could not be tokenized or parsed; ``position``
    is the character offset of the fault in the source text."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ChebError):
    """Expression evaluation produced NaN/Inf or hit a domain fault."""

    def __init__(self, message, subexpression=None):
        if subexpression is not None:
            message = f"{message} in {subexpression!r}"
        super().__init__(message)
        self.subexpression = subexpression
