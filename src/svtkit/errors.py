"""Exception types shared across the toolkit, and the loaders' check
for trailing input."""


class ShapeError(ValueError):
    """Dimension mismatch between matrices/vectors in a product chain."""


class ParseError(ValueError):
    """Malformed text input; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def reject_trailing(lines, used: int):
    """Raise ParseError at the first non-blank line past the first
    ``used`` lines, which the header's declared counts account for."""
    for k in range(used, len(lines)):
        if lines[k].strip():
            raise ParseError("unexpected content past the declared count",
                             line=k + 1)


class SizeError(ValueError):
    """Problem exceeds a documented dense/materialization cap."""


class ConfigError(ValueError):
    """Estimator or decision configuration violates a precondition."""


class ConstructionError(RuntimeError):
    """A certified construction (polynomial, sampler) failed its certificate."""


class InvalidSamplerError(RuntimeError):
    """A sampler emitted an index whose entry is zero."""


class InconsistencyError(RuntimeError):
    """Randomized sub-decisions produced an impossible outcome pattern."""
