"""Exception types shared across the package."""


class SideMismatchError(ValueError):
    """Two operands live over different variable sides (x vs z)."""


class NotNormalizableError(ValueError):
    """The operator's top coefficient is not a nonzero constant."""


class UnsupportedSideError(ValueError):
    """The construction exists only for derivative-side certificates."""


class NotStrictlyNilpotentError(Exception):
    """A construction required a certified operator but got a rejection.

    Carries the rejecting verdict so callers can inspect the reason.
    """

    def __init__(self, verdict):
        super().__init__("operator is not certified strictly nilpotent")
        self.verdict = verdict


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WireFormatError(ValueError):
    """A JSON document does not match the documented schema."""
