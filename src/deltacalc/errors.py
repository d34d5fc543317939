"""Exception hierarchy shared by the whole engine."""


class DeltaCalcError(Exception):
    """Base class for engine-level rejections."""


class RankEvaluationError(DeltaCalcError):
    """A per-rank evaluation failed (e.g. division by zero at some rank)."""

    def __init__(self, message, rank):
        super().__init__(f"{message} (rank n={rank})")
        self.rank = rank


class SmoothnessError(DeltaCalcError):
    """An operation required more differentiability than the operand declares."""


class ProfileOverflowError(DeltaCalcError):
    """A kernel's profile derivative of some order has coefficients that are
    not finite floats."""


class QuadratureError(DeltaCalcError):
    """Per-rank quadrature failed to converge."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank


class RewriteError(DeltaCalcError):
    """A rewrite rule was applied outside its hypotheses."""


class ExpressionError(DeltaCalcError):
    """An expression AST violates a structural constraint (e.g. delta*delta)."""


class ParseError(DeltaCalcError):
    """Syntax error in the expression language, with position information."""

    def __init__(self, message, position, expected=()):
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected: " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
        self.position = position
        self.expected = frozenset(expected)


class ConfigError(DeltaCalcError):
    """Invalid CLI configuration file or flag value."""
