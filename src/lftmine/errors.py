"""Exception types shared across the package."""


class LftError(Exception):
    """Base class for all package-specific errors."""


class BoundsError(LftError, ValueError):
    """A design variable or parameter is outside its admissible range."""


class TraceError(LftError, ValueError):
    """A force-displacement trace file is malformed or violates invariants."""


class SchemaError(LftError, ValueError):
    """A dataset file is missing a required column or has a bad row."""


class InfeasibleRuleError(LftError, ValueError):
    """A rule region is empty after intersection with the design space."""


class RuleNotFoundError(LftError, LookupError):
    """No extracted rule exists for the requested class."""


class NumericError(LftError, ArithmeticError):
    """A numeric routine cannot represent its result at the given inputs."""
