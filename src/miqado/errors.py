"""Exception types raised across the package.

Everything derives from :class:`MiqadoError` so callers can catch the whole
family with one clause. The CLI maps these to exit code 1.
"""


class MiqadoError(Exception):
    """Base class for all domain errors."""


class UnitMismatchError(MiqadoError):
    """Arithmetic attempted between debt-unit and collateral-unit amounts."""


class UndefinedHealthError(MiqadoError):
    """Health factor requested for zero debt."""


class NotLiquidatableError(MiqadoError):
    """Liquidation attempted on a position whose health factor is >= 1."""


class CloseFactorViolationError(MiqadoError):
    """Repayment exceeds the close-factor bound for a single liquidation."""


class NotEligibleError(MiqadoError):
    """Support requested for a position outside the engagement window."""


class ActiveSessionError(MiqadoError):
    """A second support session requested while one is already active."""


class SessionStateError(MiqadoError):
    """Transition attempted on a session that is not in the required state."""


class TooEarlyError(MiqadoError):
    """Settlement or termination attempted before its time window opens."""


class TooLateError(MiqadoError):
    """Termination attempted at or after maturity."""


class InsufficientDataError(MiqadoError):
    """Not enough price points to estimate the requested statistic."""


class CsvFormatError(MiqadoError):
    """Malformed CSV input. `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class PathRangeError(MiqadoError):
    """A required timestamp falls outside the provided price path."""


class ConfigError(MiqadoError):
    """Invalid run configuration. `field` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class ScenarioError(MiqadoError):
    """Error raised while processing a scenario event; carries the index."""

    def __init__(self, event_index: int, message: str):
        super().__init__(f"event {event_index}: {message}")
        self.event_index = event_index
