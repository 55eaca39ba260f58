"""Exception types shared across the toolkit.

Everything raised on purpose derives from :class:`HaltStudyError`, so callers
(and the CLI) can catch one base class and still report a precise condition.
"""


class HaltStudyError(Exception):
    """Base class for all toolkit errors."""


# --- bar parsing and panel assembly -------------------------------------

class MalformedRow(HaltStudyError):
    """A CSV row has the wrong field count or an unparseable value."""


class NonPositivePrice(HaltStudyError):
    """A bar carries a last price that is zero or negative."""


class CrossedQuote(HaltStudyError):
    """Best ask is below best bid on the same bar."""


class UnknownDay(HaltStudyError):
    """A date does not appear in the trading calendar."""


class DuplicateBar(HaltStudyError):
    """Two bars share the same (stock, day, minute) key."""


class NoData(HaltStudyError):
    """A stock has no bars where at least one is required."""


# --- halt records --------------------------------------------------------

class InvalidInterval(HaltStudyError):
    """A halt resumes at or before the minute it begins."""


# --- event-study preconditions ------------------------------------------

class InsufficientHistory(HaltStudyError):
    """Not enough pre-event data for the requested window or lookback."""


class InsufficientPostWindow(HaltStudyError):
    """Not enough post-resumption data for the requested window."""


class InsufficientWindow(HaltStudyError):
    """An event-time window extends beyond the stock's coverage."""


class ZeroBaseline(HaltStudyError):
    """Deseasonalization would divide by a zero intraday baseline."""


class EmptyGroup(HaltStudyError):
    """An aggregation was asked to average zero events."""


# --- power-law fitting ---------------------------------------------------

class NonConvergence(HaltStudyError):
    """The least-squares iteration hit its cap without meeting tolerance."""


class DegenerateData(HaltStudyError):
    """A series has too few points, or no positive signal, to fit."""


# --- synthetic generation ------------------------------------------------

class OverlapViolation(HaltStudyError):
    """Planted events on one stock are too close for clean extraction."""


# --- configuration -------------------------------------------------------

class ConfigError(HaltStudyError):
    """A run configuration file or flag value is invalid."""
