"""Exception hierarchy for the flexdp package.

Every error raised deliberately by this package derives from FlexError, so
callers can catch one type at an API boundary. The CLI maps subclasses onto
exit codes and diagnostic categories.
"""


class FlexError(Exception):
    """Base class for all flexdp errors."""


class ParseError(FlexError):
    """The query text is not in the supported SQL subset."""


class UnknownTable(ParseError):
    """A query references a table absent from the catalog."""


class UnknownColumn(ParseError):
    """A query references a column absent from the tables in scope."""


class UnresolvedAttribute(FlexError):
    """An attribute reference does not resolve (or is ambiguous) in a relation's scope."""


class UnsupportedQuery(FlexError):
    """The query parses but is outside what the sensitivity analysis can bound.

    Examples: non-equijoin join conditions, join keys produced by an
    aggregation, or an outermost operation that is not a count.
    """


class MissingMetric(FlexError):
    """No recorded max-frequency metric for a column the analysis needs."""


class FormatError(FlexError):
    """A metrics file (or similar input) is syntactically malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class NegativeCount(FormatError):
    """A count that must be non-negative was negative."""


class InvalidParams(FlexError):
    """Privacy parameters are out of range."""


class InvalidScale(FlexError):
    """A noise scale that must be positive was zero or negative."""


class ProtectedBinLabels(FlexError):
    """Histogram bin labels cannot be enumerated without leaking protected data."""


class BudgetExhausted(FlexError):
    """Charging a release would exceed the configured privacy budget."""


class TooLargeToEnumerate(FlexError):
    """A brute-force enumeration would exceed the configured candidate guard."""


class EvaluationError(FlexError):
    """A query could not be evaluated against a concrete database."""
