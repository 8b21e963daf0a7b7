"""Exception hierarchy for the flexdp package.

Every error raised deliberately by this package derives from FlexError, so
callers can catch one type at an API boundary. Each class carries the
diagnostic ``category`` and process ``exit_code`` the CLI reports for it,
and subclasses inherit both: this module is the one home of that mapping.
Exit codes are 1 for an analysis rejection, 2 for a budget refusal and 3
for an I/O, format or size-limit error.
"""


class FlexError(Exception):
    """Base class for all flexdp errors; the CLI prints it without a category."""

    category = None
    exit_code = 1


class ParseError(FlexError):
    """The query text is not in the supported SQL subset."""

    category = "parse"


class UnknownTable(ParseError):
    """A query references a table absent from the catalog."""


class UnknownColumn(ParseError):
    """A query references a column absent from the tables in scope."""


class UnresolvedAttribute(UnknownColumn):
    """An attribute reference does not resolve (or is ambiguous) in a relation's scope."""


class UnsupportedQuery(FlexError):
    """The query parses but is outside what the sensitivity analysis can bound.

    Examples: non-equijoin join conditions, join keys produced by an
    aggregation, or an outermost operation that is not a count.
    """

    category = "unsupported"


class MissingMetric(FlexError):
    """No recorded max-frequency metric for a column the analysis needs."""

    category = "missing-metric"


class FormatError(FlexError):
    """A metrics file (or similar input) is syntactically malformed."""

    category, exit_code = "io", 3

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class NegativeCount(FormatError):
    """A count that must be non-negative was negative."""


class InvalidParams(FlexError):
    """Privacy parameters are out of range."""

    category = "invalid-params"


class InvalidScale(FlexError):
    """A noise scale that must be positive was zero or negative."""

    category = "invalid-params"


class ProtectedBinLabels(FlexError):
    """Histogram bin labels cannot be enumerated without leaking protected data."""

    category = "unsupported"


class BudgetExhausted(FlexError):
    """Charging a release would exceed the configured privacy budget."""

    category, exit_code = "budget", 2


class TooLargeToEnumerate(FlexError):
    """A brute-force enumeration would exceed ``bruteforce.ENUMERATION_GUARD`` candidates."""

    category, exit_code = "limits", 3


class EvaluationError(FlexError):
    """A query could not be evaluated against a concrete database."""

    category, exit_code = "io", 3
