"""Exception types raised by the toolkit."""


class AndMalKgError(Exception):
    """Base class for all toolkit errors."""


class MalformedTermError(AndMalKgError):
    """An RDF term violates its structural rules (e.g. literal predicate)."""


class NTriplesParseError(AndMalKgError):
    """Malformed N-Triples input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownClassError(AndMalKgError):
    """An IRI was used where a registered ontology class was required."""


class QueryParseError(AndMalKgError):
    """Malformed query text; carries the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at offset {position}: {message}")
        self.position = position


class UnknownPrefixError(QueryParseError):
    """A prefixed name used a prefix that was never declared."""

    def __init__(self, prefix: str, position: int):
        super().__init__(f"unknown prefix '{prefix}:'", position)
        self.prefix = prefix


class ReportParseError(AndMalKgError):
    """A report document could not be decoded; names the offending field."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class InvalidReportError(AndMalKgError):
    """A decoded report breaks a record invariant; names the offending field."""

    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


class NetworkError(AndMalKgError):
    """The upstream API could not be reached."""


class ApiError(AndMalKgError):
    """The upstream API answered with a non-ok status."""

    def __init__(self, message: str, status: str = ""):
        super().__init__(message)
        self.status = status
