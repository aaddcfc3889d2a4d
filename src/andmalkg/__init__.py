"""Android malware knowledge graph toolkit.

Every name in __all__ can be imported from the package, but the submodule
that defines it is loaded only when the name is first used (PEP 562), so
a program, such as a CLI command, imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The submodule that defines each public name.
_HOMES = {
    "errors": (
        "AndMalKgError",
        "ApiError",
        "InvalidReportError",
        "MalformedTermError",
        "NetworkError",
        "NTriplesParseError",
        "QueryParseError",
        "ReportParseError",
        "SelectorError",
        "UnknownClassError",
        "UnknownPrefixError",
    ),
    "ingest": (
        "CertInfo",
        "FetchSelector",
        "FixtureSource",
        "IngestSummary",
        "LiveSource",
        "MalwareReport",
        "VendorVerdict",
        "YaraRuleInfo",
        "fetch_reports",
        "ingest_corpus",
        "ingest_file",
        "mint_iris",
        "parse_report",
        "report_from_record",
        "report_to_triples",
        "slug",
    ),
    "ns": ("ANDMAL", "MALONT", "PREFIXES", "RDF_TYPE", "andmal", "malont"),
    "query": (
        "CountAgg",
        "Having",
        "QueryAST",
        "ResultTable",
        "TriplePattern",
        "Var",
        "evaluate",
        "format_results",
        "parse_query",
        "run_query",
    ),
    "rdf": (
        "BlankNode",
        "Graph",
        "IRI",
        "Literal",
        "Triple",
        "parse_ntriples",
        "serialize_ntriples",
        "serialize_turtle",
        "term_to_ntriples",
    ),
    "schema": (
        "ClassDef",
        "PropertyDef",
        "SchemaRegistry",
        "Violation",
        "build_schema",
        "validate_hash_format",
        "validate_individual",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, from its submodule, imported on first use and then
    bound here, so later lookups do not come back."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
