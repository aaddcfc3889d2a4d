"""Command-line surface: ingest, stats, query, emit, validate.

The knowledge graph lives in a flat N-Triples file (--graph PATH); every
command loads it, and ingest writes it back.  Only ingest starts from an
empty graph when the file does not exist; any other command then fails
with exit code 2.  Exit codes: 0 success, 1 validation or parse failure,
2 I/O or network failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Optional

from .errors import (
    AndMalKgError,
    ApiError,
    InvalidReportError,
    NetworkError,
    NTriplesParseError,
    QueryParseError,
    ReportParseError,
)
from .ingest import (
    DEFAULT_ENDPOINT,
    FetchSelector,
    FixtureSource,
    LiveSource,
    fetch_reports,
    ingest_corpus,
)
from .ns import RDF_TYPE, andmal, malont
from .query import evaluate, format_results, parse_query
from .rdf import (
    Graph,
    IRI,
    _collector_paused,
    parse_ntriples,
    serialize_ntriples,
    serialize_turtle,
)
from .schema import build_schema, validate_subjects


def _load_graph(path: Path) -> Graph:
    text = path.read_text(encoding="utf-8")
    # The graph lives until the command ends and holds no reference cycle,
    # so no collection need walk it: freeze it before the collector runs
    # again, or the first allocation after the parse would collect it all.
    with _collector_paused():
        graph = parse_ntriples(text)
        gc.freeze()
    return graph


def _dump_graph(graph: Graph, path: Path) -> None:
    """Replace the graph file atomically: when the write fails or the
    process dies part-way, the old file is left as it was."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(serialize_ntriples(graph), encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cmd_ingest(args) -> int:
    path = Path(args.graph)
    graph = _load_graph(path) if path.exists() else Graph()
    registry = build_schema()
    if args.live:
        source = LiveSource(os.environ.get("AMKG_API_ENDPOINT", DEFAULT_ENDPOINT))
        limit = args.limit if args.limit is not None else 100
    else:
        source = FixtureSource(Path(args.fixtures))
        limit = args.limit if args.limit is not None else 1000
    if args.signature:
        selector = FetchSelector.by_signature(args.signature, limit)
    else:
        selector = FetchSelector.recent(limit)
    errors: list[tuple[str, str]] = []
    reports = fetch_reports(selector, source, errors)
    summary = ingest_corpus(reports, registry, graph)
    _dump_graph(graph, path)
    for name, message in errors:
        print(f"warning: {name}: {message}", file=sys.stderr)
    print(f"reports: {summary.reports}")
    print(f"triples added: {summary.triples_added}")
    print(f"violations: {len(summary.violations)}")
    return 0 if not summary.violations else 1


_STATS_EDGES = {
    "family": (andmal("hasMalwareFamily"), "family_"),
    "tag": (andmal("hasTag"), "tag_"),
    "country": (andmal("ReportedFrom"), "loc_"),
    "reporter": (malont("hasReporter"), "reporter_"),
}


def _cmd_stats(args) -> int:
    graph = _load_graph(Path(args.graph))

    def rows(predicate: str, obj: Optional[str] = None) -> list[tuple[int, int, int]]:
        # id rows of one whole-predicate lookup; a term the graph lacks matches nothing
        pi = graph._id(IRI(predicate))
        oi = None if obj is None else graph._id(IRI(obj))
        if pi is None or (obj is not None and oi is None):
            return []
        return graph._rows(None, pi, oi)

    predicate, prefix = _STATS_EDGES[args.by]
    edges = rows(predicate)
    tokens = graph._tokens
    counts: dict[str, int] = {}
    for _, _, o in edges:
        local = tokens[o][1:-1].rsplit("#", 1)[-1]
        key = local[len(prefix):] if local.startswith(prefix) else local
        counts[key] = counts.get(key, 0) + 1
    files = rows(RDF_TYPE, andmal("File"))
    if args.by == "family":
        # a file is an orphan when none of the malware it contains has a family
        with_family = {s for s, _, _ in edges}
        labelled = {s for s, _, o in rows(andmal("contains")) if o in with_family}
        orphans = sum(1 for s, _, _ in files if s not in labelled)
        if orphans:
            counts["n/a"] = counts.get("n/a", 0) + orphans
    for key, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{key}\t{count}")
    print(f"TOTAL\t{len(files)}")
    return 0


def _cmd_query(args) -> int:
    graph = _load_graph(Path(args.graph))
    text = Path(args.file).read_text(encoding="utf-8")
    table = evaluate(graph, parse_query(text))
    fmt = "aligned-table" if args.format == "table" else "tsv"
    sys.stdout.write(format_results(table, fmt))
    return 0


def _cmd_emit(args) -> int:
    graph = _load_graph(Path(args.graph))
    if args.format == "turtle":
        text = serialize_turtle(graph)
    else:
        text = serialize_ntriples(graph)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    graph = _load_graph(Path(args.graph))
    registry = build_schema()
    by_rule: dict[str, list] = {}
    for v in validate_subjects(registry, graph):
        by_rule.setdefault(v.rule, []).append(v)
    total = sum(len(vs) for vs in by_rule.values())
    for rule in sorted(by_rule):
        print(f"{rule} ({len(by_rule[rule])}):")
        for v in by_rule[rule]:
            print(f"  {v.subject}: {v.detail}")
    print(f"violations: {total}")
    return 0 if total == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="andmalkg",
        description="Android malware knowledge graph: ingest MalwareBazaar "
        "reports, validate against the AndMalOnt schema, query, and export.",
    )
    parser.add_argument(
        "--graph",
        default="graph.nt",
        metavar="PATH",
        help="N-Triples store file (default: graph.nt)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load reports and grow the graph")
    mode = p_ingest.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fixtures", metavar="DIR", help="directory of *.json report fixtures")
    mode.add_argument("--live", action="store_true", help="query the MalwareBazaar API")
    p_ingest.add_argument("--signature", metavar="NAME", help="select one malware family")
    p_ingest.add_argument("--limit", type=int, metavar="N", help="cap the number of reports")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_stats = sub.add_parser("stats", help="per-key report counts")
    p_stats.add_argument("--by", required=True, choices=["family", "tag", "country", "reporter"])
    p_stats.set_defaults(func=_cmd_stats)

    p_query = sub.add_parser("query", help="run a query file against the graph")
    p_query.add_argument("file", metavar="FILE.rq")
    p_query.add_argument("--format", choices=["tsv", "table"], default="tsv")
    p_query.set_defaults(func=_cmd_query)

    p_emit = sub.add_parser("emit", help="serialize the graph")
    p_emit.add_argument("--format", choices=["turtle", "ntriples"], default="ntriples")
    p_emit.add_argument("-o", "--output", metavar="FILE")
    p_emit.set_defaults(func=_cmd_emit)

    p_validate = sub.add_parser("validate", help="schema-check every individual")
    p_validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QueryParseError, NTriplesParseError, ReportParseError, InvalidReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NetworkError, ApiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AndMalKgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
