"""Command-line surface: ingest, stats, query, emit, validate.

run() is the entry point of the installed andmalkg script, of
python -m andmalkg and of python -m andmalkg.cli.

The knowledge graph lives in a flat N-Triples file (--graph PATH); every
read command loads it whole, and ingest grows it (ingest.ingest_file).
Only ingest starts from an empty graph when the file does not exist; any
other command then fails with exit code 2.  Every command reads the graph
and a query file as UTF-8, CRLF and a lone CR as a newline
(rdf._decoded).  Exit codes: 0 success,
1 validation or parse failure (bytes that are not UTF-8 included), 2 I/O,
network or usage failure.

A read command (query, stats, validate, emit) that has to parse the file
leaves a snapshot of the parsed graph beside it, .NAME.snap, which later
read commands load instead, without reading the file, while the file's
stat stamp is the one the snapshot records and older than it (see
rdf.load_snapshot).  Any other read parses the file and writes a fresh
snapshot.  The snapshot is a cache: deleting it is always safe.  ingest
neither reads nor writes one.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from pathlib import Path
from typing import Optional

from .errors import AndMalKgError, ApiError, NetworkError, SelectorError
from .ns import RDF_TYPE, andmal, malont
from .rdf import IRI, Graph, _collector_paused, _decoded, _replace_file, dump_snapshot, load_snapshot
from .rdf import parse_ntriples, serialize_ntriples, serialize_turtle

# ingest, query and schema are imported inside the commands that run them,
# so no command loads or compiles a module it does not use.


def _snapshot_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.snap")


def _load_graph(path: Path) -> Graph:
    """The graph in the N-Triples file at path, loaded from the snapshot
    beside it when one matches the file, else parsed and a snapshot
    written."""
    # The graph lives until the command ends and holds no reference cycle,
    # so no collection need walk it: freeze it before the collector runs
    # again, or the first allocation after the load would collect it all.
    with _collector_paused():
        graph = _load_or_parse(path, _snapshot_path(path))
        gc.freeze()
    return graph


def _load_or_parse(path: Path, snapshot: Path) -> Graph:
    """The graph at path from a snapshot that records the stamp of the
    file's fstat, a stamp older than the snapshot (rdf.load_snapshot),
    without the file being read; else parsed.  After a parse the snapshot
    is written, best effort, stamped from the fstat taken before the file
    was read, when it could be loaded later: a snapshot is loaded only when
    the graph file's owner owns it too, so no one can plant one who could
    not also rewrite the graph."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        data, written = _read_owned(snapshot, info.st_uid)
        if data is not None:
            graph = load_snapshot(data, info, written)
            del data
            if graph is not None:
                return graph
        source = f.read()
    text = _decoded(path, source)
    del source
    graph = parse_ntriples(text)
    del text
    # where there are no uids (Windows), st_uid reads 0 for every file
    if info.st_uid == getattr(os, "geteuid", lambda: 0)():
        try:
            _replace_file(snapshot, (dump_snapshot(graph, info),), stat.S_IMODE(info.st_mode))
        except OSError:
            pass
    return graph


def _read_owned(path: Path, owner: int) -> tuple[Optional[bytes], int]:
    """The bytes and the mtime in nanoseconds of the regular file at path
    when owner owns it, else (None, 0)."""
    try:
        with open(path, "rb") as f:
            info = os.fstat(f.fileno())
            if not stat.S_ISREG(info.st_mode) or info.st_uid != owner:
                return None, 0
            return f.read(), info.st_mtime_ns
    except OSError:
        return None, 0


def _cmd_ingest(args) -> int:
    from .ingest import DEFAULT_ENDPOINT, FixtureSource, LiveSource, ingest_file

    if args.live:
        source = LiveSource(os.environ.get("AMKG_API_ENDPOINT", DEFAULT_ENDPOINT))
    else:
        source = FixtureSource(Path(args.fixtures))
    errors: list[tuple[str, str]] = []
    try:
        summary = ingest_file(Path(args.graph), source, args.signature, args.limit, errors)
    except SelectorError as exc:  # a blank --signature, or a --limit FetchSelector or the API rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, message in errors:
        print(f"warning: {name}: {message}", file=sys.stderr)
    # every fixture file is either read into a report or named in errors
    if not args.live and args.signature is not None and not summary.reports:
        if len(errors) < sum(1 for _ in Path(args.fixtures).glob("*.json")):
            print(
                f"warning: no report in {args.fixtures} has signature {args.signature!r} (signatures match exactly)",
                file=sys.stderr,
            )
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
    ids = graph._ids

    def rows(predicate: str, obj: Optional[str] = None) -> list[tuple[int, int, int]]:
        # id rows of one whole-predicate lookup; a term the graph lacks matches nothing
        pi = ids.get(f"<{predicate}>")
        oi = None if obj is None else ids.get(f"<{obj}>")
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
    from .query import evaluate, format_results, parse_query

    # a missing or malformed query fails before the graph is loaded
    ast = parse_query(_decoded(Path(args.file), Path(args.file).read_bytes()))
    graph = _load_graph(Path(args.graph))
    # a constant no triple uses, such as a misspelt term, matches nothing:
    # say so, since the answer is then only the header
    constants = (part for pat in ast.where for part in (pat.s, pat.p, pat.o) if isinstance(part, IRI))
    for iri in dict.fromkeys(constants):
        if graph._id(iri) is None:
            print(f"warning: <{iri.value}> occurs in no triple of the graph", file=sys.stderr)
    table = evaluate(graph, ast)
    fmt = "aligned-table" if args.format == "table" else "tsv"
    sys.stdout.write(format_results(table, fmt))
    return 0


def _cmd_emit(args) -> int:
    graph = _load_graph(Path(args.graph))
    text = (serialize_turtle if args.format == "turtle" else serialize_ntriples)(graph)
    if args.output:
        _replace_file(Path(args.output), (text.encode("utf-8"),))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args) -> int:
    from .schema import build_schema, validate_subjects

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
    except (NetworkError, ApiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AndMalKgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
