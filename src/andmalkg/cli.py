"""Command-line surface: ingest, stats, query, emit, validate.

run() is the entry point of the installed andmalkg script, of
python -m andmalkg and of python -m andmalkg.cli.

The knowledge graph lives in a flat N-Triples file (--graph PATH); every
read command loads it whole, and ingest grows it.  Only ingest starts from
an empty graph when the file does not exist; any other command then fails
with exit code 2.  Every command reads the graph and a query file as
UTF-8, CRLF and a lone CR as a newline (_decoded).  Exit codes: 0 success,
1 validation or parse failure (bytes that are not UTF-8 included), 2 I/O,
network or usage failure.

ingest reads the file's lines and, when they are already what
serialize_ntriples writes (rdf._is_canonical), loads into a graph only
the lines of the subjects the batch mints and the type lines of their
objects (rdf.load_subjects).  It ingests the batch into that graph, and
merges the new lines, sorted, into the file's lines.  Any other file is
parsed whole and re-serialized first.  Either way the file it writes is
byte for byte the one parsing, ingesting and serializing the whole graph
writes, with the same summary.  From before it reads the lines until
after it has renamed the new file into place, ingest holds an exclusive
lock on the sidecar file .NAME.lock (_locked), so a second ingest into
the same file waits and then reads the first one's lines.

With two or more CPUs available and no other thread alive, ingest runs
two pairs of stages at the same time (_beside): the canonical-line check
of the old lines runs in a forked child beside the fetch and the
building of the reports' rows, and the validation of the touched
subjects beside the formatting, the merge and the write of the new
lines.  Otherwise (no os.fork, one CPU, other threads) each job runs
inline.  The outputs and exit codes are the same either way, and a
graph file that does not parse still fails before a failed fetch is
reported; only with --live may the request now go out before a
malformed graph file is reported.

A read command (query, stats, validate, emit) that has to parse the file
leaves a snapshot of the parsed graph beside it, .NAME.snap, which later
read commands load instead while it matches the file's bytes (see
rdf.load_snapshot).  The snapshot is a cache: deleting it is always safe.
ingest neither reads nor writes one.
"""

from __future__ import annotations

import argparse
import gc
import marshal
import os
import stat
import sys
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import AndMalKgError, ApiError, NetworkError
from .ns import RDF_TYPE, andmal, malont
from .rdf import (
    Graph,
    _collector_paused,
    _is_canonical,
    _ntriples_lines,
    dump_snapshot,
    load_snapshot,
    load_subjects,
    parse_ntriples,
    serialize_ntriples,
    serialize_turtle,
    snapshot_key,
)

# ingest, query and schema are imported inside the commands that run them,
# so no command loads or compiles a module it does not use.


def _snapshot_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.snap")


def _load_graph(path: Path) -> Graph:
    """The graph in the N-Triples file at path, loaded from the snapshot
    beside it when one matches the file's bytes, else parsed and a snapshot
    written."""
    # The graph lives until the command ends and holds no reference cycle,
    # so no collection need walk it: freeze it before the collector runs
    # again, or the first allocation after the load would collect it all.
    with _collector_paused():
        graph = _load_keyed(path, _snapshot_path(path))
        gc.freeze()
    return graph


def _load_keyed(path: Path, snapshot: Path) -> Graph:
    """The graph at path from a matching snapshot, else parsed.  After a
    parse the snapshot is written, best effort, when it could be loaded
    later: a snapshot is loaded only when the graph file's owner owns it
    too, so no one can plant one who could not also rewrite the graph."""
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        source = f.read()
    key = snapshot_key(source)
    data = _read_owned(snapshot, info.st_uid)
    if data is not None:
        graph = load_snapshot(data, key)
        del data
        if graph is not None:
            return graph
    text = _decoded(path, source)
    del source
    graph = parse_ntriples(text)
    del text
    # where there are no uids (Windows), st_uid reads 0 for every file
    if info.st_uid == getattr(os, "geteuid", lambda: 0)():
        try:
            _replace_file(snapshot, (dump_snapshot(graph, key),), stat.S_IMODE(info.st_mode))
        except OSError:
            pass
    return graph


def _decoded(path: Path, source: bytes) -> str:
    """The UTF-8 text of the file at path's bytes, CRLF and a lone CR read as
    a newline (universal newlines); bytes not UTF-8 raise, naming their line."""
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _decoded(path, source[: exc.start]).count("\n") + 1
        raise AndMalKgError(f"{path}: line {line}: not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _read_owned(path: Path, owner: int) -> Optional[bytes]:
    """The bytes of the regular file at path when owner owns it, else None."""
    try:
        with open(path, "rb") as f:
            info = os.fstat(f.fileno())
            if not stat.S_ISREG(info.st_mode) or info.st_uid != owner:
                return None
            return f.read()
    except OSError:
        return None


def _replace_file(path: Path, chunks: Iterable[bytes], mode: Optional[int] = None) -> None:
    """Replace the file at path with the chunks, written in turn,
    atomically: when a write fails or the process dies part-way, the old
    file is left as it was.  The new file gets permission bits mode; when
    mode is None, those of the file it replaces, or the umask's default if
    there is none.  It is never more readable than that while it is
    written.  The temporary file gets a random name and is created afresh
    (O_EXCL), so a link planted under its name is never followed, and one
    left by a killed process never blocks a later write."""
    if mode is None:
        with suppress(FileNotFoundError):
            mode = stat.S_IMODE(path.stat().st_mode)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666 if mode is None else 0o600)
    try:
        with open(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _locked(path: Path) -> Iterator[None]:
    """Hold an exclusive lock for the graph file at path: an flock on the
    sidecar file .NAME.lock beside it, created if missing and never
    deleted.  The graph file is not locked itself, because each write
    renames a new inode over it.  Where there is no fcntl (Windows), the
    lock file is made but nothing is locked."""
    try:
        import fcntl
    except ImportError:
        fcntl = None
    flags = os.O_RDONLY | os.O_CREAT | getattr(os, "O_NOFOLLOW", 0)
    fd = os.open(path.with_name(f".{path.name}.lock"), flags, 0o666)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # which releases the lock


# lines per chunk of a graph file write: about 1 MB of N-Triples
_CHUNK_LINES = 4096


def _encoded(lines: list[str]) -> Iterator[bytes]:
    """The lines as UTF-8, in chunks of _CHUNK_LINES lines, so the whole
    file is never held as one str or bytes object."""
    for start in range(0, len(lines), _CHUNK_LINES):
        yield "".join(lines[start : start + _CHUNK_LINES]).encode("utf-8")


def _read_lines(path: Path) -> list[str]:
    """The lines of the file at path, read as _decoded reads its bytes (a
    missing file has none)."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.readlines()
    except FileNotFoundError:
        return []
    except UnicodeDecodeError:
        _decoded(path, path.read_bytes())  # raises, naming the line
        raise


def _merged(old: list[str], new: list[str]) -> list[str]:
    """One sorted list of two sorted runs of lines.  The sort finds the two
    runs and merges them in one pass."""
    lines = old + new
    lines.sort()
    return lines


def _beside(fn):
    """Start fn() beside the caller; the function returned waits for its
    result and returns it.  Call it always, or the child is never reaped.

    With two or more CPUs available to the process and no other thread
    alive, a forked child computes fn(), writes the result's marshal bytes
    to a pipe and leaves by os._exit, so no stdio buffer is flushed and no
    exit hook runs twice.  The waiter reads the pipe and reaps the child;
    when the child did not exit 0, it runs fn() itself, so a failing job
    gives the same result or raises the same exception.  Otherwise (no
    os.fork, one CPU, other threads, or a failed fork) fn runs at once,
    inline: there a fork costs more than the overlap saves, or is not safe.
    """
    import threading  # loaded already: ingest imports logging

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if hasattr(os, "fork") and cpus > 1 and threading.active_count() == 1:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
        else:
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as f:
                        f.write(marshal.dumps(fn()))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)

            def wait():
                with open(read, "rb") as f:
                    data = f.read()
                _, status = os.waitpid(pid, 0)
                return marshal.loads(data) if os.waitstatus_to_exitcode(status) == 0 else fn()

            return wait
    result = fn()
    return lambda: result


def _cmd_ingest(args) -> int:
    from .ingest import (
        DEFAULT_ENDPOINT,
        FetchSelector,
        FixtureSource,
        LiveSource,
        _FETCH_MAX,
        _LIVE_RECENT_MAX,
        _add_rows,
        _live_form,
        _report_rows,
        fetch_reports,
    )
    from .schema import build_schema, validate_subjects

    if args.live:
        source = LiveSource(os.environ.get("AMKG_API_ENDPOINT", DEFAULT_ENDPOINT))
        limit = args.limit if args.limit is not None else _LIVE_RECENT_MAX
    else:
        source = FixtureSource(Path(args.fixtures))
        limit = args.limit if args.limit is not None else _FETCH_MAX
    try:
        selector = FetchSelector(args.signature, limit)
        if args.live:
            _live_form(selector)
    except ValueError as exc:  # a blank --signature, or a --limit FetchSelector or the API rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = Path(args.graph)
    # Another ingest into the same file waits here until this one has
    # replaced the file, then reads the lines this one wrote.
    with _locked(path):
        lines = _read_lines(path)
        # The check that the old lines are canonical runs beside the fetch.  A
        # file that is not is parsed and re-serialized after the fetch, even one
        # that failed, so its parse error still comes first.
        canonical = _beside(lambda: _is_canonical(lines))
        errors: list[tuple[str, str]] = []
        try:
            reports = fetch_reports(selector, source, errors)
            rows = [_report_rows(report) for report in reports]
        finally:
            if not canonical():
                lines = _ntriples_lines(parse_ntriples("".join(lines)))
        # The graph holds every old line of a row's subject, so each old triple
        # a row could repeat, and every triple and object type the validation
        # of the touched subjects reads: the count of new triples and the
        # violations are those of the whole graph.
        graph = load_subjects(lines, {s for report_rows in rows for s, _, _ in report_rows})
        loaded = set(graph._walk())
        added, touched = _add_rows(rows, graph)
        del rows
        registry = build_schema()
        # The touched subjects are validated beside the write of the new lines.
        found = _beside(lambda: len(validate_subjects(registry, graph, touched)))
        try:
            new = _ntriples_lines(graph, (t for t in graph._walk() if t not in loaded))
            _replace_file(path, _encoded(_merged(lines, new)))
        finally:
            violations = found()
    for name, message in errors:
        print(f"warning: {name}: {message}", file=sys.stderr)
    # every fixture file is either read into a report or named in errors
    if not args.live and args.signature is not None and not reports:
        if len(errors) < sum(1 for _ in Path(args.fixtures).glob("*.json")):
            print(
                f"warning: no report in {args.fixtures} has signature {args.signature!r} (signatures match exactly)",
                file=sys.stderr,
            )
    print(f"reports: {len(reports)}")
    print(f"triples added: {added}")
    print(f"violations: {violations}")
    return 0 if not violations else 1


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
    table = evaluate(_load_graph(Path(args.graph)), ast)
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
