"""Spans around andmalkg's public entry points, recorded from outside.

`Tracer.install` replaces each public function at every module attribute
that holds it (`andmalkg.cli.parse_ntriples`, `andmalkg.ingest.mint_iris`,
the package re-exports, ...) and `Graph.insert` / `Graph.match` on the
class, so calls made inside the library are seen too.  Each span is one
record of seven integers: id, parent id, name, start ns, end ns, op id and
a value (new-or-not for insert, triples returned for match, triples parsed,
result rows, reports skipped).  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

import andmalkg
import andmalkg.cli
import andmalkg.ingest
import andmalkg.query
import andmalkg.rdf
import andmalkg.schema

FIELDS = 7
MODULES = (andmalkg, andmalkg.cli, andmalkg.ingest, andmalkg.query, andmalkg.rdf, andmalkg.schema)


def _targets() -> list[tuple[str, object, object]]:
    """(span name, function, value-of-result) for every traced entry point."""
    cli, ing, q, rdf, sch = andmalkg.cli, andmalkg.ingest, andmalkg.query, andmalkg.rdf, andmalkg.schema

    def skipped(result, args, kwargs):
        errors = args[2] if len(args) > 2 else kwargs.get("errors")
        return len(errors) if errors is not None else 0

    return [
        ("cli.main", cli.main, None),
        ("cli.run", cli.run, None),
        ("ingest.fetch_reports", ing.fetch_reports, skipped),
        ("ingest.parse_report", ing.parse_report, None),
        ("ingest.mint_iris", ing.mint_iris, None),
        ("ingest.report_to_triples", ing.report_to_triples, None),
        ("ingest.ingest_corpus", ing.ingest_corpus, None),
        ("schema.build_schema", sch.build_schema, None),
        ("schema.validate_individual", sch.validate_individual, None),
        ("schema.validate_hash_format", sch.validate_hash_format, None),
        ("rdf.parse_ntriples", rdf.parse_ntriples, lambda r, a, k: len(r)),
        ("rdf.serialize_ntriples", rdf.serialize_ntriples, None),
        ("rdf.serialize_turtle", rdf.serialize_turtle, None),
        ("query.parse_query", q.parse_query, None),
        ("query.evaluate", q.evaluate, lambda r, a, k: len(r.rows)),
        ("query.format_results", q.format_results, None),
    ]


METHODS = [
    ("rdf.graph_insert", "insert", lambda r, a, k: int(r)),
    ("rdf.graph_match", "match", lambda r, a, k: len(r)),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.records = array("q")
        self.op = 0
        self._stack = [-1]
        self._next = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, value):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        emit = self.records.extend
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = self._next
            self._next = span + 1
            parent = stack[-1]
            stack.append(span)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                v = value(result, args, kwargs) if value is not None and result is not None else 0
                emit((span, parent, name_id, start, end, self.op, v))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a module holds it."""
        for name, fn, value in _targets():
            wrapper = self._wrap(name, fn, value)
            for module in MODULES:
                for attr, held in list(vars(module).items()):
                    if held is fn:
                        self._restore.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        graph = andmalkg.rdf.Graph
        for name, attr, value in METHODS:
            fn = graph.__dict__[attr]
            self._restore.append((graph, attr, fn))
            setattr(graph, attr, self._wrap(name, fn, value))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        with open(path, "wb") as f:
            f.write(json.dumps(self.names).encode() + b"\n")
            self.records.tofile(f)


def load(path: Path) -> tuple[list[str], array]:
    with open(path, "rb") as f:
        names = json.loads(f.readline())
        records = array("q")
        records.frombytes(f.read())
    return names, records


class OpStats:
    """Per-op totals by span name: calls, total ns, self ns, summed value.

    Self time is a span's duration minus the time its child spans cover.
    The pseudo-name "query.evaluate>rdf.graph_match" collects the matches
    made directly by query.evaluate.
    """

    def __init__(self):
        self.ops: dict[int, dict[str, list[int]]] = {}

    def add(self, names: list[str], records: array) -> None:
        n = len(records) // FIELDS
        ids = records[0::FIELDS]
        parents = records[1::FIELDS]
        name_ids = records[2::FIELDS]
        starts = records[3::FIELDS]
        ends = records[4::FIELDS]
        op_ids = records[5::FIELDS]
        values = records[6::FIELDS]
        index = {ids[i]: i for i in range(n)}
        child_ns = [0] * n
        for i in range(n):
            parent = index.get(parents[i])
            if parent is not None:
                child_ns[parent] += ends[i] - starts[i]
        for i in range(n):
            by_name = self.ops.setdefault(op_ids[i], {})
            name = names[name_ids[i]]
            duration = ends[i] - starts[i]
            self._bump(by_name, name, duration, duration - child_ns[i], values[i])
            parent = index.get(parents[i])
            if parent is not None and names[name_ids[parent]] == "query.evaluate" and name == "rdf.graph_match":
                self._bump(by_name, "query.evaluate>rdf.graph_match", duration, duration, values[i])

    @staticmethod
    def _bump(by_name, name, duration, self_ns, value) -> None:
        entry = by_name.setdefault(name, [0, 0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_ns
        entry[3] += value

    def entries(self, name: str, ops=None) -> list[list[int]]:
        """Totals for `name` in each op (restricted to `ops`) that entered it."""
        return [
            by_name[name]
            for op, by_name in self.ops.items()
            if name in by_name and (ops is None or op in ops)
        ]

    def mean(self, name: str, field: str, ops=None) -> float:
        """Per-op mean of calls, ms, self_ms or value over ops that entered `name`."""
        column = {"calls": 0, "ms": 1, "self_ms": 2, "value": 3}[field]
        rows = self.entries(name, ops)
        if not rows:
            return 0.0
        scale = 1e-6 if field in ("ms", "self_ms") else 1.0
        return sum(r[column] for r in rows) * scale / len(rows)

    def total(self, name: str, field: str, ops=None) -> int:
        column = {"calls": 0, "ns": 1, "self_ns": 2, "value": 3}[field]
        return sum(r[column] for r in self.entries(name, ops))
