#!/usr/bin/env python3
"""Layered benchmark for andmalkg.

    python3 perfbench/run.py --workload {ingest_cli,query_lib,cli_read,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Inputs are generated from --seed.  With
--trace 0 the run sets up its inputs three times (setup_s is the median),
then runs ops for S seconds and reports the end-to-end metrics.  With
--trace 1 it sets up once, runs ops for S seconds with spans around every
public entry point on every second cycle of ops, and reports the per-layer
metrics.
Every op's output is checked; the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Exits 2 when the checkout
lacks the sources it measures.
"""

from __future__ import annotations

import argparse
import json
import logging
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
NEEDED = ("src/andmalkg/cli.py", "tools/make_fixtures.py", "queries/use_case_6.rq")
SETUP_REPEATS = 3


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.op_ids: list[int] = []
        self.problems: dict[int, list[str]] = {}
        self.next_op = 0

    def measure(self, seconds: float, spans_dir=None, tracer=None) -> tuple[list[int], list[int]]:
        """Run ops for `seconds`, in whole cycles; returns (untraced, traced) op ids.

        Given a spans directory (CLI children) or an in-process tracer, every
        second cycle is traced, so drift in machine speed during the run
        affects traced and untraced ops alike.
        """
        w = self.workload
        tracing = spans_dir is not None or tracer is not None
        ran: tuple[list[int], list[int]] = ([], [])
        start = time.perf_counter()
        last_cycle = 0.0
        cycles = 0
        while cycles < 1 + tracing or time.perf_counter() - start + last_cycle / 2 < seconds:
            traced = tracing and cycles % 2 == 1
            cycle_start = time.perf_counter()
            if traced and tracer is not None:
                tracer.install()
            try:
                for _ in range(w.cycle):
                    i = self.next_op
                    self.next_op += 1
                    if traced and tracer is not None:
                        tracer.op = i
                    spans = spans_dir / f"op{i}.spans" if traced and spans_dir is not None else None
                    ms, problems = w.op(i, spans)
                    self.latencies.append(ms)
                    self.op_ids.append(i)
                    ran[traced].append(i)
                    if problems:
                        self.problems.setdefault(i, []).extend(problems)
            finally:
                if traced and tracer is not None:
                    tracer.uninstall()
            last_cycle = time.perf_counter() - cycle_start
            cycles += 1
        return ran

    def check(self) -> None:
        for i, problems in self.workload.verify().items():
            self.problems.setdefault(i, []).extend(problems)

    def p50(self, ops) -> float:
        chosen = set(ops)
        return statistics.median(ms for i, ms in zip(self.op_ids, self.latencies) if i in chosen)


def end_to_end(w, seconds: float) -> tuple[Run, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - start)
    w.prepare()
    run = Run(w)
    run.measure(seconds)
    peak = w.peak_rss_mb()
    run.check()
    lat = run.latencies
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "ops_per_s": (n / (sum(lat) / 1000.0), "1/s", f"{n} ops"),
        "op_p50_ms": (statistics.median(lat), "ms", f"n={n}"),
        "op_p99_ms": (percentile(lat, 99), "ms", f"n={n}, {n - round(0.99 * n)} beyond"),
        "peak_rss_mb": (peak, "MB", "largest child" if w.uses_children else "benchmark process"),
    }
    return run, metrics


def per_layer(w, seconds: float) -> tuple[Run, dict]:
    # spans and workloads import andmalkg, so they load after main() puts src/ on sys.path
    from spans import OpStats, Tracer, load
    from workloads import import_ms

    w.setup()
    w.prepare()
    run = Run(w)
    stats = OpStats()
    if w.uses_children:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True)
        untraced, traced = run.measure(seconds, spans_dir=spans_dir)
        for i in traced:
            path = spans_dir / f"op{i}.spans"
            if path.exists():
                stats.add(*load(path))
            else:
                run.problems.setdefault(i, []).append("traced child wrote no spans")
    else:
        tracer = Tracer()
        untraced, traced = run.measure(seconds, tracer=tracer)
        stats.add(tracer.names, tracer.records)
    run.check()
    m: dict[str, tuple] = {}
    m["cli.import_ms"] = (import_ms(), "ms")
    for command in ("ingest", "query", "stats", "validate", "emit"):
        ops = {i for i in traced if w.op_command.get(i) == command}
        m[f"cli.cmd.{command}.self_ms"] = (stats.mean("cli.main", "self_ms", ops), "ms")
    parse_ns = stats.total("rdf.parse_ntriples", "ns")
    m["rdf.parse_ntriples.ms"] = (stats.mean("rdf.parse_ntriples", "ms"), "ms")
    m["rdf.parse_ntriples.triples_per_s"] = (
        stats.total("rdf.parse_ntriples", "value") / (parse_ns / 1e9) if parse_ns else 0.0, "1/s")
    m["rdf.serialize_ntriples.ms"] = (stats.mean("rdf.serialize_ntriples", "ms"), "ms")
    m["rdf.graph_file_bytes"] = (w.graph_file_bytes(), "bytes")
    m["rdf.serialize_turtle.ms"] = (stats.mean("rdf.serialize_turtle", "ms"), "ms")
    inserts = stats.total("rdf.graph_insert", "calls")
    m["rdf.graph_insert.calls"] = (stats.mean("rdf.graph_insert", "calls"), "count")
    m["rdf.graph_insert.ms"] = (stats.mean("rdf.graph_insert", "ms"), "ms")
    m["rdf.graph_insert.new_ratio"] = (
        stats.total("rdf.graph_insert", "value") / inserts if inserts else 0.0, "ratio")
    m["rdf.graph_match.calls"] = (stats.mean("rdf.graph_match", "calls"), "count")
    m["rdf.graph_match.ms"] = (stats.mean("rdf.graph_match", "ms"), "ms")
    m["rdf.graph_match.triples_returned"] = (stats.mean("rdf.graph_match", "value"), "count")
    m["ingest.fetch_reports.ms"] = (stats.mean("ingest.fetch_reports", "ms"), "ms")
    m["ingest.reports_skipped"] = (stats.mean("ingest.fetch_reports", "value"), "count")
    m["ingest.report_to_triples.ms"] = (stats.mean("ingest.report_to_triples", "ms"), "ms")
    m["ingest.mint_iris.ms"] = (stats.mean("ingest.mint_iris", "ms"), "ms")
    m["ingest.ingest_corpus.self_ms"] = (stats.mean("ingest.ingest_corpus", "self_ms"), "ms")
    m["schema.build_schema.ms"] = (stats.mean("schema.build_schema", "ms"), "ms")
    m["schema.validate_individual.calls"] = (stats.mean("schema.validate_individual", "calls"), "count")
    m["schema.validate_individual.ms"] = (stats.mean("schema.validate_individual", "ms"), "ms")
    m["schema.validate_hash_format.calls"] = (stats.mean("schema.validate_hash_format", "calls"), "count")
    m["query.parse_query.ms"] = (stats.mean("query.parse_query", "ms"), "ms")
    for k in range(1, 7):
        ops = {i for i in traced if w.op_shape.get(i) == k}
        m[f"query.evaluate.uc{k}_ms"] = (stats.mean("query.evaluate", "ms", ops), "ms")
    evaluations = stats.total("query.evaluate", "calls")
    rows = stats.total("query.evaluate", "value")
    m["query.match_calls_per_query"] = (
        stats.total("query.evaluate>rdf.graph_match", "calls") / evaluations if evaluations else 0.0, "count")
    m["query.examined_per_returned"] = (
        stats.total("query.evaluate>rdf.graph_match", "value") / rows if rows else 0.0, "ratio")
    m["query.format_results.ms"] = (stats.mean("query.format_results", "ms"), "ms")
    m["trace.overhead_ratio"] = (run.p50(traced) / run.p50(untraced), "ratio")
    return run, {name: (value, unit, "") for name, (value, unit) in m.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    shutil.rmtree(WORK, ignore_errors=True)
    w = WORKLOADS[name](seed, WORK / name)
    try:
        run, metrics = per_layer(w, seconds) if trace else end_to_end(w, seconds)
        defects = w.known_defects()
        corpus = w.corpus()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if trace:
        metrics["check.known_defect_failures"] = (float(len(defects)), "count", "")
    attempted = len(run.latencies)
    failed = len(run.problems)
    print(f"== {name}  seed {seed}  trace {int(trace)}")
    print(f"   corpus {json.dumps(corpus, sort_keys=True)}")
    for metric, (value, unit, note) in metrics.items():
        print(f"   {metric:36s} {value:14.4f} {unit:6s} {note}")
    print(f"   {'failed_op_ratio':36s} {failed / attempted:14.4f} {'ratio':6s} {failed} of {attempted} ops")
    by_kind: dict[str, list[float]] = {}
    for i, ms in zip(run.op_ids, run.latencies):
        by_kind.setdefault(w.kind(i), []).append(ms)
    print("   median op ms by kind: " + ", ".join(
        f"{kind} {statistics.median(v):.2f} (n={len(v)})" for kind, v in sorted(by_kind.items())))
    for i in sorted(run.problems)[:20]:
        print(f"   FAILED op {i}: {'; '.join(run.problems[i])}")
    for defect in defects:
        print(f"   known defect: {defect}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["ingest_cli", "query_lib", "cli_read", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        _fail(f"run from a full checkout; missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    # The library's skip warnings for malformed reports are expected here.
    logging.getLogger("andmalkg").setLevel(logging.ERROR)
    names = ["ingest_cli", "query_lib", "cli_read"] if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    result = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
