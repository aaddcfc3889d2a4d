#!/usr/bin/env python3
"""Grow one graph file to the paper's scale, batch by batch, through the CLI.

The 2,600 reports of perfbench's Generator(7).reports(2600) are written as
26 fixture directories of 100.  Every fifth batch also gets three repeats
of reports from earlier batches and two malformed files, as an ingest_cli
batch does (Generator.batch).  Then 26 `andmalkg ingest` calls grow one
graph file, and the check requires:

- every ingest exits 0 and counts the batch's well-formed reports;
- the final file is byte for byte serialize_ntriples of one library ingest
  (ingest_corpus) of all 2,600 reports;
- `andmalkg validate` reports 0 violations;
- use cases 1-6 through `andmalkg query` answer what perfbench's Expected
  derives from the corpus plan, with the use case 1-3 constants replaced
  by each family, each tag and some SHA-256s, as QueryLib._query does.

For each batch it prints the ingest's wall time, its peak RSS (read with
os.wait4) and the graph file's size.  The corpus, the reference file and
the expected answers are built in a child process, so the process that
starts the ingests stays small and passes no inherited peak on to them.

Usage: python3 tools/growth_check.py
Exits 0 when every check passes, else 1, naming each failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
BATCHES = 26
BATCH = 100
# every EVERY-th batch gets REPEATS earlier reports and MALFORMED bad files
EVERY, REPEATS, MALFORMED = 5, 3, 2
# use case 3 runs on this many SHA-256s, the multi-family ones first
UC3_SHAS = 12


def prepare(work: Path) -> None:
    """Write the batch directories, reference.nt, the query files and
    plan.json (each batch's well-formed report count, each query's file
    and expected stdout lines) into work."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from andmalkg import Graph, build_schema, ingest_corpus, parse_report, serialize_ntriples, term_to_ntriples
    from corpus import Expected, Generator, write_dir
    from workloads import QueryLib

    gen = Generator(SEED)
    entries = gen.reports(BATCHES * BATCH)
    reports = [entry.report for entry in entries]
    batches = []
    bad = 0
    for k in range(BATCHES):
        batch = entries[k * BATCH : (k + 1) * BATCH]
        if k % EVERY == EVERY - 1:
            batch = batch + gen.rng.sample(entries[: k * BATCH], REPEATS)
            batch += [gen.malformed(bad + j) for j in range(MALFORMED)]
            bad += MALFORMED
        write_dir(work / f"batch{k:02d}", batch)
        batches.append(sum(1 for e in batch if e.kind != "malformed"))

    graph = Graph()
    summary = ingest_corpus([parse_report(e.text) for e in entries], build_schema(), graph)
    if summary.violations:
        raise SystemExit(f"library ingest reports {len(summary.violations)} violations")
    (work / "reference.nt").write_bytes(serialize_ntriples(graph).encode("utf-8"))
    del graph

    expected = Expected(reports)
    texts = {k: (ROOT / "queries" / f"use_case_{k}.rq").read_text(encoding="utf-8") for k in range(1, 7)}

    def cells(row) -> str:
        return "\t".join(str(c) if isinstance(c, int) else term_to_ntriples(c) for c in row)

    queries = []

    def add(name: str, text: str, rows, ordered: bool = False) -> None:
        path = work / f"query{len(queries):03d}.rq"
        path.write_text(text, encoding="utf-8")
        lines = [cells(row) for row in rows]
        if not ordered:
            lines.sort()
        queries.append({"name": name, "file": str(path), "ordered": ordered, "rows": lines})

    for family in sorted(expected.family_members):
        text = texts[1].replace(QueryLib.UC1_CONST, f"<{expected.family_iri[family]}>")
        add(f"uc1 {family}", text, expected.uc1(family))
    for tag in sorted(expected.tag_members):
        text = texts[2].replace(QueryLib.UC2_CONST, f"<{expected.tag_iri[tag]}>")
        add(f"uc2 {tag}", text, expected.uc2(tag))
    duals = expected.dual_shas()
    shas = (duals + [sha for sha in expected.shas() if sha not in set(duals)])[:UC3_SHAS]
    for sha in shas:
        text = texts[3].replace(QueryLib.UC3_CONST, f"<{expected.ids[sha]['file']}>")
        add(f"uc3 {sha[:12]}", text, expected.uc3(sha))
    add("uc4", texts[4], expected.uc4())
    add("uc5", texts[5], expected.uc5())
    add("uc6", texts[6], expected.uc6(), ordered=True)
    plan = {"reports": len(reports), "batches": batches, "queries": queries}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")


def run_cli(graph: Path, *args: str) -> tuple[int, str, str, float, float]:
    """(exit code, stdout, stderr, wall ms, peak RSS in MB) of one CLI run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "andmalkg", "--graph", str(graph), *args], stdout=out, stderr=err, env=env
        )
        _, status, usage = os.wait4(proc.pid, 0)
        ms = (time.perf_counter() - start) * 1000.0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
        out.seek(0)
        err.seek(0)
        # ru_maxrss is in KB on Linux
        return proc.returncode, out.read().decode("utf-8"), err.read().decode("utf-8"), ms, usage.ru_maxrss / 1024.0


def check(work: Path) -> list[str]:
    subprocess.run([sys.executable, __file__, "--prepare", str(work)], check=True)
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    graph = work / "graph.nt"
    failures = []
    print("batch\treports\twall_ms\tpeak_mb\tfile_bytes")
    for k, reports in enumerate(plan["batches"]):
        code, out, err, ms, peak = run_cli(graph, "ingest", "--fixtures", str(work / f"batch{k:02d}"))
        print(f"{k + 1}\t{reports}\t{ms:.0f}\t{peak:.1f}\t{graph.stat().st_size if graph.exists() else 0}")
        if code != 0:
            failures.append(f"batch {k + 1}: exit code {code}: {err[-300:]!r}")
        elif f"reports: {reports}\n" not in out:
            failures.append(f"batch {k + 1}: stdout {out!r}, plan says {reports} reports")
    if not graph.exists() or graph.read_bytes() != (work / "reference.nt").read_bytes():
        failures.append("the grown graph file differs from the library ingest of every report")
    code, out, err, _, _ = run_cli(graph, "validate")
    if (code, out) != (0, "violations: 0\n"):
        failures.append(f"validate: exit code {code}, stdout {out[-300:]!r}")
    for query in plan["queries"]:
        code, out, err, _, _ = run_cli(graph, "query", query["file"])
        rows = out.splitlines()[1:]
        if not query["ordered"]:
            rows.sort()
        if code != 0 or rows != query["rows"]:
            failures.append(f"{query['name']}: exit code {code}, {len(rows)} rows, plan says {len(query['rows'])}")
    print(f"{plan['reports']} reports in {len(plan['batches'])} batches; {len(plan['queries'])} queries checked")
    return failures


def main(argv: list[str]) -> int:
    if argv[:1] == ["--prepare"]:
        prepare(Path(argv[1]))
        return 0
    with tempfile.TemporaryDirectory() as work:
        failures = check(Path(work))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
