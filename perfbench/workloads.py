"""The three workloads: CLI ingest, in-process queries, cold CLI reads.

Each is a closed loop with one client and one operation in flight.  A
workload builds its inputs in memory in `setup` (timed as setup_s), writes
the files its ops read in `prepare`, runs one op per `op` call and returns the op's latency with any check it failed, and
re-checks outputs in `verify` after the timed loop where a check is too
slow to run between ops.
"""

from __future__ import annotations

import gc
import hashlib
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import andmalkg
import andmalkg.query
import andmalkg.rdf
from andmalkg import FetchSelector, FixtureSource, Graph

from corpus import Expected, Generator, properties, write_dir

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
QUERIES = ROOT / "queries"
CHILD_TIMEOUT_S = 60


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def build_graph(entries) -> Graph:
    """Library ingest of well-formed report documents into a fresh graph."""
    reports = [andmalkg.parse_report(e.text) for e in entries]
    graph = Graph()
    summary = andmalkg.ingest_corpus(reports, andmalkg.build_schema(), graph)
    if summary.violations:
        raise RuntimeError(f"set-up graph has {len(summary.violations)} violations")
    return graph


@dataclass
class Child:
    ms: float
    code: int
    out: str
    err: str


def run_child(cli_args: list[str], work: Path, spans: Optional[Path] = None, op: int = 0) -> Child:
    """Run the CLI in a child process; the latency covers start-up to exit."""
    cmd = [sys.executable, str(HERE / "cli_child.py")]
    if spans is not None:
        cmd += ["--spans", str(spans), "--op", str(op)]
    cmd += ["--"] + cli_args
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -9
        ms = (time.perf_counter() - start) * 1000.0
        out.seek(0)
        err.seek(0)
        return Child(ms, code, out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace"))


def import_ms(runs: int = 5) -> float:
    """Median time for a child to import andmalkg.cli, measured inside it."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), "--import-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


class Workload:
    name = ""
    cycle = 1  # ops are run in whole cycles of this length
    uses_children = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.op_command: dict[int, str] = {}  # op id -> CLI command it ran
        self.op_shape: dict[int, int] = {}  # op id -> use case it evaluated

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between the last set-up and the first op."""

    def op(self, i: int, spans: Optional[Path] = None) -> tuple[float, list[str]]:
        raise NotImplementedError

    def verify(self) -> dict[int, list[str]]:
        return {}

    def kind(self, i: int) -> str:
        """The command or use case op i ran."""
        return self.op_command.get(i) or f"uc{self.op_shape[i]}"

    def known_defects(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        """Largest RSS of any child this process has waited for."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def corpus(self) -> dict:
        """Measured share of each input property."""
        return {"graph": properties(self.entries)}

    def graph_file_bytes(self) -> float:
        raise NotImplementedError


_STDOUT_RE = re.compile(r"reports: (\d+)\ntriples added: (\d+)\nviolations: (\d+)\n\Z")
_REPORT_NAME_RE = re.compile(r"r_\d{6}(?:_b)?\.json")


class IngestCli(Workload):
    """`--graph G ingest --fixtures B_k` on a restored 1,000-report base graph."""

    name = "ingest_cli"
    BASE = 1000
    BATCH = 1000  # FetchSelector caps one CLI ingest at 1,000 reports
    BATCHES = 2

    def setup(self) -> None:
        gen = Generator(self.seed)
        self.base = gen.reports(self.BASE)
        self.batches = [gen.batch(self.base, self.BATCH) for _ in range(self.BATCHES)]
        self.base_graph = build_graph(self.base)
        self.base_nt = andmalkg.serialize_ntriples(self.base_graph).encode("utf-8")

    def prepare(self) -> None:
        for k, batch in enumerate(self.batches):
            write_dir(self.work / f"batch{k}", batch)
        self.graph_file = self.work / "graph.nt"
        self.base_lines = self.base_nt.count(b"\n")
        self.written: list[tuple[int, int, str, int]] = []  # op, batch, digest, triples added
        self.file_sizes: list[int] = []

    def op(self, i, spans=None):
        k = i % self.BATCHES
        batch = self.batches[k]
        self.op_command[i] = "ingest"
        self.graph_file.write_bytes(self.base_nt)
        child = run_child(
            ["--graph", str(self.graph_file), "ingest", "--fixtures", str(self.work / f"batch{k}")],
            self.work, spans, i,
        )
        problems = []
        if child.code != 0:
            problems.append(f"exit code {child.code}")
        m = _STDOUT_RE.search(child.out)
        valid = sum(1 for e in batch if e.kind != "malformed")
        if m is None:
            problems.append(f"unexpected stdout {child.out[-200:]!r}")
            added = -1
        else:
            reports, added, violations = (int(g) for g in m.groups())
            if reports != valid:
                problems.append(f"reports {reports}, plan says {valid}")
            if violations:
                problems.append(f"{violations} violations")
        written = self.graph_file.read_bytes()
        self.file_sizes.append(len(written))
        grown = written.count(b"\n") - self.base_lines
        if grown != added:
            problems.append(f"graph file grew by {grown} lines, CLI says {added}")
        malformed = {e.name for e in batch if e.kind == "malformed"}
        warned = set(_REPORT_NAME_RE.findall(child.err))
        if warned != malformed:
            problems.append(f"stderr names {len(warned)} files, plan has {len(malformed)} malformed")
        self.written.append((i, k, _digest(written), added))
        return child.ms, problems

    def verify(self):
        """Each written file must equal the library result for base plus batch."""
        problems: dict[int, list[str]] = {}
        expected: dict[int, tuple[str, int]] = {}
        for i, k, digest, added in self.written:
            if k not in expected:
                graph = Graph()
                graph.insert_all(self.base_graph)
                errors: list = []
                reports = andmalkg.fetch_reports(
                    FetchSelector.recent(self.BATCH), FixtureSource(self.work / f"batch{k}"), errors
                )
                summary = andmalkg.ingest_corpus(reports, andmalkg.build_schema(), graph)
                expected[k] = (_digest(andmalkg.serialize_ntriples(graph).encode("utf-8")), summary.triples_added)
            want_digest, want_added = expected[k]
            if digest != want_digest:
                problems.setdefault(i, []).append("graph file differs from the library result")
            if added != want_added:
                problems.setdefault(i, []).append(f"triples added {added}, library says {want_added}")
        return problems

    def corpus(self):
        batches = [e for b in self.batches for e in b]
        return {"base": properties(self.base), "batches": properties(batches)}

    def graph_file_bytes(self):
        return sum(self.file_sizes) / len(self.file_sizes)


def _rows(table) -> list[tuple]:
    return [tuple(row[h] for h in table.header) for row in table.rows]


class QueryLib(Workload):
    """`run_query` + `format_results` on a 5,000-report graph held in memory."""

    name = "query_lib"
    uses_children = False
    REPORTS = 5000
    # Per 100 ops, fastest shape first.  p50 falls well inside the uc3 band
    # (0-65%), whose cost does not depend on the seed, and p99 in the middle
    # of the uc5 band (98-100%).
    MIX_COUNTS = {3: 65, 1: 12, 2: 18, 6: 1, 4: 2, 5: 2}
    cycle = sum(MIX_COUNTS.values())  # one pass of the mix
    UC1_CONST = "android_malware_ontology:family_aberebot"
    UC2_CONST = "android_malware_ontology:tag_aberebot"
    UC3_CONST = "android_malware_ontology:file_21d178e0688af591964ae00b71263d2e086706017ebc98d7488d57771144d337"

    def setup(self) -> None:
        self.graph = None
        gc.collect()
        self.entries = Generator(self.seed).reports(self.REPORTS)
        self.graph = build_graph(self.entries)

    def prepare(self) -> None:
        self.expected = Expected([e.report for e in self.entries])
        texts = {k: (QUERIES / f"use_case_{k}.rq").read_text(encoding="utf-8") for k in range(1, 7)}
        for k, const in ((1, self.UC1_CONST), (2, self.UC2_CONST), (3, self.UC3_CONST)):
            if const not in texts[k]:
                raise RuntimeError(f"use_case_{k}.rq no longer holds {const}")
        self.texts = texts
        self.families = sorted(self.expected.family_members)
        self.tags = self.expected.rotating_tags()
        self.shas = self.expected.shas()
        random.Random(self.seed).shuffle(self.shas)
        self.mix = [
            shape
            for _, shape in sorted(
                ((j + 0.5) / n, shape) for shape, n in self.MIX_COUNTS.items() for j in range(n)
            )
        ]
        self.shape_counts = {k: 0 for k in range(1, 7)}
        self.checked: dict[tuple, tuple[str, list[str]]] = {}  # query -> first digest, problems
        self.whole = {4: self.expected.uc4(), 5: self.expected.uc5(), 6: self.expected.uc6()}
        gc.collect()
        gc.freeze()

    def _query(self, shape: int, n: int) -> tuple[tuple, str]:
        text = self.texts[shape]
        if shape == 1:
            family = self.families[n % len(self.families)]
            return (1, family), text.replace(self.UC1_CONST, f"<{self.expected.family_iri[family]}>")
        if shape == 2:
            tag = self.tags[n % len(self.tags)]
            return (2, tag), text.replace(self.UC2_CONST, f"<{self.expected.tag_iri[tag]}>")
        if shape == 3:
            sha = self.shas[n % len(self.shas)]
            return (3, sha), text.replace(self.UC3_CONST, f"<{self.expected.ids[sha]['file']}>")
        return (shape,), text

    def _want(self, key: tuple):
        shape = key[0]
        if shape == 1:
            return self.expected.uc1(key[1])
        if shape == 2:
            return self.expected.uc2(key[1])
        if shape == 3:
            return self.expected.uc3(key[1])
        return self.whole[shape]

    def _check(self, key, table, out: str) -> list[str]:
        rows = _rows(table)
        problems = []
        if out.count("\n") != len(rows) + 1:
            problems.append("formatted output does not hold one line per row")
        want = self._want(key)
        got = rows if isinstance(want, list) else set(rows)
        if got != want or len(rows) != len(want):
            problems.append(f"uc{key[0]} {key[1:]}: {len(rows)} rows, plan says {len(want)}")
        return problems

    def op(self, i, spans=None):
        shape = self.mix[i % len(self.mix)]
        key, text = self._query(shape, self.shape_counts[shape])
        self.shape_counts[shape] += 1
        self.op_shape[i] = shape
        q = andmalkg.query
        start = time.perf_counter()
        table = q.run_query(self.graph, text)
        out = q.format_results(table, "tsv")
        ms = (time.perf_counter() - start) * 1000.0
        digest = _digest(out.encode("utf-8"))
        if key not in self.checked:
            self.checked[key] = (digest, self._check(key, table, out))
        first_digest, problems = self.checked[key]
        if digest != first_digest:
            return ms, [f"uc{shape} {key[1:]}: output differs from an earlier run of the same query"]
        return ms, problems

    def known_defects(self):
        """uc2 on each slug-colliding tag; fails while slug() merges labels."""
        found = []
        for tag in self.expected.colliding_tags():
            text = self.texts[2].replace(self.UC2_CONST, f"<{self.expected.tag_iri[tag]}>")
            rows = set(_rows(andmalkg.query.run_query(self.graph, text)))
            want = self.expected.uc2(tag)
            if rows != want:
                found.append(
                    f"uc2 tag {tag!r}: {len(rows)} rows, plan says {len(want)} "
                    "(slug() merges distinct labels into one IRI; ROADMAP item 3)"
                )
        return found

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def graph_file_bytes(self):
        return float(len(andmalkg.rdf.serialize_ntriples(self.graph).encode("utf-8")))


class CliRead(Workload):
    """query / stats / validate / emit, in turn, against a 1,500-report graph file."""

    name = "cli_read"
    cycle = 4
    # Small enough that two whole cycles fit in a 20-second run.
    REPORTS = 1500

    def setup(self) -> None:
        self.entries = Generator(self.seed).reports(self.REPORTS)
        self.graph = build_graph(self.entries)
        self.graph_nt = andmalkg.serialize_ntriples(self.graph).encode("utf-8")

    def prepare(self) -> None:
        self.work.mkdir(parents=True)
        (self.work / "graph.nt").write_bytes(self.graph_nt)
        expected = Expected([e.report for e in self.entries])
        self.turtle = self.work / "graph.ttl"
        self.commands = [
            ("query", [str(QUERIES / "use_case_6.rq")], expected.uc6_tsv()),
            ("stats", ["--by", "family"], expected.stats_family()),
            ("validate", [], "violations: 0\n"),
            ("emit", ["--format", "turtle", "-o", str(self.turtle)], ""),
        ]
        self.turtle_digests: list[tuple[int, str]] = []

    def op(self, i, spans=None):
        command, extra, want = self.commands[i % len(self.commands)]
        self.op_command[i] = command
        if command == "query":
            self.op_shape[i] = 6
        if command == "emit" and self.turtle.exists():
            self.turtle.unlink()
        child = run_child(["--graph", str(self.work / "graph.nt"), command] + extra, self.work, spans, i)
        problems = []
        if child.code != 0:
            problems.append(f"{command}: exit code {child.code}")
        if child.out != want:
            problems.append(f"{command}: stdout differs from the plan ({child.out[:120]!r})")
        if command == "emit":
            data = self.turtle.read_bytes() if self.turtle.exists() else b""
            self.turtle_digests.append((i, _digest(data)))
        return child.ms, problems

    def verify(self):
        problems: dict[int, list[str]] = {}
        want = _digest(andmalkg.serialize_turtle(self.graph).encode("utf-8"))
        for i, digest in self.turtle_digests:
            if digest != want:
                problems.setdefault(i, []).append("emit: Turtle differs from the library result")
        if (self.work / "graph.nt").read_bytes() != self.graph_nt:
            for i in self.op_command:
                problems.setdefault(i, []).append("a read command changed the graph file")
        return problems

    def graph_file_bytes(self):
        return float(len(self.graph_nt))


WORKLOADS = {w.name: w for w in (IngestCli, QueryLib, CliRead)}
