import errno
import gc
import hashlib
import json
import marshal
import os
import random
import stat
import subprocess
import sys
import time
import tracemalloc
import zlib
from pathlib import Path

import pytest

from andmalkg import (
    FetchSelector,
    FixtureSource,
    NTriplesParseError,
    build_schema,
    fetch_reports,
    ingest_corpus,
    ingest_file,
    mint_iris,
    parse_ntriples,
    serialize_ntriples,
    slug,
)
from andmalkg.cli import main
import andmalkg.cli as cli_mod
import andmalkg.ingest as ingest_mod
import andmalkg.rdf as rdf_mod

from conftest import FIXTURES, QUERIES, ROOT
from randgraph import random_graph

ANDMAL = "http://secuirty.birzeit.edu/android_malware_ontology#"
MALONT = "http://idea.rpi.edu/malont#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


@pytest.fixture(scope="module")
def table1_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "graph.nt"
    rc = main(["--graph", str(path), "ingest", "--fixtures", str(FIXTURES / "table1")])
    assert rc == 0
    return path


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def stats_rows(out):
    rows = {}
    for line in out.strip().splitlines():
        key, count = line.rsplit("\t", 1)
        rows[key] = int(count)
    return rows


def test_ingest_fixtures_reports_and_exit_code(tmp_path, capsys, manifest):
    graph = tmp_path / "graph.nt"
    rc, out, err = run(
        capsys, "--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1")
    )
    assert rc == 0
    assert f"reports: {manifest['table1']['reports']}" in out
    assert "violations: 0" in out
    assert graph.exists()

    # repeating the ingest adds nothing new
    rc, out, err = run(
        capsys, "--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1")
    )
    assert rc == 0
    assert "triples added: 0" in out


def test_ingest_limit_and_signature(tmp_path, capsys, manifest):
    graph = tmp_path / "g.nt"
    rc, out, _ = run(
        capsys,
        "--graph", str(graph),
        "ingest", "--fixtures", str(FIXTURES / "table1"), "--limit", "5",
    )
    assert rc == 0
    assert "reports: 5" in out

    graph2 = tmp_path / "g2.nt"
    rc, out, _ = run(
        capsys,
        "--graph", str(graph2),
        "ingest", "--fixtures", str(FIXTURES / "table1"), "--signature", "Anubis",
    )
    assert rc == 0
    assert f"reports: {manifest['table1']['families']['Anubis']}" in out

    # the slug stats prints matches no signature: one warning, and the
    # summary, exit code and graph file of an empty batch
    table1 = FIXTURES / "table1"
    graph3 = tmp_path / "g3.nt"
    rc, out, err = run(capsys, "--graph", str(graph3), "ingest", "--fixtures", str(table1), "--signature", "anubis")
    assert (rc, out) == (0, "reports: 0\ntriples added: 0\nviolations: 0\n")
    assert err == f"warning: no report in {table1} has signature 'anubis' (signatures match exactly)\n"
    assert graph3.read_bytes() == b""


def test_ingest_warns_about_bad_fixture_files(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ok.json").write_text(
        json.dumps({"sha256_hash": "c" * 64, "file_name": "ok.apk"}), encoding="utf-8"
    )
    (corpus / "bad.json").write_text("{nope", encoding="utf-8")
    rc, out, err = run(
        capsys, "--graph", str(tmp_path / "g.nt"), "ingest", "--fixtures", str(corpus)
    )
    assert rc == 0
    assert "reports: 1" in out
    assert "warning: bad.json" in err

    # no readable report at all: the skipped file is the one warning, even
    # with a --signature that nothing matched
    (corpus / "ok.json").unlink()
    rc, out, err = run(
        capsys, "--graph", str(tmp_path / "g.nt"), "ingest", "--fixtures", str(corpus), "--signature", "Anubis"
    )
    assert (rc, out) == (0, "reports: 0\ntriples added: 0\nviolations: 0\n")
    assert err.startswith("warning: bad.json: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["directory", "dangling-symlink"])
def test_ingest_skips_an_unreadable_fixture_entry(tmp_path, capsys, entry):
    # an entry named *.json that cannot be read is skipped with a warning,
    # as a malformed file is, and the rest of the batch goes in
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for fixture in (FIXTURES / "table1").glob("*.json"):
        (corpus / fixture.name).write_bytes(fixture.read_bytes())
    if entry == "directory":
        (corpus / "zz_dir.json").mkdir()
    else:
        (corpus / "zz_dir.json").symlink_to(tmp_path / "nowhere.json")
    reference = tmp_path / "reference.nt"
    expected = run(capsys, "--graph", str(reference), "ingest", "--fixtures", str(FIXTURES / "table1"))
    graph = tmp_path / "g.nt"
    rc, out, err = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(corpus))
    assert (rc, out) == expected[:2] and out.startswith("reports: 71\n")
    assert err.startswith("warning: zz_dir.json: ") and err.count("\n") == 1
    assert graph.read_bytes() == reference.read_bytes()


def test_ingest_warning_prints_once(tmp_path):
    # A fresh interpreter, so no test-runner handler sits on the root logger
    # and logging's own fallback handler would be the one to print.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.json").write_text("{nope", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from andmalkg.cli import main; sys.exit(main(sys.argv[1:]))",
         "--graph", str(tmp_path / "g.nt"), "ingest", "--fixtures", str(corpus)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr.count("bad.json") == 1
    assert "warning: bad.json" in proc.stderr


_COMMANDS_SCRIPT = """
import contextlib, io, json, sys
from andmalkg.cli import main
graph, fixtures, query = sys.argv[1:]
runs = []
for argv in (
    ["ingest", "--fixtures", fixtures],
    ["stats", "--by", "family"],
    ["query", query],
    ["validate"],
    ["emit", "--format", "turtle"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["--graph", graph, *argv])
    runs.append([argv[0], rc, [m for m in ("urllib.request", "http.client") if m in sys.modules]])
print(json.dumps(runs))
"""


def test_cli_commands_leave_the_http_client_unloaded(tmp_path):
    # only `ingest --live` sends a request, so no other command should pay
    # for importing urllib.request or http.client
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COMMANDS_SCRIPT,
         str(tmp_path / "g.nt"), str(FIXTURES / "table1"), str(QUERIES / "use_case_6.rq")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [command, 0, []] for command in ("ingest", "stats", "query", "validate", "emit")
    ]


@pytest.mark.parametrize("module", ["andmalkg", "andmalkg.cli"])
def test_python_m_runs_the_command(tmp_path, capsys, module):
    # python -m runs cli.run(), as the installed andmalkg script does
    graph = tmp_path / "g.nt"
    assert main(["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1"), "--signature", "Anubis"]) == 0
    capsys.readouterr()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    def run_module(path):
        return subprocess.run(
            [sys.executable, "-m", module, "--graph", str(path), "stats", "--by", "family"],
            capture_output=True, text=True, env=env, timeout=60,
        )

    proc = run_module(graph)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "anubis\t21\nTOTAL\t21\n", "")
    proc = run_module(tmp_path / "missing.nt")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_ingest_leaves_hashlib_unloaded(tmp_path, capsys):
    # hashlib loads OpenSSL, a few MB of resident memory that an ingest,
    # which never touches a snapshot, has no use for
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    graph = tmp_path / "g.nt"
    assert main(["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "multifam")]) == 0
    assert main(["--graph", str(graph), "stats", "--by", "tag"]) == 0
    capsys.readouterr()
    script = (
        "import sys; from andmalkg.cli import main\n"
        "for corpus in sys.argv[2:]:\n"
        "    assert main(['--graph', sys.argv[1], 'ingest', '--fixtures', corpus]) == 0\n"
        "print('hashlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(graph), str(FIXTURES / "multifam"), str(FIXTURES / "table1")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# Runs the CLI on argv[2:] in a fresh interpreter, then writes the names of
# all modules it imported to stderr, after a "modules:" line.  With argv[1]
# "snapshot", a parse of the graph file fails the run.
_IMPORTS_SCRIPT = """
import sys
import andmalkg.cli as cli
if sys.argv[1] == "snapshot":
    def parse(text):
        raise AssertionError("parsed the graph file although a snapshot matched")
    cli.parse_ntriples = parse
try:
    code = cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    print("modules:", *sorted(sys.modules), sep="\\n", file=sys.stderr)
sys.exit(code)
"""

# read command -> its arguments, and the modules it never imports besides
# those no read command imports
_READ_IMPORTS = {
    "query": ([str(QUERIES / "use_case_6.rq")], {"andmalkg.schema"}),
    "stats": (["--by", "family"], {"andmalkg.query", "andmalkg.schema"}),
    "emit": (["--format", "turtle"], {"andmalkg.query", "andmalkg.schema"}),
    "validate": ([], {"andmalkg.query"}),
}
# hashlib loads OpenSSL, a few MB of resident memory: no read hashes the
# graph file, whether it parses it or loads its snapshot
_NO_READ_IMPORTS = {"andmalkg.ingest", "hashlib", "json", "logging"}


def _run_with_imports(graph, mode, argv):
    """(exit code, stdout, set of imported modules) of one CLI run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_SCRIPT, mode, "--graph", str(graph), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    err, _, modules = proc.stderr.rpartition("modules:\n")
    assert "Traceback" not in err, err
    return proc.returncode, proc.stdout, set(modules.split())


@pytest.mark.parametrize("command", sorted(_READ_IMPORTS))
def test_read_command_imports_only_what_it_runs(tmp_path, capsys, command):
    extra, own = _READ_IMPORTS[command]
    never = own | _NO_READ_IMPORTS
    graph = tmp_path / "g.nt"
    for corpus in ("table1", "multifam"):
        assert main(["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / corpus)]) == 0
    capsys.readouterr()
    snapshot = cli_mod._snapshot_path(graph)
    assert not snapshot.exists()
    parsed = _run_with_imports(graph, "parse", [command, *extra])
    assert snapshot.exists()
    _trust(graph, snapshot)
    loaded = _run_with_imports(graph, "snapshot", [command, *extra])
    assert parsed[:2] == loaded[:2]
    assert parsed[0] == 0 and parsed[1]
    assert not never & parsed[2]
    assert not never & loaded[2]
    # each run imports the package's modules, not only some of them
    assert {"andmalkg.cli", "andmalkg.rdf"} <= parsed[2] & loaded[2]


def test_ingest_never_imports_query(tmp_path):
    code, out, modules = _run_with_imports(
        tmp_path / "g.nt", "parse", ["ingest", "--fixtures", str(FIXTURES / "table1")]
    )
    assert code == 0 and out.startswith("reports: ")
    assert {"andmalkg.ingest", "andmalkg.schema"} <= modules
    # nor does it import a process pool or pickle to run its side jobs
    assert not {"andmalkg.query", "multiprocessing", "pickle"} & modules


def test_cli_ingest_mints_each_report_once(tmp_path, capsys, multifam_graph, table1_reports):
    # every call of mint_iris's code counts, whatever name it is called by
    minted = []
    code = ingest_mod.mint_iris.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            minted.append(frame.f_locals["report"].sha256)

    graph = tmp_path / "g.nt"
    graph.write_bytes(serialize_ntriples(multifam_graph).encode("utf-8"))
    sys.setprofile(profile)
    try:
        rc, out, _ = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1"))
    finally:
        sys.setprofile(None)
    assert rc == 0 and f"reports: {len(table1_reports)}\n" in out
    assert sorted(minted) == sorted(r.sha256 for r in table1_reports)


@pytest.mark.parametrize("failure", ["serialize", "mid-write"])
def test_failed_graph_write_keeps_old_file(tmp_path, capsys, monkeypatch, failure):
    graph = tmp_path / "graph.nt"
    table1 = ["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1")]
    rc, _, _ = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "multifam"))
    assert rc == 0
    before = graph.read_bytes()
    # what each temporary file held when it was removed
    removed = {}
    real_unlink = Path.unlink

    def unlink(self, missing_ok=False):
        if self.name.endswith(".tmp"):
            removed[self.name] = self.read_bytes()
        real_unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", unlink)
    real_merged = ingest_mod._merged
    if failure == "serialize":
        # the merge of old and new lines fails before anything is written
        def broken(old, new):
            raise RuntimeError("merge failed")
    else:
        # the last chunk holds a lone surrogate, which cannot be encoded,
        # so the write stops after the chunks before it are on disk
        monkeypatch.setattr(ingest_mod, "_CHUNK_LINES", 100)

        def broken(old, new):
            return real_merged(old, new) + ["\ud800\n"]

    monkeypatch.setattr(ingest_mod, "_merged", broken)
    with pytest.raises((RuntimeError, UnicodeEncodeError)):
        main(table1)
    _assert_no_child_left()
    assert graph.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [".graph.nt.lock", "graph.nt"]
    if failure == "serialize":
        assert removed == {}
        return
    [partial] = removed.values()
    monkeypatch.undo()
    assert main(table1) == 0
    capsys.readouterr()
    # every chunk but the last was written, and the old file survived them
    merged = graph.read_bytes()
    assert 0 < len(partial) < len(merged) and merged.startswith(partial)
    assert partial.count(b"\n") == 100 * (merged.count(b"\n") // 100)


def test_ingest_missing_fixture_dir_is_io_error(tmp_path, capsys):
    rc, out, err = run(
        capsys,
        "--graph", str(tmp_path / "g.nt"),
        "ingest", "--fixtures", str(tmp_path / "nowhere"),
    )
    assert rc == 2
    assert "error:" in err


def test_stats_family_matches_manifest(table1_store, capsys, manifest):
    rc, out, _ = run(capsys, "--graph", str(table1_store), "stats", "--by", "family")
    assert rc == 0
    rows = stats_rows(out)
    expected = {slug(k): v for k, v in manifest["table1"]["families"].items()}
    expected["n/a"] = manifest["table1"]["na"]
    expected["TOTAL"] = manifest["table1"]["reports"]
    assert rows == expected
    # ordering: counts descending, TOTAL last
    lines = out.strip().splitlines()
    assert lines[-1].startswith("TOTAL\t")
    counts = [int(line.rsplit("\t", 1)[1]) for line in lines[:-1]]
    assert counts == sorted(counts, reverse=True)


def test_stats_country_agrees_with_group_by_query(table1_store, tmp_path, capsys):
    rc, out, _ = run(capsys, "--graph", str(table1_store), "stats", "--by", "country")
    assert rc == 0
    stats = {k: v for k, v in stats_rows(out).items() if k != "TOTAL"}

    qfile = tmp_path / "by_country.rq"
    qfile.write_text(
        f"PREFIX amo: <{ANDMAL}>\n"
        "SELECT ?loc (COUNT(?file) AS ?n)\n"
        "WHERE { ?file amo:ReportedFrom ?loc . }\n"
        "GROUP BY ?loc\n",
        encoding="utf-8",
    )
    rc, out, _ = run(capsys, "--graph", str(table1_store), "query", str(qfile))
    assert rc == 0
    queried = {}
    for line in out.strip().splitlines()[1:]:
        loc, n = line.split("\t")
        queried[loc.rsplit("loc_", 1)[-1].rstrip(">")] = int(n)
    assert queried == stats


def test_loaded_graph_is_frozen_out_of_collections(table1_store, monkeypatch):
    cli_mod._snapshot_path(table1_store).unlink(missing_ok=True)
    assert gc.isenabled()
    gc.unfreeze()
    try:
        graph = cli_mod._load_graph(table1_store)
        # every object alive after the load, the graph's among them, is frozen
        assert gc.get_freeze_count() > len(graph._tokens)
        assert gc.isenabled()
    finally:
        gc.unfreeze()
    # the same holds for a graph loaded from the snapshot the parse left
    assert cli_mod._snapshot_path(table1_store).exists()
    _trust(table1_store, cli_mod._snapshot_path(table1_store))
    monkeypatch.setattr(cli_mod, "parse_ntriples", _no_parse)
    try:
        graph = cli_mod._load_graph(table1_store)
        assert gc.get_freeze_count() > len(graph._tokens)
        assert gc.isenabled()
    finally:
        gc.unfreeze()


@pytest.mark.parametrize(
    "command",
    [
        ["query", str(QUERIES / "use_case_6.rq")],
        ["stats", "--by", "tag"],
        ["validate"],
        ["emit", "--format", "turtle"],
    ],
    ids=["query", "stats", "validate", "emit"],
)
def test_read_command_on_missing_store_fails(tmp_path, capsys, command):
    graph = tmp_path / "void.nt"
    rc, out, err = run(capsys, "--graph", str(graph), *command)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not graph.exists()
    assert list(tmp_path.iterdir()) == []


def test_query_use_case_5_header(table1_store, capsys):
    rc, out, _ = run(
        capsys, "--graph", str(table1_store), "query", str(QUERIES / "use_case_5.rq")
    )
    assert rc == 0
    header = out.splitlines()[0]
    assert header == "?file\t?fileName\t?reporter\t?reportedFrom"
    assert len(out.splitlines()) > 1


def test_query_table_format(table1_store, capsys):
    rc, out, _ = run(
        capsys,
        "--graph", str(table1_store),
        "query", str(QUERIES / "use_case_6.rq"), "--format", "table",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].split() == ["?reportedFrom", "?count"]
    assert set(lines[1]) <= {"-", " "}


def test_query_malformed_file_fails_with_offset(table1_store, tmp_path, capsys):
    qfile = tmp_path / "broken.rq"
    qfile.write_text("SELECT ?s WHERE { ?s ?p }", encoding="utf-8")
    rc, out, err = run(capsys, "--graph", str(table1_store), "query", str(qfile))
    assert rc == 1
    assert "error:" in err and "offset" in err


def test_query_with_a_bad_prefix_iri_fails_with_its_offset(table1_store, tmp_path, capsys):
    qfile = tmp_path / "badprefix.rq"
    qfile.write_text("PREFIX x: <nos> SELECT ?s WHERE { ?s x:p ?o }", encoding="utf-8")
    rc, out, err = run(capsys, "--graph", str(table1_store), "query", str(qfile))
    assert (rc, out) == (1, "")
    assert err == "error: at offset 10: not an absolute IRI (missing scheme): 'nos'\n"


def test_query_missing_file_is_io_error(table1_store, capsys, tmp_path):
    rc, out, err = run(
        capsys, "--graph", str(table1_store), "query", str(tmp_path / "none.rq")
    )
    assert rc == 2


def test_query_file_is_read_and_parsed_before_the_graph_is_loaded(table1_store, tmp_path, capsys, monkeypatch):
    graph = tmp_path / "graph.nt"
    graph.write_bytes(table1_store.read_bytes())
    qfile = tmp_path / "broken.rq"
    qfile.write_text("SELECT ?s WHERE { ?s ?p }", encoding="utf-8")
    parses = ParseCounter(monkeypatch)
    malformed = (1, "", "error: at offset 24: expected a term in object position\n")
    assert run(capsys, "--graph", str(graph), "query", str(qfile)) == malformed
    missing = run(capsys, "--graph", str(graph), "query", str(tmp_path / "none.rq"))
    assert missing[:2] == (2, "") and "none.rq" in missing[2]
    assert parses.calls == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["broken.rq", "graph.nt"]
    # with the graph bad as well, the query's error is the one reported
    graph.write_text("<http://a> <http://b> missing-dot\n", encoding="utf-8")
    assert run(capsys, "--graph", str(graph), "query", str(qfile)) == malformed
    assert run(capsys, "--graph", str(tmp_path / "absent.nt"), "query", str(qfile)) == malformed


@pytest.mark.parametrize(("spelt", "misspelt"), [
    ("hasMalwareFamily", "hasMalwareFamly"),
    ("family_aberebot", "family_AbereBot"),  # the signature's spelling, not the slug
])
def test_query_warns_of_a_constant_no_triple_uses(table1_store, tmp_path, capsys, spelt, misspelt):
    text = (QUERIES / "use_case_1.rq").read_text(encoding="utf-8")
    assert text.count(f":{spelt} ") + text.count(f":{spelt}\n") == 1
    qfile = tmp_path / "typo.rq"
    qfile.write_text(text.replace(f":{spelt}", f":{misspelt}"), encoding="utf-8")
    rc, out, err = run(capsys, "--graph", str(table1_store), "query", str(qfile))
    # stdout and the exit code are what they were before the warning
    assert (rc, out) == (0, "?malware\n")
    assert err == f"warning: <{ANDMAL}{misspelt}> occurs in no triple of the graph\n"
    assert run(capsys, "--graph", str(table1_store), "query", str(QUERIES / "use_case_1.rq"))[2] == ""


def test_a_snapshot_load_holds_no_copy_of_the_graph_file(tmp_path, monkeypatch):
    # long subject IRIs, each on many lines: the file is far larger than the
    # graph and its snapshot, so a load that read the file whole would show
    text = "".join(
        f'<{ANDMAL}file_{"x" * 1000}{i}> <{ANDMAL}p{j}> "v{j % 7}" .\n' for i in range(100) for j in range(40)
    )
    graph = tmp_path / "graph.nt"
    graph.write_bytes(serialize_ntriples(parse_ntriples(text)).encode("utf-8"))
    snapshot = cli_mod._snapshot_path(graph)
    parsed = cli_mod._load_or_parse(graph, snapshot)  # parses, and writes the snapshot
    size = graph.stat().st_size
    assert snapshot.stat().st_size * 10 < size
    _trust(graph, snapshot)

    def no_parse(text):
        raise AssertionError("parsed instead of loading the snapshot")

    monkeypatch.setattr(cli_mod, "parse_ntriples", no_parse)
    tracemalloc.start()
    try:
        loaded = cli_mod._load_or_parse(graph, snapshot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == parsed
    assert peak < size


def test_undeclared_prefix_fails(table1_store, tmp_path, capsys):
    qfile = tmp_path / "noprefix.rq"
    qfile.write_text("SELECT ?m WHERE { ?m amo:hasTag ?t . }", encoding="utf-8")
    rc, _, err = run(capsys, "--graph", str(table1_store), "query", str(qfile))
    assert rc == 1
    assert "amo" in err


def test_emit_ntriples_is_stable(table1_store, tmp_path, capsys):
    out1 = tmp_path / "a.nt"
    out2 = tmp_path / "b.nt"
    assert main(["--graph", str(table1_store), "emit", "-o", str(out1)]) == 0
    assert main(["--graph", str(table1_store), "emit", "-o", str(out2)]) == 0
    capsys.readouterr()
    first = out1.read_bytes()
    assert first == out2.read_bytes()
    lines = first.decode("utf-8").splitlines()
    assert lines == sorted(lines)
    assert all(line.endswith(" .") for line in lines)


def test_emit_output_is_replaced_whole_and_keeps_its_mode(table1_store, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out.ttl"
    out.write_bytes(b"old output\n")
    out.chmod(0o604)

    class DiskFills:
        """A file opened for writing takes the first bytes, then fails."""

        def __init__(self, file, mode="r"):
            self.f = open(file, mode)

        def __enter__(self):
            return self if "w" in self.f.mode else self.f.__enter__()

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:100])
            raise OSError(errno.ENOSPC, "No space left on device")

    # a write that fails part-way leaves the old output as it was
    with monkeypatch.context() as m:
        m.setattr(rdf_mod, "open", DiskFills, raising=False)
        rc, _, err = run(capsys, "--graph", str(table1_store), "emit", "--format", "turtle", "-o", str(out))
    assert rc == 2 and "No space left on device" in err
    assert out.read_bytes() == b"old output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.ttl"]
    assert run(capsys, "--graph", str(table1_store), "emit", "--format", "turtle", "-o", str(out)) == (0, "", "")
    assert out.read_bytes().startswith(b"@prefix ")
    assert _mode(out) == 0o604
    assert [p.name for p in tmp_path.iterdir()] == ["out.ttl"]


def test_emit_turtle_header(table1_store, capsys):
    rc, out, _ = run(
        capsys, "--graph", str(table1_store), "emit", "--format", "turtle"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == f"@prefix android_malware_ontology: <{ANDMAL}> ."
    assert lines[1] == f"@prefix malont: <{MALONT}> ."


def test_validate_clean_store(table1_store, capsys):
    rc, out, _ = run(capsys, "--graph", str(table1_store), "validate")
    assert rc == 0
    assert out.strip().endswith("violations: 0")


def test_validate_flags_domain_violation(tmp_path, capsys):
    graph = tmp_path / "bad.nt"
    f = f"{ANDMAL}file_{'d' * 64}"
    fam = f"{ANDMAL}family_x"
    graph.write_text(
        f"<{f}> <{RDF_TYPE}> <{ANDMAL}File> .\n"
        f"<{fam}> <{RDF_TYPE}> <{MALONT}MalwareFamily> .\n"
        f"<{f}> <{ANDMAL}hasMalwareFamily> <{fam}> .\n",
        encoding="utf-8",
    )
    rc, out, _ = run(capsys, "--graph", str(graph), "validate")
    assert rc == 1
    assert "domain-mismatch" in out
    assert "violations: 1" in out


def test_corrupt_graph_file_fails_cleanly(tmp_path, capsys):
    graph = tmp_path / "corrupt.nt"
    graph.write_text("<http://a> <http://b> missing-dot\n", encoding="utf-8")
    rc, _, err = run(capsys, "--graph", str(graph), "stats", "--by", "family")
    assert rc == 1
    assert "line 1" in err


def test_live_ingest_uses_endpoint_env(tmp_path, capsys, monkeypatch, fake_api):
    fake_api.answer({"query_status": "ok", "data": [{"sha256_hash": "e" * 64, "file_name": "e.apk"}]})
    monkeypatch.setenv("AMKG_API_ENDPOINT", fake_api.url)
    rc, out, _ = run(
        capsys,
        "--graph", str(tmp_path / "g.nt"),
        "ingest", "--live", "--signature", "Anubis", "--limit", "7",
    )
    assert rc == 0
    assert "reports: 1" in out
    assert fake_api.requests == [
        ("/api/v1/", "application/x-www-form-urlencoded", b"query=get_siginfo&signature=Anubis&limit=7")
    ]


def test_live_ingest_api_error(tmp_path, capsys, monkeypatch, fake_api):
    fake_api.answer({"query_status": "http_post_expected", "data": []})
    monkeypatch.setenv("AMKG_API_ENDPOINT", fake_api.url)
    rc, _, err = run(capsys, "--graph", str(tmp_path / "g.nt"), "ingest", "--live")
    assert rc == 2
    assert "http_post_expected" in err


@pytest.mark.parametrize(
    "endpoint",
    [
        lambda tmp: (tmp / "api.json").as_uri(),
        lambda tmp: 'data:application/json,{"query_status": "ok", "data": []}',
        lambda tmp: "example.com/api",
        lambda tmp: "",
    ],
    ids=["file", "data", "no-scheme", "empty"],
)
def test_live_ingest_sends_only_http_requests(tmp_path, capsys, monkeypatch, endpoint):
    # a file: or data: URL is not read, even one that holds an answer the
    # API could give, and an endpoint without a scheme is not guessed at
    (tmp_path / "api.json").write_text('{"query_status": "ok", "data": []}', encoding="utf-8")
    monkeypatch.setenv("AMKG_API_ENDPOINT", endpoint(tmp_path))
    graph = tmp_path / "g.nt"
    rc, out, err = run(capsys, "--graph", str(graph), "ingest", "--live", "--limit", "5")
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: request to ")
    assert "Traceback" not in err
    assert not graph.exists()


SELECTOR_RANGE = "selector limit out of range [1, 1000]"


@pytest.mark.parametrize(
    "source, option, value, message",
    [
        (["--fixtures", str(FIXTURES / "table1")], "--limit", "0", f"{SELECTOR_RANGE}: 0"),
        (["--fixtures", str(FIXTURES / "table1")], "--limit", "-1", f"{SELECTOR_RANGE}: -1"),
        (["--fixtures", str(FIXTURES / "table1")], "--limit", "1001", f"{SELECTOR_RANGE}: 1001"),
        (["--live"], "--limit", "0", f"{SELECTOR_RANGE}: 0"),
        # get_recent answers with at most 100 reports
        (["--live"], "--limit", "101", "live recent limit out of range [1, 100]: 101"),
        # an empty family name is no family, not every family
        (["--fixtures", str(FIXTURES / "table1")], "--signature", "", "selector signature is blank: ''"),
    ],
    ids=["fixtures-0", "fixtures-minus-1", "fixtures-1001", "live-0", "live-101", "blank-signature"],
)
def test_ingest_limit_out_of_range_is_a_usage_error(tmp_path, capsys, monkeypatch, fake_api, source, option, value, message):
    monkeypatch.setenv("AMKG_API_ENDPOINT", fake_api.url)
    old = tmp_path / "old.nt"
    old.write_text(f"<{ANDMAL}a> <{ANDMAL}b> <{ANDMAL}c> .\n", encoding="utf-8")
    before = old.read_bytes()
    for graph in (old, tmp_path / "new.nt"):
        rc, out, err = run(capsys, "--graph", str(graph), "ingest", *source, option, value)
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"
    assert old.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.nt"]
    assert fake_api.requests == []


@pytest.mark.parametrize(
    "error",
    [ValueError("not a usage error"), UnicodeEncodeError("utf-8", "\ud800", 0, 1, "surrogates not allowed")],
    ids=["value-error", "unicode-error"],
)
def test_ingest_fault_that_is_a_value_error_is_raised_not_a_usage_error(tmp_path, capsys, monkeypatch, table1_graph, error):
    # only a rejected selector is exit 2; any other ValueError inside the
    # ingest is a fault, raised out of main with the graph file unchanged
    def fail(*args):
        raise error

    monkeypatch.setattr(ingest_mod, "_add_rows", fail)
    graph = tmp_path / "graph.nt"
    graph.write_text(serialize_ntriples(table1_graph), encoding="utf-8")
    before = graph.read_bytes()
    with pytest.raises(type(error)) as err:
        main(["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "multifam")])
    assert err.value is error
    assert capsys.readouterr() == ("", "")
    assert graph.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [".graph.nt.lock", "graph.nt"]


def test_ingest_skips_each_malformed_report_and_ingests_the_rest(tmp_path, capsys):
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    good = sorted((FIXTURES / "table1").glob("*.json"))[0]
    (fixtures / good.name).write_bytes(good.read_bytes())
    sha = "c" * 64
    bad = {
        "bad_date.json": json.dumps({"sha256_hash": sha, "file_name": "x", "first_seen": "0001-01-01 00:00:00+01:00"}),
        "bad_size.json": json.dumps({"sha256_hash": sha, "file_name": "x", "file_size": "²"}),
        "deep.json": "[" * 100000 + "]" * 100000,
        "long_number.json": '{"sha256_hash": "%s", "file_name": "x", "file_size": %s}' % (sha, "9" * 5000),
    }
    for name, text in bad.items():
        (fixtures / name).write_text(text, encoding="utf-8")
    graph = tmp_path / "g.nt"
    rc, out, err = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(fixtures))
    assert rc == 0
    assert out.startswith("reports: 1\n")
    assert [line.split(":")[:2] for line in err.splitlines()] == [["warning", f" {name}"] for name in sorted(bad)]
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / good.name).write_bytes(good.read_bytes())
    rc, _, _ = run(capsys, "--graph", str(tmp_path / "alone.nt"), "ingest", "--fixtures", str(alone))
    assert rc == 0
    assert graph.read_bytes() == (tmp_path / "alone.nt").read_bytes()


# Snapshots: .NAME.snap beside the graph file, written by read commands.


def _no_parse(text):
    raise AssertionError("parsed the graph file instead of loading its snapshot")


def _trust(graph, snapshot):
    # the snapshot written a second after the graph file's last change, so
    # the stamp it records is trusted
    info = graph.stat()
    written = max(info.st_mtime_ns, info.st_ctime_ns) + 10**9
    os.utime(snapshot, ns=(written, written))


def _changed(path, change, ctime):
    """Apply change to path until path's ctime is no longer ctime: a change
    within the file system clock's tick of the one before it keeps it."""
    for _ in range(1000):
        change()
        if path.stat().st_ctime_ns != ctime:
            return
        time.sleep(0.001)
    raise AssertionError(f"the ctime of {path} did not move")


def _no_whole_file_parse(arg):
    raise AssertionError("ingest parsed or serialized the whole canonical graph file")


class ParseCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        monkeypatch.setattr(cli_mod, "parse_ntriples", self)

    def __call__(self, text):
        self.calls += 1
        return parse_ntriples(text)


READ_COMMANDS = [
    ["query", str(QUERIES / "use_case_6.rq")],
    ["query", str(QUERIES / "use_case_5.rq"), "--format", "table"],
    ["stats", "--by", "family"],
    ["stats", "--by", "tag"],
    ["stats", "--by", "country"],
    ["stats", "--by", "reporter"],
    ["validate"],
    ["emit", "--format", "turtle"],
    ["emit", "--format", "ntriples"],
]

# one line in the canonical shape with a raw tab, one with an explicit
# ^^xsd:string: the parse keeps both spellings in _ids as aliases
ALIAS_LINES = (
    f'<{ANDMAL}file_x> <{ANDMAL}hasFileName> "a\tb.apk" .\n'
    f'<{ANDMAL}file_x> <{ANDMAL}hasFileName> "b.apk"^^<http://www.w3.org/2001/XMLSchema#string> .\n'
)


def _graph_text(name, request):
    if name in ("table1", "multifam"):
        return serialize_ntriples(request.getfixturevalue(f"{name}_graph"))
    if name == "aliased":
        return ALIAS_LINES + serialize_ntriples(request.getfixturevalue("multifam_graph"))
    seed = int(name.split("-")[1])
    return serialize_ntriples(random_graph(random.Random(seed), max_triples=200)) + ALIAS_LINES


@pytest.mark.parametrize("name", ["table1", "multifam", "aliased", "randgraph-3", "randgraph-17"])
def test_read_commands_answer_the_same_from_a_snapshot(tmp_path, capsys, monkeypatch, request, name):
    graph = tmp_path / "graph.nt"
    graph.write_text(_graph_text(name, request), encoding="utf-8")
    snapshot = tmp_path / ".graph.nt.snap"
    before = graph.read_bytes()
    parsed = parse_ntriples(before.decode("utf-8"))
    if name not in ("table1", "multifam"):
        assert len(parsed._ids) > len(parsed._tokens)
    for command in READ_COMMANDS:
        snapshot.unlink(missing_ok=True)
        without = run(capsys, "--graph", str(graph), *command)
        assert snapshot.exists()
        _trust(graph, snapshot)
        with monkeypatch.context() as m:
            m.setattr(cli_mod, "parse_ntriples", _no_parse)
            with_snapshot = run(capsys, "--graph", str(graph), *command)
            loaded = cli_mod._load_graph(graph)
            gc.unfreeze()
        assert with_snapshot == without
        assert loaded._ids == parsed._ids and loaded._tokens == parsed._tokens
        assert loaded == parsed
    assert graph.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [".graph.nt.snap", "graph.nt"]


def _stale(graph, snapshot):
    with graph.open("a", encoding="utf-8") as f:
        f.write(f"<{ANDMAL}file_new> <{RDF_TYPE}> <{ANDMAL}File> .\n")


def _flip(graph, snapshot):
    # a byte inside a token's text: the payload still unmarshals, to another graph
    data = snapshot.read_bytes()
    i = data.rindex(b"example.org")
    snapshot.write_bytes(data[:i] + b"E" + data[i + 1 :])


def _truncate(graph, snapshot):
    snapshot.write_bytes(snapshot.read_bytes()[:-1000])


def _refield(k, value):
    def damage(graph, snapshot):
        header, rest = snapshot.read_bytes().split(b"\n", 1)
        fields = header.split(b" ")
        fields[k] = value
        snapshot.write_bytes(b" ".join(fields) + b"\n" + rest)

    return damage


def _junk(graph, snapshot):
    snapshot.write_bytes(b"\x89junk\x00" * 5000)


def _old_tag(number):
    tag = rdf_mod._SNAPSHOT_TAG.replace("andmalkg-snapshot 5 ", f"andmalkg-snapshot {number} ")
    assert tag != rdf_mod._SNAPSHOT_TAG
    return tag


def _write_old_format(graph, snapshot, number, state):
    # a snapshot as format number wrote it, keyed on this graph file
    payload = marshal.dumps(state)
    key = hashlib.sha256(graph.read_bytes()).hexdigest()
    header = f"{_old_tag(number)} {key} {hashlib.sha256(payload).hexdigest()}\n"
    snapshot.write_bytes(header.encode("ascii") + payload)


def _old_layout(graph):
    """The graph in the file, and the object-keyed (OSP) index that
    formats 1 and 2 held after POS."""
    g = parse_ntriples(graph.read_text(encoding="utf-8"))
    osp = {}
    for s, p, o in g._walk():
        rdf_mod._index(osp, o, s, p)
    return g, osp


def _format_1(graph, snapshot):
    # its payload also held every triple, as a tuple of id triples
    g, osp = _old_layout(graph)
    _write_old_format(graph, snapshot, 1, (g._tokens, g._ids, tuple(g._walk()), g._spo, g._pos, osp))


def _format_2(graph, snapshot):
    g, osp = _old_layout(graph)
    _write_old_format(graph, snapshot, 2, (g._tokens, g._ids, len(g), g._spo, g._pos, osp))


def _format_3(graph, snapshot):
    # this format's payload, under a header with no stamp and the payload's SHA-256
    g = parse_ntriples(graph.read_text(encoding="utf-8"))
    _write_old_format(graph, snapshot, 3, (g._tokens, g._ids, len(g), g._spo, g._pos))


def _format_4(graph, snapshot):
    # this format's payload and the graph file's stamp, after the key of its bytes
    g = parse_ntriples(graph.read_text(encoding="utf-8"))
    payload = marshal.dumps((g._tokens, g._ids, len(g), g._spo, g._pos))
    key = hashlib.sha256(graph.read_bytes()).hexdigest()
    header = f"{_old_tag(4)} {key} {rdf_mod._stamp(graph.stat())} {zlib.crc32(payload):08x}\n"
    snapshot.write_bytes(header.encode("ascii") + payload)
    _trust(graph, snapshot)


@pytest.mark.parametrize(
    "damage",
    [_stale, _flip, _truncate, _refield(1, b"0"), _refield(3, b"2"), _refield(5, b"3.0"), _junk,
     _format_1, _format_2, _format_3, _format_4],
    ids=["stale", "flipped-byte", "truncated", "foreign-format", "foreign-marshal",
         "foreign-python", "junk", "format-1", "format-2", "format-3", "format-4"],
)
def test_unusable_snapshot_is_ignored_and_replaced(tmp_path, capsys, monkeypatch, damage):
    graph = tmp_path / "graph.nt"
    graph.write_text(ALIAS_LINES + serialize_ntriples(random_graph(random.Random(7), 200)), encoding="utf-8")
    snapshot = tmp_path / ".graph.nt.snap"
    assert run(capsys, "--graph", str(graph), "stats", "--by", "tag")[0] == 0
    assert snapshot.exists()
    damage(graph, snapshot)
    damaged = snapshot.read_bytes()
    expected = serialize_ntriples(parse_ntriples(graph.read_text(encoding="utf-8")))

    parses = ParseCounter(monkeypatch)
    assert run(capsys, "--graph", str(graph), "emit") == (0, expected, "")
    assert parses.calls == 1
    assert snapshot.read_bytes() != damaged
    # the replacement is loaded, and holds the graph the parse gives
    _trust(graph, snapshot)
    monkeypatch.setattr(cli_mod, "parse_ntriples", _no_parse)
    assert run(capsys, "--graph", str(graph), "emit") == (0, expected, "")
    loaded = cli_mod._load_graph(graph)
    gc.unfreeze()
    parsed = parse_ntriples(graph.read_text(encoding="utf-8"))
    assert loaded._ids == parsed._ids and loaded == parsed


class _Unread:
    """An open graph file whose bytes may not be read."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def fileno(self):
        return self.f.fileno()

    def read(self, *args):
        raise AssertionError("read the graph file although its stamp was trusted")

    seek = read


def _trusted_only(m, graph):
    """Make a read through the monkeypatch context m fail unless it loads
    the snapshot of graph without reading graph or hashing anything."""
    def guarded_open(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        return _Unread(f) if Path(path) == graph else f

    m.setattr(cli_mod, "parse_ntriples", _no_parse)
    m.setattr(cli_mod, "open", guarded_open, raising=False)
    m.setitem(sys.modules, "hashlib", None)


def test_a_trusted_stamp_loads_the_snapshot_without_reading_the_file(tmp_path, capsys, monkeypatch, request):
    graph = tmp_path / "graph.nt"
    graph.write_text(_graph_text("aliased", request), encoding="utf-8")
    snapshot = tmp_path / ".graph.nt.snap"
    for command in READ_COMMANDS:
        snapshot.unlink(missing_ok=True)
        without = run(capsys, "--graph", str(graph), *command)
        _trust(graph, snapshot)
        with monkeypatch.context() as m:
            _trusted_only(m, graph)
            assert run(capsys, "--graph", str(graph), *command) == without
    assert sorted(p.name for p in tmp_path.iterdir()) == [".graph.nt.snap", "graph.nt"]


def _racy(graph, snapshot):
    # the snapshot as old as the graph file's last change
    written = graph.stat().st_ctime_ns
    os.utime(snapshot, ns=(written, written))


def _racier(graph, snapshot):
    written = graph.stat().st_mtime_ns - 1
    os.utime(snapshot, ns=(written, written))


def _copied(graph, snapshot):
    # the same bytes under another inode
    copy = graph.with_name("copy.nt")
    copy.write_bytes(graph.read_bytes())
    os.replace(copy, graph)


def _touched(graph, snapshot):
    _changed(graph, lambda: os.utime(graph), graph.stat().st_ctime_ns)


def _chmodded(graph, snapshot):
    _changed(graph, lambda: graph.chmod(0o600), graph.stat().st_ctime_ns)


@pytest.mark.parametrize(
    "change", [_racy, _racier, _copied, _touched, _chmodded], ids=["racy", "racier", "copied", "touched", "chmodded"]
)
def test_an_untrusted_stamp_is_parsed_once_and_the_snapshot_stamped_again(tmp_path, capsys, monkeypatch, change):
    graph = tmp_path / "graph.nt"
    graph.write_text(ALIAS_LINES + serialize_ntriples(random_graph(random.Random(7), 200)), encoding="utf-8")
    snapshot = tmp_path / ".graph.nt.snap"
    for command in READ_COMMANDS:
        snapshot.unlink(missing_ok=True)
        expected = run(capsys, "--graph", str(graph), *command)
        _trust(graph, snapshot)
        change(graph, snapshot)
        written = snapshot.stat().st_ino
        with monkeypatch.context() as m:
            parses = ParseCounter(m)
            assert run(capsys, "--graph", str(graph), *command) == expected
        assert parses.calls == 1
        # a new snapshot, stamped with the file's stat now
        assert snapshot.stat().st_ino != written
        header = snapshot.read_bytes().split(b"\n", 1)[0].decode("ascii")
        assert header == f"{rdf_mod._SNAPSHOT_TAG} {rdf_mod._stamp(graph.stat())} {header[-8:]}"
        # which every later read trusts
        _trust(graph, snapshot)
        with monkeypatch.context() as m:
            _trusted_only(m, graph)
            assert run(capsys, "--graph", str(graph), *command) == expected


def test_a_same_size_edit_in_place_with_its_mtime_put_back_is_parsed(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "graph.nt"
    graph.write_text(ALIAS_LINES + serialize_ntriples(random_graph(random.Random(7), 200)), encoding="utf-8")
    snapshot = tmp_path / ".graph.nt.snap"
    before = run(capsys, "--graph", str(graph), "emit")
    _trust(graph, snapshot)
    old = graph.stat()
    i = graph.read_bytes().rindex(b"example.org")
    with open(graph, "r+b") as f:
        f.seek(i)
        f.write(b"E")
    _changed(graph, lambda: os.utime(graph, ns=(old.st_atime_ns, old.st_mtime_ns)), old.st_ctime_ns)
    new = graph.stat()
    # every field of the stamp but the ctime is as it was
    assert (new.st_dev, new.st_ino, new.st_size, new.st_mtime_ns) == (old.st_dev, old.st_ino, old.st_size, old.st_mtime_ns)
    expected = serialize_ntriples(parse_ntriples(graph.read_text(encoding="utf-8")))
    assert expected != before[1]
    parses = ParseCounter(monkeypatch)
    assert run(capsys, "--graph", str(graph), "emit") == (0, expected, "")
    assert parses.calls == 1
    # the snapshot written after that parse holds the edited graph
    _trust(graph, snapshot)
    monkeypatch.setattr(cli_mod, "parse_ntriples", _no_parse)
    assert run(capsys, "--graph", str(graph), "emit") == (0, expected, "")


def test_snapshot_load_runs_without_the_cyclic_collector(tmp_path):
    graph = tmp_path / "graph.nt"
    graph.write_text(
        "".join(f'<http://example.org/s{i}> <http://example.org/p> "v{i}" .\n' for i in range(5000)),
        encoding="utf-8",
    )
    cli_mod._load_graph(graph)
    gc.unfreeze()
    collections = []

    def record(phase, info):
        collections.append(phase)

    gc.callbacks.append(record)
    try:
        loaded = cli_mod._load_graph(graph)
    finally:
        gc.callbacks.remove(record)
        gc.unfreeze()
    assert len(loaded) == 5000
    assert collections == []


def test_snapshot_owned_by_another_user_is_not_read(tmp_path):
    path = tmp_path / "snap"
    path.write_bytes(b"data")
    assert cli_mod._read_owned(path, os.stat(path).st_uid) == (b"data", os.stat(path).st_mtime_ns)
    assert cli_mod._read_owned(path, os.stat(path).st_uid + 1) == (None, 0)
    assert cli_mod._read_owned(tmp_path, os.stat(tmp_path).st_uid) == (None, 0)
    assert cli_mod._read_owned(tmp_path / "none", 0) == (None, 0)


def test_read_command_in_a_read_only_directory_still_answers(tmp_path, capsys, monkeypatch, multifam_graph):
    store = tmp_path / "ro"
    store.mkdir()
    graph = store / "graph.nt"
    graph.write_text(serialize_ntriples(multifam_graph), encoding="utf-8")
    expected = run(capsys, "--graph", str(graph), "stats", "--by", "family")
    (store / ".graph.nt.snap").unlink()
    store.chmod(0o555)
    try:
        if os.access(store, os.W_OK):
            # the mode bits do not bind this user (root): refuse creation instead
            real_open = os.open

            def refuse(path, flags, *args, **kwargs):
                if flags & os.O_CREAT and os.path.dirname(path) == str(store):
                    raise PermissionError(13, "Permission denied", str(path))
                return real_open(path, flags, *args, **kwargs)

            monkeypatch.setattr(os, "open", refuse)
        assert run(capsys, "--graph", str(graph), "stats", "--by", "family") == expected
        monkeypatch.undo()
        assert [p.name for p in store.iterdir()] == ["graph.nt"]
    finally:
        store.chmod(0o755)


def test_failed_parse_writes_no_snapshot(tmp_path, capsys):
    graph = tmp_path / "corrupt.nt"
    graph.write_text(f"<{ANDMAL}a> <{ANDMAL}b> <{ANDMAL}c> .\n<http://a> <http://b> missing-dot\n", encoding="utf-8")
    for command in READ_COMMANDS:
        rc, out, err = run(capsys, "--graph", str(graph), *command)
        assert rc == 1 and "line 2" in err
        assert [p.name for p in tmp_path.iterdir()] == ["corrupt.nt"]


def test_ingest_merges_without_a_parse_and_leaves_snapshots_alone(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "graph.nt"
    snapshot = tmp_path / ".graph.nt.snap"
    multifam = ["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "multifam")]
    table1 = ["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1")]
    assert run(capsys, *multifam)[0] == 0
    assert run(capsys, *multifam)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [".graph.nt.lock", "graph.nt"]

    assert run(capsys, "--graph", str(graph), "validate")[0] == 0
    written = snapshot.read_bytes()
    # a canonical graph file is neither parsed whole nor serialized
    parses = ParseCounter(monkeypatch)
    monkeypatch.setattr(rdf_mod, "parse_ntriples", _no_whole_file_parse)
    monkeypatch.setattr(ingest_mod, "parse_ntriples", _no_whole_file_parse)
    monkeypatch.setattr(rdf_mod, "serialize_ntriples", _no_whole_file_parse)
    monkeypatch.setattr(cli_mod, "serialize_ntriples", _no_whole_file_parse)
    rc, out, _ = run(capsys, *table1)
    assert rc == 0 and "triples added: 0" not in out
    assert parses.calls == 0
    monkeypatch.undo()
    # the snapshot is left as it was, and is stale now
    assert snapshot.read_bytes() == written
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / "graph.nt").write_bytes(graph.read_bytes())
    expected = run(capsys, "--graph", str(fresh / "graph.nt"), "stats", "--by", "family")
    parses = ParseCounter(monkeypatch)
    assert run(capsys, "--graph", str(graph), "stats", "--by", "family") == expected
    assert parses.calls == 1
    (fresh / "graph.nt").unlink()
    (fresh / ".graph.nt.snap").unlink()
    fresh.rmdir()
    assert sorted(p.name for p in tmp_path.iterdir()) == [".graph.nt.lock", ".graph.nt.snap", "graph.nt"]


def test_read_command_run_by_another_user_writes_no_snapshot(tmp_path, capsys, monkeypatch, multifam_graph):
    # a snapshot is loaded only when the graph file's owner owns it, so one
    # written by anyone else would never be read
    graph = tmp_path / "graph.nt"
    graph.write_text(serialize_ntriples(multifam_graph), encoding="utf-8")
    expected = run(capsys, "--graph", str(graph), "stats", "--by", "family")
    snapshot = tmp_path / ".graph.nt.snap"
    written = snapshot.read_bytes()
    _stale(graph, snapshot)
    owner = graph.stat().st_uid
    monkeypatch.setattr(os, "geteuid", lambda: owner + 1, raising=False)
    parses = ParseCounter(monkeypatch)
    rc, out, _ = run(capsys, "--graph", str(graph), "stats", "--by", "family")
    assert rc == 0 and out != expected[1]
    assert parses.calls == 1
    # the owner's snapshot is not replaced
    assert snapshot.read_bytes() == written
    snapshot.unlink()
    assert run(capsys, "--graph", str(graph), "stats", "--by", "family") == (rc, out, "")
    assert [p.name for p in tmp_path.iterdir()] == ["graph.nt"]


def test_leftover_temporary_file_blocks_no_write(tmp_path, capsys):
    # a process killed mid-write leaves its temporary file behind; one that
    # later runs under the same process id must still write
    graph = tmp_path / "graph.nt"
    leftovers = [tmp_path / f".graph.nt.{os.getpid()}.tmp", tmp_path / f".graph.nt.snap.{os.getpid()}.tmp"]
    for leftover in leftovers:
        leftover.write_bytes(b"left behind")
    assert main(["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "multifam")]) == 0
    assert main(["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1")]) == 0
    assert main(["--graph", str(graph), "stats", "--by", "tag"]) == 0
    capsys.readouterr()
    assert (tmp_path / ".graph.nt.snap").exists()
    assert len(parse_ntriples(graph.read_text(encoding="utf-8"))) > 0
    for leftover in leftovers:
        assert leftover.read_bytes() == b"left behind"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [".graph.nt.lock", ".graph.nt.snap", "graph.nt"] + [p.name for p in leftovers]
    )


def _mode(path):
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o644, 0o400])
def test_ingest_keeps_the_graph_file_permissions(tmp_path, capsys, mode):
    graph = tmp_path / "graph.nt"
    assert main(["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "multifam")]) == 0
    graph.chmod(mode)
    assert main(["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1")]) == 0
    capsys.readouterr()
    assert _mode(graph) == mode


def test_ingest_creates_a_graph_file_under_the_umask(tmp_path, capsys):
    old = os.umask(0o027)
    try:
        assert main(["--graph", str(tmp_path / "g.nt"), "ingest", "--fixtures", str(FIXTURES / "multifam")]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert _mode(tmp_path / "g.nt") == 0o640


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o444])
def test_snapshot_is_no_more_readable_than_its_graph(tmp_path, capsys, monkeypatch, multifam_graph, mode):
    graph = tmp_path / "graph.nt"
    graph.write_text(serialize_ntriples(multifam_graph), encoding="utf-8")
    graph.chmod(mode)
    replaced = []
    real_replace = os.replace

    def replace(src, dst):
        replaced.append((os.path.basename(dst), _mode(src)))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert run(capsys, "--graph", str(graph), "stats", "--by", "family")[0] == 0
    assert replaced == [(".graph.nt.snap", mode)]
    assert _mode(tmp_path / ".graph.nt.snap") == mode


@pytest.mark.parametrize(
    "argv, named, left",
    [
        (["--graph", "graph.nt", "emit", "--format", "turtle", "-o", "missing/x.ttl"], "missing/x.ttl",
         [".graph.nt.snap", "graph.nt"]),
        (["--graph", "missing/g.nt", "ingest", "--fixtures", str(FIXTURES / "table1")], "missing/g.nt", ["graph.nt"]),
    ],
    ids=["emit", "ingest"],
)
def test_a_write_error_names_the_path_given(tmp_path, capsys, monkeypatch, multifam_graph, argv, named, left):
    # not the temporary file emit writes first, nor the lock file of ingest
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.nt").write_text(serialize_ntriples(multifam_graph), encoding="utf-8")
    assert run(capsys, *argv) == (2, "", f"error: [Errno 2] No such file or directory: '{named}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == left


def _record_syncs(monkeypatch):
    """Record each os.fsync, as the size of the file synced or "directory",
    and each os.replace, as the name it writes, in the order they run."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        events.append(("fsync", "directory" if stat.S_ISDIR(info.st_mode) else info.st_size))
        return real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


def test_ingest_syncs_the_graph_file_before_the_rename_and_the_directory_after(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.nt"
    events = _record_syncs(monkeypatch)
    for corpus in ("multifam", "table1"):
        assert run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / corpus))[0] == 0
        # the temporary file is synced whole, then renamed, then the rename synced
        assert events == [("fsync", graph.stat().st_size), ("replace", "g.nt"), ("fsync", "directory")]
        events.clear()


def test_ingest_skips_the_directory_sync_where_a_directory_cannot_be_opened(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.nt"
    events = _record_syncs(monkeypatch)
    real_open = os.open

    def no_directories(path, flags, *args):
        if os.path.isdir(path):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", no_directories)
    assert run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1"))[0] == 0
    assert events == [("fsync", graph.stat().st_size), ("replace", "g.nt")]


def test_snapshots_and_emit_output_are_written_without_a_sync(table1_store, tmp_path, capsys, monkeypatch):
    # a snapshot's payload CRC-32 rejects a torn write, and emit -o output
    # can be written again
    graph = tmp_path / "g.nt"
    graph.write_bytes(table1_store.read_bytes())
    events = _record_syncs(monkeypatch)
    assert run(capsys, "--graph", str(graph), "stats", "--by", "family")[0] == 0
    assert run(capsys, "--graph", str(graph), "emit", "--format", "ntriples", "-o", str(tmp_path / "out.nt"))[0] == 0
    assert events == [("replace", ".g.nt.snap"), ("replace", "out.nt")]
    assert (tmp_path / "out.nt").read_bytes() == graph.read_bytes()


# Ingest merges the batch's new lines into the graph file's sorted lines.
# Whatever the old file, the result must be what parsing it whole,
# ingesting and serializing gives: the same file, stdout and exit code.

XSD_STRING = "http://www.w3.org/2001/XMLSchema#string"


def _whole_graph_ingest(text, corpus):
    """(summary, graph bytes) of parsing text whole, ingest_corpus and
    serialize_ntriples; (the parse error, text's bytes) where the parse fails."""
    try:
        graph = parse_ntriples(text)
    except NTriplesParseError as exc:
        return exc, text.encode("utf-8")
    reports = fetch_reports(FetchSelector.recent(1000), FixtureSource(corpus))
    summary = ingest_corpus(reports, build_schema(), graph)
    return summary, serialize_ntriples(graph).encode("utf-8")


def _cli_answer(summary, data):
    """(exit code, stdout, stderr, graph bytes) of the CLI ingest whose
    whole-graph ingest gives summary and data."""
    if isinstance(summary, NTriplesParseError):
        return 1, "", f"error: {summary}\n", data
    out = (
        f"reports: {summary.reports}\ntriples added: {summary.triples_added}\n"
        f"violations: {len(summary.violations)}\n"
    )
    return (1 if summary.violations else 0), out, "", data


def _reference_ingest(text, corpus):
    """(exit code, stdout, stderr, graph bytes) of the whole-graph ingest."""
    return _cli_answer(*_whole_graph_ingest(text, corpus))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forked(job) -> int:
    """Run job() in a forked child, which exits with its result; the pid."""
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            code = job()
        finally:
            os._exit(code)
    return pid


def _wait(pid, seconds):
    """The exit code of the child pid, or None if it still runs after seconds."""
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            return None
        time.sleep(0.01)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_concurrent_ingests_into_one_file_keep_both(tmp_path, capsys):
    # The first ingest stops right after reading the graph file's lines and
    # waits until the second one has exited, or for at most WAIT seconds.
    # Without a lock the second one reads the same old lines, and whichever
    # replaces the file last drops the other's triples.  With it, the second
    # waits for the first to write, then reads its lines: no timing decides.
    WAIT = 1.0
    graph = tmp_path / "graph.nt"
    anubis = ["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1"), "--signature", "Anubis"]
    sharkbot = anubis[:-1] + ["SharkBot"]
    ready_r, ready_w = os.pipe()
    release_r, release_w = os.pipe()

    def first():
        os.close(ready_r)
        os.close(release_w)
        real_read_lines = ingest_mod._read_lines

        def paused(path):
            lines = real_read_lines(path)
            os.write(ready_w, b"r")
            os.read(release_r, 1)
            return lines

        ingest_mod._read_lines = paused
        return main(anubis)

    first_pid = _forked(first)
    os.close(ready_w)
    os.close(release_r)
    try:
        assert os.read(ready_r, 1) == b"r"  # the first one has read its lines
        second_pid = _forked(lambda: main(sharkbot))
        second = _wait(second_pid, WAIT)
    finally:
        os.write(release_w, b"g")
        os.close(release_w)
        os.close(ready_r)
    assert _wait(first_pid, 60) == 0
    assert (second if second is not None else _wait(second_pid, 60)) == 0
    capsys.readouterr()
    one_by_one = tmp_path / "sequential.nt"
    for argv in (anubis, sharkbot):
        assert main([argv[0], str(one_by_one)] + argv[2:]) == 0
    capsys.readouterr()
    assert graph.read_bytes() == one_by_one.read_bytes()
    assert run(capsys, "--graph", str(graph), "stats", "--by", "family")[1] == "sharkbot\t26\nanubis\t21\nTOTAL\t47\n"


def _ingest_matches_reference(tmp_path, capsys, monkeypatch, text, corpus):
    """Ingest corpus into a graph file holding text, through the CLI and
    through ingest_file in this process on a copy of it, check both against
    the whole-graph ingest, and return how often the CLI parsed the whole
    file and its exit code.  ingest_file must parse as often as the CLI."""
    graph = tmp_path / "graph.nt"
    copy = tmp_path / "ingest_file" / "graph.nt"
    copy.parent.mkdir()
    if text is not None:
        graph.write_bytes(text.encode("utf-8"))
        copy.write_bytes(text.encode("utf-8"))
    parses = []
    real_parse = rdf_mod.parse_ntriples

    def parse(whole):
        parses.append(whole)
        return real_parse(whole)

    with monkeypatch.context() as m:
        m.setattr(rdf_mod, "parse_ntriples", parse)
        m.setattr(ingest_mod, "parse_ntriples", parse)
        got = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(corpus))
        _assert_no_child_left()
        cli_parses = len(parses)
        try:
            summary = ingest_file(copy, FixtureSource(corpus))
        except NTriplesParseError as exc:
            summary = exc
        _assert_no_child_left()
    whole, data = _whole_graph_ingest(text or "", corpus)
    assert got + (graph.read_bytes(),) == _cli_answer(whole, data)
    # the same summary, violations included, or the same parse error
    if isinstance(whole, NTriplesParseError):
        assert isinstance(summary, NTriplesParseError) and str(summary) == str(whole)
    else:
        assert summary == whole
    assert copy.read_bytes() == data
    assert len(parses) == 2 * cli_parses
    return cli_parses, got[0]


def _base_text(name, request):
    if name == "missing":
        return None
    if name == "empty":
        return ""
    if name.startswith("randgraph"):
        seed = int(name.split("-")[1])
        return serialize_ntriples(random_graph(random.Random(seed), max_triples=200))
    return serialize_ntriples(request.getfixturevalue(f"{name}_graph"))


@pytest.mark.parametrize("corpus", ["table1", "multifam"])
@pytest.mark.parametrize("base", ["missing", "empty", "table1", "multifam", "randgraph-3", "randgraph-17"])
def test_merged_ingest_matches_the_whole_graph_ingest(tmp_path, capsys, monkeypatch, request, base, corpus):
    text = _base_text(base, request)
    parses, rc = _ingest_matches_reference(tmp_path, capsys, monkeypatch, text, FIXTURES / corpus)
    assert rc == 0
    # a random graph has escapes, blank nodes and language tags, so it is parsed
    assert parses == (1 if base.startswith("randgraph") else 0)


def test_colliding_labels_ingest_into_an_existing_graph_as_distinct_nodes(tmp_path, capsys, monkeypatch, table1_graph):
    # two reports whose labels slug() merges pairwise, ingested through the
    # CLI into the table1 graph file: the file must be what the whole-graph
    # ingest writes, and every label must keep its own node
    corpus = tmp_path / "colliding"
    corpus.mkdir()
    base = json.loads((FIXTURES / "table1" / "report_000.json").read_text(encoding="utf-8"))
    labels = [("anti-vm", "банкер", "x.y", "Foo.Bar", "x.y"), ("anti_vm", "木马", "x-y", "Foo Bar", "x y")]
    for k, (tag, other_tag, rule, family, reporter) in enumerate(labels):
        record = dict(
            base,
            sha256_hash=hashlib.sha256(f"colliding {k}".encode()).hexdigest(),
            signature=family,
            reporter=reporter,
            tags=[tag, other_tag],
            yara_rules=[{"rule_name": rule}],
            vendor_intel={"Vendor.A": {"verdict": "malware"}, "Vendor-A": {"verdict": "clean"}},
        )
        (corpus / f"report_{k}.json").write_text(json.dumps(record), encoding="utf-8")
    parses, rc = _ingest_matches_reference(tmp_path, capsys, monkeypatch, serialize_ntriples(table1_graph), corpus)
    assert (parses, rc) == (0, 0)
    graph = tmp_path / "graph.nt"
    for by, role in (("tag", "tag:"), ("family", "family"), ("reporter", "reporter")):
        minted = {
            iri
            for record in sorted(corpus.iterdir())
            for key, iri in mint_iris(ingest_mod.parse_report(record.read_text(encoding="utf-8"))).items()
            if key.startswith(role)
        }
        assert len(minted) == (4 if by == "tag" else 2)
        rows = stats_rows(run(capsys, "--graph", str(graph), "stats", "--by", by)[1])
        # stats prints each node's local name without its role prefix
        for iri in minted:
            local = iri.rsplit("#", 1)[1]
            assert rows[local[local.index("_") + 1:]] == 1
    # Vendor.A and Vendor-A have a node each in each report
    shas = [hashlib.sha256(f"colliding {k}".encode()).hexdigest() for k in range(2)]
    typed = [line for line in graph.read_text(encoding="utf-8").splitlines() if line.endswith(f"{ANDMAL}VendorIntelligence> .")]
    assert sorted(sum(f"vi_{sha}_" in line for line in typed) for sha in shas) == [2, 2]


def _open_fds():
    """The names of this process's open file descriptors, where /proc lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


INGEST_STAGES = (
    "_read_lines", "_is_canonical", "fetch_reports", "parse_ntriples",
    "load_subjects", "_add_rows", "validate_subjects", "_merged", "_replace_file",
)


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "not-canonical"])
def test_the_ingest_runs_each_stage_once_in_order(tmp_path, capsys, monkeypatch, multifam_graph, canonical):
    # read and check, fetch, parse a file that is not canonical, load,
    # add, validate, then merge and write: each once, one after another
    lines = serialize_ntriples(multifam_graph).splitlines(keepends=True)
    text = "".join(lines if canonical else reversed(lines))
    expected = _reference_ingest(text, FIXTURES / "table1")
    stages = []
    for name in INGEST_STAGES:
        def stage(*args, _name=name, _real=getattr(ingest_mod, name), **kwargs):
            stages.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(ingest_mod, name, stage)
    graph = tmp_path / "graph.nt"
    graph.write_bytes(text.encode("utf-8"))
    got = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1"))
    assert got + (graph.read_bytes(),) == expected
    assert stages == [name for name in INGEST_STAGES if not canonical or name != "parse_ntriples"]


def test_the_ingest_runs_in_one_process(tmp_path, capsys, monkeypatch, multifam_graph):
    # no stage runs in a forked child: a merged ingest, one that parses the
    # file first, and one of a malformed file from a missing directory each
    # answer as the whole-graph ingest does and leave no descriptor open
    def fork():
        raise AssertionError("the ingest forked a child")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    lines = serialize_ntriples(multifam_graph).splitlines(keepends=True)
    fds = _open_fds()
    for name, text, parses in (("merged", "".join(lines), 0), ("parsed", "".join(reversed(lines)), 1)):
        (tmp_path / name).mkdir()
        assert _ingest_matches_reference(tmp_path / name, capsys, monkeypatch, text, FIXTURES / "table1") == (parses, 0)
        assert _open_fds() == fds
    text = "".join(lines[:7]) + "<a> <http://b> <http://c> .\n" + "".join(lines[7:])
    graph = tmp_path / "malformed.nt"
    graph.write_bytes(text.encode("utf-8"))
    got = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(tmp_path / "nowhere"))
    assert got + (graph.read_bytes(),) == _reference_ingest(text, FIXTURES / "table1")
    assert _open_fds() == fds


def test_a_file_that_is_not_canonical_is_checked_and_parsed_once(tmp_path, capsys, monkeypatch, multifam_graph):
    # one canonical-line check, through either binding, and one parse
    text = "".join(reversed(serialize_ntriples(multifam_graph).splitlines(keepends=True)))
    checks = []
    real_check = rdf_mod._is_canonical

    def check(lines):
        checks.append(len(lines))
        return real_check(lines)

    monkeypatch.setattr(rdf_mod, "_is_canonical", check)
    monkeypatch.setattr(ingest_mod, "_is_canonical", check)
    assert _ingest_matches_reference(tmp_path, capsys, monkeypatch, text, FIXTURES / "table1") == (1, 0)
    # one check for each of the two ingests, the CLI's and ingest_file's
    assert len(checks) == 2


def _touched(table1_reports):
    """Minted IRIs of one table1 report with a family and tags."""
    report = next(r for r in table1_reports if r.signature and r.tags)
    return {role: f"<{iri}>" for role, iri in mint_iris(report).items()}, report


def _non_canonical(name, text, ids, report):
    lines = text.splitlines(keepends=True)
    file_node, malware_node = ids["file"], ids["malware"]
    tag_node = ids[f"tag:{report.tags[0]}"]
    if name == "comment":
        return "# an old graph\n" + text
    if name == "blank-lines":
        return "\n".join(lines[:3]) + "\n  \t\n" + "".join(lines[3:]) + "\n"
    if name == "escaped-literal":
        return text + f'{file_node} <{ANDMAL}hasFileName> "a \\"b\\"\\tc\\\\d\\u00e9" .\n'
    if name == "blank-node":
        # the old object's type lines must be loaded, or hasTag fails its range check
        return text + f"{malware_node} <{ANDMAL}hasTag> _:t1 .\n_:t1 <{RDF_TYPE}> <{ANDMAL}Tag> .\n"
    if name == "language-tag":
        return text + f'{tag_node} <{ANDMAL}tagLabel> "etiquette"@fr .\n'
    if name == "explicit-string":
        # an alias of the plain literal the report mints
        return text + f'{file_node} <{ANDMAL}hasFileName> "{report.file_name}"^^<{XSD_STRING}> .\n'
    if name == "unsorted":
        return "".join(reversed(lines))
    if name == "duplicate":
        # still sorted, but not strictly
        mid = len(lines) // 2
        return "".join(lines[:mid] + lines[mid - 1 :])
    assert name == "no-final-newline"
    return text[:-1]


NON_CANONICAL = [
    "comment", "blank-lines", "escaped-literal", "blank-node", "language-tag",
    "explicit-string", "unsorted", "duplicate", "no-final-newline",
]


@pytest.mark.parametrize("variant", NON_CANONICAL)
def test_merged_ingest_of_a_non_canonical_file(tmp_path, capsys, monkeypatch, multifam_graph, table1_reports, variant):
    ids, report = _touched(table1_reports)
    text = _non_canonical(variant, serialize_ntriples(multifam_graph), ids, report)
    parses, rc = _ingest_matches_reference(tmp_path, capsys, monkeypatch, text, FIXTURES / "table1")
    assert parses == 1 and rc == 0


def test_merged_ingest_reads_crlf_line_ends_as_newlines(tmp_path, capsys, multifam_graph):
    # as the whole-graph ingest read the file, with Path.read_text
    text = serialize_ntriples(multifam_graph)
    ingested = []
    for name, data in (("lf.nt", text), ("crlf.nt", text.replace("\n", "\r\n"))):
        graph = tmp_path / name
        graph.write_bytes(data.encode("utf-8"))
        got = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1"))
        ingested.append((got, graph.read_bytes()))
    assert ingested[0] == ingested[1]
    assert ingested[0][0][0] == 0


@pytest.mark.parametrize("line_end", ["\r\n", "\r"])
def test_read_commands_read_crlf_and_cr_line_ends_as_newlines(tmp_path, capsys, multifam_graph, line_end):
    # the rule ingest follows; the snapshot is stamped from the file itself
    text = serialize_ntriples(multifam_graph)
    lf, other = tmp_path / "lf.nt", tmp_path / "other.nt"
    lf.write_bytes(text.encode("utf-8"))
    other.write_bytes(text.replace("\n", line_end).encode("utf-8"))
    for command in READ_COMMANDS:
        for graph in (lf, other):
            cli_mod._snapshot_path(graph).unlink(missing_ok=True)
        want = run(capsys, "--graph", str(lf), *command)
        assert run(capsys, "--graph", str(other), *command) == want
        assert want[0] == 0 and want[1]
    snapshot = cli_mod._snapshot_path(other).read_bytes()
    info = other.stat()
    assert rdf_mod.load_snapshot(snapshot, info, max(info.st_mtime_ns, info.st_ctime_ns) + 1) == multifam_graph


def test_only_newline_characters_end_a_graph_file_line(tmp_path, capsys):
    # U+2028 and the other characters str.splitlines breaks at stay inside
    # a literal
    line = f'<{ANDMAL}file_x> <{ANDMAL}hasFileName> "a\u2028b\x85c\x0bd\x0ce\x1cf" .\n'
    graph = tmp_path / "graph.nt"
    for text in (line, line.replace("\n", "\r\n")):
        graph.write_bytes(text.encode("utf-8"))
        cli_mod._snapshot_path(graph).unlink(missing_ok=True)
        assert run(capsys, "--graph", str(graph), "emit") == (0, line, "")


def _not_utf8_at_line_3(path, line_end="\n"):
    lines = [f"<{ANDMAL}file_{i}> <{RDF_TYPE}> <{ANDMAL}File> .{line_end}".encode("utf-8") for i in range(5)]
    lines[2] = lines[2].replace(b"File>", b"Fil\xff>")
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("command", [
    ["stats", "--by", "family"], ["query", str(QUERIES / "use_case_6.rq")], ["validate"], ["emit"],
    ["ingest", "--fixtures", str(FIXTURES / "multifam")],
])
def test_graph_file_that_is_not_utf8_fails_cleanly(tmp_path, capsys, command, line_end):
    graph = tmp_path / "graph.nt"
    _not_utf8_at_line_3(graph, line_end)
    before = graph.read_bytes(), graph.stat().st_mtime_ns
    assert run(capsys, "--graph", str(graph), *command) == (1, "", f"error: {graph}: line 3: not UTF-8\n")
    assert (graph.read_bytes(), graph.stat().st_mtime_ns) == before
    # only an ingest, a writer, leaves its lock file
    locked = [".graph.nt.lock"] if command[0] == "ingest" else []
    assert sorted(p.name for p in tmp_path.iterdir()) == locked + ["graph.nt"]


def test_query_file_that_is_not_utf8_fails_cleanly(table1_store, tmp_path, capsys):
    qfile = tmp_path / "q.rq"
    qfile.write_bytes(b"SELECT ?s WHERE { ?s ?p ?o }\n# \xff\n")
    rc, out, err = run(capsys, "--graph", str(table1_store), "query", str(qfile))
    assert (rc, out, err) == (1, "", f"error: {qfile}: line 2: not UTF-8\n")


def test_query_with_a_non_ascii_digit_fails_cleanly(table1_store, tmp_path, capsys):
    qfile = tmp_path / "q.rq"
    qfile.write_text("SELECT ?s WHERE { ?s ?p ² }", encoding="utf-8")
    rc, out, err = run(capsys, "--graph", str(table1_store), "query", str(qfile))
    assert (rc, out, err) == (1, "", "error: at offset 24: unexpected character '²'\n")


def test_ingest_skips_a_fixture_that_is_not_utf8(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ok.json").write_text(
        json.dumps({"sha256_hash": "c" * 64, "file_name": "ok.apk"}), encoding="utf-8"
    )
    (corpus / "latin1.json").write_bytes(b'{"sha256_hash": "' + b"d" * 64 + b'", "file_name": "caf\xe9.apk"}')
    rc, out, err = run(capsys, "--graph", str(tmp_path / "g.nt"), "ingest", "--fixtures", str(corpus))
    assert rc == 0
    assert "reports: 1" in out
    assert err.startswith("warning: latin1.json: 'utf-8' codec can't decode byte 0xe9")


def test_ingest_skips_a_fixture_whose_hash_ends_in_a_newline(tmp_path, capsys):
    # a hex digest with a trailing newline is not a digest: the report is
    # skipped with a warning, and the other reports go in
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("report_000.json", "report_001.json"):
        (corpus / name).write_bytes((FIXTURES / "table1" / name).read_bytes())
    bad = json.loads((FIXTURES / "table1" / "report_002.json").read_text(encoding="utf-8"))
    bad["sha256_hash"] = "e" * 63 + "\n"
    (corpus / "newline.json").write_text(json.dumps(bad), encoding="utf-8")
    graph = tmp_path / "g.nt"
    rc, out, err = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(corpus))
    assert rc == 0
    assert "reports: 2" in out
    assert err == f"warning: newline.json: bad sha256 {bad['sha256_hash']!r}\n"
    assert run(capsys, "--graph", str(graph), "validate")[0] == 0


def test_ingest_skips_a_fixture_with_a_lone_surrogate(tmp_path, capsys):
    # JSON can spell a lone surrogate, which no graph file can hold: the
    # report is skipped with a warning and the other reports go in
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("report_000.json", "report_001.json"):
        (corpus / name).write_bytes((FIXTURES / "table1" / name).read_bytes())
    evil = json.loads((FIXTURES / "table1" / "report_002.json").read_text(encoding="utf-8"))
    evil["file_name"] = "evil\ud800.apk"
    (corpus / "evil.json").write_text(json.dumps(evil), encoding="utf-8")
    assert '"evil\\ud800.apk"' in (corpus / "evil.json").read_text(encoding="utf-8")
    graph = tmp_path / "g.nt"
    rc, out, err = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(corpus))
    assert rc == 0
    assert "reports: 2" in out
    assert err == "warning: evil.json: file_name holds a lone surrogate: 'evil\\ud800.apk'\n"
    assert run(capsys, "--graph", str(graph), "emit")[0] == 0
    assert run(capsys, "--graph", str(graph), "validate")[0] == 0


@pytest.mark.parametrize("command", [["stats", "--by", "family"], ["emit"], ["validate"]])
def test_a_surrogate_escape_in_the_graph_file_fails_cleanly(tmp_path, capsys, command):
    graph = tmp_path / "graph.nt"
    graph.write_text(
        '<http://e.org/s> <http://e.org/p> "ok" .\n<http://e.org/s> <http://e.org/p> "\\uD800" .\n', encoding="utf-8"
    )
    assert run(capsys, "--graph", str(graph), *command) == (1, "", "error: line 2: bad \\u escape in literal\n")
    assert [p.name for p in tmp_path.iterdir()] == ["graph.nt"]


# The use cases' stdout on the graph of table1 plus multifam, as the CLI
# printed it before query results carried tokens.
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "g.nt"
    for corpus in ("table1", "multifam"):
        assert main(["--graph", str(path), "ingest", "--fixtures", str(FIXTURES / corpus)]) == 0
    return path


# object_keyed.rq has patterns whose free positions include the predicate,
# with the object bound: its output was recorded while an OSP index still
# served them
GOLDEN_CASES = [
    pytest.param(QUERIES / f"use_case_{k}.rq", f"use_case_{k}", fmt, id=f"{k}-{fmt}")
    for k in range(1, 7)
    for fmt in ("tsv", "table")
]
GOLDEN_CASES.append(pytest.param(GOLDEN / "object_keyed.rq", "object_keyed", "tsv", id="object_keyed-tsv"))


@pytest.mark.parametrize(("query", "name", "fmt"), GOLDEN_CASES)
def test_query_output_matches_the_golden_file(golden_store, capsys, query, name, fmt):
    capsys.readouterr()
    want = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    snapshot = cli_mod._snapshot_path(golden_store)
    snapshot.unlink(missing_ok=True)
    command = ["--graph", str(golden_store), "query", str(query), "--format", fmt]
    assert run(capsys, *command) == (0, want, "")  # parses, and writes the snapshot
    assert snapshot.exists()
    assert run(capsys, *command) == (0, want, "")  # loads the snapshot
    gc.unfreeze()


def test_merged_ingest_reads_the_old_family_of_a_touched_malware(tmp_path, capsys, monkeypatch, multifam_graph):
    # dual_a's malware node already names dual_b's family, which this batch
    # does not mint: only its old type line shows the range check holds
    corpus = tmp_path / "dual_a"
    corpus.mkdir()
    (corpus / "dual_a.json").write_bytes((FIXTURES / "multifam" / "dual_a.json").read_bytes())
    text = serialize_ntriples(multifam_graph)
    assert _ingest_matches_reference(tmp_path, capsys, monkeypatch, text, corpus) == (0, 0)


@pytest.mark.parametrize("context", ["unregistered-property", "untyped-object", "wrongly-typed-object"])
def test_merged_ingest_reports_violations_of_old_triples(tmp_path, capsys, monkeypatch, table1_graph, table1_reports, context):
    ids, _ = _touched(table1_reports)
    if context == "unregistered-property":
        extra = f'{ids["file"]} <{ANDMAL}bogusProp> "x" .\n'
    elif context == "untyped-object":
        extra = f"{ids['malware']} <{ANDMAL}hasTag> <{ANDMAL}tag_untyped> .\n"
    else:
        extra = f"{ids['malware']} <{ANDMAL}hasTag> <{ANDMAL}thing> .\n<{ANDMAL}thing> <{RDF_TYPE}> <{ANDMAL}File> .\n"
    # canonical, so the merge path runs
    text = serialize_ntriples(parse_ntriples(serialize_ntriples(table1_graph) + extra))
    assert _ingest_matches_reference(tmp_path, capsys, monkeypatch, text, FIXTURES / "table1") == (0, 1)


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_merged_ingest_of_random_triples_on_minted_iris(tmp_path, capsys, monkeypatch, multifam_graph, table1_reports, seed):
    # old triples of every kind on nodes the batch touches, so violations
    # depend on old subjects, old objects and their old types
    rng = random.Random(seed)
    iris = sorted({iri for r in table1_reports[:8] for iri in mint_iris(r).values()})
    predicates = [f"{ANDMAL}{p}" for p in ("hasTag", "contains", "hasFileName", "hasMalwareFamily", "bogusProp")]
    predicates += [f"{MALONT}hasReporter", RDF_TYPE]
    classes = [f"{ANDMAL}Tag", f"{ANDMAL}File", f"{MALONT}Malware", f"{MALONT}MalwareFamily", f"{ANDMAL}Imaginary"]
    extra = []
    for _ in range(rng.randint(20, 120)):
        p = rng.choice(predicates)
        if rng.random() < 0.2:
            o = f'"{rng.choice(["x", "a.apk", "2"])}"'
        else:
            o = f"<{rng.choice(classes if p == RDF_TYPE else iris)}>"
        extra.append(f"<{rng.choice(iris)}> <{p}> {o} .\n")
    text = serialize_ntriples(parse_ntriples(serialize_ntriples(multifam_graph) + "".join(extra)))
    parses, rc = _ingest_matches_reference(tmp_path, capsys, monkeypatch, text, FIXTURES / "table1")
    assert parses == 0 and rc == 1


@pytest.mark.parametrize("bad", ["missing-dot", "bad-iri"])
def test_merged_ingest_of_a_malformed_file_fails_as_the_parse_does(tmp_path, capsys, monkeypatch, multifam_graph, bad):
    lines = serialize_ntriples(multifam_graph).splitlines(keepends=True)
    broken = "<http://a> <http://b> missing-dot\n" if bad == "missing-dot" else "<a> <http://b> <http://c> .\n"
    text = "".join(lines[:7]) + broken + "".join(lines[7:])
    assert _ingest_matches_reference(tmp_path, capsys, monkeypatch, text, FIXTURES / "table1") == (1, 1)
    # the CLI printed this error, and the graph file is unchanged
    expected = _reference_ingest(text, FIXTURES / "table1")
    assert "line 8" in expected[2]
    # the parse error comes before a failed fetch
    got = run(capsys, "--graph", str(tmp_path / "graph.nt"), "ingest", "--fixtures", str(tmp_path / "nowhere"))
    assert got == expected[:3]
