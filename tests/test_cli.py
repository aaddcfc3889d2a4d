import gc
import json
import os
import random
import stat
import subprocess
import sys

import pytest

from andmalkg import parse_ntriples, serialize_ntriples, slug
from andmalkg.cli import main
import andmalkg.cli as cli_mod
import andmalkg.ingest as ingest_mod

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


def test_cli_import_leaves_requests_unloaded():
    # only `ingest --live` needs requests, so no command should pay for importing it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, andmalkg.cli; print('requests' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


@pytest.mark.parametrize("failure", ["serialize", "mid-write"])
def test_failed_graph_write_keeps_old_file(tmp_path, capsys, monkeypatch, failure):
    graph = tmp_path / "graph.nt"
    rc, _, _ = run(capsys, "--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "multifam"))
    assert rc == 0
    before = graph.read_bytes()

    def broken(_graph):
        if failure == "serialize":
            raise RuntimeError("serializer failed")
        # a lone surrogate cannot be encoded, so the write stops part-way
        return "<urn:x:s> <urn:x:p> <urn:x:o> .\n" * 5000 + "\ud800"

    monkeypatch.setattr(cli_mod, "serialize_ntriples", broken)
    with pytest.raises((RuntimeError, UnicodeEncodeError)):
        main(["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1")])
    assert graph.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["graph.nt"]


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


def test_query_missing_file_is_io_error(table1_store, capsys, tmp_path):
    rc, out, err = run(
        capsys, "--graph", str(table1_store), "query", str(tmp_path / "none.rq")
    )
    assert rc == 2


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


class FakeResponse:
    status_code = 200

    def __init__(self, payload):
        self._payload = payload

    def json(self):
        return self._payload


def test_live_ingest_uses_endpoint_env(tmp_path, capsys, monkeypatch):
    calls = []

    def fake_post(url, data=None, timeout=None):
        calls.append((url, dict(data)))
        return FakeResponse(
            {"query_status": "ok", "data": [{"sha256_hash": "e" * 64, "file_name": "e.apk"}]}
        )

    monkeypatch.setattr(ingest_mod.requests, "post", fake_post)
    monkeypatch.setenv("AMKG_API_ENDPOINT", "https://mirror.example.test/api/")
    rc, out, _ = run(
        capsys,
        "--graph", str(tmp_path / "g.nt"),
        "ingest", "--live", "--signature", "Anubis", "--limit", "7",
    )
    assert rc == 0
    assert "reports: 1" in out
    url, form = calls[0]
    assert url == "https://mirror.example.test/api/"
    assert form == {"query": "get_siginfo", "signature": "Anubis", "limit": "7"}


def test_live_ingest_api_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        ingest_mod.requests,
        "post",
        lambda url, data=None, timeout=None: FakeResponse(
            {"query_status": "http_post_expected", "data": []}
        ),
    )
    rc, _, err = run(capsys, "--graph", str(tmp_path / "g.nt"), "ingest", "--live")
    assert rc == 2
    assert "http_post_expected" in err


# Snapshots: .NAME.snap beside the graph file, written by read commands.


def _no_parse(text):
    raise AssertionError("parsed the graph file instead of loading its snapshot")


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


@pytest.mark.parametrize(
    "damage",
    [_stale, _flip, _truncate, _refield(1, b"0"), _refield(3, b"2"), _refield(5, b"3.0"), _junk],
    ids=["stale", "flipped-byte", "truncated", "foreign-format", "foreign-marshal",
         "foreign-python", "junk"],
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
    monkeypatch.setattr(cli_mod, "parse_ntriples", _no_parse)
    assert run(capsys, "--graph", str(graph), "emit") == (0, expected, "")
    loaded = cli_mod._load_graph(graph)
    gc.unfreeze()
    parsed = parse_ntriples(graph.read_text(encoding="utf-8"))
    assert loaded._ids == parsed._ids and loaded == parsed


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
    assert cli_mod._read_owned(path, os.stat(path).st_uid) == b"data"
    assert cli_mod._read_owned(path, os.stat(path).st_uid + 1) is None
    assert cli_mod._read_owned(tmp_path, os.stat(tmp_path).st_uid) is None
    assert cli_mod._read_owned(tmp_path / "none", 0) is None


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


def test_ingest_parses_and_leaves_snapshots_alone(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "graph.nt"
    snapshot = tmp_path / ".graph.nt.snap"
    multifam = ["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "multifam")]
    table1 = ["--graph", str(graph), "ingest", "--fixtures", str(FIXTURES / "table1")]
    assert run(capsys, *multifam)[0] == 0
    assert run(capsys, *multifam)[0] == 0
    assert [p.name for p in tmp_path.iterdir()] == ["graph.nt"]

    assert run(capsys, "--graph", str(graph), "validate")[0] == 0
    written = snapshot.read_bytes()
    parses = ParseCounter(monkeypatch)
    rc, out, _ = run(capsys, *table1)
    assert rc == 0 and "triples added: 0" not in out
    assert parses.calls == 1
    # the snapshot is left as it was, and is stale now
    assert snapshot.read_bytes() == written
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / "graph.nt").write_bytes(graph.read_bytes())
    expected = run(capsys, "--graph", str(fresh / "graph.nt"), "stats", "--by", "family")
    parses.calls = 0
    assert run(capsys, "--graph", str(graph), "stats", "--by", "family") == expected
    assert parses.calls == 1
    (fresh / "graph.nt").unlink()
    (fresh / ".graph.nt.snap").unlink()
    fresh.rmdir()
    assert sorted(p.name for p in tmp_path.iterdir()) == [".graph.nt.snap", "graph.nt"]


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
        [".graph.nt.snap", "graph.nt"] + [p.name for p in leftovers]
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
