import gc
import json
import os
import subprocess
import sys

import pytest

from andmalkg import slug
from andmalkg.cli import main
import andmalkg.cli as cli_mod
import andmalkg.ingest as ingest_mod

from conftest import FIXTURES, QUERIES, ROOT

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


def test_loaded_graph_is_frozen_out_of_collections(table1_store):
    assert gc.isenabled()
    gc.unfreeze()
    try:
        graph = cli_mod._load_graph(table1_store)
        # every object alive after the load, the graph's among them, is frozen
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
