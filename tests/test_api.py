"""The package's public names: each is bound from its submodule on first use."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import andmalkg

from conftest import ROOT

# The public API the README documents, by the submodule that defines it.
PUBLIC = {
    "errors": [
        "AndMalKgError", "ApiError", "InvalidReportError", "MalformedTermError", "NTriplesParseError",
        "NetworkError", "QueryParseError", "ReportParseError", "SelectorError", "UnknownClassError", "UnknownPrefixError",
    ],
    "ingest": [
        "CertInfo", "FetchSelector", "FixtureSource", "IngestSummary", "LiveSource", "MalwareReport",
        "VendorVerdict", "YaraRuleInfo", "fetch_reports", "ingest_corpus", "ingest_file", "mint_iris",
        "parse_report", "report_from_record", "report_to_triples", "slug",
    ],
    "ns": ["ANDMAL", "MALONT", "PREFIXES", "RDF_TYPE", "andmal", "malont"],
    "query": [
        "CountAgg", "Having", "QueryAST", "ResultTable", "TriplePattern", "Var", "evaluate",
        "format_results", "parse_query", "run_query",
    ],
    "rdf": [
        "BlankNode", "Graph", "IRI", "Literal", "Triple", "parse_ntriples", "serialize_ntriples",
        "serialize_turtle", "term_to_ntriples",
    ],
    "schema": [
        "ClassDef", "PropertyDef", "SchemaRegistry", "Violation", "build_schema", "validate_hash_format",
        "validate_individual",
    ],
}


def _python(script, *args):
    """(exit code, stdout, stderr) of the script run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_all_lists_the_public_api():
    assert sorted(andmalkg.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    assert len(set(andmalkg.__all__)) == len(andmalkg.__all__)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_public_name_is_its_submodules_object(module):
    home = importlib.import_module(f"andmalkg.{module}")
    for name in PUBLIC[module]:
        assert getattr(andmalkg, name) is getattr(home, name), name


def test_a_submodule_loads_when_one_of_its_names_is_first_used():
    code, out, err = _python(
        "import sys, andmalkg\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('andmalkg.'))\n"
        "print(loaded())\n"
        "graph = andmalkg.Graph()\n"
        "print(loaded(), 'Graph' in vars(andmalkg), andmalkg.Graph is sys.modules['andmalkg.rdf'].Graph)\n"
        "andmalkg.run_query\n"
        "print(loaded())\n"
    )
    assert code == 0, err
    assert out.splitlines() == [
        "[]",
        "['andmalkg.errors', 'andmalkg.ns', 'andmalkg.rdf'] True True",
        "['andmalkg.errors', 'andmalkg.ns', 'andmalkg.query', 'andmalkg.rdf']",
    ]


def test_star_import_binds_every_public_name():
    code, out, err = _python(
        "import andmalkg\n"
        "from andmalkg import *\n"
        "missing = [n for n in andmalkg.__all__ if globals().get(n) is not getattr(andmalkg, n)]\n"
        "print(len(andmalkg.__all__), missing)\n"
    )
    assert code == 0, err
    assert out == f"{len(andmalkg.__all__)} []\n"


def test_dir_lists_every_public_name():
    names = dir(andmalkg)
    assert set(andmalkg.__all__) <= set(names)
    assert "__version__" in names
    assert names == sorted(names)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        andmalkg.no_such_name
    with pytest.raises(ImportError):
        from andmalkg import no_such_name  # noqa: F401
    assert not hasattr(andmalkg, "_private_name")


def test_cli_imports_no_ingest_internals():
    # the CLI ingest is one call of ingest_file: cli.py knows no private
    # name of ingest, and none of the names rdf keeps for growing a file
    tree = ast.parse((ROOT / "src" / "andmalkg" / "cli.py").read_text(encoding="utf-8"))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert {module for module, _ in imported} >= {"ingest", "rdf"}
    assert not [name for module, name in imported if module == "ingest" and name.startswith("_")]
    assert not {("rdf", name) for name in ("_is_canonical", "_ntriples_lines", "load_subjects")} & imported


def test_an_ingest_warning_is_printed_once_and_only_where_logging_is_configured(tmp_path):
    # A fresh interpreter, so no test-runner handler sits on the root logger.
    # The package's NullHandler keeps logging's last-resort handler from
    # printing the warning; an application's own handler prints it once.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "bad.json").write_text("{nope", encoding="utf-8")
    code, out, err = _python(
        "import logging, sys\n"
        "from andmalkg import FetchSelector, FixtureSource, fetch_reports\n"
        "fetch = lambda: fetch_reports(FetchSelector.recent(10), FixtureSource(sys.argv[1]), [])\n"
        "fetch()\n"
        "print('unconfigured', file=sys.stderr)\n"
        "logging.basicConfig(format='%(name)s: %(message)s')\n"
        "fetch()\n",
        corpus,
    )
    assert code == 0, err
    assert err.startswith("unconfigured\n")
    assert err.count("bad.json") == 1
    assert "andmalkg.ingest: skipping bad.json" in err
