import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from andmalkg import (
    FetchSelector,
    FixtureSource,
    Graph,
    build_schema,
    fetch_reports,
    ingest_corpus,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
QUERIES = ROOT / "queries"


@pytest.fixture(scope="session")
def registry():
    return build_schema()


@pytest.fixture(scope="session")
def manifest():
    return json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))


def load_reports(corpus: str):
    errors: list[tuple[str, str]] = []
    reports = fetch_reports(
        FetchSelector.recent(1000), FixtureSource(FIXTURES / corpus), errors
    )
    assert not errors, f"fixture corpus {corpus} has invalid files: {errors}"
    return reports


@pytest.fixture(scope="session")
def table1_reports():
    return load_reports("table1")


@pytest.fixture(scope="session")
def multifam_reports():
    return load_reports("multifam")


def build_graph(reports, registry):
    graph = Graph()
    summary = ingest_corpus(reports, registry, graph)
    assert not summary.violations
    return graph


@pytest.fixture(scope="session")
def table1_graph(table1_reports, registry):
    return build_graph(table1_reports, registry)


@pytest.fixture(scope="session")
def multifam_graph(multifam_reports, registry):
    return build_graph(multifam_reports, registry)


@pytest.fixture(scope="session")
def query_text():
    def load(name: str) -> str:
        return (QUERIES / f"{name}.rq").read_text(encoding="utf-8")

    return load


class _FakeApiHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        api = self.server.api
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        api.requests.append((self.path, self.headers.get("Content-Type"), body))
        if api.hold:
            api.released.wait()
            return  # the client gave up long ago: answer nothing
        self.send_response(api.status)
        if 300 <= api.status < 400:
            self.send_header("Location", api.location or self.path)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(api.body)))
        self.end_headers()
        self.wfile.write(api.body)

    def log_message(self, format, *args):
        pass


class FakeApi:
    """A fake of the MalwareBazaar API on 127.0.0.1: each POST is recorded
    in `requests` as (path, Content-Type, body bytes) and answered with
    `status` and `body`, a redirect to `location` or else to the same path;
    with `hold` set, a POST is held unanswered until the fake is closed."""

    def __init__(self):
        self.requests: list[tuple[str, str, bytes]] = []
        self.status = 200
        self.body = b'{"query_status": "ok", "data": []}'
        self.location = None
        self.hold = False
        self.released = threading.Event()
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeApiHandler)
        self._server.api = self
        self.url = f"http://127.0.0.1:{self._server.server_port}/api/v1/"
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,))
        self._thread.start()

    def answer(self, payload, status=200):
        """Answer with payload: bytes as they are, text in UTF-8, anything else as JSON."""
        if not isinstance(payload, (bytes, str)):
            payload = json.dumps(payload, ensure_ascii=False)
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        self.body, self.status = payload, status

    def close(self):
        self.released.set()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


@pytest.fixture
def fake_api(monkeypatch):
    # a proxy set in the environment must not capture loopback requests
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    api = FakeApi()
    yield api
    api.close()
