import hashlib
import json
from collections import Counter

import pytest

from andmalkg import (
    ApiError,
    FetchSelector,
    FixtureSource,
    Graph,
    InvalidReportError,
    IRI,
    LiveSource,
    Literal,
    NetworkError,
    ReportParseError,
    Triple,
    andmal,
    fetch_reports,
    ingest_corpus,
    malont,
    mint_iris,
    parse_ntriples,
    parse_report,
    report_from_record,
    report_to_triples,
    serialize_ntriples,
    slug,
)
import andmalkg.ingest as ingest_mod
from andmalkg.ns import RDF_TYPE, XSD_INTEGER

UC3_SHA256 = "21d178e0688af591964ae00b71263d2e086706017ebc98d7488d57771144d337"
SHA_A = "a" * 64
SHA_B = "b" * 64


def record(**overrides):
    base = {"sha256_hash": SHA_A, "file_name": "sample.apk"}
    base.update(overrides)
    return base


def test_slug_rule():
    assert slug("AbereBot") == "aberebot"
    assert slug("Abuse.ch") == "abuse_ch"
    assert slug("two  spaces&more") == "two_spaces_more"


def test_minimal_report_emits_exactly_eight_triples(registry):
    report = report_from_record(record())
    triples = report_to_triples(report, registry)
    f = IRI(andmal(f"file_{SHA_A}"))
    m = IRI(andmal(f"malware_{SHA_A}"))
    h = IRI(andmal(f"sha256_{SHA_A}"))
    expected = {
        Triple(f, IRI(RDF_TYPE), IRI(andmal("File"))),
        Triple(m, IRI(RDF_TYPE), IRI(malont("Malware"))),
        Triple(f, IRI(andmal("contains")), m),
        Triple(m, IRI(andmal("hasFile")), f),
        Triple(f, IRI(andmal("hasFileName")), Literal("sample.apk")),
        Triple(h, IRI(RDF_TYPE), IRI(malont("SHA256"))),
        Triple(f, IRI(andmal("hasHash")), h),
        Triple(h, IRI(andmal("sha256Value")), Literal(SHA_A)),
    }
    assert triples == expected
    assert len(triples) == 8


def test_mint_is_deterministic_and_family_slugged():
    report = report_from_record(record(signature="AbereBot", tags=["Banker"]))
    ids = mint_iris(report)
    assert ids == mint_iris(report)
    assert ids["family"].endswith("family_aberebot")
    assert ids["file"].endswith(f"file_{SHA_A}")
    assert ids["tag:banker"].endswith("tag_banker")


def test_absent_signature_mints_no_family():
    ids = mint_iris(report_from_record(record()))
    assert "family" not in ids


def test_parse_report_rejects_bad_documents():
    with pytest.raises(ReportParseError):
        parse_report("{not json")
    with pytest.raises(ReportParseError):
        parse_report('["a", "list"]')
    with pytest.raises(InvalidReportError) as err:
        parse_report(json.dumps({"file_name": "x.apk"}))
    assert err.value.field == "sha256_hash"
    with pytest.raises(InvalidReportError):
        parse_report(json.dumps({"sha256_hash": "zz", "file_name": "x.apk"}))
    with pytest.raises(InvalidReportError) as err:
        parse_report(json.dumps({"sha256_hash": SHA_A}))
    assert err.value.field == "file_name"


def test_parse_validates_every_present_hash():
    with pytest.raises(InvalidReportError) as err:
        report_from_record(record(md5_hash="UPPER0000000000000000000000000aa"))
    assert err.value.field == "md5_hash"
    with pytest.raises(InvalidReportError):
        report_from_record(record(tlsh="T1" + "a" * 69))
    with pytest.raises(InvalidReportError):
        report_from_record(record(vhash="has\nnewline"))


def test_uppercase_sha256_is_accepted_and_lowercased():
    report = report_from_record(record(sha256_hash=SHA_A.upper()))
    assert report.sha256 == SHA_A


def test_field_rules():
    with pytest.raises(InvalidReportError) as err:
        report_from_record(record(file_size=-1))
    assert err.value.field == "file_size"
    with pytest.raises(InvalidReportError):
        report_from_record(record(origin_country="USA"))
    with pytest.raises(InvalidReportError) as err:
        report_from_record(
            record(first_seen="2021-06-02 00:00:00", last_seen="2021-06-01 00:00:00")
        )
    assert err.value.field == "first_seen"
    report = report_from_record(record(file_size="123", origin_country="us"))
    assert report.file_size == 123
    assert report.origin_country == "US"


@pytest.mark.parametrize("code", ["ßa", "ÄÖ"])
def test_origin_country_must_be_two_ascii_letters(code):
    # "ßa".upper() is "SSA": the check must come before, and reject, non-ASCII letters
    with pytest.raises(InvalidReportError) as err:
        report_from_record(record(origin_country=code))
    assert err.value.field == "origin_country"


def test_timestamps_normalized_to_utc_iso():
    report = report_from_record(record(first_seen="2021-06-01 08:00:00"))
    assert report.first_seen == "2021-06-01T08:00:00Z"
    report = report_from_record(record(first_seen="2021-06-01T10:00:00+02:00"))
    assert report.first_seen == "2021-06-01T08:00:00Z"


def test_signature_na_means_absent():
    assert report_from_record(record(signature="n/a")).signature is None
    assert report_from_record(record(signature="N/A")).signature is None
    assert report_from_record(record(signature=None)).signature is None
    assert report_from_record(record(signature="Anubis")).signature == "Anubis"


def test_tags_lowercased_and_deduplicated():
    report = report_from_record(record(tags=["Banker", "banker", "", "APK"]))
    assert report.tags == ("banker", "apk")


def test_vendor_intel_dict_and_list_forms():
    dict_form = report_from_record(
        record(
            vendor_intel={
                "ReversingLabs": {
                    "verdict": "malicious",
                    "threat_name": "Android.Banker",
                    "link": "https://intel.example.org/1",
                    "date": "2021-06-02 10:00:00",
                },
                "Spamhaus_HBL": [{"status": "suspicious"}],
                "vhash": {"hash": "v0001simhash"},
            }
        )
    )
    names = {v.vendor_name: v for v in dict_form.vendor_intel}
    assert set(names) == {"ReversingLabs", "Spamhaus_HBL"}
    assert names["ReversingLabs"].verdict == "malicious"
    assert names["ReversingLabs"].detection_name == "Android.Banker"
    assert names["ReversingLabs"].analysis_date == "2021-06-02T10:00:00Z"
    assert names["Spamhaus_HBL"].verdict == "suspicious"
    assert dict_form.vhash == "v0001simhash"

    list_form = report_from_record(
        record(vendor_intel=[{"vendor": "DrWeb", "verdict": "malware", "link": "nota url"}])
    )
    assert list_form.vendor_intel[0].verdict == "malicious"
    assert list_form.vendor_intel[0].link is None  # relative links dropped


def test_code_sign_forms():
    report = report_from_record(
        record(code_sign={"thumbprint_algorithm": "SHA256", "serial_number": "01", "issuer": "CN=X"})
    )
    assert report.certificate.thumbprint_algorithm == "SHA256"
    report = report_from_record(record(code_sign=[{"algorithm": "SHA1", "issuer_cn": "CN=Y"}]))
    assert report.certificate.issuer == "CN=Y"
    assert report_from_record(record(code_sign=[])).certificate is None


def test_yara_rules_parse_and_nameless_entries_dropped():
    report = report_from_record(
        record(yara_rules=[{"rule_name": "apk_banker", "author": "x"}, {"author": "nobody"}])
    )
    assert len(report.yara_rules) == 1
    assert report.yara_rules[0].name == "apk_banker"


def test_full_report_validates_and_links(registry):
    report = report_from_record(
        record(
            signature="Cerberus",
            reporter="abuse_ch",
            origin_country="US",
            tags=["banker"],
            md5_hash="d41d8cd98f00b204e9800998ecf8427e",
            tlsh="T1" + "0" * 70,
            file_size=1000,
            file_type="apk",
            first_seen="2021-06-01 08:00:00",
            last_seen="2021-06-02 08:00:00",
            vendor_intel=[{"vendor": "DrWeb", "verdict": "malware"}],
            yara_rules=[{"rule_name": "apk_banker"}],
            code_sign={"thumbprint_algorithm": "SHA256"},
        )
    )
    g = Graph()
    summary = ingest_corpus([report], registry, g)
    assert summary.violations == []
    m = IRI(andmal(f"malware_{SHA_A}"))
    assert g.match(s=m, p=IRI(andmal("hasMalwareFamily")), o=IRI(andmal("family_cerberus")))
    assert g.match(s=IRI(andmal(f"file_{SHA_A}")), p=IRI(andmal("ReportedFrom")), o=IRI(andmal("loc_US")))
    assert g.match(s=IRI(andmal(f"file_{SHA_A}")), p=IRI(malont("hasReporter")))
    sizes = g.match(s=IRI(andmal(f"file_{SHA_A}")), p=IRI(andmal("hasFileSize")))
    assert sizes[0].object == Literal("1000", datatype=XSD_INTEGER)


def test_two_tags_make_two_tag_nodes(registry):
    report = report_from_record(record(tags=["banker", "stealer"]))
    triples = report_to_triples(report, registry)
    tag_edges = [t for t in triples if t.predicate == IRI(andmal("hasTag"))]
    assert len(tag_edges) == 2
    assert len({t.object for t in tag_edges}) == 2


def test_node_reuse_across_reports(registry):
    shared = {"signature": "Anubis", "tags": ["banker"]}
    r1 = report_from_record(record(**shared))
    r2 = report_from_record(record(sha256_hash=SHA_B, file_name="other.apk", **shared))
    g = Graph()
    ingest_corpus([r1, r2], registry, g)
    families = g.match(p=IRI(RDF_TYPE), o=IRI(malont("MalwareFamily")))
    assert len(families) == 1
    tags = g.match(p=IRI(RDF_TYPE), o=IRI(andmal("Tag")))
    assert len(tags) == 1


def test_ingest_is_idempotent(registry, table1_reports):
    g = Graph()
    first = ingest_corpus(table1_reports, registry, g)
    assert first.triples_added == len(g)
    second = ingest_corpus(table1_reports, registry, g)
    assert second.triples_added == 0
    assert second.reports == len(table1_reports)


def test_family_count_conservation(registry, table1_reports, table1_graph):
    # hasMalwareFamily edges grouped by family equal the signature multiset
    edges = table1_graph.match(p=IRI(andmal("hasMalwareFamily")))
    by_family = Counter(t.object.value.rsplit("#", 1)[-1] for t in edges)
    expected = Counter(
        f"family_{slug(r.signature)}" for r in table1_reports if r.signature
    )
    assert by_family == expected


def test_one_file_individual_per_sha256(registry, table1_reports, multifam_reports):
    g = Graph()
    ingest_corpus(table1_reports + multifam_reports, registry, g)
    files = g.match(p=IRI(RDF_TYPE), o=IRI(andmal("File")))
    shas = {t.subject.value.rsplit("file_", 1)[-1] for t in files}
    all_reports = table1_reports + multifam_reports
    assert len(files) == len({r.sha256 for r in all_reports})
    assert shas == {r.sha256 for r in all_reports}


def test_multifam_dual_report_shares_one_malware_node(registry, multifam_graph, manifest):
    dual = manifest["multifam"]["dual_sha256"]
    m = IRI(andmal(f"malware_{dual}"))
    fams = multifam_graph.match(s=m, p=IRI(andmal("hasMalwareFamily")))
    assert len(fams) == manifest["multifam"]["dual_family_count"]


def test_fixture_mode_skips_malformed_files(tmp_path, registry):
    (tmp_path / "good1.json").write_text(json.dumps(record()), encoding="utf-8")
    (tmp_path / "good2.json").write_text(
        json.dumps(record(sha256_hash=SHA_B, file_name="b.apk")), encoding="utf-8"
    )
    (tmp_path / "broken.json").write_text("{oops", encoding="utf-8")
    errors = []
    reports = fetch_reports(FetchSelector.recent(100), FixtureSource(tmp_path), errors)
    assert len(reports) == 2
    assert len(errors) == 1
    assert errors[0][0] == "broken.json"


def test_fixture_mode_missing_dir_raises(tmp_path):
    with pytest.raises(OSError):
        fetch_reports(FetchSelector.recent(10), FixtureSource(tmp_path / "absent"))


def test_empty_fixture_dir_yields_no_reports(tmp_path):
    assert fetch_reports(FetchSelector.recent(10), FixtureSource(tmp_path)) == []


def test_selector_filters():
    sig = FetchSelector.by_signature("AbereBot", 100)
    tag = FetchSelector.by_tag("Banker", 100)
    sha = FetchSelector.by_hash(UC3_SHA256.upper())
    assert sig.value == "AbereBot"
    assert tag.value == "banker"
    assert sha.value == UC3_SHA256
    with pytest.raises(ValueError):
        FetchSelector.recent(0)
    with pytest.raises(ValueError):
        FetchSelector.recent(1001)


def test_fixture_selector_by_signature(manifest):
    from conftest import FIXTURES

    reports = fetch_reports(
        FetchSelector.by_signature("AbereBot", 100), FixtureSource(FIXTURES / "table1")
    )
    assert len(reports) == manifest["table1"]["families"]["AbereBot"]
    assert all(r.signature == "AbereBot" for r in reports)


def test_fixture_selector_by_hash(manifest):
    from conftest import FIXTURES

    reports = fetch_reports(
        FetchSelector.by_hash(manifest["table1"]["uc3_sha256"]),
        FixtureSource(FIXTURES / "table1"),
    )
    assert len(reports) == 1
    assert reports[0].sha256 == manifest["table1"]["uc3_sha256"]


def test_fixture_selector_recent_caps_and_orders(tmp_path):
    for i, sha in enumerate([SHA_A, SHA_B]):
        (tmp_path / f"r{i}.json").write_text(
            json.dumps(
                record(sha256_hash=sha, first_seen=f"2021-06-0{i + 1} 08:00:00")
            ),
            encoding="utf-8",
        )
    reports = fetch_reports(FetchSelector.recent(1), FixtureSource(tmp_path))
    assert len(reports) == 1
    assert reports[0].sha256 == SHA_B  # newest first


class FakeResponse:
    def __init__(self, payload, status_code=200):
        self._payload = payload
        self.status_code = status_code

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


def test_live_mode_posts_form_and_maps_records(monkeypatch):
    calls = []

    def fake_post(url, data=None, timeout=None):
        calls.append((url, data))
        return FakeResponse({"query_status": "ok", "data": [record(), record(sha256_hash=SHA_B, file_name="b.apk")]})

    monkeypatch.setattr(ingest_mod.requests, "post", fake_post)
    reports = fetch_reports(
        FetchSelector.by_signature("Anubis", 50), LiveSource("https://api.example.org/v1/")
    )
    assert len(reports) == 2
    url, form = calls[0]
    assert url == "https://api.example.org/v1/"
    assert form == {"query": "get_siginfo", "signature": "Anubis", "limit": "50"}


def test_live_mode_bad_status_raises(monkeypatch):
    monkeypatch.setattr(
        ingest_mod.requests,
        "post",
        lambda url, data=None, timeout=None: FakeResponse({"query_status": "no_results", "data": []}),
    )
    with pytest.raises(ApiError) as err:
        fetch_reports(FetchSelector.recent(5), LiveSource("https://api.example.org/v1/"))
    assert err.value.status == "no_results"


def test_live_mode_network_failure_raises(monkeypatch):
    import requests as requests_lib

    def boom(url, data=None, timeout=None):
        raise requests_lib.ConnectionError("refused")

    monkeypatch.setattr(ingest_mod.requests, "post", boom)
    with pytest.raises(NetworkError):
        fetch_reports(FetchSelector.recent(5), LiveSource("https://api.example.org/v1/"))


def test_live_mode_skips_bad_records(monkeypatch):
    payload = {"query_status": "ok", "data": [record(), {"file_name": "nosha.apk"}]}
    monkeypatch.setattr(
        ingest_mod.requests, "post", lambda url, data=None, timeout=None: FakeResponse(payload)
    )
    errors = []
    reports = fetch_reports(FetchSelector.recent(5), LiveSource("https://x.example/"), errors)
    assert len(reports) == 1
    assert len(errors) == 1


def test_empty_corpus_changes_nothing(registry):
    g = Graph()
    summary = ingest_corpus([], registry, g)
    assert summary.reports == 0
    assert summary.triples_added == 0
    assert len(g) == 0


def _triples_graph(reports, registry):
    """The reports' subgraphs inserted Triple by Triple."""
    g = Graph()
    for report in reports:
        g.insert_all(report_to_triples(report, registry))
    return g


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_ingest_corpus_equals_inserting_report_triples(registry, table1_reports, multifam_reports):
    reports = table1_reports + multifam_reports
    g = Graph()
    summary = ingest_corpus(reports, registry, g)
    expected = _triples_graph(reports, registry)
    assert g == expected
    assert summary.triples_added == len(g) == 2540
    text = serialize_ntriples(g)
    assert text == serialize_ntriples(expected)
    # the file earlier releases wrote for these fixtures
    assert _sha256(text) == "e6b4e200425d6ed5f1b0ede9c1ff58afc1016e89efabfb3928b91d367158e47a"


def test_parsed_graph_equals_ingested_graph(registry, table1_reports, multifam_reports):
    ingested = Graph()
    ingest_corpus(table1_reports + multifam_reports, registry, ingested)
    parsed = parse_ntriples(serialize_ntriples(ingested))
    assert parsed == ingested and ingested == parsed
    assert set(parsed) == set(ingested)
    assert parsed.subjects() == ingested.subjects()
    for subject in ingested.subjects()[::25]:
        assert parsed.match(s=subject) == ingested.match(s=subject)
    ingested.insert(Triple(IRI(andmal("extra")), IRI(RDF_TYPE), IRI(andmal("File"))))
    assert parsed != ingested and ingested != parsed


# quote, backslash, newline, tab, non-ASCII, and U+2028, which str.splitlines would split on
ODD_TEXT = 'say "hi" \\ back\nslash\tü 漢字 \u2028'


def test_escaped_and_non_ascii_text_round_trips(registry):
    report = report_from_record(
        record(
            sha256_hash="c" * 64,
            file_name="a" + ODD_TEXT + ".apk",
            yara_rules=[{"rule_name": "odd_rule", "description": ODD_TEXT, "author": "Zoë"}],
            vendor_intel={'Vend"or': {"verdict": "malware", "detection": ODD_TEXT}},
        )
    )
    g = Graph()
    summary = ingest_corpus([report], registry, g)
    assert summary.violations == []
    assert g == _triples_graph([report], registry)
    text = serialize_ntriples(g)
    assert '"asay \\"hi\\" \\\\ back\\nslash\\tü 漢字 \u2028.apk"' in text
    assert parse_ntriples(text) == g
    assert serialize_ntriples(parse_ntriples(text)) == text
    # the file earlier releases wrote for this report
    assert _sha256(text) == "439cb18a4c1f18530db5caa227778cd3a622ed937c5f3164c6cb41e26fead890"


def test_ingest_into_respelled_graph_adds_no_term(registry):
    report = report_from_record(record(file_size=7, tags=["banker"]))
    fresh = Graph()
    ingest_corpus([report], registry, fresh)
    canonical = serialize_ntriples(fresh)
    # the same triples, each term spelled another legal way
    respelled = (
        canonical.replace('"sample.apk"', '"sample\\u002Eapk"')
        .replace('"banker" .', '"banker"^^<http://www.w3.org/2001/XMLSchema#string> .')
        .replace("> <", ">\t<")
    )
    assert respelled != canonical
    g = parse_ntriples(respelled)
    terms = len(g._terms)
    assert terms == len(fresh._terms)
    summary = ingest_corpus([report], registry, g)
    assert summary.triples_added == 0
    assert summary.violations == []
    assert len(g._terms) == terms
    assert serialize_ntriples(g) == canonical
