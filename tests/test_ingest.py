import hashlib
import json
import re
import socket
import time
from collections import Counter
from pathlib import Path

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
    SelectorError,
    Triple,
    VendorVerdict,
    YaraRuleInfo,
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

SHA_A = "a" * 64
SHA_B = "b" * 64
SHA_C = "c" * 64


def record(**overrides):
    base = {"sha256_hash": SHA_A, "file_name": "sample.apk"}
    base.update(overrides)
    return base


def test_slug_rule():
    assert slug("AbereBot") == "aberebot"
    assert slug("Abuse.ch") == "abuse_ch"
    assert slug("two  spaces&more") == "two_spaces_more"


def test_minimal_report_emits_exactly_eight_triples():
    report = report_from_record(record())
    triples = report_to_triples(report)
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


def _digest8(label):
    return hashlib.sha256(label.lower().encode("utf-8")).hexdigest()[:8]


def test_mint_names_a_label_by_its_slug_only_when_the_slug_loses_nothing():
    def minted(**fields):
        return mint_iris(report_from_record(record(**fields)))

    ids = minted(
        signature="Joker", reporter="abuse_ch", tags=["banker", "anti-vm", "anti_vm", "банкер", "木马"],
        yara_rules=[{"rule_name": "x.y"}, {"rule_name": "x-y"}, {"rule_name": "x_y"}],
        vendor_intel={"Vendor.A": {"verdict": "malware"}, "Vendor-A": {"verdict": "clean"}},
    )
    assert ids["family"] == andmal("family_joker")
    assert ids["reporter"] == andmal("reporter_abuse_ch")
    assert ids["tag:banker"] == andmal("tag_banker")
    assert ids["tag:anti_vm"] == andmal("tag_anti_vm")
    assert ids["tag:anti-vm"] == andmal(f"tag_anti_vm_{_digest8('anti-vm')}")
    assert ids["tag:банкер"] == andmal(f"tag___{_digest8('банкер')}")
    assert ids["tag:木马"] == andmal(f"tag___{_digest8('木马')}")
    assert ids["yara:x_y"] == andmal("yara_x_y")
    assert ids["yara:x.y"] == andmal(f"yara_x_y_{_digest8('x.y')}")
    assert ids["vendor:Vendor.A"] == andmal(f"vi_{SHA_A}_vendor_a_{_digest8('Vendor.A')}")
    # every label above is distinct, and so is every IRI
    assert len(set(ids.values())) == len(ids)
    # labels equal but for case share a node, lossy or not
    assert minted(signature="JOKER")["family"] == ids["family"]
    assert minted(signature="Foo.Bar")["family"] == minted(signature="foo.bar")["family"]
    assert minted(signature="Foo.Bar")["family"] != minted(signature="Foo-Bar")["family"]
    assert minted(reporter="x y")["reporter"] != minted(reporter="x.y")["reporter"]


def test_absent_signature_mints_no_family():
    ids = mint_iris(report_from_record(record()))
    assert "family" not in ids


def test_report_rows_have_exactly_the_minted_subjects(table1_reports, multifam_reports):
    # The CLI ingest loads only the old lines of its rows' subjects and the
    # types of their objects, so the subjects must be every minted IRI, and
    # every object a schema check reads the type of (any IRI object but a
    # class) must be minted too.
    for report in table1_reports + multifam_reports + [report_from_record(record())]:
        minted = {f"<{iri}>" for iri in mint_iris(report).values()}
        rows = ingest_mod._report_rows(report)
        assert {s for s, _, _ in rows} == minted
        objects = {o for _, p, o in rows if p != f"<{RDF_TYPE}>" and o[0] == "<"}
        assert objects <= minted


def test_report_rows_name_every_registered_term_by_its_local_name(registry):
    # the rows' vocabulary is keyed on local names, so no two terms may share one
    terms = [*registry.classes, *registry.object_properties, *registry.data_properties]
    assert len(ingest_mod._VOCABULARY) == len(terms) == 82
    assert sorted(ingest_mod._VOCABULARY.values()) == sorted(f"<{iri}>" for iri in terms)


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
    with pytest.raises(ReportParseError):
        parse_report("[" * 100000 + "]" * 100000)  # nested deeper than the decoder recurses
    with pytest.raises(ReportParseError):
        parse_report('{"sha256_hash": "%s", "file_name": "x.apk", "file_size": %s}' % (SHA_A, "9" * 5000))


def test_parse_validates_every_present_hash():
    with pytest.raises(InvalidReportError) as err:
        report_from_record(record(md5_hash="UPPER0000000000000000000000000aa"))
    assert err.value.field == "md5_hash"
    with pytest.raises(InvalidReportError):
        report_from_record(record(tlsh="T1" + "a" * 69))
    with pytest.raises(InvalidReportError):
        report_from_record(record(vhash="has\nnewline"))


@pytest.mark.parametrize(
    "key, value",
    [
        ("file_name", "evil\ud800.apk"),
        ("file_type", "\udfff"),
        ("signature", "Fam\udc00"),
        ("reporter", "\udbff"),
        ("tags", ["ok", "b\ud800"]),
        ("vendor_intel", {"V\ud800": {"verdict": "malicious"}}),
        ("vendor_intel", [{"vendor": "V", "detection": "d\ud800"}]),
        ("yara_rules", [{"rule_name": "r", "author": "\ud800"}]),
        ("code_sign", [{"thumbprint_algorithm": "sha256", "issuer_cn": "CN=\ud800"}]),
    ],
)
def test_a_lone_surrogate_in_any_text_rejects_the_report(key, value):
    with pytest.raises(InvalidReportError) as err:
        report_from_record(record(**{key: value}))
    assert err.value.field == key
    assert str(err.value).startswith(f"{key} holds a lone surrogate: ")
    # a JSON document spells one with an escape, or as a character of a str
    for ascii_only in (True, False):
        with pytest.raises(InvalidReportError):
            parse_report(json.dumps(record(**{key: value}), ensure_ascii=ascii_only))
    # a paired surrogate escape is a character outside the BMP, and fine
    report = parse_report('{"sha256_hash": "%s", "file_name": "\\ud83d\\ude00.apk"}' % SHA_A)
    assert report.file_name == "\U0001f600.apk"


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


# outcome: the field InvalidReportError names, or the attributes of the
# accepted report
@pytest.mark.parametrize(
    "overrides, outcome",
    [
        ({"first_seen": "the day before yesterday"}, "first_seen"),
        ({"file_type": 7}, "file_type"),
        ({"vendor_intel": "V: malicious"}, "vendor_intel"),
        ({"yara_rules": {"rule_name": "r"}}, "yara_rules"),
        ({"code_sign": "sha256"}, "code_sign"),
        ({"tags": "a,b"}, "tags"),
        ({"tags": ["ok", 3]}, "tags"),
        ({"vendor_intel": {"vhash": " vh_da5db9481a "}}, {"vhash": "vh_da5db9481a", "vendor_intel": ()}),
        # a vendor entry without a vendor name, or not an object, is dropped
        ({"vendor_intel": {" ": {"verdict": "malicious"}}}, {"vendor_intel": ()}),
        ({"vendor_intel": [{"verdict": "malicious"}]}, {"vendor_intel": ()}),
        ({"vendor_intel": [1, "x", {"vendor": "V"}]}, {"vendor_intel": (VendorVerdict("V", "unknown"),)}),
        ({"yara_rules": ["r", {"rule_name": "x"}]}, {"yara_rules": (YaraRuleInfo("x"),)}),
        ({"code_sign": {"serial_number": "01", "issuer": "CN=x"}}, {"certificate": None}),
        ({"origin_country": "n/a"}, {"origin_country": None}),
        # in UTC these fall before year 1 or after year 9999
        ({"first_seen": "0001-01-01 00:00:00+01:00"}, "first_seen"),
        ({"last_seen": "9999-12-31 23:00:00-05:00"}, "last_seen"),
        # a year before 1000 keeps its four digits, as xsd:dateTime needs
        ({"first_seen": "0999-05-01 00:00:00"}, {"first_seen": "0999-05-01T00:00:00Z"}),
        ({"first_seen": "0001-01-01 00:00:00"}, {"first_seen": "0001-01-01T00:00:00Z"}),
        ({"vendor_intel": {"V": {"date": "0001-01-01 00:00:00+01:00"}}}, "vendor_intel"),
        # "²" is a digit to isdigit() but no number to int(); "١٢" is 12 to both
        ({"file_size": "²"}, "file_size"),
        ({"file_size": "١٢"}, {"file_size": 12}),
        ({"file_size": "9" * 5000}, "file_size"),
    ],
)
def test_record_shapes_rejected_or_accepted(registry, overrides, outcome):
    if isinstance(outcome, str):
        with pytest.raises(InvalidReportError) as err:
            report_from_record(record(**overrides))
        assert err.value.field == outcome
    else:
        report = report_from_record(record(**overrides))
        assert {name: getattr(report, name) for name in outcome} == outcome
        # an accepted report ingests a subgraph that validates
        assert ingest_corpus([report], registry, Graph()).violations == []


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


# A report timestamp and its normalized value, or None where it is
# rejected.  The grammar is the package's own, so each answer is the same on
# every Python version; datetime.fromisoformat on 3.11 accepts every
# rejected spelling below but the last two.
@pytest.mark.parametrize(
    "raw, normalized",
    [
        ("2021-06-01", "2021-06-01T00:00:00Z"),
        ("2021-06-01T08:00:00", "2021-06-01T08:00:00Z"),
        ("2021-06-01 08:00:00", "2021-06-01T08:00:00Z"),
        # the graph keeps whole seconds, so a fraction is dropped
        ("2021-06-01T08:00:00.5", "2021-06-01T08:00:00Z"),
        ("2021-06-01T08:00:00.1234Z", "2021-06-01T08:00:00Z"),
        ("2021-06-01T08:00:00Z", "2021-06-01T08:00:00Z"),
        ("2021-06-01T08:00:00+05:30", "2021-06-01T02:30:00Z"),
        ("2021-06-01 08:00:00-14:00", "2021-06-01T22:00:00Z"),
        ("0999-05-01T00:00:00", "0999-05-01T00:00:00Z"),
        ("20210601T000000", None),
        ("2021-W01-1T00:00:00", None),
        ("2021-06-01T08:00", None),
        ("2021-06-01T08Z", None),
        ("2021-06-01 08:00:00 Z", None),
        ("2021-06-01T08:00:00,5", None),
        ("2021-06-01T08:00:00+0530", None),
        ("2021-06-01T08:00:00+05:30:15", None),
        ("2021-06-01T08:00:00+14:30", None),
        ("2021-06-01t08:00:00", None),
        ("2021-06-01T08:00:00z", None),
        ("2021-02-29", None),
    ],
)
def test_report_timestamp_grammar(registry, raw, normalized):
    if normalized is None:
        with pytest.raises(InvalidReportError) as err:
            report_from_record(record(first_seen=raw))
        assert err.value.field == "first_seen"
    else:
        report = report_from_record(record(first_seen=raw))
        assert report.first_seen == normalized
        # the validator's xsd:dateTime check accepts what ingest writes
        assert ingest_corpus([report], registry, Graph()).violations == []


def test_vendor_analysis_date_follows_the_report_timestamp_grammar():
    report = report_from_record(record(vendor_intel={"V": {"analysis_date": "2021-06-01T08:00:00-01:30"}}))
    assert report.vendor_intel[0].analysis_date == "2021-06-01T09:30:00Z"
    with pytest.raises(InvalidReportError) as err:
        report_from_record(record(vendor_intel={"V": {"analysis_date": "2021-06-01T08:00"}}))
    assert err.value.field == "vendor_intel"


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


def test_two_tags_make_two_tag_nodes():
    report = report_from_record(record(tags=["banker", "stealer"]))
    triples = report_to_triples(report)
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


@pytest.mark.parametrize("where", ["dot", "relative", "absolute"])
def test_fixture_mode_names_and_orders_entries_as_a_pathlib_glob(tmp_path, monkeypatch, where):
    # dot-files and directories match *.json, other cases do not, and each
    # skipped entry is named by what reading path / name would say
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in (("b.json", record()), (".hidden.json", record(sha256_hash=SHA_B)), ("a.JSON", record())):
        (corpus / name).write_text(json.dumps(text), encoding="utf-8")
    (corpus / ".json").write_text("{}", encoding="utf-8")
    (corpus / "bad.json").write_text("{oops", encoding="utf-8")
    (corpus / "dir.json").mkdir()
    (corpus / "dangling.json").symlink_to(tmp_path / "nowhere")
    monkeypatch.chdir(corpus if where == "dot" else tmp_path)
    path = {"dot": ".", "relative": "corpus/", "absolute": str(corpus)}[where]
    expected = []
    for fixture in sorted(Path(path).glob("*.json")):
        try:
            parse_report(fixture.read_text(encoding="utf-8"))
        except (ReportParseError, InvalidReportError, OSError) as exc:
            expected.append((fixture.name, str(exc)))
    errors = []
    reports = fetch_reports(FetchSelector.recent(100), FixtureSource(path), errors)
    assert errors == expected
    assert [name for name, _ in errors] == [".json", "bad.json", "dangling.json", "dir.json"]
    assert errors[-1][1].endswith({"dot": "'dir.json'", "relative": "'corpus/dir.json'", "absolute": f"'{corpus}/dir.json'"}[where])
    assert sorted(r.sha256 for r in reports) == [SHA_A, SHA_B]


def test_empty_fixture_dir_yields_no_reports(tmp_path):
    assert fetch_reports(FetchSelector.recent(10), FixtureSource(tmp_path)) == []


def test_selector_filters():
    assert FetchSelector.by_signature("AbereBot", 100) == FetchSelector("AbereBot", 100)
    assert FetchSelector.recent(7) == FetchSelector(None, 7)
    with pytest.raises(ValueError):
        FetchSelector.recent(0)
    with pytest.raises(ValueError):
        FetchSelector.recent(1001)
    # a usage error of its own, and still a ValueError
    with pytest.raises(SelectorError, match="selector limit out of range"):
        FetchSelector(None, 0)


@pytest.mark.parametrize("signature", ["", " ", "\t\n"], ids=["empty", "space", "whitespace"])
def test_selector_rejects_a_blank_signature(signature):
    with pytest.raises(ValueError, match="selector signature is blank"):
        FetchSelector.by_signature(signature)


@pytest.mark.parametrize(
    "reject, message",
    [
        (lambda path, live: FetchSelector.recent(0), "selector limit out of range [1, 1000]: 0"),
        (lambda path, live: FetchSelector.by_signature("Anubis", 1001), "selector limit out of range [1, 1000]: 1001"),
        (lambda path, live: FetchSelector.by_signature(" \t"), "selector signature is blank: ' \\t'"),
        (lambda path, live: ingest_mod._live_form(FetchSelector.recent(101)), "live recent limit out of range [1, 100]: 101"),
        (lambda path, live: ingest_mod.ingest_file(path, FixtureSource(path), limit=-1), "selector limit out of range [1, 1000]: -1"),
        (lambda path, live: ingest_mod.ingest_file(path, FixtureSource(path), ""), "selector signature is blank: ''"),
        (lambda path, live: ingest_mod.ingest_file(path, live, limit=101), "live recent limit out of range [1, 100]: 101"),
    ],
    ids=["limit-0", "limit-1001", "blank-signature", "live-form-101", "file-limit-minus-1", "file-blank", "file-live-101"],
)
def test_each_rejected_selector_raises_a_selector_error(tmp_path, fake_api, reject, message):
    # a usage error of its own type, still a ValueError; ingest_file raises
    # it before it sends a request or makes the graph file or its lock
    with pytest.raises(SelectorError) as err:
        reject(tmp_path / "graph.nt", LiveSource(fake_api.url))
    assert isinstance(err.value, ValueError)
    assert str(err.value) == message
    assert list(tmp_path.iterdir()) == []
    assert fake_api.requests == []


def test_fixture_selector_by_signature(manifest):
    from conftest import FIXTURES

    reports = fetch_reports(
        FetchSelector.by_signature("AbereBot", 100), FixtureSource(FIXTURES / "table1")
    )
    assert len(reports) == manifest["table1"]["families"]["AbereBot"]
    assert all(r.signature == "AbereBot" for r in reports)


@pytest.mark.parametrize(
    "selector",
    [FetchSelector.recent(2), FetchSelector.by_signature("X", 2)],
    ids=["recent", "signature"],
)
def test_fixture_selector_recent_caps_and_orders(tmp_path, selector):
    # file-name order is oldest first
    for i, sha in enumerate([SHA_A, SHA_B, SHA_C]):
        (tmp_path / f"r{i}.json").write_text(
            json.dumps(
                record(sha256_hash=sha, signature="X", first_seen=f"2021-06-0{i + 1} 08:00:00")
            ),
            encoding="utf-8",
        )
    reports = fetch_reports(selector, FixtureSource(tmp_path))
    assert [r.sha256 for r in reports] == [SHA_C, SHA_B]  # newest first


FORM = "application/x-www-form-urlencoded"


def test_live_mode_posts_form_and_maps_records(fake_api):
    fake_api.answer({"query_status": "ok", "data": [record(), record(sha256_hash=SHA_B, file_name="b.apk")]})
    reports = fetch_reports(FetchSelector.by_signature("Anubis", 50), LiveSource(fake_api.url))
    assert [r.sha256 for r in reports] == [SHA_A, SHA_B]
    assert fake_api.requests == [("/api/v1/", FORM, b"query=get_siginfo&signature=Anubis&limit=50")]


def test_live_mode_bad_status_raises(fake_api):
    fake_api.answer({"query_status": "no_results", "data": []})
    with pytest.raises(ApiError) as err:
        fetch_reports(FetchSelector.recent(5), LiveSource(fake_api.url))
    assert err.value.status == "no_results"


def test_live_mode_network_failure_raises():
    # a bound port that does not listen refuses the connection
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        endpoint = f"http://127.0.0.1:{closed.getsockname()[1]}/"
        with pytest.raises(NetworkError, match=f"^request to {re.escape(endpoint)} failed: "):
            fetch_reports(FetchSelector.recent(5), LiveSource(endpoint))


@pytest.mark.parametrize(
    "endpoint",
    ["http://[::1/", "http://127.0.0.1:9/é", "http://127.0.0.1:x/"],
    ids=["bad-ipv6", "non-ascii", "bad-port"],
)
def test_live_mode_unsendable_url_raises(endpoint):
    # urllib raises ValueError or http.client.InvalidURL for these
    with pytest.raises(NetworkError, match=f"^request to {re.escape(endpoint)} failed: "):
        fetch_reports(FetchSelector.recent(5), LiveSource(endpoint))


def test_live_mode_timeout_raises(fake_api, monkeypatch):
    monkeypatch.setattr(ingest_mod, "_LIVE_TIMEOUT", 0.2)
    fake_api.hold = True
    start = time.monotonic()
    with pytest.raises(NetworkError, match=f"^request to {re.escape(fake_api.url)} failed: "):
        fetch_reports(FetchSelector.recent(5), LiveSource(fake_api.url))
    assert time.monotonic() - start < 2
    assert len(fake_api.requests) == 1


def test_live_mode_follows_no_redirect_to_ftp(fake_api, monkeypatch):
    # urllib's standard opener would follow it and connect
    monkeypatch.setattr(ingest_mod, "_LIVE_TIMEOUT", 0.5)
    with socket.socket() as ftp:
        ftp.bind(("127.0.0.1", 0))
        ftp.listen()
        ftp.setblocking(False)
        fake_api.location = f"ftp://127.0.0.1:{ftp.getsockname()[1]}/reports"
        fake_api.answer(b"", status=302)
        with pytest.raises(NetworkError, match=f"^request to {re.escape(fake_api.url)} failed: "):
            fetch_reports(FetchSelector.recent(5), LiveSource(fake_api.url))
        with pytest.raises(BlockingIOError):
            ftp.accept()


@pytest.mark.parametrize(
    "body, code, status",
    [
        ({"query_status": "ok", "data": []}, 503, "503"),
        ({"query_status": "ok", "data": []}, 201, "201"),
        # a POST is not sent again to the Location of a 307
        ({"query_status": "ok", "data": []}, 307, "307"),
        ("<html>busy</html>", 200, "bad-payload"),
        ("[" * 100000 + "]" * 100000, 200, "bad-payload"),
        (b'{"query_status": "\xff"}', 200, "bad-payload"),
        ({"query_status": "ok"}, 200, "bad-payload"),
        ({"query_status": "ok", "data": {"sha256_hash": SHA_A}}, 200, "bad-payload"),
        ("[]", 200, "bad-payload"),
        ("1", 200, "bad-payload"),
        ("null", 200, "bad-payload"),
    ],
    ids=["http-503", "http-201", "http-307", "not-json", "too-deep", "not-unicode", "no-data", "data-not-a-list", "array", "number", "null"],
)
def test_live_mode_bad_response_raises(fake_api, body, code, status):
    fake_api.answer(body, status=code)
    with pytest.raises(ApiError) as err:
        fetch_reports(FetchSelector.recent(5), LiveSource(fake_api.url))
    assert err.value.status == status
    assert len(fake_api.requests) == 1


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16-le", "utf-32"])
def test_live_mode_decodes_each_json_encoding(fake_api, encoding):
    fake_api.answer(json.dumps({"query_status": "ok", "data": [record(file_name="é.apk")]}).encode(encoding))
    reports = fetch_reports(FetchSelector.recent(5), LiveSource(fake_api.url))
    assert [r.file_name for r in reports] == ["é.apk"]


@pytest.mark.parametrize(
    "selector, form",
    [
        (FetchSelector.recent(100), b"query=get_recent&selector=100"),
        (FetchSelector.recent(3), b"query=get_recent&selector=100"),
        (FetchSelector.by_signature("Anubis", 500), b"query=get_siginfo&signature=Anubis&limit=500"),
    ],
    ids=["recent-100", "recent-3", "signature-500"],
)
def test_live_mode_form_per_selector(fake_api, selector, form):
    fake_api.answer({"query_status": "ok", "data": [record(sha256_hash=f"{i:064x}") for i in range(120)]})
    reports = fetch_reports(selector, LiveSource(fake_api.url))
    assert fake_api.requests == [("/api/v1/", FORM, form)]
    assert len(reports) == min(selector.limit, 120)


def test_live_recent_beyond_what_the_api_returns_raises_before_sending(fake_api):
    with pytest.raises(ValueError, match=r"^live recent limit out of range \[1, 100\]: 101$"):
        fetch_reports(FetchSelector.recent(101), LiveSource(fake_api.url))
    assert fake_api.requests == []


def test_fetch_selection_rules():
    from conftest import FIXTURES

    with pytest.raises(TypeError, match="unknown source"):
        fetch_reports(FetchSelector.recent(), FIXTURES / "table1")


def test_live_mode_skips_bad_records(fake_api):
    fake_api.answer({"query_status": "ok", "data": [record(), {"file_name": "nosha.apk"}]})
    errors = []
    reports = fetch_reports(FetchSelector.recent(5), LiveSource(fake_api.url), errors)
    assert len(reports) == 1
    assert len(errors) == 1


def test_live_mode_skips_records_that_fail_past_the_json_decoder(fake_api):
    bad = [
        record(sha256_hash=SHA_B, first_seen="0001-01-01 00:00:00+01:00"),
        record(sha256_hash=SHA_B, file_size="²"),
        record(sha256_hash=SHA_B, file_size="9" * 5000),
    ]
    fake_api.answer({"query_status": "ok", "data": [*bad, record()]})
    errors = []
    reports = fetch_reports(FetchSelector.recent(5), LiveSource(fake_api.url), errors)
    assert [r.sha256 for r in reports] == [SHA_A]
    assert [name for name, _ in errors] == ["record 0", "record 1", "record 2"]


def test_empty_corpus_changes_nothing(registry):
    g = Graph()
    summary = ingest_corpus([], registry, g)
    assert summary.reports == 0
    assert summary.triples_added == 0
    assert len(g) == 0


def _triples_graph(reports):
    """The reports' subgraphs inserted Triple by Triple."""
    g = Graph()
    for report in reports:
        g.insert_all(report_to_triples(report))
    return g


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_ingest_corpus_equals_inserting_report_triples(registry, table1_reports, multifam_reports):
    reports = table1_reports + multifam_reports
    g = Graph()
    summary = ingest_corpus(reports, registry, g)
    expected = _triples_graph(reports)
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
    # match() is in canonical order, so the subjects are too
    subjects = list(dict.fromkeys(t.subject for t in ingested.match()))
    assert list(dict.fromkeys(t.subject for t in parsed.match())) == subjects
    for subject in subjects[::25]:
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
    assert g == _triples_graph([report])
    text = serialize_ntriples(g)
    assert '"asay \\"hi\\" \\\\ back\\nslash\\tü 漢字 \u2028.apk"' in text
    assert parse_ntriples(text) == g
    assert serialize_ntriples(parse_ntriples(text)) == text
    assert _sha256(text) == "fe52f575d8a2b32cb5709aeb59d9ba640b50c4c22c9c695e4b021108ad79f064"
    # 'Vend"or' is not its own slug, so its vendor node carries a digest;
    # named as earlier releases named it, the file is the one they wrote
    vendor = f"<{andmal('vi_' + 'c' * 64)}_vend_or"
    assert text.count(f"{vendor}_3c0d0997>") == 5
    earlier = sorted(line + "\n" for line in text.replace(f"{vendor}_3c0d0997>", f"{vendor}>").split("\n")[:-1])
    assert _sha256("".join(earlier)) == "439cb18a4c1f18530db5caa227778cd3a622ed937c5f3164c6cb41e26fead890"


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
    terms = len(g._tokens)
    assert terms == len(fresh._tokens)
    summary = ingest_corpus([report], registry, g)
    assert summary.triples_added == 0
    assert summary.violations == []
    assert len(g._tokens) == terms
    assert serialize_ntriples(g) == canonical
