"""MalwareBazaar report pipeline: fetch or load reports, mint IRIs, emit triples.

Reports arrive as JSON records (one per fixture file, or in the `data`
array of a live API response).  Parsing is strict: every present hash is
checked against its format rules, timestamps must be ordered, and country
codes must be two ASCII letters, so a parsed report is guaranteed to
produce a schema-conformant subgraph.

A report's subgraph is built once, as rows of canonical N-Triples tokens,
the names the store keeps terms under (see rdf.py).  ingest_corpus interns
the tokens straight into the graph and validates the subjects it touched
from the graph's SPO index; report_to_triples turns the same rows into
Triples.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from .errors import ApiError, InvalidReportError, NetworkError, ReportParseError
from .ns import RDF_TYPE, XSD_ANYURI, XSD_DATETIME, XSD_INTEGER, andmal, malont
from .rdf import Graph, Triple, _checked_term, _literal_token as _literal
from .schema import (
    HASH_KINDS,
    SchemaRegistry,
    build_schema,
    validate_hash_format,
    validate_subjects,
)

logger = logging.getLogger(__name__)

DEFAULT_ENDPOINT = "https://mb-api.abuse.ch/api/v1/"

_registry = build_schema()

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")

_VERDICT_ALIASES = {
    "malicious": "malicious",
    "malware": "malicious",
    "clean": "clean",
    "harmless": "clean",
    "benign": "clean",
    "not malware": "clean",
    "suspicious": "suspicious",
    "unknown": "unknown",
}


def slug(text: str) -> str:
    """Lowercase, map runs of non-alphanumerics to a single underscore."""
    return re.sub(r"[^a-z0-9]+", "_", text.lower())


@dataclass(frozen=True)
class VendorVerdict:
    vendor_name: str
    verdict: str
    detection_name: Optional[str] = None
    link: Optional[str] = None
    analysis_date: Optional[str] = None


@dataclass(frozen=True)
class YaraRuleInfo:
    name: str
    author: Optional[str] = None
    description: Optional[str] = None
    reference: Optional[str] = None


@dataclass(frozen=True)
class CertInfo:
    thumbprint_algorithm: str
    serial_number: Optional[str] = None
    issuer: Optional[str] = None


@dataclass(frozen=True)
class MalwareReport:
    sha256: str
    file_name: str
    sha1: Optional[str] = None
    md5: Optional[str] = None
    imphash: Optional[str] = None
    tlsh: Optional[str] = None
    telfhash: Optional[str] = None
    gimphash: Optional[str] = None
    ssdeep: Optional[str] = None
    vhash: Optional[str] = None
    file_size: Optional[int] = None
    file_type: Optional[str] = None
    first_seen: Optional[str] = None
    last_seen: Optional[str] = None
    signature: Optional[str] = None
    reporter: Optional[str] = None
    origin_country: Optional[str] = None
    tags: tuple[str, ...] = ()
    vendor_intel: tuple[VendorVerdict, ...] = ()
    yara_rules: tuple[YaraRuleInfo, ...] = ()
    certificate: Optional[CertInfo] = None


@dataclass(frozen=True)
class FetchSelector:
    mode: str  # "signature" | "tag" | "hash" | "recent"
    value: Optional[str] = None
    limit: int = 100

    def __post_init__(self):
        if self.mode not in ("signature", "tag", "hash", "recent"):
            raise ValueError(f"bad selector mode: {self.mode}")
        if not 1 <= self.limit <= 1000:
            raise ValueError(f"selector limit out of range [1, 1000]: {self.limit}")

    @classmethod
    def by_signature(cls, name: str, limit: int = 100) -> "FetchSelector":
        return cls("signature", name, limit)

    @classmethod
    def by_tag(cls, tag: str, limit: int = 100) -> "FetchSelector":
        return cls("tag", tag.strip().lower(), limit)

    @classmethod
    def by_hash(cls, sha256: str) -> "FetchSelector":
        return cls("hash", sha256.lower(), 1)

    @classmethod
    def recent(cls, limit: int = 100) -> "FetchSelector":
        return cls("recent", None, limit)


@dataclass(frozen=True)
class FixtureSource:
    path: Path


@dataclass(frozen=True)
class LiveSource:
    endpoint: str = DEFAULT_ENDPOINT


@dataclass
class IngestSummary:
    reports: int = 0
    triples_added: int = 0
    violations: list = field(default_factory=list)


def _normalize_timestamp(raw: str, field_name: str) -> str:
    """Accept 'YYYY-MM-DD[ T]HH:MM:SS[Z|±HH:MM]' or a bare date; emit UTC ISO form."""
    text = raw.strip().replace(" ", "T")
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise InvalidReportError(f"bad timestamp {raw!r}", field=field_name)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _opt_str(record: dict, key: str) -> Optional[str]:
    value = record.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise InvalidReportError(f"expected text for {key}", field=key)
    value = value.strip()
    return value or None


def _parse_vendor_entry(name: str, entry: dict) -> Optional[VendorVerdict]:
    if not name:
        return None
    raw_verdict = entry.get("verdict") or entry.get("status") or ""
    verdict = _VERDICT_ALIASES.get(str(raw_verdict).strip().lower(), "unknown")
    detection = None
    for key in ("detection", "malware_family", "threat_name"):
        value = entry.get(key)
        if isinstance(value, str) and value.strip():
            detection = value.strip()
            break
    link = entry.get("link")
    if not (isinstance(link, str) and _SCHEME_RE.match(link)):
        link = None  # non-absolute links cannot be typed as anyURI
    date = None
    for key in ("date", "analysis_date", "scan_date"):
        value = entry.get(key)
        if isinstance(value, str) and value.strip():
            date = _normalize_timestamp(value, "vendor_intel")
            break
    return VendorVerdict(name, verdict, detection, link, date)


def _parse_vendor_intel(raw) -> tuple[list[VendorVerdict], Optional[str]]:
    """Returns (verdict list, vhash found nested under vendor_intel)."""
    verdicts: list[VendorVerdict] = []
    vhash = None
    if raw is None:
        return verdicts, vhash
    if isinstance(raw, dict):
        for name, entry in raw.items():
            if name == "vhash":
                if isinstance(entry, str):
                    vhash = entry.strip() or None
                elif isinstance(entry, dict):
                    nested = entry.get("hash") or entry.get("vhash")
                    if isinstance(nested, str):
                        vhash = nested.strip() or None
                continue
            if isinstance(entry, list):
                entry = next((e for e in entry if isinstance(e, dict)), None)
            if isinstance(entry, dict):
                parsed = _parse_vendor_entry(str(name).strip(), entry)
                if parsed:
                    verdicts.append(parsed)
    elif isinstance(raw, list):
        for entry in raw:
            if not isinstance(entry, dict):
                continue
            name = entry.get("vendor") or entry.get("vendor_name") or ""
            parsed = _parse_vendor_entry(str(name).strip(), entry)
            if parsed:
                verdicts.append(parsed)
    else:
        raise InvalidReportError("vendor_intel is not an object or list", field="vendor_intel")
    return verdicts, vhash


def _parse_yara_rules(raw) -> list[YaraRuleInfo]:
    rules: list[YaraRuleInfo] = []
    if raw is None:
        return rules
    if not isinstance(raw, list):
        raise InvalidReportError("yara_rules is not a list", field="yara_rules")
    for entry in raw:
        if not isinstance(entry, dict):
            continue
        name = entry.get("rule_name") or entry.get("name")
        if not (isinstance(name, str) and name.strip()):
            continue  # a rule is unusable without a name
        rules.append(
            YaraRuleInfo(
                name.strip(),
                _opt_str(entry, "author"),
                _opt_str(entry, "description"),
                _opt_str(entry, "reference"),
            )
        )
    return rules


def _parse_code_sign(raw) -> Optional[CertInfo]:
    if raw is None:
        return None
    if isinstance(raw, list):
        raw = next((e for e in raw if isinstance(e, dict)), None)
        if raw is None:
            return None
    if not isinstance(raw, dict):
        raise InvalidReportError("code_sign is not an object or list", field="code_sign")
    algo = raw.get("thumbprint_algorithm") or raw.get("algorithm")
    if not (isinstance(algo, str) and algo.strip()):
        return None  # certificate metadata is keyed on its thumbprint algorithm
    serial = raw.get("serial_number")
    issuer = raw.get("issuer") or raw.get("issuer_cn")
    return CertInfo(
        algo.strip(),
        serial.strip() if isinstance(serial, str) and serial.strip() else None,
        issuer.strip() if isinstance(issuer, str) and issuer.strip() else None,
    )


def report_from_record(record: dict) -> MalwareReport:
    """Map one MalwareBazaar-shaped record to a validated MalwareReport."""
    if not isinstance(record, dict):
        raise ReportParseError("report record is not a JSON object")
    sha256_kind, *optional_kinds, vhash_kind = HASH_KINDS
    sha256 = record.get(sha256_kind.record_key)
    if not isinstance(sha256, str) or not sha256:
        raise InvalidReportError("missing sha256_hash", field=sha256_kind.record_key)
    if not validate_hash_format(_registry, sha256_kind.cls, sha256):
        raise InvalidReportError(f"bad sha256 {sha256!r}", field=sha256_kind.record_key)
    sha256 = sha256.lower()

    file_name = _opt_str(record, "file_name")
    if file_name is None:
        raise InvalidReportError("missing file_name", field="file_name")

    hashes: dict[str, Optional[str]] = {}
    for kind in optional_kinds:
        value = _opt_str(record, kind.record_key)
        if value is not None and not validate_hash_format(_registry, kind.cls, value):
            raise InvalidReportError(f"bad {kind.record_key} value {value!r}", field=kind.record_key)
        hashes[kind.name] = value

    file_size = record.get("file_size")
    if file_size is not None:
        if isinstance(file_size, str) and file_size.isdigit():
            file_size = int(file_size)
        if not isinstance(file_size, int) or isinstance(file_size, bool) or file_size < 0:
            raise InvalidReportError("file_size must be a non-negative integer", field="file_size")

    first_seen = _opt_str(record, "first_seen")
    last_seen = _opt_str(record, "last_seen")
    if first_seen is not None:
        first_seen = _normalize_timestamp(first_seen, "first_seen")
    if last_seen is not None:
        last_seen = _normalize_timestamp(last_seen, "last_seen")
    if first_seen is not None and last_seen is not None and first_seen > last_seen:
        raise InvalidReportError("first_seen is after last_seen", field="first_seen")

    signature = _opt_str(record, "signature")
    if signature is not None and signature.lower() == "n/a":
        signature = None

    origin_country = _opt_str(record, "origin_country")
    if origin_country is not None:
        if origin_country.lower() == "n/a":
            origin_country = None
        elif len(origin_country) == 2 and origin_country.isascii() and origin_country.isalpha():
            origin_country = origin_country.upper()
        else:
            raise InvalidReportError(
                f"origin_country is not a 2-letter code: {origin_country!r}",
                field="origin_country",
            )

    raw_tags = record.get("tags")
    tags: list[str] = []
    if raw_tags is not None:
        if not isinstance(raw_tags, list):
            raise InvalidReportError("tags is not a list", field="tags")
        for tag in raw_tags:
            if not isinstance(tag, str):
                raise InvalidReportError("tag is not text", field="tags")
            tag = tag.strip().lower()
            if tag and tag not in tags:
                tags.append(tag)

    vendor_verdicts, nested_vhash = _parse_vendor_intel(record.get("vendor_intel"))
    vhash = _opt_str(record, vhash_kind.record_key) or nested_vhash
    if vhash is not None and not validate_hash_format(_registry, vhash_kind.cls, vhash):
        raise InvalidReportError(f"bad vhash value {vhash!r}", field=vhash_kind.record_key)

    return MalwareReport(
        sha256=sha256,
        file_name=file_name,
        **hashes,
        vhash=vhash,
        file_size=file_size,
        file_type=_opt_str(record, "file_type"),
        first_seen=first_seen,
        last_seen=last_seen,
        signature=signature,
        reporter=_opt_str(record, "reporter"),
        origin_country=origin_country,
        tags=tuple(tags),
        vendor_intel=tuple(vendor_verdicts),
        yara_rules=tuple(_parse_yara_rules(record.get("yara_rules"))),
        certificate=_parse_code_sign(record.get("code_sign")),
    )


def parse_report(document: str) -> MalwareReport:
    """Parse one JSON report document."""
    try:
        record = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ReportParseError(f"not valid JSON: {exc}") from exc
    return report_from_record(record)


def mint_iris(report: MalwareReport) -> dict[str, str]:
    """Deterministic IRIs for every individual the report gives rise to.

    Fixed roles: file, malware; optional roles: family, reporter, location,
    cert; collection members under 'tag:<tag>', 'hash:<algo>',
    'yara:<name>', 'vendor:<vendorName>'.
    """
    ids = {
        "file": andmal(f"file_{report.sha256}"),
        "malware": andmal(f"malware_{report.sha256}"),
    }
    if report.signature:
        ids["family"] = andmal(f"family_{slug(report.signature)}")
    if report.reporter:
        ids["reporter"] = andmal(f"reporter_{slug(report.reporter)}")
    if report.origin_country:
        ids["location"] = andmal(f"loc_{report.origin_country}")
    if report.certificate:
        ids["cert"] = andmal(f"cert_{report.sha256}")
    for tag in report.tags:
        ids[f"tag:{tag}"] = andmal(f"tag_{slug(tag)}")
    for kind in HASH_KINDS:
        if getattr(report, kind.name) is not None:
            ids[f"hash:{kind.name}"] = andmal(f"{kind.name}_{report.sha256}")
    for rule in report.yara_rules:
        ids[f"yara:{rule.name}"] = andmal(f"yara_{slug(rule.name)}")
    for verdict in report.vendor_intel:
        ids[f"vendor:{verdict.vendor_name}"] = andmal(
            f"vi_{report.sha256}_{slug(verdict.vendor_name)}"
        )
    return ids


def _iri(value: str) -> str:
    return f"<{value}>"


# Vocabulary tokens of report rows.
_TYPE = _iri(RDF_TYPE)
_FILE = _iri(andmal("File"))
_MALWARE = _iri(malont("Malware"))
_MALWARE_FAMILY = _iri(malont("MalwareFamily"))
_TAG = _iri(andmal("Tag"))
_MALWARE_REPORTER = _iri(andmal("MalwareReporter"))
_LOCATION = _iri(malont("Location"))
_VENDOR_INTELLIGENCE = _iri(andmal("VendorIntelligence"))
_YARA_RULE = _iri(andmal("YaraRule"))
_CERTIFICATE = _iri(andmal("Certificate"))
_CONTAINS = _iri(andmal("contains"))
_HAS_FILE = _iri(andmal("hasFile"))
_HAS_FILE_NAME = _iri(andmal("hasFileName"))
_HAS_FILE_SIZE = _iri(andmal("hasFileSize"))
_HAS_FILE_TYPE = _iri(andmal("hasFileType"))
_FIRST_SEEN = _iri(andmal("firstSeen"))
_LAST_SEEN = _iri(andmal("lastSeen"))
_HAS_MALWARE_FAMILY = _iri(andmal("hasMalwareFamily"))
_HAS_TAG = _iri(andmal("hasTag"))
_TAG_LABEL = _iri(andmal("tagLabel"))
_HAS_REPORTER = _iri(malont("hasReporter"))
_REPORTED_FROM = _iri(andmal("ReportedFrom"))
_COUNTRY_CODE = _iri(andmal("countryCode"))
_HAS_HASH = _iri(andmal("hasHash"))
_HAS_VENDOR_INTEL = _iri(andmal("hasVendorIntel"))
_VENDOR_NAME = _iri(andmal("vendorName"))
_VERDICT = _iri(andmal("verdict"))
_DETECTION_NAME = _iri(andmal("detectionName"))
_VENDOR_LINK = _iri(andmal("vendorLink"))
_ANALYSIS_DATE = _iri(andmal("analysisDate"))
_DETECTED_BY = _iri(andmal("detectedBy"))
_YARA_RULE_NAME = _iri(andmal("yaraRuleName"))
_YARA_AUTHOR = _iri(andmal("yaraAuthor"))
_YARA_DESCRIPTION = _iri(andmal("yaraDescription"))
_YARA_REFERENCE = _iri(andmal("yaraReference"))
_HAS_CERTIFICATE = _iri(andmal("hasCertificate"))
_THUMBPRINT_ALGORITHM = _iri(andmal("thumbprintAlgorithm"))
_CERT_SERIAL_NUMBER = _iri(andmal("certSerialNumber"))
_CERT_ISSUER = _iri(andmal("certIssuer"))
# (HashKind, class token, value property token)
_HASH_TOKENS = tuple((k, _iri(k.cls), _iri(k.value_property)) for k in HASH_KINDS)


def _report_rows(report: MalwareReport) -> list[tuple]:
    """The report's subgraph as (s, p, o) canonical N-Triples tokens.  Every
    subject validates cleanly; a row may repeat."""
    ids = {role: _iri(iri) for role, iri in mint_iris(report).items()}
    file_node = ids["file"]
    malware_node = ids["malware"]
    rows = [
        (file_node, _TYPE, _FILE),
        (malware_node, _TYPE, _MALWARE),
        (file_node, _CONTAINS, malware_node),
        (malware_node, _HAS_FILE, file_node),
        (file_node, _HAS_FILE_NAME, _literal(report.file_name)),
    ]
    add = rows.append
    if report.file_size is not None:
        add((file_node, _HAS_FILE_SIZE, _literal(str(report.file_size), XSD_INTEGER)))
    if report.file_type is not None:
        add((file_node, _HAS_FILE_TYPE, _literal(report.file_type)))
    if report.first_seen is not None:
        add((file_node, _FIRST_SEEN, _literal(report.first_seen, XSD_DATETIME)))
    if report.last_seen is not None:
        add((file_node, _LAST_SEEN, _literal(report.last_seen, XSD_DATETIME)))

    if report.signature:
        family = ids["family"]
        add((family, _TYPE, _MALWARE_FAMILY))
        add((malware_node, _HAS_MALWARE_FAMILY, family))

    for tag in report.tags:
        tag_node = ids[f"tag:{tag}"]
        add((tag_node, _TYPE, _TAG))
        add((malware_node, _HAS_TAG, tag_node))
        add((tag_node, _TAG_LABEL, _literal(tag)))

    if report.reporter:
        rep_node = ids["reporter"]
        add((rep_node, _TYPE, _MALWARE_REPORTER))
        add((file_node, _HAS_REPORTER, rep_node))

    if report.origin_country:
        loc_node = ids["location"]
        add((loc_node, _TYPE, _LOCATION))
        add((file_node, _REPORTED_FROM, loc_node))
        add((loc_node, _COUNTRY_CODE, _literal(report.origin_country)))

    for kind, cls, value_property in _HASH_TOKENS:
        value = getattr(report, kind.name)
        if value is None:
            continue
        hash_node = ids[f"hash:{kind.name}"]
        add((hash_node, _TYPE, cls))
        add((file_node, _HAS_HASH, hash_node))
        add((hash_node, value_property, _literal(value)))

    for verdict in report.vendor_intel:
        vi_node = ids[f"vendor:{verdict.vendor_name}"]
        add((vi_node, _TYPE, _VENDOR_INTELLIGENCE))
        add((malware_node, _HAS_VENDOR_INTEL, vi_node))
        add((vi_node, _VENDOR_NAME, _literal(verdict.vendor_name)))
        add((vi_node, _VERDICT, _literal(verdict.verdict)))
        if verdict.detection_name:
            add((vi_node, _DETECTION_NAME, _literal(verdict.detection_name)))
        if verdict.link:
            add((vi_node, _VENDOR_LINK, _literal(verdict.link, XSD_ANYURI)))
        if verdict.analysis_date:
            add((vi_node, _ANALYSIS_DATE, _literal(verdict.analysis_date, XSD_DATETIME)))

    for rule in report.yara_rules:
        yara_node = ids[f"yara:{rule.name}"]
        add((yara_node, _TYPE, _YARA_RULE))
        add((malware_node, _DETECTED_BY, yara_node))
        add((yara_node, _YARA_RULE_NAME, _literal(rule.name)))
        if rule.author:
            add((yara_node, _YARA_AUTHOR, _literal(rule.author)))
        if rule.description:
            add((yara_node, _YARA_DESCRIPTION, _literal(rule.description)))
        if rule.reference:
            add((yara_node, _YARA_REFERENCE, _literal(rule.reference)))

    cert = report.certificate
    if cert:
        cert_node = ids["cert"]
        add((cert_node, _TYPE, _CERTIFICATE))
        add((file_node, _HAS_CERTIFICATE, cert_node))
        add((cert_node, _THUMBPRINT_ALGORITHM, _literal(cert.thumbprint_algorithm)))
        if cert.serial_number:
            add((cert_node, _CERT_SERIAL_NUMBER, _literal(cert.serial_number)))
        if cert.issuer:
            add((cert_node, _CERT_ISSUER, _literal(cert.issuer)))

    return rows


def report_to_triples(report: MalwareReport, registry: SchemaRegistry) -> set[Triple]:
    """Emit the report's subgraph.  Every subject validates cleanly."""
    return {
        Triple(_checked_term(s), _checked_term(p), _checked_term(o))
        for s, p, o in _report_rows(report)
    }


def _selector_matches(selector: FetchSelector, report: MalwareReport) -> bool:
    if selector.mode == "signature":
        return report.signature == selector.value
    if selector.mode == "tag":
        return selector.value in report.tags
    if selector.mode == "hash":
        return report.sha256 == selector.value
    return True  # recent


def fetch_reports(
    selector: FetchSelector,
    source,
    errors: Optional[list[tuple[str, str]]] = None,
) -> list[MalwareReport]:
    """Load reports from a fixture directory or the live API.

    Per-file/per-record failures are logged and appended to `errors` as
    (name, message) pairs; they never abort the batch.
    """
    if isinstance(source, FixtureSource):
        return _fetch_fixtures(selector, source.path, errors)
    if isinstance(source, LiveSource):
        return _fetch_live(selector, source.endpoint, errors)
    raise TypeError(f"unknown source: {source!r}")


def _fetch_fixtures(
    selector: FetchSelector, path: Path, errors: Optional[list[tuple[str, str]]]
) -> list[MalwareReport]:
    if not path.is_dir():
        raise OSError(f"fixture directory not found: {path}")
    reports: list[MalwareReport] = []
    for fixture in sorted(path.glob("*.json")):
        try:
            report = parse_report(fixture.read_text(encoding="utf-8"))
        except (ReportParseError, InvalidReportError) as exc:
            logger.warning("skipping %s: %s", fixture.name, exc)
            if errors is not None:
                errors.append((fixture.name, str(exc)))
            continue
        if _selector_matches(selector, report):
            reports.append(report)
    if selector.mode == "recent":
        reports.sort(key=lambda r: (r.first_seen or "", r.sha256), reverse=True)
    return reports[: selector.limit]


def _fetch_live(
    selector: FetchSelector, endpoint: str, errors: Optional[list[tuple[str, str]]]
) -> list[MalwareReport]:
    if selector.mode == "signature":
        form = {"query": "get_siginfo", "signature": selector.value, "limit": str(selector.limit)}
    elif selector.mode == "tag":
        form = {"query": "get_taginfo", "tag": selector.value, "limit": str(selector.limit)}
    elif selector.mode == "hash":
        form = {"query": "get_info", "hash": selector.value}
    else:
        form = {"query": "get_recent", "selector": "100"}
    # imported here, not at the top: only live fetches need it, and every
    # CLI command would otherwise pay for the import
    import requests

    try:
        response = requests.post(endpoint, data=form, timeout=30)
    except requests.RequestException as exc:
        raise NetworkError(f"request to {endpoint} failed: {exc}") from exc
    if response.status_code != 200:
        raise ApiError(f"HTTP {response.status_code}", status=str(response.status_code))
    try:
        payload = response.json()
    except ValueError as exc:
        raise ApiError(f"non-JSON response: {exc}", status="bad-payload") from exc
    status = payload.get("query_status")
    if status != "ok":
        raise ApiError(f"query_status {status!r}", status=str(status))
    records = payload.get("data")
    if not isinstance(records, list):
        raise ApiError("response has no data array", status="bad-payload")
    reports: list[MalwareReport] = []
    for i, record in enumerate(records):
        try:
            reports.append(report_from_record(record))
        except (ReportParseError, InvalidReportError) as exc:
            logger.warning("skipping record %d: %s", i, exc)
            if errors is not None:
                errors.append((f"record {i}", str(exc)))
    return reports[: selector.limit]


def ingest_corpus(
    reports: list[MalwareReport], registry: SchemaRegistry, graph: Graph
) -> IngestSummary:
    """Insert every report's subgraph, then validate all touched subjects."""
    summary = IngestSummary(reports=len(reports))
    intern = graph._intern_token
    add = graph._add
    touched: set[int] = set()
    for report in reports:
        for s, p, o in _report_rows(report):
            si = intern(s)
            touched.add(si)
            summary.triples_added += add(si, intern(p), intern(o))
    summary.violations.extend(validate_subjects(registry, graph, touched))
    return summary


def __getattr__(name: str):
    # `requests` is imported on first use, but stays reachable as ingest.requests
    if name == "requests":
        import requests

        return requests
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
