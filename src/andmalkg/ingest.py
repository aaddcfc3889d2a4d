"""MalwareBazaar report pipeline: fetch or load reports, mint IRIs, emit triples.

Reports arrive as JSON records (one per fixture file, or in the `data`
array of a live API response; get_recent gives at most 100).  A
FetchSelector asks for the reports of one family or for the newest
reports, at most 1,000 of them; from fixtures, both take the newest by
first_seen, as get_siginfo and get_recent answer.  Parsing is
strict: every present hash is checked against its HASH_KINDS format,
timestamps must follow one grammar, built from schema's xsd:dateTime
fragments so that no Python version's parser decides, be ordered and
fall within years 1-9999 in UTC, and country codes must be two ASCII
letters, so a parsed report is guaranteed to produce a schema-conformant
subgraph.  A report that breaks a rule, or cannot be decoded at all,
raises ReportParseError or InvalidReportError, and a fetch skips it.

A report's subgraph is built once, as rows of canonical N-Triples tokens,
the names the store keeps terms under (see rdf.py), each class and
property named by its local name in the schema registry.  ingest_corpus
interns the tokens straight into the graph and validates the subjects it
touched from the graph's SPO index; report_to_triples turns the same rows
into Triples.

ingest_file, the CLI's ingest, grows an N-Triples graph file.  When its
lines are what serialize_ntriples writes (rdf._is_canonical), it loads
only the lines of the subjects the batch mints and the type lines of
their objects (rdf.load_subjects), adds the batch's rows to that graph
(_add_rows, as ingest_corpus does), and merges the new lines, sorted,
into the file's.  Any other file is parsed whole and re-serialized first.
Either way it writes, and answers, what ingest_corpus on the whole parsed
graph and serialize_ntriples would.  From before it reads the lines until
after it has renamed the new file into place, it holds an exclusive lock
on the sidecar file .NAME.lock (_locked), so a second ingest into the
same file waits and then reads the first one's lines.

It runs each stage once, in order, in its own process: the read and the
canonical-line check of the old lines, the fetch and the building of the
reports' rows, the parse of a file that is not canonical, load_subjects
and _add_rows, the validation of the touched subjects, then the
formatting, the merge and the write of the new lines.  A graph file that
does not parse fails before a failed fetch is reported; only from a
LiveSource may the request go out before a malformed graph file is
reported.  Forked children that ran the check beside the fetch and the
validation beside the write cost more than they overlapped on a 2-CPU
VM whose second CPU was busy: a 1,000-file batch into a 1,000-report graph file took a median 420
ms from a small launcher run this way, against 476 ms with them.
"""

from __future__ import annotations

import json
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .errors import ApiError, InvalidReportError, NetworkError, ReportParseError, SelectorError
from .ns import XSD_ANYURI, XSD_DATETIME, XSD_INTEGER, andmal
from .rdf import _SCHEME_RE, _SURROGATE_RE, _TYPE_TOKEN, Graph, Triple, _checked_term
from .rdf import _decoded, _is_canonical, _named, _ntriples_lines, _replace_file, load_subjects, parse_ntriples
from .rdf import _literal_token as _literal
from .schema import HASH_KINDS, SchemaRegistry, build_schema, validate_hash_format, validate_subjects
from .schema import _DATE, _TIME, _ZONE

logger = logging.getLogger(__name__)
# A library logs; the application decides where records go.  Without a
# handler on the package's logger, logging's last-resort handler would print
# every ingest warning to stderr next to the CLI's own "warning:" line.
logging.getLogger(__package__).addHandler(logging.NullHandler())

DEFAULT_ENDPOINT = "https://mb-api.abuse.ch/api/v1/"

_registry = build_schema()

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


_NOT_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slug(text: str) -> str:
    """Lowercase, map runs of non-alphanumerics to a single underscore."""
    return _NOT_SLUG_RE.sub("_", text.lower())


def _label_key(label: str) -> str:
    """The part of a minted local name that stands for a label: its slug
    when the slug is the lowercased label, else the slug and the first 8
    hex digits of the lowercased label's SHA-256.  So two labels share a
    node only when they are equal but for case."""
    lowered = label.lower()
    key = slug(lowered)
    if key == lowered:
        return key
    # hashlib loads OpenSSL, about 4 MB of resident memory, so it is imported
    # only when a label needs a digest: an ingest of labels that are all
    # their own slugs never pays for it
    import hashlib

    return f"{key}_{hashlib.sha256(lowered.encode('utf-8')).hexdigest()[:8]}"


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


# the most reports one FetchSelector asks for
_FETCH_MAX = 1000
# get_recent answers with at most this many reports
_LIVE_RECENT_MAX = 100


@dataclass(frozen=True)
class FetchSelector:
    """The newest reports of one malware family, or of all (signature None)."""

    signature: Optional[str] = None
    limit: int = 100

    def __post_init__(self):
        if not 1 <= self.limit <= _FETCH_MAX:
            raise SelectorError(f"selector limit out of range [1, {_FETCH_MAX}]: {self.limit}")
        if self.signature is not None and not self.signature.strip():
            raise SelectorError(f"selector signature is blank: {self.signature!r}")

    @classmethod
    def by_signature(cls, name: str, limit: int = 100) -> "FetchSelector":
        return cls(name, limit)

    @classmethod
    def recent(cls, limit: int = 100) -> "FetchSelector":
        return cls(None, limit)


@dataclass(frozen=True)
class FixtureSource:
    path: Union[str, Path]


@dataclass(frozen=True)
class LiveSource:
    endpoint: str = DEFAULT_ENDPOINT


@dataclass
class IngestSummary:
    reports: int = 0
    triples_added: int = 0
    violations: list = field(default_factory=list)


# A report timestamp, built from schema's xsd:dateTime fragments: a date,
# then optionally 'T' or one space and a time, then optionally a zone.
_TIMESTAMP_RE = re.compile(f"{_DATE}(?:[T ]{_TIME}({_ZONE})?)?")


def _normalize_timestamp(raw: str, field_name: str) -> str:
    """The xsd:dateTime, in UTC, of a report timestamp.  A bare date is its
    midnight, a time without a zone is UTC, and a fraction is dropped: the
    graph keeps whole seconds."""
    m = _TIMESTAMP_RE.fullmatch(raw.strip())
    try:
        if m is None:
            raise ValueError
        year, month, day, hour, minute, second, zone = m.groups()
        # checks that the day exists; there is no year 0
        utc = datetime(int(year), int(month), int(day), int(hour or 0), int(minute or 0), int(second or 0))
        if zone not in (None, "Z"):
            offset = timedelta(hours=int(zone[1:3]), minutes=int(zone[4:]))
            utc = utc - offset if zone[0] == "+" else utc + offset
    except (ValueError, OverflowError):  # OverflowError: in UTC, outside years 1-9999
        raise InvalidReportError(f"bad timestamp {raw!r}", field=field_name)
    return utc.isoformat() + "Z"  # the year in four digits, as xsd:dateTime needs


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
        if isinstance(file_size, str) and file_size.isdecimal():
            try:
                file_size = int(file_size)
            except ValueError:  # more digits than int() converts
                pass
        if not isinstance(file_size, int) or isinstance(file_size, bool) or file_size < 0:
            raise InvalidReportError("file_size must be a non-negative integer", field="file_size")

    first_seen = _opt_str(record, "first_seen")
    first_seen = first_seen and _normalize_timestamp(first_seen, "first_seen")
    last_seen = _opt_str(record, "last_seen")
    last_seen = last_seen and _normalize_timestamp(last_seen, "last_seen")
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

    return _without_lone_surrogates(MalwareReport(
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
    ))


def _without_lone_surrogates(report: MalwareReport) -> MalwareReport:
    """The report, unless one of its texts holds a lone surrogate, which no
    term may hold (a JSON escape such as \\ud800 spells one): then
    InvalidReportError names the text's record field."""
    for name, value in vars(report).items():
        if value is None or type(value) is int:
            continue
        for part in value if type(value) is tuple else (value,):  # a tuple of texts or records
            for text in (part,) if type(part) is str else vars(part).values():
                if type(text) is str and not text.isascii() and _SURROGATE_RE.search(text):
                    key = "code_sign" if name == "certificate" else name
                    raise InvalidReportError(f"{key} holds a lone surrogate: {text!r}", field=key)
    return report


def parse_report(document: str) -> MalwareReport:
    """Parse one JSON report document."""
    try:
        record = json.loads(document)
    except (ValueError, RecursionError) as exc:  # nested too deep, or a number too long
        raise ReportParseError(f"not valid JSON: {exc}") from exc
    return report_from_record(record)


def mint_iris(report: MalwareReport) -> dict[str, str]:
    """Deterministic IRIs for every individual the report gives rise to.

    Fixed roles: file, malware; optional roles: family, reporter, location,
    cert; collection members under 'tag:<tag>', 'hash:<algo>',
    'yara:<name>', 'vendor:<vendorName>'.  A family, reporter, tag, YARA
    rule or vendor is named by its label's _label_key, so distinct labels
    get distinct IRIs unless they differ only in case.
    """
    ids = {
        "file": andmal(f"file_{report.sha256}"),
        "malware": andmal(f"malware_{report.sha256}"),
    }
    if report.signature:
        ids["family"] = andmal(f"family_{_label_key(report.signature)}")
    if report.reporter:
        ids["reporter"] = andmal(f"reporter_{_label_key(report.reporter)}")
    if report.origin_country:
        ids["location"] = andmal(f"loc_{report.origin_country}")
    if report.certificate:
        ids["cert"] = andmal(f"cert_{report.sha256}")
    for tag in report.tags:
        ids[f"tag:{tag}"] = andmal(f"tag_{_label_key(tag)}")
    for kind in HASH_KINDS:
        if getattr(report, kind.name) is not None:
            ids[f"hash:{kind.name}"] = andmal(f"{kind.name}_{report.sha256}")
    for rule in report.yara_rules:
        ids[f"yara:{rule.name}"] = andmal(f"yara_{_label_key(rule.name)}")
    for verdict in report.vendor_intel:
        ids[f"vendor:{verdict.vendor_name}"] = andmal(
            f"vi_{report.sha256}_{_label_key(verdict.vendor_name)}"
        )
    return ids


def _iri(value: str) -> str:
    return f"<{value}>"


# the token of each class and property of the registry, by its (unique) local name
_VOCABULARY = {
    iri.rsplit("#", 1)[1]: _iri(iri)
    for terms in (_registry.classes, _registry.object_properties, _registry.data_properties)
    for iri in terms
}
# (HashKind, class token, value property token)
_HASH_TOKENS = tuple((k, _iri(k.cls), _iri(k.value_property)) for k in HASH_KINDS)


def _report_rows(report: MalwareReport) -> list[tuple]:
    """The report's subgraph as (s, p, o) canonical N-Triples tokens.  Every
    subject validates cleanly; a row may repeat."""
    T = _VOCABULARY
    ids = {role: _iri(iri) for role, iri in mint_iris(report).items()}
    file_node = ids["file"]
    malware_node = ids["malware"]
    rows = [
        (file_node, _TYPE_TOKEN, T["File"]),
        (malware_node, _TYPE_TOKEN, T["Malware"]),
        (file_node, T["contains"], malware_node),
        (malware_node, T["hasFile"], file_node),
        (file_node, T["hasFileName"], _literal(report.file_name)),
    ]
    add = rows.append
    if report.file_size is not None:
        add((file_node, T["hasFileSize"], _literal(str(report.file_size), XSD_INTEGER)))
    if report.file_type is not None:
        add((file_node, T["hasFileType"], _literal(report.file_type)))
    if report.first_seen is not None:
        add((file_node, T["firstSeen"], _literal(report.first_seen, XSD_DATETIME)))
    if report.last_seen is not None:
        add((file_node, T["lastSeen"], _literal(report.last_seen, XSD_DATETIME)))

    if report.signature:
        family = ids["family"]
        add((family, _TYPE_TOKEN, T["MalwareFamily"]))
        add((malware_node, T["hasMalwareFamily"], family))

    for tag in report.tags:
        tag_node = ids[f"tag:{tag}"]
        add((tag_node, _TYPE_TOKEN, T["Tag"]))
        add((malware_node, T["hasTag"], tag_node))
        add((tag_node, T["tagLabel"], _literal(tag)))

    if report.reporter:
        rep_node = ids["reporter"]
        add((rep_node, _TYPE_TOKEN, T["MalwareReporter"]))
        add((file_node, T["hasReporter"], rep_node))

    if report.origin_country:
        loc_node = ids["location"]
        add((loc_node, _TYPE_TOKEN, T["Location"]))
        add((file_node, T["ReportedFrom"], loc_node))
        add((loc_node, T["countryCode"], _literal(report.origin_country)))

    for kind, cls, value_property in _HASH_TOKENS:
        value = getattr(report, kind.name)
        if value is None:
            continue
        hash_node = ids[f"hash:{kind.name}"]
        add((hash_node, _TYPE_TOKEN, cls))
        add((file_node, T["hasHash"], hash_node))
        add((hash_node, value_property, _literal(value)))

    for verdict in report.vendor_intel:
        vi_node = ids[f"vendor:{verdict.vendor_name}"]
        add((vi_node, _TYPE_TOKEN, T["VendorIntelligence"]))
        add((malware_node, T["hasVendorIntel"], vi_node))
        add((vi_node, T["vendorName"], _literal(verdict.vendor_name)))
        add((vi_node, T["verdict"], _literal(verdict.verdict)))
        if verdict.detection_name:
            add((vi_node, T["detectionName"], _literal(verdict.detection_name)))
        if verdict.link:
            add((vi_node, T["vendorLink"], _literal(verdict.link, XSD_ANYURI)))
        if verdict.analysis_date:
            add((vi_node, T["analysisDate"], _literal(verdict.analysis_date, XSD_DATETIME)))

    for rule in report.yara_rules:
        yara_node = ids[f"yara:{rule.name}"]
        add((yara_node, _TYPE_TOKEN, T["YaraRule"]))
        add((malware_node, T["detectedBy"], yara_node))
        add((yara_node, T["yaraRuleName"], _literal(rule.name)))
        if rule.author:
            add((yara_node, T["yaraAuthor"], _literal(rule.author)))
        if rule.description:
            add((yara_node, T["yaraDescription"], _literal(rule.description)))
        if rule.reference:
            add((yara_node, T["yaraReference"], _literal(rule.reference)))

    cert = report.certificate
    if cert:
        cert_node = ids["cert"]
        add((cert_node, _TYPE_TOKEN, T["Certificate"]))
        add((file_node, T["hasCertificate"], cert_node))
        add((cert_node, T["thumbprintAlgorithm"], _literal(cert.thumbprint_algorithm)))
        if cert.serial_number:
            add((cert_node, T["certSerialNumber"], _literal(cert.serial_number)))
        if cert.issuer:
            add((cert_node, T["certIssuer"], _literal(cert.issuer)))

    return rows


def report_to_triples(report: MalwareReport) -> set[Triple]:
    """Emit the report's subgraph.  Every subject validates cleanly."""
    return {
        Triple(_checked_term(s), _checked_term(p), _checked_term(o))
        for s, p, o in _report_rows(report)
    }


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
        return _fetch_fixtures(selector, Path(source.path), errors)
    if isinstance(source, LiveSource):
        return _fetch_live(selector, source.endpoint, errors)
    raise TypeError(f"unknown source: {source!r}")


def _fetch_fixtures(
    selector: FetchSelector, path: Path, errors: Optional[list[tuple[str, str]]]
) -> list[MalwareReport]:
    if not path.is_dir():
        raise OSError(f"fixture directory not found: {path}")
    # each file by its name joined as pathlib joins it, so an OSError names
    # the path that path / name would: a bare name in the directory "."
    prefix = "" if str(path) == "." else os.path.join(path, "")
    reports: list[MalwareReport] = []
    # the names path.glob("*.json") gives, dot-files and directories too,
    # in the order sorted() gives their paths
    for name in sorted(name for name in os.listdir(path) if name.endswith(".json")):
        try:
            with open(prefix + name, encoding="utf-8") as f:
                text = f.read()
            report = parse_report(text)
        except (ReportParseError, InvalidReportError, UnicodeDecodeError, OSError) as exc:
            logger.warning("skipping %s: %s", name, exc)
            if errors is not None:
                errors.append((name, str(exc)))
            continue
        if selector.signature is None or report.signature == selector.signature:
            reports.append(report)
    reports.sort(key=lambda r: (r.first_seen or "", r.sha256), reverse=True)
    return reports[: selector.limit]


def _live_form(selector: FetchSelector) -> dict[str, str]:
    """The API form asking for the selector's reports; SelectorError if the API cannot meet its limit."""
    if selector.signature is not None:
        return {"query": "get_siginfo", "signature": selector.signature, "limit": str(selector.limit)}
    if selector.limit > _LIVE_RECENT_MAX:
        raise SelectorError(f"live recent limit out of range [1, {_LIVE_RECENT_MAX}]: {selector.limit}")
    return {"query": "get_recent", "selector": str(_LIVE_RECENT_MAX)}


# seconds a live request may wait to connect, and then for each read
_LIVE_TIMEOUT = 30


def _fetch_live(
    selector: FetchSelector, endpoint: str, errors: Optional[list[tuple[str, str]]]
) -> list[MalwareReport]:
    form = _live_form(selector)
    # imported here, not at the top: only live fetches need them, and every
    # CLI command would otherwise pay for the imports
    import http.client
    import urllib.error
    import urllib.parse
    import urllib.request

    try:
        # urllib would read a file: or data: URL itself
        if urllib.parse.urlsplit(endpoint).scheme not in ("http", "https"):
            raise ValueError("not an http or https URL")
        request = urllib.request.Request(endpoint, urllib.parse.urlencode(form).encode("ascii"))
        # build_opener's handlers but those of ftp:, file: and data:, so a
        # redirect cannot lead there either
        opener = urllib.request.OpenerDirector()
        for handler in (
            urllib.request.ProxyHandler,
            urllib.request.UnknownHandler,
            urllib.request.HTTPHandler,
            urllib.request.HTTPSHandler,
            urllib.request.HTTPDefaultErrorHandler,
            urllib.request.HTTPRedirectHandler,
            urllib.request.HTTPErrorProcessor,
        ):
            opener.add_handler(handler())
        with opener.open(request, timeout=_LIVE_TIMEOUT) as response:
            if response.status != 200:
                raise ApiError(f"HTTP {response.status}", status=str(response.status))
            body = response.read()
    except urllib.error.HTTPError as exc:  # a URLError, so caught first
        exc.close()  # it holds the connection
        raise ApiError(f"HTTP {exc.code}", status=str(exc.code)) from exc
    # URLError and TimeoutError are OSErrors; a URL urllib cannot send raises ValueError
    except (OSError, http.client.HTTPException, ValueError) as exc:
        reason = exc.reason if isinstance(exc, urllib.error.URLError) else exc
        raise NetworkError(f"request to {endpoint} failed: {reason}") from exc
    try:
        payload = json.loads(body)  # which tells UTF-8, -16 and -32 apart
    except (ValueError, RecursionError) as exc:
        raise ApiError(f"non-JSON response: {exc}", status="bad-payload") from exc
    if not isinstance(payload, dict):
        raise ApiError("response is not a JSON object", status="bad-payload")
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
    added, touched = _add_rows(map(_report_rows, reports), graph)
    return IngestSummary(len(reports), added, validate_subjects(registry, graph, touched))


def _add_rows(report_rows: Iterable[list[tuple]], graph: Graph) -> tuple[int, set[int]]:
    """The number of new triples adding each report's _report_rows to graph
    gives, and the ids of the subjects touched."""
    ids = graph._ids
    intern = graph._intern_token  # checks a token the graph has not seen
    add = graph._add
    added = 0
    touched: set[int] = set()
    for rows in report_rows:
        for s, p, o in rows:
            si = ids.get(s)
            if si is None:
                si = intern(s)
            pi = ids.get(p)
            if pi is None:
                pi = intern(p)
            oi = ids.get(o)
            if oi is None:
                oi = intern(o)
            touched.add(si)
            added += add(si, pi, oi)
    return added, touched


def ingest_file(
    path: Union[str, Path],
    source,
    signature: Optional[str] = None,
    limit: Optional[int] = None,
    errors: Optional[list[tuple[str, str]]] = None,
) -> IngestSummary:
    """Ingest the reports FetchSelector(signature, limit) picks from source
    into the graph file at path (see the module docstring); limit None is
    the most one request gives, 1,000 from fixtures and 100 live.  A
    selector FetchSelector or the API rejects raises SelectorError before
    the file or its lock is touched.  errors gets what fetch_reports skips."""
    live = isinstance(source, LiveSource)
    selector = FetchSelector(signature, (_LIVE_RECENT_MAX if live else _FETCH_MAX) if limit is None else limit)
    if live:
        _live_form(selector)
    path = Path(path)
    with _locked(path):
        lines = _read_lines(path)
        canonical = _is_canonical(lines)
        # A file that is not canonical is parsed and re-serialized after the
        # fetch, even one that failed, so its parse error still comes first.
        try:
            reports = fetch_reports(selector, source, errors)
            rows = [_report_rows(report) for report in reports]
        finally:
            if not canonical:
                lines = _ntriples_lines(parse_ntriples("".join(lines)))
        # The graph holds every old line of a row's subject, so each old triple
        # a row could repeat, and every triple and object type the validation
        # of the touched subjects reads: the count of new triples and the
        # violations are those of the whole graph.
        graph = load_subjects(lines, {s for report_rows in rows for s, _, _ in report_rows})
        loaded = set(graph._walk())
        added, touched = _add_rows(rows, graph)
        del rows
        violations = validate_subjects(build_schema(), graph, touched)
        new = _ntriples_lines(graph, (t for t in graph._walk() if t not in loaded))
        _replace_file(path, _encoded(_merged(lines, new)), durable=True)
    return IngestSummary(len(reports), added, violations)


@contextmanager
def _locked(path: Path) -> Iterator[None]:
    """Hold an exclusive lock for the graph file at path: an flock on the
    sidecar file .NAME.lock beside it, created if missing and never
    deleted.  The graph file is not locked itself, because each write
    renames a new inode over it.  Where there is no fcntl (Windows), the
    lock file is made but nothing is locked.  An OSError names path, not
    the lock file."""
    try:
        import fcntl
    except ImportError:
        fcntl = None
    flags = os.O_RDONLY | os.O_CREAT | getattr(os, "O_NOFOLLOW", 0)
    try:
        fd = os.open(path.with_name(f".{path.name}.lock"), flags, 0o666)
    except OSError as exc:
        raise _named(exc, path) from exc
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # which releases the lock


# lines per chunk of a graph file write: about 1 MB of N-Triples
_CHUNK_LINES = 4096


def _encoded(lines: list[str]) -> Iterator[bytes]:
    """The lines as UTF-8, in chunks of _CHUNK_LINES lines, so the whole
    file is never held as one str or bytes object."""
    for start in range(0, len(lines), _CHUNK_LINES):
        yield "".join(lines[start : start + _CHUNK_LINES]).encode("utf-8")


def _read_lines(path: Path) -> list[str]:
    """The lines of the file at path, read as rdf._decoded reads its bytes
    (a missing file has none)."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.readlines()
    except FileNotFoundError:
        return []
    except UnicodeDecodeError:
        _decoded(path, path.read_bytes())  # raises, naming the line
        raise


def _merged(old: list[str], new: list[str]) -> list[str]:
    """One sorted list of two sorted runs of lines.  The sort finds the two
    runs and merges them in one pass."""
    lines = old + new
    lines.sort()
    return lines

