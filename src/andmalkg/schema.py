"""AndMalOnt/MalOnt2.0 class and property registry plus instance validation.

The registry is a fixed catalog: MalOnt2.0 contributes 15 base classes and
the five classic hash types under Hash; AndMalOnt adds 14 classes (six more
hash schemes, the HashDigestSize enumeration, and the File/report-metadata
classes), 16 object properties, and 31 data properties.  ingest takes
the terms it writes from the registry, by their local names, and does not
spell them again.  HASH_KINDS is the one table of the hash kinds a report
carries, each with the format its values must have; record parsing, IRI
minting, triple generation and validation all read it, and build_schema
makes each kind's class and value property from its row.  The xsd:dateTime
fragments _DATE, _TIME and _ZONE are spelled here once: the validator's
dateTime check and ingest's report-timestamp grammar are built from them.

validate_subjects checks subjects straight from the graph's SPO index, on
term ids, reading IRIs and literals from their tokens (see rdf.py); ingest
and the validate command both use it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import UnknownClassError
from .ns import MALONT, XSD_ANYURI, XSD_DATETIME, XSD_INTEGER, XSD_STRING, andmal, malont
from .rdf import _SCHEME_RE, _TYPE_TOKEN, Graph, _each, _literal_parts, term_to_ntriples


@dataclass(frozen=True)
class ClassDef:
    iri: str
    parent: Optional[str]
    ns: str  # "malont" or "andmal"


@dataclass(frozen=True)
class PropertyDef:
    iri: str
    domain: str
    range: str  # class IRI for object properties, datatype IRI for data properties
    kind: str  # "object" or "data"
    ns: str


@dataclass(frozen=True)
class Violation:
    subject: str
    rule: str
    detail: str


VIOLATION_RULES = frozenset(
    {
        "unknown-class",
        "unknown-property",
        "domain-mismatch",
        "range-mismatch",
        "datatype-mismatch",
        "bad-hash-format",
        "missing-type",
    }
)

_MALONT_BASE = (
    "AttackPattern",
    "Campaign",
    "Indicator",
    "Infrastructure",
    "Location",
    "Malware",
    "MalwareAnalysis",
    "MalwareFamily",
    "Organization",
    "Person",
    "Report",
    "System",
    "ThreatActor",
    "Time",
    "Vulnerability",
)

# (local name, parent local name or None); hash kinds' classes: HASH_KINDS
_ANDMAL_CLASSES = (
    ("SHA2", "Hash"),
    ("SHA3", "Hash"),
    ("HashDigestSize", "Hash"),
    ("File", None),
    ("MalwareReporter", None),
    ("AppPublisher", None),
    ("Certificate", None),
    ("Tag", None),
    ("VendorIntelligence", None),
    ("YaraRule", "MalwareAnalysis"),
)

# (name, domain local, range local, namespace); "ReportedFrom" keeps its
# capital R and hasReporter lives in the malont namespace.
_OBJECT_PROPERTIES = (
    ("contains", "File", "Malware", "andmal"),
    ("hasMalwareFamily", "Malware", "MalwareFamily", "andmal"),
    ("hasTag", "Malware", "Tag", "andmal"),
    ("hasReporter", "File", "MalwareReporter", "malont"),
    ("ReportedFrom", "File", "Location", "andmal"),
    ("hasHash", "File", "Hash", "andmal"),
    ("hasDigestSize", "Hash", "HashDigestSize", "andmal"),
    ("hasCertificate", "File", "Certificate", "andmal"),
    ("publishedBy", "Malware", "AppPublisher", "andmal"),
    ("signedWith", "AppPublisher", "Certificate", "andmal"),
    ("hasVendorIntel", "Malware", "VendorIntelligence", "andmal"),
    ("reportedByVendor", "VendorIntelligence", "Organization", "andmal"),
    ("detectedBy", "Malware", "YaraRule", "andmal"),
    ("hasAnalysis", "Malware", "MalwareAnalysis", "andmal"),
    ("targetsSystem", "Malware", "System", "andmal"),
    ("hasFile", "Malware", "File", "andmal"),
)

# (name, domain local, datatype IRI); hash value properties: HASH_KINDS
_DATA_PROPERTIES = (
    ("hasFileName", "File", XSD_STRING),
    ("hasFileSize", "File", XSD_INTEGER),
    ("hasFileType", "File", XSD_STRING),
    ("hasFilePath", "File", XSD_STRING),
    ("firstSeen", "File", XSD_DATETIME),
    ("lastSeen", "File", XSD_DATETIME),
    ("digestBits", "HashDigestSize", XSD_INTEGER),
    ("tagLabel", "Tag", XSD_STRING),
    ("reporterAlias", "MalwareReporter", XSD_STRING),
    ("vendorName", "VendorIntelligence", XSD_STRING),
    ("verdict", "VendorIntelligence", XSD_STRING),
    ("detectionName", "VendorIntelligence", XSD_STRING),
    ("vendorLink", "VendorIntelligence", XSD_ANYURI),
    ("analysisDate", "VendorIntelligence", XSD_DATETIME),
    ("yaraRuleName", "YaraRule", XSD_STRING),
    ("yaraAuthor", "YaraRule", XSD_STRING),
    ("yaraDescription", "YaraRule", XSD_STRING),
    ("yaraReference", "YaraRule", XSD_STRING),
    ("thumbprintAlgorithm", "Certificate", XSD_STRING),
    ("certSerialNumber", "Certificate", XSD_STRING),
    ("certIssuer", "Certificate", XSD_STRING),
    ("countryCode", "Location", XSD_STRING),
)

DIGEST_SIZES = (224, 256, 384, 512)


@dataclass(frozen=True)
class HashKind:
    name: str  # MalwareReport attribute, and the stem of the hash node's IRI
    record_key: str  # field of a MalwareBazaar record
    cls: str  # hash class IRI
    value_property: str  # data property carrying the digest
    pattern: Optional[re.Pattern]  # the whole value matches it; None: any non-empty printable text


_HEX = "[0-9a-fA-F]"
# In record-parsing order: sha256 is required and read first; vhash may
# also sit under vendor_intel, so it is read last.
HASH_KINDS = (
    HashKind("sha256", "sha256_hash", malont("SHA256"), andmal("sha256Value"), re.compile(_HEX + "{64}")),
    HashKind("sha1", "sha1_hash", malont("SHA1"), andmal("sha1Value"), re.compile(_HEX + "{40}")),
    HashKind("md5", "md5_hash", malont("MD5"), andmal("md5Value"), re.compile("[0-9a-f]{32}")),
    HashKind("imphash", "imphash", andmal("IMPHASH"), andmal("imphashValue"), re.compile(_HEX + "{32}")),
    HashKind("tlsh", "tlsh", andmal("TLSH"), andmal("tlshValue"), re.compile("(?:T1)?" + _HEX + "{70}")),
    HashKind("telfhash", "telfhash", andmal("TELFHASH"), andmal("telfhashValue"), re.compile(_HEX + "{70}")),
    HashKind("gimphash", "gimphash", andmal("GIMPHASH"), andmal("gimphashValue"), re.compile(_HEX + "{64}")),
    HashKind("ssdeep", "ssdeep", malont("SSDeep"), andmal("ssdeepValue"), None),
    HashKind("vhash", "vhash", malont("VHash"), andmal("vhashValue"), None),
)

_HASH_KIND_BY_CLASS = {k.cls: k for k in HASH_KINDS}


class SchemaRegistry:
    """Immutable catalog of classes and properties with lookup helpers."""

    def __init__(
        self,
        classes: dict[str, ClassDef],
        object_properties: dict[str, PropertyDef],
        data_properties: dict[str, PropertyDef],
    ):
        self.classes: Mapping[str, ClassDef] = MappingProxyType(dict(classes))
        self.object_properties: Mapping[str, PropertyDef] = MappingProxyType(
            dict(object_properties)
        )
        self.data_properties: Mapping[str, PropertyDef] = MappingProxyType(
            dict(data_properties)
        )
        self.digest_size_individuals: Mapping[int, str] = MappingProxyType(
            {bits: andmal(f"bits{bits}") for bits in DIGEST_SIZES}
        )
        # class IRI -> the class and every class above it
        self.ancestors: Mapping[str, frozenset[str]] = MappingProxyType(
            {iri: self._ancestry(iri) for iri in self.classes}
        )

    def _ancestry(self, iri: str) -> frozenset[str]:
        """iri and its ancestors; fails on a cycle or an unregistered parent."""
        chain: list[str] = []
        cur: Optional[str] = iri
        while cur is not None:
            if cur in chain:
                raise UnknownClassError(f"cycle in class hierarchy at {cur}")
            chain.append(cur)
            parent = self.classes[cur].parent
            if parent is not None and parent not in self.classes:
                raise UnknownClassError(f"parent of {cur} is unregistered: {parent}")
            cur = parent
        return frozenset(chain)

    def is_subclass_of(self, child: str, ancestor: str) -> bool:
        """True iff ancestor is reachable from child by parent edges (reflexive)."""
        if child not in self.classes:
            raise UnknownClassError(f"unregistered class: {child}")
        if ancestor not in self.classes:
            raise UnknownClassError(f"unregistered class: {ancestor}")
        return ancestor in self.ancestors[child]


def build_schema() -> SchemaRegistry:
    """Construct the fixed AndMalOnt + MalOnt2.0 registry."""
    classes: dict[str, ClassDef] = {}
    data_properties: dict[str, PropertyDef] = {}
    for name in _MALONT_BASE:
        classes[malont(name)] = ClassDef(malont(name), None, "malont")
    classes[malont("Hash")] = ClassDef(malont("Hash"), malont("Indicator"), "malont")
    for kind in HASH_KINDS:
        ns = "malont" if kind.cls.startswith(MALONT) else "andmal"
        classes[kind.cls] = ClassDef(kind.cls, malont("Hash"), ns)
        iri = kind.value_property
        data_properties[iri] = PropertyDef(iri, kind.cls, XSD_STRING, "data", "andmal")

    def class_iri(local: str) -> str:
        candidate = malont(local)
        if candidate in classes:
            return candidate
        return andmal(local)

    for name, parent in _ANDMAL_CLASSES:
        parent_iri = None if parent is None else class_iri(parent)
        classes[andmal(name)] = ClassDef(andmal(name), parent_iri, "andmal")

    object_properties: dict[str, PropertyDef] = {}
    for name, domain, rng, ns in _OBJECT_PROPERTIES:
        iri = malont(name) if ns == "malont" else andmal(name)
        object_properties[iri] = PropertyDef(iri, class_iri(domain), class_iri(rng), "object", ns)
    for name, domain, datatype in _DATA_PROPERTIES:
        iri = andmal(name)
        data_properties[iri] = PropertyDef(iri, class_iri(domain), datatype, "data", "andmal")
    return SchemaRegistry(classes, object_properties, data_properties)


_SHA23 = (andmal("SHA2"), andmal("SHA3"))  # a hex digest of any of the four sizes
_SHA23_LENGTHS = {bits // 4: bits for bits in DIGEST_SIZES}
_HEX_RE = re.compile(_HEX + "+")


def validate_hash_format(
    registry: SchemaRegistry, kind: str, value: str, digest_bits: Optional[int] = None
) -> bool:
    """Check a hash value against the format rules for its class.

    kind is a class IRI.  For SHA2/SHA3 an accompanying digest size (bits)
    pins the expected hex length; without one, any of the four standard
    lengths is accepted.
    """
    if kind not in registry.classes:
        raise UnknownClassError(f"unregistered class: {kind}")
    hash_kind = _HASH_KIND_BY_CLASS.get(kind)
    if hash_kind is not None:
        if hash_kind.pattern is None:
            return bool(value) and value.isprintable()
        return hash_kind.pattern.fullmatch(value) is not None
    if kind in _SHA23:
        bits = _SHA23_LENGTHS.get(len(value))
        if bits is None or _HEX_RE.fullmatch(value) is None:
            return False
        return digest_bits is None or digest_bits == bits
    if kind == malont("Hash") or malont("Hash") not in registry.ancestors[kind]:
        raise UnknownClassError(f"not a concrete hash class: {kind}")
    raise UnknownClassError(f"no hash format rules for class: {kind}")


# The xsd:integer and xsd:dateTime lexical forms, in ASCII digits, so no
# Python version's looser parser decides.  A dateTime's year has four
# digits, as datetime's range does, and its timezone lies within +-14:00.
# The groups are the year, month, day, hour, minute and second.
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_DATE = r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
_TIME = r"([01][0-9]|2[0-3]):([0-5][0-9]):([0-5][0-9])(?:\.[0-9]+)?"
_ZONE = r"Z|[+-](?:(?:0[0-9]|1[0-3]):[0-5][0-9]|14:00)"
_DATETIME_RE = re.compile(f"{_DATE}T{_TIME}(?:{_ZONE})?")


def _literal_value_ok(datatype: str, lexical: str) -> bool:
    if datatype == XSD_STRING:
        return True
    if datatype == XSD_INTEGER:
        return _INTEGER_RE.fullmatch(lexical) is not None
    if datatype == XSD_DATETIME:
        m = _DATETIME_RE.fullmatch(lexical)
        if m is None:
            return False
        try:
            date(*map(int, m.group(1, 2, 3)))  # a day of the calendar; there is no year 0
        except ValueError:
            return False
        return True
    if datatype == XSD_ANYURI:
        return _SCHEME_RE.match(lexical) is not None
    # unknown datatype tags cannot be checked, so they fail closed
    return False


def validate_individual(
    registry: SchemaRegistry, graph: Graph, subject
) -> list[Violation]:
    """All schema violations for one subject; empty means conformant.

    Checks: at least one type triple naming a registered class; only
    registered properties; the domain of every registered property, object
    and data alike, and each object property's range against the class
    hierarchy; data-property literals parse under their datatype tag; hash
    value properties satisfy the per-algorithm format rules.
    """
    si = graph._id(subject)
    by_p = {} if si is None else graph._spo.get(si, {})
    return _Checker(registry, graph).violations(term_to_ntriples(subject), by_p)


def validate_subjects(
    registry: SchemaRegistry, graph: Graph, subjects: Optional[Iterable[int]] = None
) -> list[Violation]:
    """The violations of each subject, as validate_individual reports them,
    subject by subject in N-Triples order.

    subjects are ids of graph (see rdf.py); None means every subject.
    """
    check = _Checker(registry, graph)
    tokens = graph._tokens
    spo = graph._spo
    violations: list[Violation] = []
    for si in sorted(spo if subjects is None else subjects, key=tokens.__getitem__):
        violations.extend(check.violations(tokens[si], spo.get(si, {})))
    return violations


class _Checker:
    """Validates subjects of one graph on term ids.

    A subject's SPO entry is walked predicate by predicate, then object by
    object, each in token order: the order in which Graph.match lists the
    subject's triples.  IRIs and literals are read from their tokens, so
    no term is built.
    """

    def __init__(self, registry: SchemaRegistry, graph: Graph):
        self.registry = registry
        self.tokens = graph._tokens
        self.spo = graph._spo
        self.type_id = graph._ids.get(_TYPE_TOKEN)
        self.class_cache: dict[int, frozenset[str]] = {}
        # predicate id -> its IRI, sliced from the token once: the same str
        # object keeps its cached hash for the registry lookups
        self.iris: dict[int, str] = {}

    def _classes(self, ti: int) -> frozenset[str]:
        """The class term ti and its ancestors; empty unless it is registered."""
        classes = self.class_cache.get(ti)
        if classes is None:
            token = self.tokens[ti]
            classes = frozenset()
            if token[0] == "<":
                classes = self.registry.ancestors.get(token[1:-1], classes)
            self.class_cache[ti] = classes
        return classes

    def _has_class(self, oi: int, cls: str) -> bool:
        """Whether node oi has a registered type that is cls or below it."""
        by_p = self.spo.get(oi)
        leaf = None if by_p is None else by_p.get(self.type_id)
        return leaf is not None and any(cls in self._classes(ti) for ti in _each(leaf))

    def violations(self, subj_str: str, by_p: dict) -> list[Violation]:
        registry = self.registry
        tokens = self.tokens
        iris = self.iris
        by_token = tokens.__getitem__
        violations: list[Violation] = []

        def report(rule: str, detail: str) -> None:
            violations.append(Violation(subj_str, rule, detail))

        type_leaf = by_p.get(self.type_id)
        type_ids = () if type_leaf is None else sorted(_each(type_leaf), key=by_token)
        subject_classes: frozenset[str] = frozenset()  # registered types and their ancestors
        for ti in type_ids:
            classes = self._classes(ti)
            if not classes:
                report("unknown-class", f"type is not a registered class: {by_token(ti)}")
            subject_classes |= classes
        if not type_ids:
            report("missing-type", "no type triple")

        for pi in sorted(by_p, key=by_token):
            if pi == self.type_id:
                continue
            pred = iris.get(pi)
            if pred is None:
                pred = iris[pi] = tokens[pi][1:-1]
            objects = sorted(_each(by_p[pi]), key=by_token)
            prop = registry.object_properties.get(pred) or registry.data_properties.get(pred)
            if prop is None:
                for oi in objects:
                    report("unknown-property", f"unregistered property {pred} (object {tokens[oi]})")
                continue
            # a subject with no registered type has no domain to miss
            domain_ok = not subject_classes or prop.domain in subject_classes
            hashed = prop.domain in _HASH_KIND_BY_CLASS  # a hash kind's value property
            for oi in objects:
                # each detail ends with the object, so two triples never print one line
                obj = tokens[oi]
                if not domain_ok:
                    report("domain-mismatch", f"{pred} requires a {prop.domain} subject (object {obj})")
                if prop.kind == "object":
                    if obj[0] == '"':
                        report("range-mismatch", f"{pred} object is a literal (object {obj})")
                    elif not self._has_class(oi, prop.range):
                        report("range-mismatch", f"{pred} requires a {prop.range} object (object {obj})")
                elif obj[0] != '"':
                    report("datatype-mismatch", f"{pred} value is not a literal")
                elif hashed or obj[-1] != '"':  # plain xsd:string always parses
                    lexical, datatype, language = _literal_parts(obj)
                    if language is None and not _literal_value_ok(datatype, lexical):
                        report(
                            "datatype-mismatch", f"{pred} value {lexical!r} does not parse as {datatype}"
                        )
                    elif hashed and not validate_hash_format(registry, prop.domain, lexical):
                        report("bad-hash-format", f"{pred} value {lexical!r} fails the format rules")
        return violations
