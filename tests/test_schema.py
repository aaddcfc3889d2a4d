import gc
import random
from collections import Counter

import pytest

import andmalkg.rdf as rdf_mod
from andmalkg import (
    BlankNode,
    ClassDef,
    Graph,
    IRI,
    Literal,
    SchemaRegistry,
    Triple,
    UnknownClassError,
    andmal,
    build_schema,
    malont,
    parse_ntriples,
    serialize_ntriples,
    serialize_turtle,
    validate_hash_format,
    validate_individual,
)
from andmalkg.cli import main
from andmalkg.ns import ANDMAL, MALONT, RDF_TYPE, XSD, XSD_ANYURI, XSD_DATETIME, XSD_INTEGER, XSD_STRING
from andmalkg.schema import HASH_KINDS, VIOLATION_RULES, validate_subjects
from randgraph import random_schema_graph
from reference_validate import validate_reference, violations_reference

UC3_SHA256 = "21d178e0688af591964ae00b71263d2e086706017ebc98d7488d57771144d337"

MALONT_BASE = {
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
}
MALONT_HASHES = {"MD5", "SHA1", "SHA256", "SSDeep", "VHash"}
EXTENSION = {
    "IMPHASH",
    "TLSH",
    "TELFHASH",
    "GIMPHASH",
    "SHA2",
    "SHA3",
    "HashDigestSize",
    "File",
    "MalwareReporter",
    "AppPublisher",
    "Certificate",
    "Tag",
    "VendorIntelligence",
    "YaraRule",
}


def local(iri: str) -> str:
    return iri.rsplit("#", 1)[-1]


def test_catalog_cardinality(registry):
    assert len(registry.object_properties) == 16
    assert len(registry.data_properties) == 31
    malont_classes = {local(c.iri) for c in registry.classes.values() if c.ns == "malont"}
    andmal_classes = {local(c.iri) for c in registry.classes.values() if c.ns == "andmal"}
    assert malont_classes == MALONT_BASE | {"Hash"} | MALONT_HASHES
    assert andmal_classes == EXTENSION
    hash_subs = {
        local(c.iri)
        for c in registry.classes.values()
        if c.ns == "malont" and c.parent == malont("Hash")
    }
    assert hash_subs == MALONT_HASHES


def test_build_is_idempotent(registry):
    again = build_schema()
    assert dict(again.classes) == dict(registry.classes)
    assert dict(again.object_properties) == dict(registry.object_properties)
    assert dict(again.data_properties) == dict(registry.data_properties)


def test_subclass_chains(registry):
    assert registry.is_subclass_of(andmal("IMPHASH"), malont("Hash"))
    assert registry.is_subclass_of(andmal("IMPHASH"), malont("Indicator"))
    assert registry.is_subclass_of(andmal("TLSH"), malont("Hash"))
    assert registry.is_subclass_of(malont("Hash"), malont("Indicator"))
    assert registry.is_subclass_of(malont("Malware"), malont("Malware"))
    assert registry.is_subclass_of(andmal("YaraRule"), malont("MalwareAnalysis"))
    assert not registry.is_subclass_of(andmal("YaraRule"), malont("Indicator"))
    assert not registry.is_subclass_of(malont("Indicator"), andmal("IMPHASH"))


def test_unregistered_class_raises(registry):
    with pytest.raises(UnknownClassError):
        registry.is_subclass_of(andmal("NoSuchClass"), malont("Hash"))
    with pytest.raises(UnknownClassError):
        registry.is_subclass_of(malont("Hash"), andmal("NoSuchClass"))


def test_every_property_resolves(registry):
    for prop in registry.object_properties.values():
        assert prop.domain in registry.classes
        assert prop.range in registry.classes
    datatypes = {XSD_STRING, XSD_INTEGER, XSD_DATETIME, XSD_ANYURI}
    for prop in registry.data_properties.values():
        assert prop.domain in registry.classes
        assert prop.range in datatypes


def test_reported_from_keeps_capital_r(registry):
    assert andmal("ReportedFrom") in registry.object_properties
    assert malont("hasReporter") in registry.object_properties
    assert registry.object_properties[malont("hasReporter")].ns == "malont"


def test_subclass_reachability_is_a_partial_order(registry):
    names = list(registry.classes)
    for c in names:
        assert registry.is_subclass_of(c, c)
    rng = random.Random(29)
    pairs = [(rng.choice(names), rng.choice(names)) for _ in range(300)]
    for a, b in pairs:
        if a != b and registry.is_subclass_of(a, b):
            assert not registry.is_subclass_of(b, a)  # antisymmetry
    for a, b, c in [(rng.choice(names), rng.choice(names), rng.choice(names)) for _ in range(300)]:
        if registry.is_subclass_of(a, b) and registry.is_subclass_of(b, c):
            assert registry.is_subclass_of(a, c)  # transitivity


def test_hash_digest_size_modeling(registry):
    assert registry.classes[andmal("HashDigestSize")].parent == malont("Hash")
    assert set(registry.digest_size_individuals) == {224, 256, 384, 512}
    bits_prop = registry.data_properties[andmal("digestBits")]
    assert bits_prop.domain == andmal("HashDigestSize")
    assert bits_prop.range == XSD_INTEGER


HASH_CASES = [
    (malont("MD5"), "d41d8cd98f00b204e9800998ecf8427e", True),
    (malont("MD5"), "D41D8CD98F00B204E9800998ECF8427E", False),  # lowercase required
    (malont("MD5"), "d41d8cd98f00b204e9800998ecf8427", False),
    (malont("MD5"), "d41d8cd98f00b204e9800998ecf8427e0", False),
    (malont("SHA1"), "A94A8FE5CCB19BA61C4C0873D391E987982FBBD3", True),
    (malont("SHA1"), "a94a8fe5ccb19ba61c4c0873d391e987982fbbd3", True),
    (malont("SHA1"), "a94a8fe5ccb19ba61c4c0873d391e987982fbbd", False),
    (malont("SHA256"), UC3_SHA256, True),
    (malont("SHA256"), UC3_SHA256.upper(), True),
    (malont("SHA256"), "", False),
    (malont("SHA256"), UC3_SHA256[:-1], False),
    (malont("SHA256"), UC3_SHA256 + "0", False),
    (malont("SHA256"), UC3_SHA256[:-1] + "g", False),
    (andmal("IMPHASH"), "f34d5f2d4577ed6d9ceec516c1f5a744", True),
    (andmal("IMPHASH"), "F34D5F2D4577ED6D9CEEC516C1F5A744", True),
    (andmal("IMPHASH"), "f34d5f2d4577ed6d9ceec516c1f5a7", False),
    (andmal("TLSH"), "T1" + "a" * 70, True),
    (andmal("TLSH"), "a" * 70, True),  # legacy form, no prefix
    (andmal("TLSH"), "T1" + "a" * 69, False),
    (andmal("TLSH"), "a" * 69, False),
    (andmal("TELFHASH"), "b" * 70, True),
    (andmal("TELFHASH"), "b" * 71, False),
    (andmal("GIMPHASH"), "c" * 64, True),
    (andmal("GIMPHASH"), "c" * 63, False),
    (malont("SSDeep"), "3072:abcd+EFGH/ijk:lmn", True),
    (malont("SSDeep"), "", False),
    (malont("SSDeep"), "bad\nnewline", False),
    (malont("VHash"), "017067555d5d15541az28!z", True),
    (malont("VHash"), "", False),
]


@pytest.mark.parametrize("kind,value,expected", HASH_CASES)
def test_hash_format_table(registry, kind, value, expected):
    assert validate_hash_format(registry, kind, value) is expected


# values that pass their class's format check, at least one per hash class
VALID_HASHES = [(kind, value) for kind, value, ok in HASH_CASES if ok] + [
    (andmal("SHA2"), "a" * 64),
    (andmal("SHA3"), "a" * 128),
]


def test_valid_hashes_cover_every_hash_class():
    kinds = {kind for kind, _ in VALID_HASHES}
    assert kinds == {k.cls for k in HASH_KINDS} | {andmal("SHA2"), andmal("SHA3")}


@pytest.mark.parametrize("kind,value", VALID_HASHES)
def test_hash_format_rejects_a_trailing_newline(registry, kind, value):
    # a '$' anchor also matches before a final newline; the whole value must match
    assert validate_hash_format(registry, kind, value)
    assert not validate_hash_format(registry, kind, value + "\n")
    assert not validate_hash_format(registry, kind, value[:-1] + "\n")  # the valid length


def test_sha2_sha3_lengths(registry):
    for kind in (andmal("SHA2"), andmal("SHA3")):
        for length, bits in [(56, 224), (64, 256), (96, 384), (128, 512)]:
            assert validate_hash_format(registry, kind, "a" * length)
            assert validate_hash_format(registry, kind, "a" * length, digest_bits=bits)
            wrong = 224 if bits != 224 else 256
            assert not validate_hash_format(registry, kind, "a" * length, digest_bits=wrong)
        assert not validate_hash_format(registry, kind, "a" * 60)
        assert not validate_hash_format(registry, kind, "")


def test_hash_format_rejects_non_hash_kinds(registry):
    with pytest.raises(UnknownClassError):
        validate_hash_format(registry, malont("Malware"), "x")
    with pytest.raises(UnknownClassError):
        validate_hash_format(registry, malont("Hash"), "x")
    with pytest.raises(UnknownClassError):
        validate_hash_format(registry, andmal("Missing"), "x")


CLS_A, CLS_B = andmal("A"), andmal("B")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda r: validate_hash_format(r, andmal("HashDigestSize"), "256"), "no hash format rules for class: "),
        (lambda r: SchemaRegistry({CLS_A: ClassDef(CLS_A, CLS_B, "andmal"), CLS_B: ClassDef(CLS_B, CLS_A, "andmal")}, {}, {}), "cycle in class hierarchy at "),
        (lambda r: SchemaRegistry({CLS_A: ClassDef(CLS_A, CLS_B, "andmal")}, {}, {}), f"parent of {CLS_A} is unregistered: {CLS_B}"),
    ],
    ids=["hash-subclass-without-rules", "class-cycle", "unregistered-parent"],
)
def test_unknown_class_errors_name_their_cause(registry, build, message):
    with pytest.raises(UnknownClassError) as err:
        build(registry)
    assert str(err.value).startswith(message)


def typed(graph, iri, cls):
    node = IRI(iri)
    graph.insert(Triple(node, IRI(RDF_TYPE), IRI(cls)))
    return node


def test_validate_conforming_file(registry):
    g = Graph()
    f = typed(g, andmal("file_x"), andmal("File"))
    h = typed(g, andmal("sha256_x"), malont("SHA256"))
    g.insert(Triple(f, IRI(andmal("hasFileName")), Literal("a.apk")))
    g.insert(Triple(f, IRI(andmal("hasHash")), h))
    g.insert(Triple(h, IRI(andmal("sha256Value")), Literal(UC3_SHA256)))
    assert validate_individual(registry, g, f) == []
    assert validate_individual(registry, g, h) == []


def test_validate_missing_type(registry):
    g = Graph()
    s = IRI(andmal("mystery"))
    g.insert(Triple(s, IRI(andmal("hasFileName")), Literal("a.apk")))
    rules = [v.rule for v in validate_individual(registry, g, s)]
    assert rules == ["missing-type"]


def test_validate_domain_mismatch(registry):
    # hasMalwareFamily requires a Malware subject, File is not one
    g = Graph()
    f = typed(g, andmal("file_x"), andmal("File"))
    fam = typed(g, andmal("family_x"), malont("MalwareFamily"))
    g.insert(Triple(f, IRI(andmal("hasMalwareFamily")), fam))
    rules = [v.rule for v in validate_individual(registry, g, f)]
    assert rules == ["domain-mismatch"]


def test_validate_data_property_domain_mismatch(registry):
    # tagLabel requires a Tag subject; each object gets its own row
    g = Graph()
    vi = typed(g, andmal("vi_x"), andmal("VendorIntelligence"))
    g.insert(Triple(vi, IRI(andmal("tagLabel")), Literal("a")))
    g.insert(Triple(vi, IRI(andmal("tagLabel")), Literal("b")))
    violations = validate_individual(registry, g, vi)
    assert [v.rule for v in violations] == ["domain-mismatch", "domain-mismatch"]
    assert all(v.detail.startswith(f"{andmal('tagLabel')} requires a {andmal('Tag')} subject") for v in violations)


def test_validate_any_registered_type_satisfies_data_property_domain(registry):
    # the domain is checked against all of the subject's types at once
    g = Graph()
    s = typed(g, andmal("vi_x"), andmal("VendorIntelligence"))
    typed(g, andmal("vi_x"), andmal("Tag"))
    g.insert(Triple(s, IRI(andmal("tagLabel")), Literal("a")))
    g.insert(Triple(s, IRI(andmal("vendorName")), Literal("v")))
    assert validate_individual(registry, g, s) == []


def test_validate_range_mismatch_wrong_class(registry):
    g = Graph()
    m = typed(g, andmal("malware_x"), malont("Malware"))
    tag = typed(g, andmal("tag_x"), andmal("Tag"))
    g.insert(Triple(m, IRI(andmal("hasMalwareFamily")), tag))
    rules = [v.rule for v in validate_individual(registry, g, m)]
    assert rules == ["range-mismatch"]


def test_validate_range_mismatch_literal_object(registry):
    g = Graph()
    m = typed(g, andmal("malware_x"), malont("Malware"))
    g.insert(Triple(m, IRI(andmal("hasMalwareFamily")), Literal("family")))
    rules = [v.rule for v in validate_individual(registry, g, m)]
    assert rules == ["range-mismatch"]


def test_validate_range_mismatch_untyped_object(registry):
    g = Graph()
    m = typed(g, andmal("malware_x"), malont("Malware"))
    g.insert(Triple(m, IRI(andmal("hasMalwareFamily")), IRI(andmal("family_x"))))
    rules = [v.rule for v in validate_individual(registry, g, m)]
    assert rules == ["range-mismatch"]


def test_validate_subclass_satisfies_range(registry):
    # hasHash wants Hash; a SHA256-typed node is a Hash by subclassing
    g = Graph()
    f = typed(g, andmal("file_x"), andmal("File"))
    h = typed(g, andmal("sha256_x"), malont("SHA256"))
    g.insert(Triple(f, IRI(andmal("hasHash")), h))
    assert validate_individual(registry, g, f) == []


def test_validate_unknown_property(registry):
    g = Graph()
    f = typed(g, andmal("file_x"), andmal("File"))
    g.insert(Triple(f, IRI(andmal("notAProperty")), Literal("x")))
    rules = [v.rule for v in validate_individual(registry, g, f)]
    assert rules == ["unknown-property"]


def test_validate_unknown_class(registry):
    g = Graph()
    s = IRI(andmal("thing"))
    g.insert(Triple(s, IRI(RDF_TYPE), IRI(andmal("Imaginary"))))
    rules = [v.rule for v in validate_individual(registry, g, s)]
    assert rules == ["unknown-class"]


def test_validate_datatype_mismatch(registry):
    g = Graph()
    f = typed(g, andmal("file_x"), andmal("File"))
    g.insert(Triple(f, IRI(andmal("hasFileSize")), Literal("huge", datatype=XSD_INTEGER)))
    rules = [v.rule for v in validate_individual(registry, g, f)]
    assert rules == ["datatype-mismatch"]


def test_validate_datetime_and_anyuri_lexicals(registry):
    g = Graph()
    f = typed(g, andmal("file_x"), andmal("File"))
    g.insert(Triple(f, IRI(andmal("firstSeen")), Literal("2021-06-01T08:00:00Z", datatype=XSD_DATETIME)))
    assert validate_individual(registry, g, f) == []
    g.insert(Triple(f, IRI(andmal("lastSeen")), Literal("yesterday", datatype=XSD_DATETIME)))
    rules = [v.rule for v in validate_individual(registry, g, f)]
    assert rules == ["datatype-mismatch"]

    g2 = Graph()
    vi = typed(g2, andmal("vi_x"), andmal("VendorIntelligence"))
    g2.insert(Triple(vi, IRI(andmal("vendorLink")), Literal("not a uri", datatype=XSD_ANYURI)))
    rules = [v.rule for v in validate_individual(registry, g2, vi)]
    assert rules == ["datatype-mismatch"]


@pytest.mark.parametrize(
    "prop, lexical, ok",
    [
        ("hasFileSize", "12", True),
        ("hasFileSize", "+12", True),
        ("hasFileSize", "-0", True),
        ("hasFileSize", "\u0661\u0662", False),  # Arabic-Indic digits
        ("hasFileSize", "\uff11\uff12", False),  # fullwidth digits
        ("hasFileSize", "12.0", False),
        ("hasFileSize", "", False),
        ("firstSeen", "2021-06-01T08:00:00Z", True),
        ("firstSeen", "2021-06-01T08:00:00", True),
        ("firstSeen", "2021-06-01T08:00:00.5Z", True),
        ("firstSeen", "2021-06-01T08:00:00.123456789Z", True),
        ("firstSeen", "2021-06-01T08:00:00+05:30", True),
        ("firstSeen", "2021-06-01T08:00:00-14:00", True),
        ("firstSeen", "0999-01-01T00:00:00Z", True),  # as _normalize_timestamp writes year 999
        ("firstSeen", "2024-02-29T00:00:00Z", True),
        ("firstSeen", "2021-06-01", False),
        ("firstSeen", "2021-06-01 00:00:00", False),
        ("firstSeen", "20210601T000000", False),
        ("firstSeen", "2021-W01-1T00:00:00", False),
        ("firstSeen", "2021-06-01T08:00Z", False),
        ("firstSeen", "2021-06-01T08:00:00.Z", False),
        ("firstSeen", "2021-06-01T08:00:00+15:00", False),
        ("firstSeen", "2021-06-01T08:00:00+0530", False),
        ("firstSeen", "2021-02-29T00:00:00Z", False),
        ("firstSeen", "2021-13-01T00:00:00Z", False),
        ("firstSeen", "0000-01-01T00:00:00Z", False),
        ("firstSeen", "999-01-01T00:00:00Z", False),
        ("firstSeen", "\u0662\u0660\u0662\u0661-06-01T08:00:00Z", False),
    ],
)
def test_integer_and_datetime_lexical_forms(registry, prop, lexical, ok):
    # XSD's own forms in ASCII digits: the answer must not depend on the
    # Python version's int or datetime.fromisoformat
    g = Graph()
    f = typed(g, andmal("file_x"), andmal("File"))
    datatype = XSD_INTEGER if prop == "hasFileSize" else XSD_DATETIME
    g.insert(Triple(f, IRI(andmal(prop)), Literal(lexical, datatype=datatype)))
    rules = [v.rule for v in validate_individual(registry, g, f)]
    assert rules == ([] if ok else ["datatype-mismatch"])


def test_validate_bad_hash_value(registry):
    g = Graph()
    h = typed(g, andmal("sha256_x"), malont("SHA256"))
    g.insert(Triple(h, IRI(andmal("sha256Value")), Literal("tooshort")))
    rules = [v.rule for v in validate_individual(registry, g, h)]
    assert rules == ["bad-hash-format"]


def test_validate_sha2_node_with_digest_size(registry):
    # hasDigestSize wants a HashDigestSize object; the bits individual
    # carries its size as an integer
    g = Graph()
    h = typed(g, andmal("sha2_x"), andmal("SHA2"))
    bits = typed(g, andmal("bits256"), andmal("HashDigestSize"))
    g.insert(Triple(bits, IRI(andmal("digestBits")), Literal("256", datatype=XSD_INTEGER)))
    g.insert(Triple(h, IRI(andmal("hasDigestSize")), bits))
    assert validate_individual(registry, g, h) == []
    assert validate_individual(registry, g, bits) == []


def test_registry_is_immutable(registry):
    with pytest.raises(TypeError):
        registry.classes[andmal("New")] = None
    with pytest.raises(TypeError):
        del registry.object_properties[andmal("contains")]


def test_hash_kinds_match_the_catalog(registry):
    # the one hash table names a registered hash class and its value property
    for kind in HASH_KINDS:
        assert registry.is_subclass_of(kind.cls, malont("Hash"))
        prop = registry.data_properties[kind.value_property]
        assert (prop.domain, prop.range) == (kind.cls, XSD_STRING)
    assert len({kind.name for kind in HASH_KINDS}) == len(HASH_KINDS) == 9


# Every rule in VIOLATION_RULES, several on one subject across predicates,
# multi-typed and blank-node subjects, and untyped, blank and literal objects.
A, M, X = ANDMAL, MALONT, XSD
T = f"<{RDF_TYPE}>"
SEEDED_NT = f"""\
<{A}file_v> {T} <{A}File> .
<{A}file_v> <{A}hasMalwareFamily> <{A}family_v> .
<{A}file_v> <{A}hasFileSize> "big"^^<{X}integer> .
<{A}file_v> <{A}hasHash> "abc" .
<{A}file_v> <{A}bogusProp> "x" .
<{A}file_v> <{A}bogusProp> <{A}family_v> .
<{A}file_v> <{A}hasFileName> "ok.apk" .
<{A}family_v> {T} <{M}MalwareFamily> .
<{A}malware_v> {T} <{M}Malware> .
<{A}malware_v> <{A}hasTag> <{A}family_v> .
<{A}malware_v> <{A}hasTag> <{A}tag_untyped> .
<{A}malware_v> <{A}hasFile> <{A}file_v> .
<{A}malware_v> <{A}hasFile> _:b1 .
<{A}malware_v> <{A}hasAnalysis> <{A}yara_v> .
<{A}yara_v> {T} <{A}YaraRule> .
<{A}thing> {T} <{A}Imaginary> .
<{A}thing> {T} "File" .
<{A}thing> {T} <{A}Tag> .
<{A}thing> <{A}tagLabel> <{A}x> .
<{A}thing> <{A}tagLabel> "label"@en .
<{A}thing> <{A}contains> <{A}malware_v> .
<{A}thing2> {T} <{A}Imaginary> .
<{A}thing2> <{A}contains> <{A}malware_v> .
<{A}mystery> <{A}hasFileName> "a.apk" .
<{A}sha_v> {T} <{M}SHA256> .
<{A}sha_v> <{A}sha256Value> "zz"@en .
<{A}sha_v> <{A}sha256Value> "tooshort" .
<{A}md5_v> {T} <{M}MD5> .
<{A}md5_v> <{A}md5Value> "D41D8CD98F00B204E9800998ECF8427E" .
<{A}tag_d> {T} <{A}Tag> .
<{A}tag_d> <{A}hasFileSize> "big"^^<{X}integer> .
<{A}tag_d> <{A}md5Value> "d41d8cd98f00b204e9800998ecf8427e" .
<{A}vi_v> {T} <{A}VendorIntelligence> .
<{A}vi_v> <{A}vendorLink> "not a uri"^^<{X}anyURI> .
<{A}vi_v> <{A}analysisDate> "yesterday"^^<{X}dateTime> .
<{A}vi_v> <{A}verdict> "x"^^<http://example.org/custom> .
_:b2 <{A}hasFileName> "q" .
<{A}sha2_v> {T} <{A}SHA2> .
<{A}sha2_v> <{A}hasDigestSize> <{A}bits256> .
<{A}bits256> {T} <{A}HashDigestSize> .
<{A}bits256> <{A}digestBits> "256"^^<{X}integer> .
<{A}multi> {T} <{A}File> .
<{A}multi> {T} <{M}Malware> .
<{A}multi> <{A}contains> <{A}multi> .
<{A}multi> <{A}hasTag> <{A}thing> .
<{A}multi> <{A}hasMalwareFamily> <{A}thing> .
"""

# What validate_individual reported for each subject of SEEDED_NT, in
# canonical order, before validation moved onto term ids; since then the
# unknown-property, domain-mismatch and range-mismatch details also name
# the object, so two triples never print the same line, and data
# properties get the domain rule too (the <tag_d> rows).
SEEDED_VIOLATIONS = [
    ('<{A}file_v>', 'unknown-property', 'unregistered property {A}bogusProp (object "x")'),
    ('<{A}file_v>', 'unknown-property', 'unregistered property {A}bogusProp (object <{A}family_v>)'),
    ('<{A}file_v>', 'datatype-mismatch', "{A}hasFileSize value 'big' does not parse as {X}integer"),
    ('<{A}file_v>', 'range-mismatch', '{A}hasHash object is a literal (object "abc")'),
    ('<{A}file_v>', 'domain-mismatch', '{A}hasMalwareFamily requires a {M}Malware subject (object <{A}family_v>)'),
    ('<{A}malware_v>', 'range-mismatch', '{A}hasFile requires a {A}File object (object _:b1)'),
    ('<{A}malware_v>', 'range-mismatch', '{A}hasTag requires a {A}Tag object (object <{A}family_v>)'),
    ('<{A}malware_v>', 'range-mismatch', '{A}hasTag requires a {A}Tag object (object <{A}tag_untyped>)'),
    ('<{A}md5_v>', 'bad-hash-format', "{A}md5Value value 'D41D8CD98F00B204E9800998ECF8427E' fails the format rules"),
    ('<{A}multi>', 'range-mismatch', '{A}hasMalwareFamily requires a {M}MalwareFamily object (object <{A}thing>)'),
    ('<{A}mystery>', 'missing-type', 'no type triple'),
    ('<{A}sha_v>', 'bad-hash-format', "{A}sha256Value value 'tooshort' fails the format rules"),
    ('<{A}sha_v>', 'bad-hash-format', "{A}sha256Value value 'zz' fails the format rules"),
    ('<{A}tag_d>', 'domain-mismatch', '{A}hasFileSize requires a {A}File subject (object "big"^^<{X}integer>)'),
    ('<{A}tag_d>', 'datatype-mismatch', "{A}hasFileSize value 'big' does not parse as {X}integer"),
    ('<{A}tag_d>', 'domain-mismatch', '{A}md5Value requires a {M}MD5 subject (object "d41d8cd98f00b204e9800998ecf8427e")'),
    ('<{A}thing2>', 'unknown-class', 'type is not a registered class: <{A}Imaginary>'),
    ('<{A}thing>', 'unknown-class', 'type is not a registered class: "File"'),
    ('<{A}thing>', 'unknown-class', 'type is not a registered class: <{A}Imaginary>'),
    ('<{A}thing>', 'domain-mismatch', '{A}contains requires a {A}File subject (object <{A}malware_v>)'),
    ('<{A}thing>', 'datatype-mismatch', '{A}tagLabel value is not a literal'),
    ('<{A}vi_v>', 'datatype-mismatch', "{A}analysisDate value 'yesterday' does not parse as {X}dateTime"),
    ('<{A}vi_v>', 'datatype-mismatch', "{A}vendorLink value 'not a uri' does not parse as {X}anyURI"),
    ('<{A}vi_v>', 'datatype-mismatch', "{A}verdict value 'x' does not parse as http://example.org/custom"),
    ('_:b2', 'missing-type', 'no type triple'),
]

SEEDED_VALIDATE_OUTPUT = """\
bad-hash-format (3):
  <{A}md5_v>: {A}md5Value value 'D41D8CD98F00B204E9800998ECF8427E' fails the format rules
  <{A}sha_v>: {A}sha256Value value 'tooshort' fails the format rules
  <{A}sha_v>: {A}sha256Value value 'zz' fails the format rules
datatype-mismatch (6):
  <{A}file_v>: {A}hasFileSize value 'big' does not parse as {X}integer
  <{A}tag_d>: {A}hasFileSize value 'big' does not parse as {X}integer
  <{A}thing>: {A}tagLabel value is not a literal
  <{A}vi_v>: {A}analysisDate value 'yesterday' does not parse as {X}dateTime
  <{A}vi_v>: {A}vendorLink value 'not a uri' does not parse as {X}anyURI
  <{A}vi_v>: {A}verdict value 'x' does not parse as http://example.org/custom
domain-mismatch (4):
  <{A}file_v>: {A}hasMalwareFamily requires a {M}Malware subject (object <{A}family_v>)
  <{A}tag_d>: {A}hasFileSize requires a {A}File subject (object "big"^^<{X}integer>)
  <{A}tag_d>: {A}md5Value requires a {M}MD5 subject (object "d41d8cd98f00b204e9800998ecf8427e")
  <{A}thing>: {A}contains requires a {A}File subject (object <{A}malware_v>)
missing-type (2):
  <{A}mystery>: no type triple
  _:b2: no type triple
range-mismatch (5):
  <{A}file_v>: {A}hasHash object is a literal (object "abc")
  <{A}malware_v>: {A}hasFile requires a {A}File object (object _:b1)
  <{A}malware_v>: {A}hasTag requires a {A}Tag object (object <{A}family_v>)
  <{A}malware_v>: {A}hasTag requires a {A}Tag object (object <{A}tag_untyped>)
  <{A}multi>: {A}hasMalwareFamily requires a {M}MalwareFamily object (object <{A}thing>)
unknown-class (3):
  <{A}thing2>: type is not a registered class: <{A}Imaginary>
  <{A}thing>: type is not a registered class: "File"
  <{A}thing>: type is not a registered class: <{A}Imaginary>
unknown-property (2):
  <{A}file_v>: unregistered property {A}bogusProp (object "x")
  <{A}file_v>: unregistered property {A}bogusProp (object <{A}family_v>)
violations: 25
"""


def _expand(text: str) -> str:
    return text.format(A=A, M=M, X=X)


def test_seeded_violations_are_unchanged(registry):
    g = parse_ntriples(SEEDED_NT)
    got = [
        (v.subject, v.rule, v.detail)
        for subject in dict.fromkeys(t.subject for t in g.match())
        for v in validate_individual(registry, g, subject)
    ]
    expected = [tuple(_expand(x) for x in row) for row in SEEDED_VIOLATIONS]
    assert got == expected
    assert {rule for _, rule, _ in got} == VIOLATION_RULES
    assert [(v.subject, v.rule, v.detail) for v in validate_subjects(registry, g)] == expected
    # terms that are no subject of the graph
    for term in (IRI(A + "tag_untyped"), IRI(A + "absent"), Literal("ok.apk")):
        [v] = validate_individual(registry, g, term)
        assert (v.rule, v.detail) == ("missing-type", "no type triple")


def test_seeded_validate_output_is_unchanged(tmp_path, capsys):
    path = tmp_path / "seeded.nt"
    path.write_text(SEEDED_NT, encoding="utf-8")
    assert main(["--graph", str(path), "validate"]) == 1
    assert capsys.readouterr().out == _expand(SEEDED_VALIDATE_OUTPUT)


def test_validate_turtle_and_stats_build_no_term(registry, table1_graph, tmp_path, capsys, monkeypatch):
    # they read IRIs and literals from the tokens of a loaded graph
    text = serialize_ntriples(table1_graph) + _expand(SEEDED_NT)
    path = tmp_path / "graph.nt"
    path.write_text(text, encoding="utf-8")
    g = parse_ntriples(text)

    def build(token):
        raise AssertionError(f"a term was built for {token}")

    monkeypatch.setattr(rdf_mod, "_build_term", build)
    assert len(validate_subjects(registry, g)) == len(SEEDED_VIOLATIONS)
    serialize_turtle(g)
    for by in ("family", "tag", "country", "reporter"):
        assert main(["--graph", str(path), "stats", "--by", by]) == 0
    assert main(["--graph", str(path), "validate"]) == 1
    assert main(["--graph", str(path), "emit", "--format", "turtle"]) == 0
    capsys.readouterr()


def test_validation_matches_the_reference_checker(registry):
    rng = random.Random(2026)
    rules = set()
    seen = Counter()  # how often each case the order key must settle came up
    for _ in range(250):
        g = random_schema_graph(rng, registry)
        want = validate_reference(registry, g)
        assert validate_subjects(registry, g) == want
        rules |= {v.rule for v in want}
        for subject in {t.subject for t in g.match()}:
            mine = violations_reference(registry, g, subject)
            assert validate_individual(registry, g, subject) == mine
            per_predicate = Counter(t.predicate for t in g.match(subject, None, None))
            seen["blank subject"] += isinstance(subject, BlankNode)
            seen["multi-typed"] += per_predicate[IRI(RDF_TYPE)] > 1
            seen["multi-valued"] += max(per_predicate.values()) > 1
            seen["sorted"] += len(mine) > 1
            # a domain-mismatch, then the other violation of the same triple
            seen["one triple"] += any(
                a.rule == "domain-mismatch" != b.rule and b.detail.startswith(a.detail.split(" ", 1)[0] + " ")
                for a, b in zip(mine, mine[1:])
            )
    assert rules == VIOLATION_RULES
    assert min(seen.values()) > 0 and len(seen) == 5, seen


def test_validation_and_turtle_leave_no_reference_cycle(registry, table1_graph):
    # the checker's and the serializer's memo tables are freed with them,
    # not kept, with all they reference, until the cyclic collector runs
    gc.collect()
    assert validate_subjects(registry, table1_graph) == []
    serialize_turtle(table1_graph)
    assert gc.collect() == 0
