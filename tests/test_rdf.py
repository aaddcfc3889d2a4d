import copy
import gc
import hashlib
import marshal
import random
import string
import sys
import zlib
from types import SimpleNamespace

import pytest

import andmalkg.rdf as rdf_mod
from andmalkg import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    MalformedTermError,
    NTriplesParseError,
    Triple,
    parse_ntriples,
    serialize_ntriples,
    serialize_turtle,
    term_to_ntriples,
)
from andmalkg.ns import ANDMAL, MALONT, RDF_TYPE, XSD_INTEGER, XSD_STRING

from randgraph import NASTY_STRINGS, random_graph, random_triple
from turtle_check import ntriples_as_tuples, parse_turtle


def test_iri_requires_absolute_form():
    with pytest.raises(MalformedTermError):
        IRI("no-scheme-here")
    with pytest.raises(MalformedTermError):
        IRI("http://example.org/has space")
    assert IRI("urn:x:y").value == "urn:x:y"


def test_literal_language_tag_checked():
    with pytest.raises(MalformedTermError):
        Literal("x", language="not a tag")
    assert Literal("x", language="pt-BR").language == "pt-BR"


def test_triple_position_rules():
    s = IRI("http://example.org/s")
    p = IRI("http://example.org/p")
    with pytest.raises(MalformedTermError):
        Triple(Literal("nope"), p, s)
    with pytest.raises(MalformedTermError):
        Triple(s, Literal("nope"), s)
    with pytest.raises(MalformedTermError):
        Triple(s, BlankNode("b"), s)
    assert Triple(BlankNode("b"), p, Literal("ok")) is not None


def test_non_triples_and_non_graphs():
    g = Graph()
    s = IRI("http://example.org/s")
    with pytest.raises(MalformedTermError, match="not a triple"):
        g.insert((s, s, s))
    assert g.match(s, s, s) == [] and len(g) == 0
    assert (Graph() == 1) is False
    with pytest.raises(MalformedTermError, match="object is not an RDF term"):
        Triple(s, s, "o")
    assert repr(Literal("chat", language="fr")) == "Literal('chat', lang='fr')"


def test_insert_reports_novelty_and_len_counts_distinct():
    g = Graph()
    t = random_triple(random.Random(1))
    assert g.insert(t) is True
    assert g.insert(t) is False
    assert len(g) == 1


def test_insertion_count_law():
    # size equals the number of distinct triples ever inserted
    rng = random.Random(7)
    g = Graph()
    seen = set()
    for _ in range(500):
        t = random_triple(rng)
        g.insert(t)
        seen.add(t)
    assert len(g) == len(seen)
    assert set(g) == seen


def canonical_key(t):
    return (term_to_ntriples(t.subject), term_to_ntriples(t.predicate), term_to_ntriples(t.object))


def naive_match(g, s, p, o):
    found = [
        t
        for t in g
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)
    ]
    return sorted(found, key=canonical_key)


def test_match_equals_naive_scan():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, max_triples=120)
        pool = list(g) or [random_triple(rng)]
        for _ in range(40):
            probe = rng.choice(pool)
            s = probe.subject if rng.random() < 0.5 else None
            p = probe.predicate if rng.random() < 0.5 else None
            o = probe.object if rng.random() < 0.5 else None
            assert g.match(s, p, o) == naive_match(g, s, p, o)


def test_match_returns_canonical_order():
    rng = random.Random(13)
    g = random_graph(rng, max_triples=150)
    rows = g.match()
    assert rows == sorted(rows, key=canonical_key)


def test_roundtrip_randomized_graphs():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng, max_triples=150)
        assert parse_ntriples(serialize_ntriples(g)) == g


def test_canonical_serialization_is_sorted_and_stable():
    rng = random.Random(19)
    g = random_graph(rng, max_triples=100)
    first = serialize_ntriples(g)
    assert first == serialize_ntriples(g)
    lines = first.splitlines()
    assert lines == sorted(lines)

    # same triples inserted in a different order serialize identically
    g2 = Graph()
    triples = list(g)
    rng.shuffle(triples)
    g2.insert_all(triples)
    assert serialize_ntriples(g2) == first


def test_nasty_literals_roundtrip():
    g = Graph()
    p = IRI("http://example.org/p")
    s = IRI("http://example.org/s")
    for text in NASTY_STRINGS:
        g.insert(Triple(s, p, Literal(text)))
    assert parse_ntriples(serialize_ntriples(g)) == g


def test_parse_accepts_comments_and_blank_lines():
    text = (
        "# leading comment\n"
        "\n"
        '<http://example.org/s> <http://example.org/p> "v" .\n'
        "   \n"
    )
    g = parse_ntriples(text)
    assert len(g) == 1


def test_parse_unicode_escapes():
    g = parse_ntriples(
        '<http://example.org/s> <http://example.org/p> "caf\\u00e9 \\U0001F40D" .\n'
    )
    lit = next(iter(g)).object
    assert lit.lexical == "café \U0001f40d"


def test_parse_errors_carry_line_numbers():
    text = (
        '<http://example.org/s> <http://example.org/p> "ok" .\n'
        "# comment\n"
        "<http://example.org/s> <http://example.org/p> unquoted .\n"
    )
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_parse_rejects_missing_dot():
    with pytest.raises(NTriplesParseError):
        parse_ntriples('<http://example.org/s> <http://example.org/p> "v"\n')


def test_parse_rejects_trailing_garbage():
    with pytest.raises(NTriplesParseError):
        parse_ntriples('<http://example.org/s> <http://example.org/p> "v" . extra\n')


def test_typed_and_tagged_literals_roundtrip():
    g = Graph()
    s = IRI("http://example.org/s")
    g.insert(Triple(s, IRI("http://example.org/n"), Literal("42", datatype=XSD_INTEGER)))
    g.insert(Triple(s, IRI("http://example.org/l"), Literal("hi", language="en")))
    back = parse_ntriples(serialize_ntriples(g))
    assert back == g
    objs = {t.object for t in back}
    assert Literal("42", datatype=XSD_INTEGER) in objs
    assert Literal("hi", language="en") in objs


def test_turtle_empty_graph_is_header_only():
    text = serialize_turtle(Graph())
    lines = text.strip().splitlines()
    assert lines == [
        f"@prefix android_malware_ontology: <{ANDMAL}> .",
        f"@prefix malont: <{MALONT}> .",
    ]


def test_turtle_uses_a_and_semicolon_grouping():
    g = Graph()
    s = IRI(ANDMAL + "file_x")
    g.insert(Triple(s, IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), IRI(ANDMAL + "File")))
    g.insert(Triple(s, IRI(ANDMAL + "hasFileName"), Literal("a.apk")))
    text = serialize_turtle(g)
    assert "a android_malware_ontology:File" in text
    assert " ;\n" in text


def test_turtle_reparses_to_the_same_triples():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, max_triples=120)
        assert parse_turtle(serialize_turtle(g)) == ntriples_as_tuples(serialize_ntriples(g))


# The SHA-256 of the Turtle serialize_turtle writes for the fixture graph
# (table1 and multifam) and three random graphs: a change to any byte of
# it, in a term's spelling, the grouping or the order, shows here.
TURTLE_DIGESTS = {
    "table1+multifam": "c5c017ae516bf015042a0f301ea8b6949c58b2934a94d0ebfa53f34236d6ed6a",
    "randgraph-23": "e8e81eb0c94b190298f82f60df181666500ad7f85d4486f4786dad5cbbed5c20",
    "randgraph-26": "49524cf6cca6f08ef0b045d029643e2f8868a015198b8a7c8dd7da80340fab46",
    "randgraph-20": "f6fa092ad8f7733ac76afe196740cfd1a58cf16d1843a59c3f4bc75fa864870c",
}


@pytest.mark.parametrize("name", sorted(TURTLE_DIGESTS))
def test_turtle_bytes_are_pinned(name, table1_graph, multifam_graph):
    if name == "table1+multifam":
        g = Graph()
        g.insert_all(table1_graph)
        g.insert_all(multifam_graph)
    else:
        g = random_graph(random.Random(int(name.split("-")[1])), max_triples=400)
    assert hashlib.sha256(serialize_turtle(g).encode("utf-8")).hexdigest() == TURTLE_DIGESTS[name]


def test_turtle_names_an_iri_under_its_longest_namespace_with_a_name():
    name = rdf_mod._turtle_name({"a": "http://e.org/", "ab": "http://e.org/x-", "dup": "http://e.org/x-"})
    assert name("http://e.org/x-local") == "ab:local"  # the longest, and its first prefix
    assert name("http://e.org/x-.y") == "a:x-.y"  # a name cannot start with '.', so the shorter one
    assert name("http://e.org/x-a/b") == "<http://e.org/x-a/b>"  # '/' fits under no namespace
    assert name("http://e.org/") == "<http://e.org/>"  # an empty local name is not a name
    assert name("http://other.org/y") == "<http://other.org/y>"
    assert rdf_mod._turtle_name({})("http://e.org/x") == "<http://e.org/x>"


def test_literal_token_escapes_exactly_what_translate_escapes():
    # the token escapes only after a search finds something to escape; it
    # must read as if every lexical went through translate
    rng = random.Random(77)
    alphabet = list(rdf_mod._UNESCAPES.values()) + list("ab .:#<>'") + ["ü", "漢", "\u2028", "\x00", "😀"]
    for _ in range(2000):
        lexical = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        body = '"' + lexical.translate(rdf_mod._ESCAPES) + '"'
        assert rdf_mod._literal_token(lexical) == body
        assert rdf_mod._literal_token(lexical, XSD_INTEGER) == f"{body}^^<{XSD_INTEGER}>"
        assert rdf_mod._literal_token(lexical, language="en") == f"{body}@en"


def test_match_by_object_and_by_subject_and_object():
    s, other = IRI("http://example.org/s"), IRI("http://example.org/other")
    p, q = IRI("http://example.org/p"), IRI("http://example.org/q")
    o, cls = Literal("o"), IRI("http://example.org/C")
    g = Graph()
    g.insert_all(
        [Triple(s, p, o), Triple(s, q, o), Triple(other, p, o), Triple(s, IRI(RDF_TYPE), cls), Triple(other, q, cls)]
    )
    assert g.match(o=o) == [Triple(other, p, o), Triple(s, p, o), Triple(s, q, o)]
    assert g.match(s=s, o=o) == [Triple(s, p, o), Triple(s, q, o)]
    assert g.match(o=cls) == [Triple(other, q, cls), Triple(s, IRI(RDF_TYPE), cls)]
    assert g.match(s=other, o=cls) == [Triple(other, q, cls)]
    # a term of the graph that is no object, and pairs no triple links
    assert g.match(o=s) == []
    assert g.match(s=s, o=s) == [] and g.match(s=other, p=p, o=cls) == []


def test_term_to_ntriples_forms():
    assert term_to_ntriples(IRI("http://e.org/x")) == "<http://e.org/x>"
    assert term_to_ntriples(BlankNode("b1")) == "_:b1"
    assert term_to_ntriples(Literal('say "hi"\n')) == '"say \\"hi\\"\\n"'
    assert term_to_ntriples(Literal("7", datatype=XSD_INTEGER)).endswith("integer>")
    assert term_to_ntriples(Literal("x", language="en")) == '"x"@en'


# --- loader: canonical fast path and strict fallback agree ----------------


def _respell(term, rng) -> str:
    """A legal but non-canonical N-Triples spelling of one term."""
    if isinstance(term, Literal) and term.language is None:
        body = term_to_ntriples(Literal(term.lexical))[1:-1]
        body = body.replace("A", "\\u0041").replace("a", "\\u0061")
        if term.datatype == XSD_STRING and rng.random() < 0.5:
            return f'"{body}"'
        return f'"{body}"^^<{term.datatype}>'
    return term_to_ntriples(term)


def test_non_canonical_spellings_parse_to_the_same_graph():
    rng = random.Random(29)
    seps = [" ", " ", "  ", "\t", " \t "]
    for _ in range(20):
        g = random_graph(rng, max_triples=150)
        g.insert(Triple(IRI("http://example.org/s"), IRI("http://example.org/p"), Literal("Abba")))
        canonical = serialize_ntriples(g)
        lines = []
        for t in g:
            terms = [_respell(x, rng) for x in (t.subject, t.predicate, t.object)]
            sep = [rng.choice(seps) for _ in range(3)]
            lines.append(f"{terms[0]}{sep[0]}{terms[1]}{sep[1]}{terms[2]}{sep[2]}.")
        rng.shuffle(lines)
        respelled = parse_ntriples("\n".join(lines) + "\n")
        assert respelled == parse_ntriples(canonical) == g
        assert serialize_ntriples(respelled) == canonical
        assert serialize_turtle(respelled) == serialize_turtle(g)


def test_explicit_string_datatype_is_the_same_literal():
    text = (
        '<http://example.org/s> <http://example.org/p> "a" .\n'
        f'<http://example.org/s> <http://example.org/p> "a"^^<{XSD_STRING}> .\n'
        '<http://example.org/s> <http://example.org/p> "\\u0061" .\n'
    )
    g = parse_ntriples(text)
    assert len(g) == 1
    assert serialize_ntriples(g) == '<http://example.org/s> <http://example.org/p> "a" .\n'


@pytest.mark.parametrize(
    "bad",
    [
        '<no-scheme> <http://example.org/p> "v" .',
        "<http://example.org/s> <no-scheme> <http://example.org/o> .",
        "<http://example.org/s> <http://example.org/p> <no scheme> .",
        '<http://example.org/s> <http://example.org/p> "v"^^<not-an-iri> .',
        '<http://example.org/s> <http://example.org/p> "v"^^<http://e.org/has space> .',
        '<http://example.org/s> <http://example.org/p> "v" . extra',
        "<http://example.org/s> <http://example.org/p> <http://example.org/o> .<x>",
    ],
)
def test_canonical_looking_bad_lines_fail_with_their_line_number(bad):
    good = '<http://example.org/s> <http://example.org/p> "v" .\n'
    text = good + "# comment\n" + good + bad + "\n" + good
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 4


# --- store invariants: ids are private, behaviour is not --------------------


def test_insertion_order_does_not_show():
    rng = random.Random(31)
    for _ in range(15):
        g1 = random_graph(rng, max_triples=150)
        triples = list(g1)
        rng.shuffle(triples)
        g2 = Graph()
        g2.insert_all(triples)
        if len(g1) > 2:
            assert g1._tokens != g2._tokens  # the same terms got other ids
        assert g1 == g2 and g2 == g1
        assert serialize_ntriples(g1) == serialize_ntriples(g2)
        assert serialize_turtle(g1) == serialize_turtle(g2)
        assert {t.subject for t in g1} == {t.subject for t in g2}
        g3 = rdf_mod.load_snapshot(rdf_mod.dump_snapshot(g1, INFO), INFO, AFTER)
        pool = triples or [random_triple(rng)]
        probes = rng.sample(pool, min(len(pool), 10))
        # a subject, a predicate and an object from any three triples: no
        # triple need link them
        probes += [
            Triple(rng.choice(pool).subject, rng.choice(pool).predicate, rng.choice(pool).object)
            for _ in range(10)
        ]
        for probe in probes:
            for mask in range(8):
                s = probe.subject if mask & 1 else None
                p = probe.predicate if mask & 2 else None
                o = probe.object if mask & 4 else None
                want = naive_match(g1, s, p, o)
                assert g1.match(s, p, o) == want
                assert g2.match(s, p, o) == want
                assert g3.match(s, p, o) == want


def test_graphs_differing_in_one_term_are_unequal():
    s = IRI("http://example.org/s")
    p = IRI("http://example.org/p")
    a, b = Graph(), Graph()
    a.insert(Triple(s, p, Literal("x")))
    b.insert(Triple(s, p, Literal("x", language="en")))
    assert a != b
    assert a.match(s, p, Literal("x")) == [Triple(s, p, Literal("x"))]
    assert b.match(s, p, Literal("x")) == []


def test_match_on_absent_term_is_empty_and_interns_nothing():
    rng = random.Random(37)
    g = random_graph(rng, max_triples=80)
    g.insert(random_triple(rng))
    terms = len(g._tokens)
    absent = [IRI("http://example.org/absent"), Literal("absent"), BlankNode("absent")]
    for term in absent:
        assert g.match(s=term) == []
        assert g.match(o=term) == []
        assert g.match(s=term, p=term, o=term) == []
        assert g.match(s=term, p=IRI(RDF_TYPE)) == []
    assert g.match(p=IRI("http://example.org/absent")) == []
    assert g.match(absent[0], absent[0], absent[1]) == []
    assert len(g._tokens) == terms


# --- token-keyed store: lazily built terms, the new-token check, the GC ----


def test_literal_with_a_language_tag_has_no_other_datatype():
    with pytest.raises(MalformedTermError):
        Literal("x", datatype=XSD_INTEGER, language="en")
    assert Literal("x", datatype=XSD_STRING, language="en") == Literal("x", language="en")


def _shape(term, token) -> set:
    shapes = {type(term).__name__}
    if isinstance(term, Literal):
        shapes.add("lang" if term.language else "typed" if term.datatype != XSD_STRING else "plain")
    if "\\" in token:
        shapes.add("escaped")
    return shapes


def test_lazily_built_terms_equal_the_strict_scanners():
    rng = random.Random(41)
    shapes = set()
    for _ in range(25):
        g = random_graph(rng, max_triples=150)
        parsed = parse_ntriples(serialize_ntriples(g))
        for i, token in enumerate(parsed._tokens):
            built = rdf_mod._build_term(token)
            assert built == rdf_mod._scan_line(f"{S} {P} {token} .", 1).object
            assert hash(built) == hash(rdf_mod._scan_line(f"{S} {P} {token} .", 1).object)
            assert term_to_ntriples(built) == token
            assert parsed._term(i) == built
            shapes |= _shape(built, token)
        assert set(parsed) == set(g)
    assert shapes == {"IRI", "BlankNode", "Literal", "lang", "typed", "plain", "escaped"}


S, P, O = "<http://example.org/s>", "<http://example.org/p>", "<http://example.org/o>"


# Each line is in the canonical shape, so its tokens take the fast path; the
# messages are those the strict per-term checks have always given.
@pytest.mark.parametrize(
    "line, message",
    [
        (f'<no-scheme> {P} "v" .', "not an absolute IRI (missing scheme): 'no-scheme'"),
        (f"{S} <no-scheme> {O} .", "not an absolute IRI (missing scheme): 'no-scheme'"),
        (f"{S} {P} <no scheme> .", "not an absolute IRI (missing scheme): 'no scheme'"),
        (f"{S} {P} <http://e.org/has space> .", "IRI contains forbidden character: 'http://e.org/has space'"),
        (f"{S} <http://e.org/a{{b}}> {O} .", "IRI contains forbidden character: 'http://e.org/a{b}'"),
        (f'{S} {P} "v"^^<not-an-iri> .', "not an absolute IRI (missing scheme): 'not-an-iri'"),
        (f'{S} {P} "v"^^<http://e.org/a b> .', "IRI contains forbidden character: 'http://e.org/a b'"),
        (f'{S} {P} "v"^^<> .', "not an absolute IRI (missing scheme): ''"),
        (f'{S} {P} "v"^^<http://e.org/x"y> .', "IRI contains forbidden character: 'http://e.org/x\"y'"),
    ],
)
def test_bad_new_tokens_fail_as_the_term_checks_do(line, message):
    text = f'{S} {P} "first" .\n# comment\n{line}\n{S} {P} "last" .\n'
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 3
    assert str(err.value) == f"line 3: {message}"


# Every error the strict path for non-canonical lines raises, with the line
# it names: a defect is reported where a left-to-right reading meets it, and
# a bad IRI in an earlier term comes before a syntax error after it.
@pytest.mark.parametrize(
    "line, message",
    [
        (f"{S} {P}", "unexpected end of line, expected a term"),
        (f"{S} {P}   ", "unexpected end of line, expected a term"),
        (f"{S} {P} unquoted .", "expected IRI, literal, or blank node at column 47"),
        (f"\t{S} {P} 42 .", "expected IRI, literal, or blank node at column 48"),
        (f"\x0c{S} {P} {O} .", "expected IRI, literal, or blank node at column 1"),
        (f'"v"^x {P} {O} .', "expected IRI, literal, or blank node at column 4"),
        (f"_:a_:b {O} .", "expected IRI, literal, or blank node at column 5"),
        (f"{S} {P} <http://e.org/o", "unterminated IRI"),
        (f'{S} {P} "v"^^<http://e.org/dt .', "unterminated IRI"),
        (f'{S} {P} "v"^^ <http://e.org/dt .', "unterminated IRI"),
        (f"{S} {P} <http://e.org/a b> .", "IRI contains forbidden character: 'http://e.org/a b'"),
        (f"{S} {P} <http://e.org/x\ry> .", "IRI contains forbidden character: 'http://e.org/x\\ry'"),
        (f"{S} {P} <no-scheme> .", "not an absolute IRI (missing scheme): 'no-scheme'"),
        (f'{S} {P} "v"^^<no-scheme> .', "not an absolute IRI (missing scheme): 'no-scheme'"),
        (f'{S} {P} "v"^^ <http://e.org/a b>.', "IRI contains forbidden character: 'http://e.org/a b'"),
        (f"<no-scheme> {P} {O} junk", "not an absolute IRI (missing scheme): 'no-scheme'"),
        (f'{S} <http://e.org/a b> "unterminated', "IRI contains forbidden character: 'http://e.org/a b'"),
        (f"{S} {P} _x .", "expected '_:' blank node"),
        (f"{S} {P} _:.a .", "bad blank node label"),
        (f"{S} {P} _: .", "bad blank node label"),
        (f'{S} {P} "unterminated .', "unterminated literal"),
        (f'{S} {P} "ends in a backslash\\', "unterminated escape in literal"),
        (f'{S} {P} "\\u12G4" .', "bad \\u escape in literal"),
        (f'{S} {P} "\\u12" .', "bad \\u escape in literal"),
        (f'{S} {P} "\\U0001F40" .', "bad \\U escape in literal"),
        (f'{S} {P} "\\q" .', "unknown escape '\\q' in literal"),
        (f'{S} {P} "a\\\\\\x" .', "unknown escape '\\x' in literal"),
        (f'{S} {P} "v"^^http://e.org/dt .', "expected datatype IRI after '^^'"),
        (f'{S} {P} "v"^^ .', "expected datatype IRI after '^^'"),
        (f'{S} {P} "v"@ .', "bad language tag"),
        (f'{S} {P} "v"@1en .', "bad language tag"),
        (f'{S} {P} "v"@-en .', "bad language tag"),
        (f"{S} {P} {O}", "missing terminating '.'"),
        (f"{S} {P} {O} ,", "missing terminating '.'"),
        (f'{S} {P} "v" ^^<http://e.org/dt> .', "missing terminating '.'"),
        (f'{S} {P} "v" @en .', "missing terminating '.'"),
        (f'{S} {P} "v"^<http://e.org/dt> .', "missing terminating '.'"),
        (f'{S} {P} "v"@en-.', "missing terminating '.'"),
        (f"{S} {P} {O} . extra", "unexpected trailing content after '.'"),
        (f"{S} {P} {O} .\r", "unexpected trailing content after '.'"),
        (f"{S} {P} {O} . .", "unexpected trailing content after '.'"),
        (f"{S} {P} {O} .\u2028", "unexpected trailing content after '.'"),
        (f"{S} {P} _:a. .", "unexpected trailing content after '.'"),
        (f"{S} {P} _:a..", "unexpected trailing content after '.'"),
        (f"{S}{P}{O}.x", "unexpected trailing content after '.'"),
        (f"{S} {P} {O} .<x>", "unexpected trailing content after '.'"),
        (f'"v" {P} {O} .', "subject must be an IRI or blank node: Literal('v')"),
        (f"{S} _:b {O} .", "predicate must be an IRI: BlankNode('b')"),
        (f'{S} "p" {O} .', "predicate must be an IRI: Literal('p')"),
    ],
)
def test_strict_line_errors_keep_their_message_and_line(line, message):
    text = f'{S} {P} "first" .\n# comment\n{line}\n{S} {P} "last" .\n'
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples(text)
    assert err.value.line == 3
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize("escape", ["\\U00110000", "\\UFFFFFFFF"])
def test_an_escape_beyond_unicode_is_a_parse_error(escape):
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples(f'{S} {P} "{escape}" .\n')
    assert str(err.value) == "line 1: bad \\U escape in literal"


@pytest.mark.parametrize(
    "escape, kind",
    [("\\uD800", "u"), ("\\udfff", "u"), ("\\uDBFF\\uDC00", "u"), ("\\U0000D800", "U"), ("\\U0000dFfF", "U")],
)
def test_a_surrogate_escape_is_a_parse_error(escape, kind):
    # a lone surrogate cannot be written as UTF-8, so no escape may spell one
    with pytest.raises(NTriplesParseError) as err:
        parse_ntriples(f'{S} {P} "ok" .\n{S} {P} "a{escape}" .\n')
    assert str(err.value) == f"line 2: bad \\{kind} escape in literal"


def test_escapes_beside_the_surrogates_still_parse():
    g = parse_ntriples(f'{S} {P} "\\uD7FF\\uE000\\U0000D7FF\\U0000E000\\U00010000" .\n')
    assert next(iter(g)).object.lexical == "\ud7ff\ue000\ud7ff\ue000\U00010000"


def test_terms_reject_lone_surrogates():
    with pytest.raises(MalformedTermError) as err:
        Literal("a\ud800")
    assert str(err.value) == "literal holds a lone surrogate: Literal('a\\ud800')"
    with pytest.raises(MalformedTermError):
        Literal("x", datatype="http://e.org/\udfff")
    with pytest.raises(MalformedTermError) as err:
        IRI("http://e.org/\udc00")
    assert str(err.value) == "IRI contains forbidden character: 'http://e.org/\\udc00'"
    # raw surrogates in text handed to the parser, on the canonical fast path
    for line, message in (
        (f'{S} {P} "\ud800" .', "literal holds a lone surrogate: Literal('\\ud800')"),
        (f"{S} {P} <http://e.org/\ud800> .", "IRI contains forbidden character: 'http://e.org/\\ud800'"),
    ):
        with pytest.raises(NTriplesParseError) as err:
            parse_ntriples(line + "\n")
        assert str(err.value) == f"line 1: {message}"


def test_a_literal_datatype_must_be_an_iri():
    # the store would write "x"^^<not an iri>, which no parse reads back
    with pytest.raises(MalformedTermError) as err:
        Graph().insert(Triple(IRI(S[1:-1]), IRI(P[1:-1]), Literal("x", datatype="not an iri")))
    assert str(err.value) == "not an absolute IRI (missing scheme): 'not an iri'"
    # a parse reports the datatype at its line, before a surrogate in the
    # lexical form, on the canonical and the escaped path alike
    for body in ("x", "\ud800", "a\\t\ud800"):
        with pytest.raises(NTriplesParseError) as err:
            parse_ntriples(f'{S} {P} "ok" .\n{S} {P} "{body}"^^<not an iri> .\n')
        assert str(err.value) == "line 2: not an absolute IRI (missing scheme): 'not an iri'"


def test_one_rule_for_blank_node_labels_and_language_tags():
    # the constructors check with the scanner's grammar: a label may not end
    # in '.', and neither may carry a trailing newline
    with pytest.raises(MalformedTermError) as err:
        BlankNode("a.")
    assert str(err.value) == "bad blank node label: 'a.'"
    for label in ("", ".a", "a b", "a\n", "é"):
        with pytest.raises(MalformedTermError):
            BlankNode(label)
    with pytest.raises(MalformedTermError):
        Literal("x", language="en\n")


def _random_label(rng: random.Random) -> str:
    first = string.ascii_letters + string.digits + "_"
    middle = "".join(rng.choice(first + ".-") for _ in range(rng.randint(0, 5)))
    return rng.choice(first) + (middle + rng.choice(first + "-") if middle else "")


def test_random_blank_labels_round_trip_through_ntriples_and_turtle():
    rng = random.Random(43)
    for _ in range(60):
        g = Graph()
        for _ in range(rng.randint(1, 25)):
            a, b = BlankNode(_random_label(rng)), BlankNode(_random_label(rng))
            g.insert(Triple(a, IRI("http://example.org/p"), b))
            g.insert(Triple(IRI("http://example.org/s"), IRI("http://example.org/q"), a))
        text = serialize_ntriples(g)
        assert parse_ntriples(text) == g
        # with no space before the dot, a label still stops where it must
        assert parse_ntriples(text.replace(" .\n", ".\n")) == g
        assert parse_turtle(serialize_turtle(g)) == ntriples_as_tuples(text)


@pytest.mark.parametrize(
    "spelling, canonical",
    [
        ('"a\tb"', '"a\\tb"'),
        ('"a\rb"', '"a\\rb"'),
        (f'"a"^^<{XSD_STRING}>', '"a"'),
    ],
)
def test_non_canonical_new_tokens_are_aliases(spelling, canonical):
    g = parse_ntriples(f"{S} {P} {spelling} .\n{S} {P} {canonical} .\n")
    assert len(g) == 1
    assert serialize_ntriples(g) == f"{S} {P} {canonical} .\n"
    assert canonical in g._tokens and spelling not in g._tokens
    assert g._ids[spelling] == g._ids[canonical]


def test_match_on_a_non_term_is_empty():
    g = parse_ntriples(f"{S} {P} {O} .\n")
    assert g.match(s="http://example.org/s") == []
    assert g.match(o=("http://example.org/o",)) == []


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        parse_ntriples(f'{S} {P} "v" .\n{S} {P} _:b .\n')
        assert gc.isenabled() is enabled
        for bad in (f"<no-scheme> {P} {O} .", f"{S} {P} {O} . extra"):
            with pytest.raises(NTriplesParseError):
                parse_ntriples(f"{S} {P} {O} .\n{bad}\n")
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_parse_runs_without_the_cyclic_collector():
    text = "".join(f'<http://example.org/s{i}> {P} "v{i}" .\n' for i in range(5000))
    collections = []

    def record(phase, info):
        collections.append(phase)

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(record)
    try:
        g = parse_ntriples(text)
    finally:
        gc.callbacks.remove(record)
        gc.enable() if was else gc.disable()
    assert len(g) == 5000
    assert collections == []


# Snapshots: a graph parsed from N-Triples bytes, saved beside them.

# the fstat of the graph file, as far as a stamp reads it
INFO = SimpleNamespace(st_dev=2049, st_ino=1234567, st_size=14, st_mtime_ns=10**18, st_ctime_ns=10**18 + 5)
# a snapshot file's mtime after the graph file's last change: INFO's stamp is trusted
AFTER = INFO.st_ctime_ns + 1

# a raw tab and an explicit ^^xsd:string are aliases in _ids; a \u escape takes
# the strict scanner and leaves none
ALIASED = f'{S} {P} "a\tb" .\n{S} {P} "c"^^<{XSD_STRING}> .\n{S} {P} "\\u0041" .\n'


def _snapshot_texts():
    rng = random.Random(53)
    texts = [ALIASED, ""]
    for _ in range(8):
        texts.append(serialize_ntriples(random_graph(rng, max_triples=150)))
    return texts


def _wrap(payload: bytes) -> bytes:
    """A snapshot with a well-formed header around any payload."""
    header = f"{rdf_mod._SNAPSHOT_TAG} {rdf_mod._stamp(INFO)} {zlib.crc32(payload):08x}\n"
    return header.encode("ascii") + payload


def test_snapshot_loads_the_graph_it_was_dumped_from():
    for text in _snapshot_texts():
        parsed = parse_ntriples(text)
        loaded = rdf_mod.load_snapshot(rdf_mod.dump_snapshot(parsed, INFO), INFO, AFTER)
        assert loaded == parsed and parsed == loaded
        assert loaded._tokens == parsed._tokens
        assert loaded._ids == parsed._ids
        assert len(loaded) == len(parsed)
        assert (loaded._spo, loaded._pos) == (parsed._spo, parsed._pos)
        assert [loaded._term(i) for i in range(len(loaded._tokens))] == [
            parsed._term(i) for i in range(len(parsed._tokens))
        ]
        assert serialize_ntriples(loaded) == serialize_ntriples(parsed)
        assert serialize_turtle(loaded) == serialize_turtle(parsed)
    aliased = rdf_mod.load_snapshot(rdf_mod.dump_snapshot(parse_ntriples(ALIASED), INFO), INFO, AFTER)
    assert len(aliased._ids) == len(aliased._tokens) + 2
    assert aliased._ids['"a\tb"'] == aliased._ids['"a\\tb"']
    assert aliased._ids[f'"c"^^<{XSD_STRING}>'] == aliased._ids['"c"']


def test_snapshot_header_names_format_marshal_interpreter_stamp_and_crc():
    data = rdf_mod.dump_snapshot(parse_ntriples(ALIASED), INFO)
    header, payload = data.split(b"\n", 1)
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    assert header.decode("ascii").split(" ") == [
        "andmalkg-snapshot", "5", "marshal", str(marshal.version),
        sys.implementation.name, version,
        f"2049:1234567:14:{10**18}:{10**18 + 5}",
        f"{zlib.crc32(payload):08x}",
    ]
    # the payload holds the triple count, not the triples: the indexes hold those
    assert marshal.loads(payload)[2] == len(parse_ntriples(ALIASED))


def _flip_in_payload(data: bytes) -> bytes:
    # a byte inside a token's text: the payload still unmarshals, to another graph
    i = data.rindex(b"example.org")
    return data[:i] + b"E" + data[i + 1 :]


def _refield(data: bytes, k: int, value: bytes) -> bytes:
    header, rest = data.split(b"\n", 1)
    fields = header.split(b" ")
    assert fields[k] != value
    fields[k] = value
    return b" ".join(fields) + b"\n" + rest


@pytest.mark.parametrize(
    "damage",
    [
        lambda d: d,  # loaded against another graph file: stale
        _flip_in_payload,
        lambda d: d[:-1],
        lambda d: d[: len(d) // 2],
        lambda d: d[:40],
        lambda d: _refield(d, 1, b"1"),  # format
        lambda d: _refield(d, 3, b"3"),  # marshal version
        lambda d: _refield(d, 4, b"pypy" if sys.implementation.name != "pypy" else b"cpython"),
        lambda d: _refield(d, 5, b"2.7"),  # interpreter version
        lambda d: b"\x00junk\xff" * 1000,
        lambda d: b"",
    ],
    ids=["stale", "flipped-byte", "truncated-1", "truncated-half", "truncated-header",
         "foreign-format", "foreign-marshal", "foreign-implementation", "foreign-python",
         "junk", "empty"],
)
def test_unusable_snapshot_loads_nothing(damage):
    text = ALIASED + serialize_ntriples(random_graph(random.Random(59), max_triples=100))
    data = rdf_mod.dump_snapshot(parse_ntriples(text), INFO)
    assert rdf_mod.load_snapshot(data, INFO, AFTER) is not None
    other = SimpleNamespace(**{**vars(INFO), "st_size": INFO.st_size + 1})
    damaged = damage(data)
    assert rdf_mod.load_snapshot(damaged, INFO if damaged is not data else other, AFTER) is None


@pytest.mark.parametrize(
    "payload",
    [
        b"\xffnot marshal data",
        marshal.dumps((["<urn:x>"], {"<urn:x>": 0}, 0, {}, {}))[:-3],
        marshal.dumps([["<urn:x>"], {"<urn:x>": 0}, 0, {}, {}]),
        marshal.dumps((["<urn:x>"], {"<urn:x>": 0}, 0, {})),
        marshal.dumps((["<urn:x>"], {"<urn:x>": 0}, {(0, 0, 0)}, {}, {})),
        # format 1's layout: the triples, as a tuple, where the count now is,
        # and an OSP index after POS
        marshal.dumps((["<urn:x>"], {"<urn:x>": 0}, ((0, 0, 0),), {0: {0: 0}}, {0: {0: 0}}, {0: {0: 0}})),
        # format 2's layout: an OSP index after POS
        marshal.dumps((["<urn:x>"], {"<urn:x>": 0}, 1, {0: {0: 0}}, {0: {0: 0}}, {0: {0: 0}})),
        marshal.dumps(None),
    ],
    ids=["not-marshal", "cut-short", "list", "four", "set-of-triples", "format-1-payload",
         "format-2-payload", "none"],
)
def test_snapshot_of_the_wrong_shape_loads_nothing(payload):
    assert rdf_mod.load_snapshot(_wrap(payload), INFO, AFTER) is None
    # the header around it is one that loads
    assert rdf_mod.load_snapshot(_wrap(marshal.dumps((["<urn:x>"], {"<urn:x>": 0}, 0, {}, {}))), INFO, AFTER) == Graph()


def test_dump_snapshot_leaves_the_graph_as_it_was():
    g = parse_ntriples(ALIASED)
    before = copy.deepcopy(vars(g))
    rdf_mod.dump_snapshot(g, INFO)
    assert vars(g) == before


def test_load_snapshot_trusts_only_its_own_stamp_older_than_the_snapshot():
    data = rdf_mod.dump_snapshot(parse_ntriples(ALIASED), INFO)
    assert rdf_mod.load_snapshot(data, INFO, AFTER) == parse_ntriples(ALIASED)
    # racy: the snapshot is no newer than the file's last change
    assert rdf_mod.load_snapshot(data, INFO, INFO.st_ctime_ns) is None
    assert rdf_mod.load_snapshot(data, INFO, INFO.st_mtime_ns) is None
    # another file, or this one changed: each field of the stamp counts
    for field in vars(INFO):
        other = SimpleNamespace(**{**vars(INFO), field: getattr(INFO, field) + 1})
        assert rdf_mod.load_snapshot(data, other, AFTER + 1) is None
    # an mtime set later than the ctime: both must be older than the snapshot
    later = SimpleNamespace(**{**vars(INFO), "st_mtime_ns": AFTER})
    data = rdf_mod.dump_snapshot(parse_ntriples(ALIASED), later)
    assert rdf_mod.load_snapshot(data, later, AFTER) is None
    assert rdf_mod.load_snapshot(data, later, AFTER + 1) == parse_ntriples(ALIASED)


@pytest.mark.parametrize(
    "damage",
    [
        lambda d: d[:40],
        lambda d: _refield(d, 1, b"4"),  # format 4 wrote a key before the stamp
        lambda d: _refield(d, 7, b"not-hex"),  # a CRC that is not hex
        lambda d: d.replace(b" ", b"  ", 1),
        lambda d: b"\x00junk\xff" * 1000,
        lambda d: b"",
    ],
    ids=["truncated-header", "foreign-format", "bad-crc", "extra-space", "junk", "empty"],
)
def test_a_trusted_stamp_under_an_unusable_header_loads_nothing(damage):
    data = rdf_mod.dump_snapshot(parse_ntriples(ALIASED), INFO)
    assert rdf_mod.load_snapshot(damage(data), INFO, AFTER) is None
