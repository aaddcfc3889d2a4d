import gc
import random

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
from andmalkg.ns import ANDMAL, MALONT, XSD_INTEGER, XSD_STRING

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


def naive_match(g, s, p, o):
    found = [
        t
        for t in g
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)
    ]
    return sorted(found, key=Triple.sort_key)


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
    assert rows == sorted(rows, key=Triple.sort_key)


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


def test_default_prefixes_and_bind():
    g = Graph()
    assert g.prefixes == {"android_malware_ontology": ANDMAL, "malont": MALONT}
    g.bind("ex", "http://example.org/")
    assert g.prefixes["ex"] == "http://example.org/"


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


def test_graph_equality_ignores_prefixes():
    a = Graph()
    b = Graph(prefixes={})
    t = random_triple(random.Random(3))
    a.insert(t)
    b.insert(t)
    assert a == b


def test_subjects_and_types_of():
    g = Graph()
    s = IRI("http://example.org/s")
    cls = IRI("http://example.org/C")
    g.insert(Triple(s, IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), cls))
    assert g.subjects() == [s]
    assert g.types_of(s) == [cls]


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
        assert g1.subjects() == g2.subjects()
        pool = triples or [random_triple(rng)]
        for probe in rng.sample(pool, min(len(pool), 10)):
            for mask in range(8):
                s = probe.subject if mask & 1 else None
                p = probe.predicate if mask & 2 else None
                o = probe.object if mask & 4 else None
                want = naive_match(g1, s, p, o)
                assert g1.match(s, p, o) == want
                assert g2.match(s, p, o) == want


def test_graphs_differing_in_one_term_are_unequal():
    s = IRI("http://example.org/s")
    p = IRI("http://example.org/p")
    a, b = Graph(), Graph()
    a.insert(Triple(s, p, Literal("x")))
    b.insert(Triple(s, p, Literal("x", language="en")))
    assert a != b
    assert Triple(s, p, Literal("x")) in a
    assert Triple(s, p, Literal("x")) not in b


def test_match_on_absent_term_is_empty_and_interns_nothing():
    rng = random.Random(37)
    g = random_graph(rng, max_triples=80)
    g.insert(random_triple(rng))
    terms = len(g._terms)
    absent = [IRI("http://example.org/absent"), Literal("absent"), BlankNode("absent")]
    for term in absent:
        assert g.match(s=term) == []
        assert g.match(o=term) == []
        assert g.match(s=term, p=term, o=term) == []
        assert g.types_of(term) == []
    assert g.match(p=IRI("http://example.org/absent")) == []
    assert Triple(absent[0], absent[0], absent[1]) not in g
    assert len(g._terms) == terms


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
            assert built == rdf_mod._LineCursor(token, 1).take_term()
            assert hash(built) == hash(rdf_mod._LineCursor(token, 1).take_term())
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
