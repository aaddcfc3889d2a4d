import copy
import itertools
import random

import pytest

import andmalkg.query as query_mod
from andmalkg import (
    CountAgg,
    Graph,
    Having,
    IRI,
    Literal,
    QueryAST,
    QueryParseError,
    ResultTable,
    Triple,
    TriplePattern,
    UnknownPrefixError,
    Var,
    andmal,
    evaluate,
    format_results,
    malont,
    parse_ntriples,
    parse_query,
    run_query,
    serialize_ntriples,
)
from andmalkg.ns import RDF_TYPE, XSD_INTEGER

from randquery import query_graph, random_ast, sparse_query_graph
from reference_query import evaluate_reference, rows_as_text


def table_as_text(table: ResultTable):
    return rows_as_text(table.header, table.rows)


PREAMBLE = (
    "PREFIX android_malware_ontology: "
    "<http://secuirty.birzeit.edu/android_malware_ontology#>\n"
)


def test_parse_use_case_4_layout(query_text):
    ast = parse_query(query_text("use_case_4"))
    assert ast.select == [
        Var("file"),
        Var("fileName"),
        CountAgg(Var("malwareFamily"), "count"),
    ]
    assert len(ast.where) == 3
    assert ast.where[0] == TriplePattern(
        Var("file"), IRI(andmal("contains")), Var("malware")
    )
    assert ast.group_by == [Var("file"), Var("fileName")]
    assert ast.having == Having(Var("malwareFamily"), ">", 1)
    assert ast.order_by is None and ast.limit is None


def test_parse_use_case_5_layout(query_text):
    ast = parse_query(query_text("use_case_5"))
    assert ast.select == [
        Var("file"),
        Var("fileName"),
        Var("reporter"),
        Var("reportedFrom"),
    ]
    assert TriplePattern(Var("file"), IRI(malont("hasReporter")), Var("reporter")) in ast.where
    assert ast.group_by == [] and ast.having is None


def test_parse_use_case_6_layout(query_text):
    ast = parse_query(query_text("use_case_6"))
    assert ast.select == [Var("reportedFrom"), CountAgg(Var("reportedFrom"), "count")]
    assert ast.group_by == [Var("reportedFrom")]
    assert ast.having == Having(Var("reportedFrom"), ">", 10)
    assert ast.order_by == ("count", "DESC")


def test_parse_a_shorthand_and_literals():
    ast = parse_query(
        PREAMBLE
        + 'SELECT ?s WHERE { ?s a android_malware_ontology:File . '
        + '?s android_malware_ontology:hasFileName "app.apk" . '
        + "?s android_malware_ontology:hasFileSize 1000 . }"
    )
    assert ast.where[0].p == IRI(RDF_TYPE)
    assert ast.where[1].o == Literal("app.apk")
    assert ast.where[2].o == Literal("1000", datatype=XSD_INTEGER)


def test_parse_typed_and_tagged_literals():
    ast = parse_query(
        PREAMBLE
        + 'SELECT ?s WHERE { ?s android_malware_ontology:firstSeen '
        + '"2021-06-01T00:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime> . '
        + '?s android_malware_ontology:tagLabel "banker"@en . }'
    )
    assert ast.where[0].o.datatype.endswith("dateTime")
    assert ast.where[1].o.language == "en"


def test_prefixed_datatype_is_the_full_datatype_iri():
    size = IRI(andmal("hasFileSize"))
    g = Graph()
    g.insert(Triple(IRI(andmal("file_1")), size, Literal("5", datatype=XSD_INTEGER)))
    g.insert(Triple(IRI(andmal("file_2")), size, Literal("5")))
    query = (
        PREAMBLE
        + "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
        + "SELECT ?f WHERE {{ ?f android_malware_ontology:hasFileSize {} }}"
    )
    prefixed = parse_query(query.format('"5"^^xsd:integer'))
    full = parse_query(query.format(f'"5"^^<{XSD_INTEGER}>'))
    assert prefixed == full
    assert prefixed.where[0].o == Literal("5", datatype=XSD_INTEGER)
    assert table_as_text(evaluate(g, prefixed)) == [(f"<{andmal('file_1')}>",)]


def test_undeclared_prefix_reports_position():
    text = "SELECT ?s WHERE { ?s malont:hasReporter ?r . }"
    with pytest.raises(UnknownPrefixError) as err:
        parse_query(text)
    assert err.value.position == text.index("malont:")
    assert "malont" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "SELECT WHERE { ?s ?p ?o . }",  # nothing projected
        "SELECT ?s { ?s ?p ?o . }",  # missing WHERE
        "SELECT ?s WHERE { ?s ?p ?o . } extra",  # trailing content
        "SELECT ?s WHERE { ?s ?p . }",  # short pattern
        "SELECT ?missing WHERE { ?s ?p ?o . }",  # projected var unused
        "SELECT ?s ?s WHERE { ?s ?p ?o . }",  # duplicate name
        "SELECT ?s (COUNT(?o) AS ?s) WHERE { ?s ?p ?o . } GROUP BY ?s",  # alias clash
        "SELECT ?o (COUNT(?o) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?s",  # ?o not grouped
        "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o . }",  # plain var, no GROUP BY
        "SELECT ?s WHERE { ?s ?p ?o . } ORDER BY DESC(?p)",  # order on unprojected
        "SELECT ?s WHERE { ?s ?p ?o . } LIMIT -2",
        "SELECT ?s WHERE { ?s ?p ?o }  GROUP BY",
    ],
)
def test_parse_rejects_malformed_queries(text):
    with pytest.raises(QueryParseError):
        parse_query(text)


_W = "SELECT ?s WHERE { ?s ?p "
_L = "SELECT ?s WHERE { ?s ?p ?o } LIMIT"
_S = "SELECT ?s WHERE { ?s ?p ?o }"
_G = "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s"


# Every error the tokenizer raises, with its offset: the start of the bad
# token, except an unknown identifier, reported at its end.  The last rows
# pin token positions through the parser's errors: '<' opens an IRI only
# when '>' comes before any whitespace, Unicode whitespace separates tokens.
@pytest.mark.parametrize(
    "text, message, position",
    [
        ("SELECT ? WHERE { ?s ?p ?o }", "expected a variable name after '?'", 7),
        ("SELECT ?1 WHERE { ?s ?p ?o }", "expected a variable name after '?'", 7),
        (_W + '"v"^<http://e.org/dt> }', "stray '^'", 27),
        (_W + '"v"@ }', "expected a language tag after '@'", 27),
        (_W + '"v"@1 }', "expected a language tag after '@'", 27),
        (_L + "S 3", "unexpected identifier 'LIMITS'", 35),
        ("SELECT ?s WHERE { ?s foo ?o }", "unexpected identifier 'foo'", 24),
        ("SELECT ?s WHERE { ?s ?p ?o } !", "unexpected character '!'", 29),
        (_W + "- }", "unexpected character '-'", 24),
        (_W + '"unterminated }', "unterminated string", 24),
        (_W + '"line\nbreak" }', "unterminated string", 24),
        (_W + '"ends in a backslash\\', "unterminated escape", 24),
        (_W + '"\\q" }', "unknown escape '\\q'", 24),
        (_W + '"\\u0041" }', "unknown escape '\\u'", 24),
        (_W + '"\\\n" }', "unknown escape '\\\n'", 24),
        (_W + "<no-scheme> }", "not an absolute IRI (missing scheme): 'no-scheme'", 24),
        (_W + "<a b> }", "unexpected identifier 'b'", 28),
        (_W + '"v"@en-1x . } LIMIT x', "unexpected identifier 'x'", 45),
        ("PREFIX x <http://e.org/> SELECT ?s WHERE { ?s ?p ?o }", "unexpected identifier 'x'", 8),
        (_L + " <= 3", "expected 'int'", 35),
        (_L + " < 3", "expected 'int'", 35),
        (_L + " <x y>", "unexpected identifier 'x'", 37),
        (_L + "\xa0>= 3", "expected 'int'", 35),
        (_L + " ^^", "expected 'int'", 35),
        (_L + " \x1c\x1d x", "unexpected identifier 'x'", 39),
        (_L + " 3 ٣", "unexpected trailing content", 37),
        # a term may not hold a lone surrogate
        (_W + '"a\ud800" }', "literal holds a lone surrogate: Literal('a\\ud800')", 24),
        # a datatype IRI is checked as an IRI, at its own token
        (_W + '"a"^^<http://e.org/\udfff> }', "IRI contains forbidden character: 'http://e.org/\\udfff'", 29),
        (_W + '"x"^^<no-scheme> }', "not an absolute IRI (missing scheme): 'no-scheme'", 29),
        (_W + '"x"^^<http://e.org/a{b> }', "IRI contains forbidden character: 'http://e.org/a{b'", 29),
        (_W + "<http://e.org/\ud800> }", "IRI contains forbidden character: 'http://e.org/\\ud800'", 24),
        # a PREFIX IRI is checked where it is declared, used or not
        ("PREFIX x: <nos> SELECT ?s WHERE { ?s x:p ?o }", "not an absolute IRI (missing scheme): 'nos'", 10),
        ("PREFIX x: <nos> SELECT ?s WHERE { ?s ?p ?o }", "not an absolute IRI (missing scheme): 'nos'", 10),
        ("PREFIX x: <> SELECT ?s WHERE { ?s x:p ?o }", "not an absolute IRI (missing scheme): ''", 10),
        ("PREFIX a: <http://e.org/>\nPREFIX x: <http://e.org/\ud800> SELECT ?s WHERE { ?s a:p ?o }",
         "IRI contains forbidden character: 'http://e.org/\\ud800'", 36),
        # the parser's errors, at the token it stops at
        (_S + " GROUP ?s", "expected BY", 35),
        ("SELECT (COUNT(?s) ?n) WHERE { ?s ?p ?o }", "expected AS", 18),
        ("PREFIX x:y <http://e.org/> SELECT ?s WHERE { ?s ?p ?o }", "expected a 'name:' prefix declaration", 7),
        ("PREFIX <http://e.org/> SELECT ?s WHERE { ?s ?p ?o }", "expected a 'name:' prefix declaration", 7),
        (_S + " ORDER BY ?s", "expected ASC(...) or DESC(...)", 38),
        (_G + " HAVING (COUNT(?o) 3)", "expected a comparison operator", 77),
        ('SELECT ?s WHERE { "x" ?p ?o }', "expected an IRI or variable in subject position", 18),
        ('SELECT ?s WHERE { ?s "x" ?o }', "expected an IRI or variable in predicate position", 21),
        (_W + '"v"^^?x }', "expected a datatype IRI after '^^'", 29),
        # the checks of a whole query, at offset 0
        ("SELECT ?s WHERE { }", "WHERE needs at least one pattern", 0),
        (_S + " HAVING (COUNT(?o) > 1)", "HAVING needs grouping", 0),
        ("SELECT (COUNT(?x) AS ?n) WHERE { ?s ?p ?o }", "aggregated variable ?x never appears in WHERE", 0),
        ("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?x", "grouped variable ?x never appears in WHERE", 0),
        (_G + " HAVING (COUNT(?x) > 1)", "HAVING variable ?x never appears in WHERE", 0),
    ],
)
def test_tokenizer_errors_keep_their_message_and_position(text, message, position):
    with pytest.raises(QueryParseError) as err:
        parse_query(text)
    assert err.value.position == position
    assert str(err.value) == f"at offset {position}: {message}"


def test_a_non_ascii_digit_is_a_parse_error_not_a_crash():
    with pytest.raises(QueryParseError) as err:
        parse_query("SELECT ?s WHERE { ?s ?p ² }")
    assert str(err.value) == "at offset 24: unexpected character '²'"
    with pytest.raises(QueryParseError):
        parse_query("SELECT ?s WHERE { ?s ?p 1² }")
    # a decimal digit of another script is still a digit
    assert parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT ٣").limit == 3


def test_trailing_dot_optional():
    a = parse_query("SELECT ?s WHERE { ?s ?p ?o . }")
    b = parse_query("SELECT ?s WHERE { ?s ?p ?o }")
    assert a.where == b.where


def tiny_graph():
    g = Graph()
    f1, f2 = IRI(andmal("file_1")), IRI(andmal("file_2"))
    us, cn = IRI(andmal("loc_US")), IRI(andmal("loc_CN"))
    rep = IRI(andmal("reporter_x"))
    g.insert(Triple(f1, IRI(andmal("ReportedFrom")), us))
    g.insert(Triple(f2, IRI(andmal("ReportedFrom")), us))
    g.insert(Triple(f1, IRI(malont("hasReporter")), rep))
    g.insert(Triple(f2, IRI(malont("hasReporter")), rep))
    g.insert(Triple(f1, IRI(andmal("hasFileName")), Literal("a.apk")))
    g.insert(Triple(f2, IRI(andmal("hasFileName")), Literal("b.apk")))
    g.insert(Triple(IRI(andmal("file_3")), IRI(andmal("ReportedFrom")), cn))
    return g


def test_join_is_pattern_order_independent():
    g = tiny_graph()
    patterns = [
        TriplePattern(Var("f"), IRI(andmal("ReportedFrom")), Var("loc")),
        TriplePattern(Var("f"), IRI(malont("hasReporter")), Var("r")),
        TriplePattern(Var("f"), IRI(andmal("hasFileName")), Var("n")),
    ]
    results = set()
    for perm in itertools.permutations(patterns):
        ast = QueryAST(
            select=[Var("f"), Var("loc"), Var("r"), Var("n")], where=list(perm)
        )
        results.add(tuple(table_as_text(evaluate(g, ast))))
    assert len(results) == 1


def test_having_is_monotone():
    g = tiny_graph()

    def query(threshold: int) -> str:
        return (
            f"SELECT ?loc (COUNT(?f) AS ?n) WHERE {{ ?f <{andmal('ReportedFrom')}> ?loc . }}"
            f" GROUP BY ?loc HAVING (COUNT(?f) > {threshold})"
        )

    previous = None
    for threshold in range(0, 5):
        rows = set(table_as_text(run_query(g, query(threshold))))
        if previous is not None:
            assert rows <= previous
        previous = rows
    assert table_as_text(run_query(g, query(0)))
    assert table_as_text(run_query(g, query(99))) == []


def test_empty_graph_returns_zero_rows():
    g = Graph()
    assert run_query(g, "SELECT ?s WHERE { ?s ?p ?o . }").rows == []
    # no solutions means no group, even for bare aggregates
    agg = run_query(g, "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o . }")
    assert agg.rows == []


def test_implicit_group_counts_everything():
    g = tiny_graph()
    table = run_query(
        g, f"SELECT (COUNT(?f) AS ?n) WHERE {{ ?f <{andmal('ReportedFrom')}> ?loc . }}"
    )
    assert table.rows == [{"?n": 3}]


def test_repeated_variable_in_pattern():
    g = Graph()
    n1, n2 = IRI(andmal("n1")), IRI(andmal("n2"))
    p = IRI(andmal("linksTo"))
    g.insert(Triple(n1, p, n1))
    g.insert(Triple(n1, p, n2))
    table = run_query(g, f"SELECT ?x WHERE {{ ?x <{andmal('linksTo')}> ?x . }}")
    assert table_as_text(table) == [(f"<{andmal('n1')}>",)]


def assert_matches_reference(graph, ast):
    mine = evaluate(graph, ast)
    header, rows = evaluate_reference(graph, ast)
    assert mine.header == header
    assert table_as_text(mine) == rows_as_text(header, rows)
    return mine


ABSENT = IRI(andmal("absent"))


@pytest.mark.parametrize(
    "pattern",
    [
        TriplePattern(ABSENT, IRI(andmal("ReportedFrom")), Var("o")),
        TriplePattern(Var("s"), ABSENT, Var("o")),
        TriplePattern(Var("s"), IRI(andmal("ReportedFrom")), ABSENT),
    ],
    ids=["subject", "predicate", "object"],
)
def test_absent_constant_yields_header_only(pattern):
    g = tiny_graph()
    terms = len(g._tokens)
    names = sorted(
        part.name for part in (pattern.s, pattern.p, pattern.o) if isinstance(part, Var)
    )
    ast = QueryAST(
        select=[Var(name) for name in names],
        where=[TriplePattern(Var("f"), IRI(malont("hasReporter")), Var("r")), pattern],
    )
    table = evaluate(g, ast)
    assert format_results(table, "tsv") == "\t".join(f"?{n}" for n in names) + "\n"
    assert len(g._tokens) == terms


def hand_built_graph():
    """n1 and n2 link to themselves and n1 to n2; file_1 contains m1, which
    has no family, and file_2 contains m2, which has two."""
    g = Graph()
    n1, n2 = IRI(andmal("n1")), IRI(andmal("n2"))
    p = IRI(andmal("linksTo"))
    g.insert(Triple(n1, p, n1))
    g.insert(Triple(n1, p, n2))
    g.insert(Triple(n2, p, n2))
    contains, family = IRI(andmal("contains")), IRI(andmal("hasMalwareFamily"))
    g.insert(Triple(IRI(andmal("file_1")), contains, IRI(andmal("m1"))))
    g.insert(Triple(IRI(andmal("file_2")), contains, IRI(andmal("m2"))))
    g.insert(Triple(IRI(andmal("m2")), family, IRI(andmal("family_a"))))
    g.insert(Triple(IRI(andmal("m2")), family, IRI(andmal("family_b"))))
    return g


@pytest.mark.parametrize(
    "query, rows",
    [
        ("SELECT ?x WHERE { ?x x:linksTo ?x }", 2),
        # the second step reads no family for m1 and two for m2: as many
        # solutions come out as go in, but m1's is gone and m2's doubled
        ("SELECT ?f ?m ?fam WHERE { ?f x:contains ?m . ?m x:hasMalwareFamily ?fam }", 2),
        ("SELECT ?f ?m ?fam WHERE { ?m x:hasMalwareFamily ?fam . ?f x:contains ?m }", 2),
        # a pattern of constants only, then a whole predicate
        ("SELECT ?m ?fam WHERE { x:file_1 x:contains x:m1 . ?m x:hasMalwareFamily ?fam }", 2),
        ("SELECT ?m ?fam WHERE { x:file_1 x:contains x:m2 . ?m x:hasMalwareFamily ?fam }", 0),
        # a whole predicate after a bound column: a cross product
        ("SELECT ?m ?x ?fam WHERE { x:file_2 x:contains ?m . ?x x:hasMalwareFamily ?fam }", 2),
        ("SELECT ?f ?x ?fam WHERE { ?f x:contains ?m . ?x x:hasMalwareFamily ?fam }", 4),
        (
            "SELECT ?f (COUNT(?fam) AS ?n)"
            " WHERE { ?f x:contains ?m . ?m x:hasMalwareFamily ?fam } GROUP BY ?f",
            1,
        ),
        # no solutions to group
        (
            "SELECT ?fam (COUNT(?m) AS ?n) WHERE { ?f x:contains ?m ."
            " ?m x:hasMalwareFamily ?fam . ?fam x:contains ?y } GROUP BY ?fam",
            0,
        ),
    ],
    ids=[
        "repeated-variable",
        "leaf-missing-and-doubled",
        "subject-leaf",
        "constants-then-predicate",
        "constants-fail-then-predicate",
        "predicate-after-constant-keys",
        "predicate-after-predicate",
        "group",
        "group-of-no-solutions",
    ],
)
def test_hand_built_graph_matches_reference(query, rows):
    ast = parse_query(f"PREFIX x: <{andmal('')}> {query}")
    assert len(assert_matches_reference(hand_built_graph(), ast).rows) == rows


def test_variable_shared_by_predicate_and_object_matches_reference():
    g = Graph()
    n1, n2, meta = IRI(andmal("n1")), IRI(andmal("n2")), IRI(andmal("meta"))
    links, describes = IRI(andmal("linksTo")), IRI(andmal("describes"))
    g.insert(Triple(n1, links, n2))
    g.insert(Triple(n2, describes, Literal("linksTo")))
    g.insert(Triple(meta, describes, links))
    g.insert(Triple(meta, describes, n1))
    ast = parse_query(
        f"SELECT ?s ?v ?o ?m WHERE {{ ?s ?v ?o . ?m <{andmal('describes')}> ?v . }}"
    )
    table = assert_matches_reference(g, ast)
    assert table_as_text(table) == [
        (f"<{andmal('n1')}>", f"<{andmal('linksTo')}>", f"<{andmal('n2')}>", f"<{andmal('meta')}>")
    ]


USE_CASES = [f"use_case_{k}" for k in range(1, 7)]


@pytest.mark.parametrize("corpus", ["table1", "multifam"])
@pytest.mark.parametrize("name", USE_CASES)
def test_use_case_matches_reference(request, corpus, name, query_text):
    graph = request.getfixturevalue(f"{corpus}_graph")
    assert_matches_reference(graph, parse_query(query_text(name)))


@pytest.mark.parametrize("corpus", ["table1", "multifam"])
def test_use_case_output_ignores_insertion_order(request, corpus, query_text):
    triples = request.getfixturevalue(f"{corpus}_graph").match()
    forward, backward = Graph(), Graph()
    forward.insert_all(triples)
    backward.insert_all(reversed(triples))
    assert forward._tokens != backward._tokens  # the same terms got other ids
    for name in USE_CASES:
        ast = parse_query(query_text(name))
        assert format_results(evaluate(backward, ast), "tsv") == format_results(
            evaluate(forward, ast), "tsv"
        )


def test_order_by_desc_breaks_ties_canonically():
    g = tiny_graph()
    table = run_query(
        g,
        f"SELECT ?loc (COUNT(?f) AS ?n) WHERE {{ ?f <{andmal('ReportedFrom')}> ?loc . }}"
        " GROUP BY ?loc ORDER BY DESC(?n)",
    )
    counts = [row["?n"] for row in table.rows]
    assert counts == sorted(counts, reverse=True)
    # equal counts fall back to canonical term order
    g.insert(Triple(IRI(andmal("file_9")), IRI(andmal("ReportedFrom")), IRI(andmal("loc_AA"))))
    table = run_query(
        g,
        f"SELECT ?loc (COUNT(?f) AS ?n) WHERE {{ ?f <{andmal('ReportedFrom')}> ?loc . }}"
        " GROUP BY ?loc ORDER BY DESC(?n)",
    )
    tied = [row["?loc"].value for row in table.rows if row["?n"] == 1]
    assert tied == sorted(tied)


def test_limit_truncates_after_ordering():
    g = tiny_graph()
    q = f"SELECT ?f WHERE {{ ?f <{andmal('ReportedFrom')}> ?loc . }}"
    full = table_as_text(run_query(g, q))
    cut = table_as_text(run_query(g, q + " LIMIT 2"))
    assert cut == full[:2]
    assert table_as_text(run_query(g, q + " LIMIT 0")) == []


def test_object_keyed_patterns_match_reference():
    # the predicate free and the object bound, by a constant or by an
    # earlier pattern: ?s ?p <o>, <s> ?p <o>, <s> ?q ?o after <s> ?p ?o,
    # and ?x ?q <o> after ?x ?p <o>; s and o are drawn apart, so most
    # pairs are linked by no triple
    rng = random.Random(6262)
    S, P, Q, O, X = Var("s"), Var("p"), Var("q"), Var("o"), Var("x")
    for _ in range(40):
        g = query_graph(rng)
        for graph in (g, parse_ntriples(serialize_ntriples(g))):
            s = rng.choice([t.subject for t in g] + [IRI("http://example.org/s0")])
            o = rng.choice([t.object for t in g] + [Literal("alpha")])
            for select, where in (
                ([S, P], [TriplePattern(S, P, o)]),
                ([P], [TriplePattern(s, P, o)]),
                ([P, Q, O], [TriplePattern(s, P, O), TriplePattern(s, Q, O)]),
                ([X, P, Q], [TriplePattern(X, P, o), TriplePattern(X, Q, o)]),
            ):
                assert_matches_reference(graph, QueryAST(select=select, where=where))


def test_engine_matches_reference_on_random_cases():
    rng = random.Random(4242)
    for _ in range(60):
        g = query_graph(rng)
        ast = random_ast(rng)
        mine = evaluate(g, ast)
        header, rows = evaluate_reference(g, ast)
        assert mine.header == header
        assert table_as_text(mine) == rows_as_text(header, rows)


@pytest.mark.parametrize("free", ["subject", "object"])
@pytest.mark.parametrize("k", [0, 1, 3], ids=["no-id", "one-id", "several-ids"])
def test_a_first_step_with_one_free_position_reads_its_leaf_alone(monkeypatch, free, k):
    # the constant pair is in the graph, with k ids in its leaf; the first
    # step reads that leaf and calls no per-solution read or scan
    e = "http://example.org/"
    c, other = f"<{e}c>", f"<{e}other>"
    p0, p1 = f"<{e}p0>", f"<{e}p1>"
    ids = [f"<{e}x{i}>" for i in range(k)]
    if free == "subject":
        lines = [f"{x} {p0} {c} ." for x in ids] + [f"{other} {p0} <{e}o> .", f"{other} {p1} {c} ."]
        pattern = TriplePattern(Var("x"), IRI(p0[1:-1]), IRI(c[1:-1]))
    else:
        lines = [f"{c} {p0} {x} ." for x in ids] + [f"{other} {p0} <{e}o> .", f"{c} {p1} {other} ."]
        pattern = TriplePattern(IRI(c[1:-1]), IRI(p0[1:-1]), Var("x"))
    lines += [f'{x} {p1} "v{i}" .' for i, x in enumerate(ids)]
    graph = parse_ntriples("".join(line + "\n" for line in lines))
    calls = []
    for name in ("_leaf_read", "_map_read", "_entry_scan", "_scan"):
        def spy(*args, _name=name, _real=getattr(query_mod, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(query_mod, name, spy)
    one = assert_matches_reference(graph, QueryAST(select=[Var("x")], where=[pattern]))
    assert len(one.rows) == k
    assert calls == []
    two = QueryAST(select=[Var("x"), Var("y")], where=[pattern, TriplePattern(Var("x"), IRI(p1[1:-1]), Var("y"))])
    assert len(assert_matches_reference(graph, two).rows) == k


def test_every_access_path_matches_reference_on_dense_and_sparse_graphs(monkeypatch):
    # the dense random graphs make most leaves sets; the sparse ones give
    # each (subject, predicate) one object at most, so the leaf read, the
    # map read (of a _pos entry or of a subject map) and the entry scans
    # take their one-id branches too.  Each branch must be met.
    reached = set()
    leaf_read, map_read, entry_scan = query_mod._leaf_read, query_mod._map_read, query_mod._entry_scan
    graph = None

    def branch(at):
        return "one id each" if at is None else "one id or none" if len(set(at)) == len(at) else "several"

    def spy_leaf_read(index, a_keys, b_keys, n):
        new, at = leaf_read(index, a_keys, b_keys, n)
        reached.add("leaf: " + branch(at))
        return new, at

    def spy_map_read(leaf_of, keys, n):
        new, at = map_read(leaf_of, keys, n)
        index = "pos" if any(leaf_of is e for e in graph._pos.values()) else "subject"
        reached.add(f"map {index}: " + branch(at))
        return new, at

    def spy_entry_scan(entry):
        keys, ids = entry_scan(entry)
        index = "spo" if any(entry is e for e in graph._spo.values()) else "pos"
        reached.add(f"entry {index}: " + ("one id each" if len(set(keys)) == len(keys) else "mixed"))
        return keys, ids

    monkeypatch.setattr(query_mod, "_leaf_read", spy_leaf_read)
    monkeypatch.setattr(query_mod, "_map_read", spy_map_read)
    monkeypatch.setattr(query_mod, "_entry_scan", spy_entry_scan)
    rng = random.Random(3131)
    S, P, O, X = Var("s"), Var("p"), Var("o"), Var("x")
    p0, p1 = IRI("http://example.org/p0"), IRI("http://example.org/p1")
    for k in range(120):
        g = sparse_query_graph(rng) if k % 2 else query_graph(rng)
        s0 = rng.choice([t.subject for t in g] + [IRI("http://example.org/s0")])
        asts = [
            random_ast(rng),
            QueryAST(select=[S, O, X], where=[TriplePattern(S, p0, O), TriplePattern(S, p1, X)]),
            QueryAST(select=[O, X], where=[TriplePattern(S, p0, O), TriplePattern(O, p1, X)]),
            QueryAST(select=[P, O], where=[TriplePattern(s0, P, O)]),
            QueryAST(select=[P, X], where=[TriplePattern(s0, P, O), TriplePattern(X, p0, O)]),
        ]
        for graph in (g, parse_ntriples(serialize_ntriples(g))):
            for ast in asts:
                assert_matches_reference(graph, ast)
    assert reached == {
        "leaf: one id each", "leaf: one id or none", "leaf: several",
        "map pos: one id each", "map pos: one id or none", "map pos: several",
        "map subject: one id each", "map subject: one id or none", "map subject: several",
        "entry pos: one id each", "entry pos: mixed", "entry spo: one id each", "entry spo: mixed",
    }


@pytest.fixture
def map_builds(monkeypatch):
    """The predicate of each subject map built, in order, from a clean memo."""
    built = []
    build = query_mod._build_subject_map

    def counted(spo, p, entry):
        built.append(p)
        return build(spo, p, entry)

    monkeypatch.setattr(query_mod, "_memo", None)
    monkeypatch.setattr(query_mod, "_build_subject_map", counted)
    return built


def fresh_graph(*graphs: Graph) -> Graph:
    """A new graph holding the triples of graphs, no memo yet built for it."""
    return parse_ntriples("".join(map(serialize_ntriples, graphs)))


def test_whole_graph_queries_build_each_subject_map_once(table1_graph, multifam_graph, map_builds, query_text):
    graph = fresh_graph(table1_graph, multifam_graph)
    first = {k: table_as_text(run_query(graph, query_text(f"use_case_{k}"))) for k in (4, 5, 6)}
    assert len(map_builds) == 3
    # uc4 maps hasMalwareFamily and hasFileName, uc5 hasReporter as well,
    # and uc6 reads uc5's hasReporter map
    assert sorted(graph._tokens[p] for p in map_builds) == sorted(
        f"<{iri}>" for iri in (andmal("hasFileName"), andmal("hasMalwareFamily"), malont("hasReporter"))
    )
    for k in (4, 5, 6):
        assert table_as_text(run_query(graph, query_text(f"use_case_{k}"))) == first[k]
        header, rows = evaluate_reference(graph, parse_query(query_text(f"use_case_{k}")))
        assert first[k] == rows_as_text(header, rows)
    assert len(map_builds) == 3


@pytest.mark.parametrize("name", USE_CASES)
def test_a_query_parsed_once_evaluates_many_times(table1_graph, multifam_graph, map_builds, name, query_text):
    # the first run of use cases 4 to 6 builds their subject maps and the
    # second reads them; the AST is left as a fresh parse gives it
    graph = fresh_graph(table1_graph, multifam_graph)
    ast = parse_query(query_text(name))
    first = evaluate(graph, ast)
    assert ast == parse_query(query_text(name))
    second = evaluate(graph, ast)
    assert ast == parse_query(query_text(name))
    assert first == second and first.rows
    assert format_results(first, "tsv") == format_results(second, "tsv")


def test_point_queries_build_no_subject_map(table1_graph, multifam_graph, map_builds, query_text):
    graph = fresh_graph(table1_graph, multifam_graph)
    for k in (1, 2, 3):
        assert run_query(graph, query_text(f"use_case_{k}")).rows
    assert map_builds == []
    assert query_mod._memo is None


def test_an_added_triple_rebuilds_the_subject_maps(table1_graph, multifam_graph, map_builds, query_text):
    graph = fresh_graph(table1_graph, multifam_graph)
    ast = parse_query(query_text("use_case_5"))
    before = table_as_text(evaluate(graph, ast))
    assert len(map_builds) == 2
    # a second reporter for one file: that file's hasReporter leaf becomes a set
    has_reporter = IRI(malont("hasReporter"))
    file = next(t.subject for t in graph.match(None, has_reporter, None))
    assert graph.insert(Triple(file, has_reporter, IRI(andmal("reporter_second"))))
    after = table_as_text(evaluate(graph, ast))
    header, rows = evaluate_reference(graph, ast)
    assert after == rows_as_text(header, rows)
    assert len(after) > len(before)
    assert len(map_builds) == 4
    assert table_as_text(evaluate(graph, ast)) == after
    assert len(map_builds) == 4


def test_dropping_the_graph_frees_its_subject_maps(multifam_graph, map_builds, query_text):
    graph = fresh_graph(multifam_graph)
    run_query(graph, query_text("use_case_5"))
    ref, size, maps = query_mod._memo
    assert (ref() is graph, size, len(maps)) == (True, len(graph), 2)
    del ref, maps
    del graph
    assert query_mod._memo is None


def _random_cases(seed: int, count: int):
    """Seeded (graph, AST) pairs; each graph is also given re-parsed, so
    none of its terms is built yet."""
    rng = random.Random(seed)
    for _ in range(count):
        g = query_graph(rng)
        ast = random_ast(rng)
        yield g, ast
        yield parse_ntriples(serialize_ntriples(g)), ast


def test_token_text_equals_term_text_on_random_cases():
    # format_results writes an evaluated table's tokens; a table built by
    # hand from the same rows renders their Terms, to the same text
    for g, ast in _random_cases(9090, 150):
        table = evaluate(g, ast)
        texts = {fmt: format_results(table, fmt) for fmt in ("tsv", "aligned-table")}
        by_hand = ResultTable(table.header, table.rows)
        for fmt, text in texts.items():
            assert text == format_results(by_hand, fmt)
        header, rows = evaluate_reference(g, ast)
        assert table_as_text(table) == rows_as_text(header, rows)


def test_evaluate_and_format_leave_the_graph_terms_unchanged():
    for g, ast in _random_cases(5151, 100):
        before = copy.deepcopy(vars(g))
        table = evaluate(g, ast)
        format_results(table, "tsv")
        format_results(table, "aligned-table")
        assert isinstance(table.rows, list)  # builds the rows' Terms
        assert vars(g) == before


def test_rows_are_built_once():
    g = parse_ntriples(serialize_ntriples(tiny_graph()))
    before = copy.deepcopy(vars(g))
    table = run_query(
        g, f"SELECT ?f ?loc WHERE {{ ?f <{andmal('ReportedFrom')}> ?loc . }}"
    )
    rows = table.rows
    assert table.rows is rows
    assert len(rows) == 3
    # one Term object per distinct term within a table
    assert rows[0]["?loc"] is rows[1]["?loc"] == IRI(andmal("loc_US"))
    assert vars(g) == before


def test_result_table_equality_and_repr():
    row = {"?s": IRI("http://e.org/x"), "?n": 3}
    table = ResultTable(["?s", "?n"], [row])
    assert repr(table) == (
        "ResultTable(header=['?s', '?n'], rows=[{'?s': IRI('http://e.org/x'), '?n': 3}])"
    )
    assert table == ResultTable(["?s", "?n"], [dict(row)])
    assert table != ResultTable(["?s", "?n"], [{"?s": IRI("http://e.org/x"), "?n": 4}])
    assert table != ResultTable(["?n", "?s"], [row])
    assert table != (["?s", "?n"], [row])
    assert repr(ResultTable(["?s"], [])) == "ResultTable(header=['?s'], rows=[])"
    with pytest.raises(TypeError):
        hash(table)
    # an evaluated table equals, and prints as, the table built from its rows
    g = Graph()
    g.insert(Triple(IRI("http://e.org/x"), IRI("http://e.org/p"), Literal("v")))
    g.insert(Triple(IRI("http://e.org/x"), IRI("http://e.org/p"), Literal("w")))
    evaluated = run_query(
        g, "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <http://e.org/p> ?o . } GROUP BY ?s"
    )
    assert evaluated == ResultTable(["?s", "?n"], [{"?s": IRI("http://e.org/x"), "?n": 2}])
    assert repr(evaluated) == (
        "ResultTable(header=['?s', '?n'], rows=[{'?s': IRI('http://e.org/x'), '?n': 2}])"
    )


def test_use_case_1_counts_family_members(table1_graph, manifest, query_text):
    table = run_query(table1_graph, query_text("use_case_1"))
    assert table.header == ["?malware"]
    assert len(table.rows) == manifest["table1"]["uc1_count"]


def test_use_case_2_counts_tagged_malware(table1_graph, manifest, query_text):
    table = run_query(table1_graph, query_text("use_case_2"))
    assert len(table.rows) == manifest["table1"]["uc2_count"]


def test_use_case_3_lists_file_properties(table1_graph, manifest, query_text):
    table = run_query(table1_graph, query_text("use_case_3"))
    assert table.header == ["?property", "?value"]
    props = {row["?property"].value for row in table.rows}
    assert andmal("hasFileName") in props
    assert RDF_TYPE in props
    names = [
        row["?value"].lexical
        for row in table.rows
        if row["?property"].value == andmal("hasFileName")
    ]
    assert len(names) == 1


def test_format_tsv():
    table = ResultTable(["?s", "?n"], [{"?s": IRI(andmal("x")), "?n": 3}])
    text = format_results(table, "tsv")
    assert text == f"?s\t?n\n<{andmal('x')}>\t3\n"
    empty = format_results(ResultTable(["?s"], []), "tsv")
    assert empty == "?s\n"


def test_format_aligned_table():
    table = ResultTable(
        ["?name", "?n"],
        [{"?name": Literal("a.apk"), "?n": 10}, {"?name": Literal("longer.apk"), "?n": 2}],
    )
    text = format_results(table, "aligned-table")
    lines = text.splitlines()
    assert lines[0].startswith("?name")
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 4
    with pytest.raises(ValueError):
        format_results(table, "json")
