import itertools
import random

import pytest

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
    parse_query,
    run_query,
)
from andmalkg.ns import RDF_TYPE, XSD_INTEGER

from randquery import query_graph, random_ast
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
    terms = len(g._terms)
    names = sorted(
        part.name for part in (pattern.s, pattern.p, pattern.o) if isinstance(part, Var)
    )
    ast = QueryAST(
        select=[Var(name) for name in names],
        where=[TriplePattern(Var("f"), IRI(malont("hasReporter")), Var("r")), pattern],
    )
    table = evaluate(g, ast)
    assert format_results(table, "tsv") == "\t".join(f"?{n}" for n in names) + "\n"
    assert len(g._terms) == terms


def test_repeated_variable_matches_reference():
    g = Graph()
    n1, n2 = IRI(andmal("n1")), IRI(andmal("n2"))
    p = IRI(andmal("linksTo"))
    g.insert(Triple(n1, p, n1))
    g.insert(Triple(n1, p, n2))
    g.insert(Triple(n2, p, n2))
    ast = parse_query(f"SELECT ?x WHERE {{ ?x <{andmal('linksTo')}> ?x . }}")
    assert len(assert_matches_reference(g, ast).rows) == 2


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


def test_engine_matches_reference_on_random_cases():
    rng = random.Random(4242)
    for _ in range(60):
        g = query_graph(rng)
        ast = random_ast(rng)
        mine = evaluate(g, ast)
        header, rows = evaluate_reference(g, ast)
        assert mine.header == header
        assert table_as_text(mine) == rows_as_text(header, rows)


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
