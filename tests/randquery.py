"""Seeded random (graph, query AST) pair generator for oracle testing."""

import random

from andmalkg import Graph, IRI, Literal, Triple
from andmalkg.ns import XSD_INTEGER
from andmalkg.query import CountAgg, Having, QueryAST, TriplePattern, Var

_SUBJECTS = [IRI(f"http://example.org/s{i}") for i in range(6)]
_PREDICATES = [IRI(f"http://example.org/p{i}") for i in range(4)]
_OBJECTS = _SUBJECTS + [
    Literal("alpha"),
    Literal("beta"),
    Literal("7", datatype=XSD_INTEGER),
]
_VARS = ["v0", "v1", "v2", "v3"]
_OPS = [">", ">=", "<", "<=", "="]


def query_graph(rng: random.Random, max_triples: int = 120) -> Graph:
    graph = Graph()
    for _ in range(rng.randint(0, max_triples)):
        graph.insert(
            Triple(rng.choice(_SUBJECTS), rng.choice(_PREDICATES), rng.choice(_OBJECTS))
        )
    return graph


def sparse_query_graph(rng: random.Random) -> Graph:
    """A graph where each (subject, predicate) has at most one object and
    some subjects lack a predicate, so most index leaves hold one id, and
    some POS leaves none of a solution's keys."""
    graph = Graph()
    for s in _SUBJECTS:
        for p in _PREDICATES:
            if rng.random() < 0.6:
                graph.insert(Triple(s, p, rng.choice(_OBJECTS)))
    return graph


def _position(rng, vars_used, constants):
    if rng.random() < 0.5:
        name = rng.choice(_VARS)
        vars_used.add(name)
        return Var(name)
    return rng.choice(constants)


def random_ast(rng: random.Random) -> QueryAST:
    """A valid AST inside the supported grammar (never parses text)."""
    ast = QueryAST()
    vars_used: set[str] = set()
    for _ in range(rng.randint(1, 3)):
        s = _position(rng, vars_used, _SUBJECTS)
        p = _position(rng, vars_used, _PREDICATES)
        o = _position(rng, vars_used, _OBJECTS)
        ast.where.append(TriplePattern(s, p, o))
    pattern_vars = sorted(vars_used)
    if not pattern_vars:
        ast.where[0] = TriplePattern(Var("v0"), ast.where[0].p, ast.where[0].o)
        pattern_vars = ["v0"]

    roll = rng.random()
    if roll < 0.1:
        # implicit single group: aggregate-only SELECT, no GROUP BY
        ast.select = [CountAgg(Var(rng.choice(pattern_vars)), "agg")]
        if rng.random() < 0.3:
            ast.having = Having(Var(rng.choice(pattern_vars)), rng.choice(_OPS), rng.randint(0, 4))
    elif roll < 0.5:
        group = rng.sample(pattern_vars, rng.randint(1, min(2, len(pattern_vars))))
        ast.group_by = [Var(name) for name in group]
        ast.select = [Var(name) for name in group]
        agg_var = rng.choice(pattern_vars)
        ast.select.append(CountAgg(Var(agg_var), "agg"))
        if rng.random() < 0.5:
            ast.having = Having(Var(rng.choice(pattern_vars)), rng.choice(_OPS), rng.randint(0, 4))
        if rng.random() < 0.5:
            key = rng.choice(group + ["agg"])
            ast.order_by = (key, rng.choice(["ASC", "DESC"]))
    else:
        projected = rng.sample(pattern_vars, rng.randint(1, len(pattern_vars)))
        ast.select = [Var(name) for name in projected]
        if rng.random() < 0.4:
            ast.order_by = (rng.choice(projected), rng.choice(["ASC", "DESC"]))
    if rng.random() < 0.3:
        ast.limit = rng.randint(1, 10)
    return ast
