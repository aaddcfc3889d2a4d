"""SPARQL-subset parser and evaluator.

Covers exactly what the knowledge-graph use cases need: PREFIX
declarations, SELECT with plain variables and COUNT aggregates, a WHERE
block of dot-separated triple patterns, GROUP BY, HAVING on a COUNT,
ORDER BY ASC()/DESC(), and LIMIT.  No OPTIONAL, FILTER, UNION, DISTINCT,
or property paths.

Evaluation runs on the graph's term ids (see rdf.Graph): the join binds
ids, grouping keys on id tuples, and rows sort by the ids' cached
canonical tokens.  Terms are built only for the cells a query returns.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional, Union

from .errors import QueryParseError, UnknownPrefixError
from .ns import RDF_TYPE, XSD_INTEGER
from .rdf import Graph, IRI, Literal, Term, term_to_ntriples

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*")
_KEYWORDS = {
    "select",
    "prefix",
    "where",
    "group",
    "by",
    "having",
    "order",
    "asc",
    "desc",
    "limit",
    "count",
    "as",
}


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class CountAgg:
    var: Var
    alias: str


@dataclass(frozen=True)
class TriplePattern:
    s: Union[Var, Term]
    p: Union[Var, Term]
    o: Union[Var, Term]


@dataclass(frozen=True)
class Having:
    var: Var
    op: str  # one of > >= < <= =
    value: int


@dataclass
class QueryAST:
    prefixes: dict[str, str] = field(default_factory=dict)
    select: list = field(default_factory=list)  # Var | CountAgg
    where: list = field(default_factory=list)  # TriplePattern
    group_by: list = field(default_factory=list)  # Var
    having: Optional[Having] = None
    order_by: Optional[tuple[str, str]] = None  # (projected name, "ASC"|"DESC")
    limit: Optional[int] = None


@dataclass
class ResultTable:
    header: list[str]
    rows: list[dict]  # header name -> Term | int


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    pos: int


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise QueryParseError(message, self.pos)

    def tokens(self) -> list[_Token]:
        out = []
        while True:
            tok = self._next()
            out.append(tok)
            if tok.kind == "eof":
                return out

    def _next(self) -> _Token:
        text = self.text
        while self.pos < len(text) and text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(text):
            return _Token("eof", None, self.pos)
        start = self.pos
        ch = text[start]
        if ch == "<":
            return self._angle(start)
        if ch == "?":
            m = re.match(r"\?([A-Za-z_][A-Za-z0-9_]*)", text[start:])
            if not m:
                self.error("expected a variable name after '?'")
            self.pos = start + m.end()
            return _Token("var", m.group(1), start)
        if ch == '"':
            return self._string(start)
        if ch.isdigit():
            m = re.match(r"\d+", text[start:])
            self.pos = start + m.end()
            return _Token("int", int(m.group(0)), start)
        if ch in "{}().;=":
            self.pos = start + 1
            return _Token(ch, ch, start)
        if ch == ">":
            if text.startswith(">=", start):
                self.pos = start + 2
                return _Token(">=", ">=", start)
            self.pos = start + 1
            return _Token(">", ">", start)
        if ch == "^":
            if text.startswith("^^", start):
                self.pos = start + 2
                return _Token("^^", "^^", start)
            self.error("stray '^'")
        if ch == "@":
            m = re.match(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)", text[start:])
            if not m:
                self.error("expected a language tag after '@'")
            self.pos = start + m.end()
            return _Token("lang", m.group(1), start)
        m = _IDENT_RE.match(text, start)
        if m:
            name = m.group(0)
            end = m.end()
            if end < len(text) and text[end] == ":":
                end += 1
                local_match = _LOCAL_RE.match(text, end)
                local = ""
                if local_match:
                    local = local_match.group(0)
                    end = local_match.end()
                self.pos = end
                return _Token("pname", (name, local), start)
            self.pos = end
            if name.lower() in _KEYWORDS:
                return _Token("keyword", name.lower(), start)
            if name == "a":
                return _Token("a", "a", start)
            self.error(f"unexpected identifier {name!r}")
        self.error(f"unexpected character {ch!r}")

    def _angle(self, start: int) -> _Token:
        # '<' opens an IRI only if '>' arrives before any whitespace;
        # otherwise it is a comparison operator.
        text = self.text
        i = start + 1
        while i < len(text) and not text[i].isspace():
            if text[i] == ">":
                self.pos = i + 1
                return _Token("iri", text[start + 1 : i], start)
            i += 1
        if text.startswith("<=", start):
            self.pos = start + 2
            return _Token("<=", "<=", start)
        self.pos = start + 1
        return _Token("<", "<", start)

    def _string(self, start: int) -> _Token:
        text = self.text
        chars = []
        i = start + 1
        while True:
            if i >= len(text) or text[i] == "\n":
                self.error("unterminated string")
            ch = text[i]
            if ch == '"':
                self.pos = i + 1
                return _Token("string", "".join(chars), start)
            if ch == "\\":
                if i + 1 >= len(text):
                    self.error("unterminated escape")
                esc = text[i + 1]
                mapped = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}.get(esc)
                if mapped is None:
                    self.error(f"unknown escape '\\{esc}'")
                chars.append(mapped)
                i += 2
            else:
                chars.append(ch)
                i += 1


class _Parser:
    def __init__(self, text: str):
        self.toks = _Tokenizer(text).tokens()
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None):
        pos = (tok or self.peek()).pos
        raise QueryParseError(message, pos)

    def expect_keyword(self, word: str) -> _Token:
        tok = self.take()
        if tok.kind != "keyword" or tok.value != word:
            self.error(f"expected {word.upper()}", tok)
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.take()
        if tok.kind != kind:
            self.error(f"expected {kind!r}", tok)
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value == word

    def parse(self) -> QueryAST:
        ast = QueryAST()
        while self.at_keyword("prefix"):
            self.take()
            tok = self.take()
            if tok.kind != "pname" or tok.value[1] != "":
                self.error("expected a 'name:' prefix declaration", tok)
            iri_tok = self.expect("iri")
            ast.prefixes[tok.value[0]] = iri_tok.value
        self.expect_keyword("select")
        while not self.at_keyword("where"):
            tok = self.peek()
            if tok.kind == "var":
                self.take()
                ast.select.append(Var(tok.value))
            elif tok.kind == "(":
                ast.select.append(self._aggregate(ast))
            else:
                self.error("expected a variable, an aggregate, or WHERE", tok)
        self.take()  # where
        self.expect("{")
        while self.peek().kind != "}":
            s = self._term(ast, position="subject")
            p = self._term(ast, position="predicate")
            o = self._term(ast, position="object")
            ast.where.append(TriplePattern(s, p, o))
            if self.peek().kind == ".":
                self.take()
        self.take()  # }
        if self.at_keyword("group"):
            self.take()
            self.expect_keyword("by")
            while self.peek().kind == "var":
                ast.group_by.append(Var(self.take().value))
            if not ast.group_by:
                self.error("GROUP BY needs at least one variable")
        if self.at_keyword("having"):
            self.take()
            ast.having = self._having()
        if self.at_keyword("order"):
            self.take()
            self.expect_keyword("by")
            tok = self.take()
            if tok.kind != "keyword" or tok.value not in ("asc", "desc"):
                self.error("expected ASC(...) or DESC(...)", tok)
            direction = tok.value.upper()
            self.expect("(")
            var = self.expect("var")
            self.expect(")")
            ast.order_by = (var.value, direction)
        if self.at_keyword("limit"):
            self.take()
            tok = self.expect("int")
            if tok.value < 0:
                self.error("LIMIT must not be negative", tok)
            ast.limit = tok.value
        if self.peek().kind != "eof":
            self.error("unexpected trailing content")
        _check(ast, self)
        return ast

    def _aggregate(self, ast: QueryAST) -> CountAgg:
        self.expect("(")
        self.expect_keyword("count")
        self.expect("(")
        var = self.expect("var")
        self.expect(")")
        self.expect_keyword("as")
        alias = self.expect("var")
        self.expect(")")
        return CountAgg(Var(var.value), alias.value)

    def _having(self) -> Having:
        self.expect("(")
        self.expect_keyword("count")
        self.expect("(")
        var = self.expect("var")
        self.expect(")")
        op_tok = self.take()
        if op_tok.kind not in (">", ">=", "<", "<=", "="):
            self.error("expected a comparison operator", op_tok)
        value = self.expect("int")
        self.expect(")")
        return Having(Var(var.value), op_tok.kind, value.value)

    def _expand(self, prefix: str, local: str, ast: QueryAST, pos: int) -> IRI:
        if prefix not in ast.prefixes:
            raise UnknownPrefixError(prefix, pos)
        return IRI(ast.prefixes[prefix] + local)

    def _term(self, ast: QueryAST, position: str):
        tok = self.take()
        if tok.kind == "var":
            return Var(tok.value)
        if tok.kind == "iri":
            try:
                return IRI(tok.value)
            except Exception as exc:
                self.error(str(exc), tok)
        if tok.kind == "pname":
            return self._expand(tok.value[0], tok.value[1], ast, tok.pos)
        if tok.kind == "a" and position == "predicate":
            return IRI(RDF_TYPE)
        if position in ("subject", "predicate"):
            self.error(f"expected an IRI or variable in {position} position", tok)
        if tok.kind == "string":
            lexical = tok.value
            nxt = self.peek()
            if nxt.kind == "^^":
                self.take()
                dt = self.take()
                if dt.kind == "iri":
                    return Literal(lexical, datatype=dt.value)
                if dt.kind == "pname":
                    return Literal(
                        lexical, datatype=self._expand(dt.value[0], dt.value[1], ast, dt.pos).value
                    )
                self.error("expected a datatype IRI after '^^'", dt)
            if nxt.kind == "lang":
                self.take()
                return Literal(lexical, language=nxt.value)
            return Literal(lexical)
        if tok.kind == "int":
            return Literal(str(tok.value), datatype=XSD_INTEGER)
        self.error("expected a term in object position", tok)


def _pattern_vars(ast: QueryAST) -> set[str]:
    names = set()
    for pat in ast.where:
        for part in (pat.s, pat.p, pat.o):
            if isinstance(part, Var):
                names.add(part.name)
    return names


def _check(ast: QueryAST, parser: _Parser) -> None:
    def fail(message: str):
        raise QueryParseError(message, 0)

    if not ast.select:
        fail("SELECT needs at least one item")
    if not ast.where:
        fail("WHERE needs at least one pattern")
    in_patterns = _pattern_vars(ast)
    group_names = {v.name for v in ast.group_by}
    plain = [item for item in ast.select if isinstance(item, Var)]
    aggs = [item for item in ast.select if isinstance(item, CountAgg)]
    projected = {v.name for v in plain} | {a.alias for a in aggs}
    if len(projected) != len(ast.select):
        fail("duplicate name in SELECT")
    for v in plain:
        if v.name not in in_patterns:
            fail(f"projected variable ?{v.name} never appears in WHERE")
        if ast.group_by and v.name not in group_names:
            fail(f"projected variable ?{v.name} is not grouped")
    if aggs and not ast.group_by and plain:
        fail("aggregates without GROUP BY allow no plain variables")
    for a in aggs:
        if a.var.name not in in_patterns:
            fail(f"aggregated variable ?{a.var.name} never appears in WHERE")
    for v in ast.group_by:
        if v.name not in in_patterns:
            fail(f"grouped variable ?{v.name} never appears in WHERE")
    if ast.having:
        if not ast.group_by and not aggs:
            fail("HAVING needs grouping")
        if ast.having.var.name not in in_patterns:
            fail(f"HAVING variable ?{ast.having.var.name} never appears in WHERE")
    if ast.order_by and ast.order_by[0] not in projected:
        fail(f"ORDER BY key ?{ast.order_by[0]} is not projected")


def parse_query(text: str) -> QueryAST:
    """Parse a query; raises QueryParseError (with offset) on any defect."""
    return _Parser(text).parse()


def _join(graph: Graph, patterns: list[TriplePattern]) -> tuple[dict[str, int], list[list]]:
    """Join the patterns over term ids.

    Returns each variable's slot and the solutions, one list of ids per
    solution indexed by slot.  Slot 0 always holds None and every constant
    gets a slot of its own, so each pattern position reads its probe id
    from the solution: an unbound variable reads the None in slot 0.  A
    constant the graph does not hold leaves no solutions and is not
    interned.  The next pattern is the one with the most bound positions,
    then the most constants.
    """
    slots: dict[str, int] = {}
    for pat in patterns:
        for part in (pat.s, pat.p, pat.o):
            if isinstance(part, Var):
                slots.setdefault(part.name, len(slots) + 1)
    start: list[Optional[int]] = [None] * (len(slots) + 1)
    remaining: list[list[int]] = []
    for pat in patterns:
        refs = []
        for part in (pat.s, pat.p, pat.o):
            if isinstance(part, Var):
                refs.append(slots[part.name])
            else:
                i = graph._id(part)
                if i is None:
                    return slots, []
                refs.append(len(start))
                start.append(i)
        remaining.append(refs)

    consts = set(range(len(slots) + 1, len(start)))
    bound = set(consts)

    def score(k: int) -> tuple[int, int]:
        refs = remaining[k]
        return (sum(r in bound for r in refs), sum(r in consts for r in refs))

    rows_of = graph._rows
    solutions = [start]
    while remaining and solutions:
        refs = remaining.pop(max(range(len(remaining)), key=score))
        probe = itemgetter(*(r if r in bound else 0 for r in refs))
        first: dict[int, int] = {}  # slot -> position, for each variable bound here
        same: list[tuple[int, int]] = []  # (position, first position) of a repeated one
        for pos, r in enumerate(refs):
            if r not in bound and first.setdefault(r, pos) != pos:
                same.append((pos, first[r]))
        next_solutions = []
        for sol in solutions:
            for row in rows_of(*probe(sol)):
                if same and any(row[a] != row[b] for a, b in same):
                    continue
                extended = sol.copy()
                for r, pos in first.items():
                    extended[r] = row[pos]
                next_solutions.append(extended)
        solutions = next_solutions
        bound.update(refs)
    return slots, solutions


_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
}


def evaluate(graph: Graph, ast: QueryAST) -> ResultTable:
    """Evaluate over the graph; results come back deterministically ordered.

    Rows sort by their cells in header order, then stably by the ORDER BY
    key, then LIMIT applies.  A column holds only counts or only terms, and
    terms order by their canonical N-Triples text.
    """
    header = [
        f"?{item.name}" if isinstance(item, Var) else f"?{item.alias}"
        for item in ast.select
    ]
    counted = [isinstance(item, CountAgg) for item in ast.select]
    slots, solutions = _join(graph, ast.where)
    if ast.group_by or any(counted):
        # ids are one-to-one with terms, so id tuples group like terms
        key_slots = [slots[v.name] for v in ast.group_by]
        groups = Counter(tuple([sol[k] for k in key_slots]) for sol in solutions)
        # a projected variable is grouped, so its id is in the group key
        at = {v.name: i for i, v in enumerate(ast.group_by)}
        cells = [None if c else at[item.name] for item, c in zip(ast.select, counted)]
        having = ast.having
        rows = [
            [count if i is None else key[i] for i in cells]
            for key, count in groups.items()
            if having is None or _OPS[having.op](count, having.value)
        ]
    else:
        columns = [slots[item.name] for item in ast.select]
        rows = [[sol[c] for c in columns] for sol in solutions]

    tokens = graph._tokens
    rows.sort(key=lambda row: [cell if c else tokens[cell] for cell, c in zip(row, counted)])
    if ast.order_by is not None:
        name, direction = ast.order_by
        col = header.index(f"?{name}")
        key = itemgetter(col) if counted[col] else (lambda row: tokens[row[col]])
        # stable sort, so rows tying on the key keep canonical order
        rows.sort(key=key, reverse=(direction == "DESC"))
    if ast.limit is not None:
        rows = rows[: ast.limit]
    terms = graph._terms
    build = graph._term  # for a cell whose term is not built yet
    return ResultTable(
        header,
        [
            {
                name: cell if c else terms[cell] or build(cell)
                for name, cell, c in zip(header, row, counted)
            }
            for row in rows
        ],
    )


def run_query(graph: Graph, text: str) -> ResultTable:
    return evaluate(graph, parse_query(text))


def _cell_text(value) -> str:
    if isinstance(value, int):
        return str(value)
    return term_to_ntriples(value)


def format_results(table: ResultTable, fmt: str) -> str:
    """Render results as 'tsv' or 'aligned-table' text."""
    if fmt == "tsv":
        lines = ["\t".join(table.header)]
        for row in table.rows:
            lines.append("\t".join(_cell_text(row[name]) for name in table.header))
        return "\n".join(lines) + "\n"
    if fmt == "aligned-table":
        cells = [table.header] + [
            [_cell_text(row[name]) for name in table.header] for row in table.rows
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(table.header))]
        lines = []
        for r, row in enumerate(cells):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {fmt}")
