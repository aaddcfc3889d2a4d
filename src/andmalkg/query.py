"""SPARQL-subset parser and evaluator.

Covers exactly what the knowledge-graph use cases need: PREFIX
declarations, SELECT with plain variables and COUNT aggregates, a WHERE
block of dot-separated triple patterns, GROUP BY, HAVING on a COUNT,
ORDER BY ASC()/DESC(), and LIMIT.  No OPTIONAL, FILTER, UNION, DISTINCT,
or property paths.

Evaluation runs on the graph's term ids (see rdf.Graph): the join binds
ids, reading the SPO and POS index leaves directly, grouping keys on id
tuples, and rows sort by the ids' cached canonical tokens.  The result
table carries those tokens, and format_results writes them as they are.
Terms are built only for the cells a query returns, when a caller first
reads the table's rows, and they belong to the table.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Optional, Union

from .errors import MalformedTermError, QueryParseError, UnknownPrefixError
from .ns import RDF_TYPE, XSD_INTEGER, XSD_STRING
from .rdf import _LANG, _UNESCAPES, Graph, IRI, Literal, Term, _build_term, _unescape, term_to_ntriples

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


class ResultTable:
    """A query's result: the header's names, and rows, one dict per row
    mapping each name to a Term or, for a count, an int.

    A table holds its cells: each row a list of the terms' canonical
    N-Triples tokens and the counts, in header order; ResultTable(header,
    rows) converts the rows it is given.  format_results writes the cells,
    so the rows are for reading: they are built from the cells on first
    read and then kept, and their Terms belong to the table, not to a graph.
    """

    def __init__(self, header: list[str], rows: list[dict]):
        self.header = header
        self._cells = [
            [v if isinstance(v, int) else term_to_ntriples(v) for v in map(row.__getitem__, header)]
            for row in rows
        ]

    @classmethod
    def _of_cells(cls, header: list[str], cells: list[list]) -> ResultTable:
        table = cls.__new__(cls)
        table.header = header
        table._cells = cells
        return table

    @cached_property
    def rows(self) -> list[dict]:
        terms: dict[str, Term] = {}  # token -> term, one object per term

        def cell_value(cell):
            if type(cell) is int:
                return cell
            term = terms.get(cell)
            if term is None:
                term = terms[cell] = _build_term(cell)
            return term

        header = self.header
        return [dict(zip(header, map(cell_value, row))) for row in self._cells]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.header, self.rows) == (other.header, other.rows)

    def __repr__(self) -> str:
        return f"ResultTable(header={self.header!r}, rows={self.rows!r})"


class _Token(NamedTuple):
    kind: str
    value: object
    pos: int


# A string's body: no newline, and only the escapes of _UNESCAPES.
_STRING_BODY = r'[^"\\\n]*(?:\\[' + re.escape("".join(_UNESCAPES)) + r'][^"\\\n]*)*'
# One token, after any whitespace; each kind is one named group.  '<' opens
# an IRI only when '>' comes before any whitespace; else it is an operator.
# "bad" takes any other character, so the matches cover the text, and the
# last one, at the end, is empty.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<iri><[^>\s]*>)"
    r"|(?P<var>\?[A-Za-z_][A-Za-z0-9_]*)"
    f'|(?P<string>"{_STRING_BODY}")'
    r"|(?P<int>\d+)"
    r"|(?P<op>[{}().;=]|[<>]=?|\^\^)"
    f"|(?P<lang>@{_LANG})"
    r"|(?P<pname>[A-Za-z_][A-Za-z0-9_\-]*:(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_\-]*)"
    r"|(?P<bad>.))?",
    re.S,
)


def _bad_token(text: str, start: int) -> str:
    """What is wrong with the token that starts at text[start]."""
    ch = text[start]
    if ch == "?":
        return "expected a variable name after '?'"
    if ch == "^":
        return "stray '^'"
    if ch == "@":
        return "expected a language tag after '@'"
    if ch != '"':
        return f"unexpected character {ch!r}"
    end = re.compile(_STRING_BODY).match(text, start + 1).end()
    if end == len(text) or text[end] == "\n":
        return "unterminated string"
    escape = text[end + 1 : end + 2]  # the body stopped at a backslash
    return f"unknown escape '\\{escape}'" if escape else "unterminated escape"


def _tokens(text: str) -> list[_Token]:
    """The tokens of a query, the last of kind "eof"; a bad one raises
    QueryParseError at its start (an unknown identifier, at its end)."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:  # the empty match at the end
            break
        word = m[kind]
        start = m.start(kind)
        if kind == "op" or word == "a":  # 'a' is rdf:type, a token of its own
            out.append(_Token(word, word, start))
        elif kind == "var" or kind == "lang":
            out.append(_Token(kind, word[1:], start))
        elif kind == "iri":
            out.append(_Token(kind, word[1:-1], start))
        elif kind == "string":
            out.append(_Token(kind, _unescape(word[1:-1]), start))
        elif kind == "int":
            out.append(_Token(kind, int(word), start))
        elif kind == "pname":
            out.append(_Token(kind, tuple(word.split(":")), start))
        elif kind == "bad":
            raise QueryParseError(_bad_token(text, start), start)
        elif word.lower() in _KEYWORDS:
            out.append(_Token("keyword", word.lower(), start))
        else:
            raise QueryParseError(f"unexpected identifier {word!r}", m.end())
    out.append(_Token("eof", None, len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
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
            ast.prefixes[tok.value[0]] = self._iri(self.expect("iri")).value
        self.expect_keyword("select")
        while not self.at_keyword("where"):
            tok = self.peek()
            if tok.kind == "var":
                self.take()
                ast.select.append(Var(tok.value))
            elif tok.kind == "(":
                ast.select.append(self._aggregate())
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
            ast.limit = self.expect("int").value
        if self.peek().kind != "eof":
            self.error("unexpected trailing content")
        _check(ast)
        return ast

    def _count(self) -> Var:
        """The variable of an opening '( COUNT ( ?v )'."""
        self.expect("(")
        self.expect_keyword("count")
        self.expect("(")
        var = self.expect("var")
        self.expect(")")
        return Var(var.value)

    def _aggregate(self) -> CountAgg:
        var = self._count()
        self.expect_keyword("as")
        alias = self.expect("var")
        self.expect(")")
        return CountAgg(var, alias.value)

    def _having(self) -> Having:
        var = self._count()
        op_tok = self.take()
        if op_tok.kind not in (">", ">=", "<", "<=", "="):
            self.error("expected a comparison operator", op_tok)
        value = self.expect("int")
        self.expect(")")
        return Having(var, op_tok.kind, value.value)

    def _iri(self, tok: _Token) -> IRI:
        """The IRI an iri token spells; a malformed one raises at the token."""
        try:
            return IRI(tok.value)
        except MalformedTermError as exc:
            self.error(str(exc), tok)

    def _expand(self, prefix: str, local: str, ast: QueryAST, pos: int) -> IRI:
        if prefix not in ast.prefixes:
            raise UnknownPrefixError(prefix, pos)
        # the namespace was checked where it was declared, and a local name
        # adds no character an IRI forbids
        return IRI(ast.prefixes[prefix] + local)

    def _term(self, ast: QueryAST, position: str):
        tok = self.take()
        if tok.kind == "var":
            return Var(tok.value)
        if tok.kind == "iri":
            return self._iri(tok)
        if tok.kind == "pname":
            return self._expand(tok.value[0], tok.value[1], ast, tok.pos)
        if tok.kind == "a" and position == "predicate":
            return IRI(RDF_TYPE)
        if position in ("subject", "predicate"):
            self.error(f"expected an IRI or variable in {position} position", tok)
        if tok.kind == "string":
            datatype, language = XSD_STRING, None
            nxt = self.peek()
            if nxt.kind == "^^":
                self.take()
                dt = self.take()
                if dt.kind == "iri":
                    datatype = self._iri(dt).value
                elif dt.kind == "pname":
                    datatype = self._expand(dt.value[0], dt.value[1], ast, dt.pos).value
                else:
                    self.error("expected a datatype IRI after '^^'", dt)
            elif nxt.kind == "lang":
                self.take()
                language = nxt.value
            try:
                return Literal(tok.value, datatype, language)
            except MalformedTermError as exc:  # a lone surrogate
                self.error(str(exc), tok)
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


def _check(ast: QueryAST) -> None:
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

    A pattern's access path is chosen once.  When the object or the
    subject is its one free position, the index leaf that holds it
    (_spo[s][p] or _pos[p][o]) is read inline for each solution; any other
    pattern, a free predicate included, goes through Graph._rows.
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

    # a free position -> the index whose leaves hold it, and the positions
    # of that index's two keys
    leaf_of = {2: (graph._spo, 0, 1), 0: (graph._pos, 1, 2)}
    solutions = [start]
    while remaining and solutions:
        refs = remaining.pop(max(range(len(remaining)), key=score))
        free = [pos for pos, r in enumerate(refs) if r not in bound]
        if len(free) == 1 and free[0] in leaf_of:
            index, a, b = leaf_of[free[0]]
            solutions = _extend(index, refs[a], refs[b], refs[free[0]], solutions)
        else:
            solutions = _scan(graph, refs, bound, solutions)
        bound.update(refs)
    return slots, solutions


def _extend(index: dict, a: int, b: int, c: int, solutions: list[list]) -> list[list]:
    """Each solution extended, in slot c, by every id of its index leaf
    index[sol[a]][sol[b]]."""
    extended = []
    add = extended.append
    inner_of = index.get
    for sol in solutions:
        inner = inner_of(sol[a])
        if inner is None:
            continue
        leaf = inner.get(sol[b])
        if leaf is None:
            continue
        if type(leaf) is int:  # a lone id, the common case
            new = sol.copy()
            new[c] = leaf
            add(new)
            continue
        for i in leaf:
            new = sol.copy()
            new[c] = i
            add(new)
    return extended


def _scan(graph: Graph, refs: list[int], bound: set[int], solutions: list[list]) -> list[list]:
    """Each solution extended by every id triple Graph._rows gives for the
    pattern refs."""
    probe = itemgetter(*(r if r in bound else 0 for r in refs))
    first: dict[int, int] = {}  # slot -> position, for each variable bound here
    same: list[tuple[int, int]] = []  # (position, first position) of a repeated one
    for pos, r in enumerate(refs):
        if r not in bound and first.setdefault(r, pos) != pos:
            same.append((pos, first[r]))
    rows_of = graph._rows
    extended = []
    for sol in solutions:
        for row in rows_of(*probe(sol)):
            if same and any(row[a] != row[b] for a, b in same):
                continue
            new = sol.copy()
            for r, pos in first.items():
                new[r] = row[pos]
            extended.append(new)
    return extended


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
    terms order by their canonical N-Triples text.  The table holds each
    row's tokens and counts; Terms are built only for the cells a query
    returns, when its rows are first read.
    """
    header = [
        f"?{item.name}" if isinstance(item, Var) else f"?{item.alias}"
        for item in ast.select
    ]
    counted = [isinstance(item, CountAgg) for item in ast.select]
    slots, solutions = _join(graph, ast.where)
    tokens = graph._tokens
    if ast.group_by or any(counted):
        # ids are one-to-one with terms, so id tuples group like terms
        key_slots = [slots[v.name] for v in ast.group_by]
        groups = Counter(tuple([sol[k] for k in key_slots]) for sol in solutions)
        # a projected variable is grouped, so its id is in the group key
        at = {v.name: i for i, v in enumerate(ast.group_by)}
        picks = [None if c else at[item.name] for item, c in zip(ast.select, counted)]
        having = ast.having
        cells = [
            [count if i is None else tokens[key[i]] for i in picks]
            for key, count in groups.items()
            if having is None or _OPS[having.op](count, having.value)
        ]
    else:
        columns = [slots[item.name] for item in ast.select]
        cells = [[tokens[sol[c]] for c in columns] for sol in solutions]

    # a column holds only tokens or only counts, so rows compare cell by cell
    cells.sort()
    if ast.order_by is not None:
        name, direction = ast.order_by
        # stable sort, so rows tying on the key keep canonical order
        cells.sort(key=itemgetter(header.index(f"?{name}")), reverse=(direction == "DESC"))
    if ast.limit is not None:
        del cells[ast.limit :]
    return ResultTable._of_cells(header, cells)


def run_query(graph: Graph, text: str) -> ResultTable:
    return evaluate(graph, parse_query(text))


def _text_rows(table: ResultTable) -> list[list[str]]:
    """Each row's cells as text, in header order."""
    cells = table._cells
    # a column holds only tokens or only counts, so one row shows which
    if cells and int in map(type, cells[0]):
        return [list(map(str, row)) for row in cells]
    return cells


def format_results(table: ResultTable, fmt: str) -> str:
    """Render results as 'tsv' or 'aligned-table' text."""
    if fmt == "tsv":
        lines = ["\t".join(table.header)]
        lines += map("\t".join, _text_rows(table))
        return "\n".join(lines) + "\n"
    if fmt == "aligned-table":
        cells = [table.header] + _text_rows(table)
        widths = [max(len(r[i]) for r in cells) for i in range(len(table.header))]
        lines = []
        for r, row in enumerate(cells):
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
            if r == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format: {fmt}")
