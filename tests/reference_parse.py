"""The query front end as it stood before its lean rewrite, kept as an oracle.

`_tokens`, `_bad_token` and `_Parser` are copied unchanged from
andmalkg.query, with the token regex and the whole-query check they use, so
`parse_reference` gives the QueryAST, or raises the QueryParseError with the
message and offset, that the production `parse_query` must give for any
text.  It shares the AST classes, the terms and the string unescaping with
the package, and no tokenizing or parsing code.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from andmalkg.errors import MalformedTermError, QueryParseError, UnknownPrefixError
from andmalkg.ns import RDF_TYPE, XSD_INTEGER, XSD_STRING
from andmalkg.query import CountAgg, Having, QueryAST, TriplePattern, Var
from andmalkg.rdf import _LANG, _UNESCAPES, IRI, Literal, _unescape

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



def parse_reference(text: str) -> QueryAST:
    return _Parser(text).parse()
