"""SPARQL-subset parser and evaluator.

Covers exactly what the knowledge-graph use cases need: PREFIX
declarations, SELECT with plain variables and COUNT aggregates, a WHERE
block of dot-separated triple patterns, GROUP BY, HAVING on a COUNT,
ORDER BY ASC()/DESC(), and LIMIT.  No OPTIONAL, FILTER, UNION, DISTINCT,
or property paths.

The front end reads a query in two passes.  One regular expression cuts
the text into plain (kind, value, offset) tuples, each kind a named group
that holds the value without its delimiters; a well-formed ASCII IRI is
built there, with no second check.  The parser reads the tokens by index,
each checked where the grammar expects it.

Evaluation runs on the graph's term ids (see rdf.Graph), a column at a
time: the join keeps one list of ids per variable, not one list per
solution, and fills the columns from the SPO and POS indexes by four
access paths.  The map read looks up every solution's leaf at once in one
dict of a constant predicate p: _pos[p], keyed by object, or p's subject
map, subject -> _spo[s][p].  A subject map is built, from _pos[p], only
in a query whose first step scanned a whole _pos entry, and memoized for
the graph until it grows or is freed (_subject_map).  The leaf read looks
up the index leaf of every solution at once, by map, two levels deep;
the entry scan fills two columns from one POS or SPO entry; any other
pattern goes through Graph._rows, once per solution.  Grouping counts the
tuples of the key columns' ids, HAVING filters the groups with compress,
and the projected columns, zipped, become tuples of the ids' cached
canonical tokens, sorted by those tokens.  The result table carries the
tokens, and format_results writes them as they are.
Terms are built only for the cells a query returns, when a caller first
reads the table's rows, and they belong to the table.
"""

from __future__ import annotations

import re
import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import eq, ge, gt, is_, itemgetter, le, lt, ne
from typing import Iterable, Optional, Union

from .errors import MalformedTermError, QueryParseError, UnknownPrefixError
from .ns import RDF_TYPE, XSD_INTEGER, XSD_STRING
from .rdf import _LANG, _SCHEME, _UNESCAPES, Graph, IRI, Literal, Term, _build_term, _unescape, term_to_ntriples

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

    A table holds its cells: each row a sequence of the terms' canonical
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


# A string's body: no newline, and only the escapes of _UNESCAPES.
_STRING_BODY = r'[^"\\\n]*(?:\\[' + re.escape("".join(_UNESCAPES)) + r'][^"\\\n]*)*'
# One token, then any whitespace; each kind is one named group, which holds
# the token's text without its delimiters.  '<' opens an IRI only when '>'
# comes before any whitespace, else it is an operator.  The IRI is "iri"
# when it is ASCII and well formed, its characters a class sre reads by one
# table lookup each, else "raw_iri", for its constructor to check.  A
# "name" is a keyword, 'a', or with a colon a prefixed name.  "bad" takes
# any other character, so from the first token on the matches cover the
# text.
_TOKEN_RE = re.compile(
    rf"(?:<(?P<iri>{_SCHEME}[!#-;=?-\[\]_a-z~\x7f]*)>"
    r"|<(?P<raw_iri>[^>\s]*)>"
    r"|\?(?P<var>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_\-]*(?::(?:[A-Za-z0-9_][A-Za-z0-9_\-]*)?)?)"
    r"|(?P<op>[{}().;=]|[<>]=?|\^\^)"
    f'|"(?P<string>{_STRING_BODY})"'
    r"|(?P<int>\d+)"
    f"|@(?P<lang>{_LANG})"
    r"|(?P<bad>.))\s*",
    re.S,
)
_RDF_TYPE = IRI(RDF_TYPE)


def _iri_of(value: str) -> IRI:
    """The IRI value spells, known to be well formed: built without the
    constructor's checks, as rdf._build_term builds one."""
    iri = object.__new__(IRI)
    iri.__dict__["value"] = value
    return iri


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


def _rare_token(text: str, kind: str, value: str, start: int) -> tuple[str, object]:
    """The kind and value of a malformed IRI, a string or an integer token
    at text[start]; any other token raises QueryParseError there."""
    if kind == "raw_iri":
        return "iri", value
    if kind == "string":
        return kind, _unescape(value)
    if kind == "int":
        return kind, int(value)
    raise QueryParseError(_bad_token(text, start), start)


def _tokens(text: str) -> list[tuple]:
    """The tokens of a query as (kind, value, offset), the last of kind
    "eof"; a bad one raises QueryParseError at its start (an unknown
    identifier, at its end).  An operator's, a keyword's (lower-cased) and
    'a''s kind is the word itself.  An IRI is of kind "iri", its value the
    IRI when the token is known well formed, else the text between its
    brackets, for _iri to check."""
    out = []
    append = out.append
    for m in _TOKEN_RE.finditer(text, len(text) - len(text.lstrip())):
        kind = m.lastgroup
        value = m[kind]
        if kind == "name":
            if ":" in value:
                kind, value = "pname", value.split(":")
            elif value == "a":
                kind = value
            else:
                kind = value.lower()
                if kind not in _KEYWORDS:
                    raise QueryParseError(f"unexpected identifier {value!r}", m.end("name"))
        elif kind == "op":
            kind = value
        elif kind == "iri":
            value = _iri_of(value)
        elif kind != "var" and kind != "lang":
            kind, value = _rare_token(text, kind, value, m.start())
        append((kind, value, m.start()))
    append(("eof", None, len(text)))
    return out


def _fail(message: str, tok: tuple):
    raise QueryParseError(message, tok[2])


def _expect(toks: list[tuple], i: int, *kinds) -> int:
    """The index after toks[i:], checked to be of the kinds given in turn."""
    for kind in kinds:
        if toks[i][0] != kind:
            _fail(f"expected {kind.upper() if kind in _KEYWORDS else repr(kind)}", toks[i])
        i += 1
    return i


def _iri(tok: tuple) -> IRI:
    """The IRI of an iri token; a malformed one raises at the token."""
    if type(tok[1]) is IRI:
        return tok[1]
    try:
        return IRI(tok[1])
    except MalformedTermError as exc:
        _fail(str(exc), tok)


def _expand(tok: tuple, prefixes: dict[str, str]) -> IRI:
    prefix, local = tok[1]
    if prefix not in prefixes:
        raise UnknownPrefixError(prefix, tok[2])
    # the namespace was checked where it was declared, and a local name
    # adds no character an IRI forbids
    return _iri_of(prefixes[prefix] + local)


def _term(toks: list[tuple], i: int, prefixes: dict[str, str], position: str):
    """The term of a pattern's position that starts at toks[i], and the
    index after it."""
    kind, value, _ = tok = toks[i]
    if kind == "var":
        return Var(value), i + 1
    if kind == "iri":
        return _iri(tok), i + 1
    if kind == "pname":
        return _expand(tok, prefixes), i + 1
    if kind == "a" and position == "predicate":
        return _RDF_TYPE, i + 1
    if position != "object":
        _fail(f"expected an IRI or variable in {position} position", tok)
    if kind == "int":
        return Literal(str(value), datatype=XSD_INTEGER), i + 1
    if kind != "string":
        _fail("expected a term in object position", tok)
    datatype, language = XSD_STRING, None
    nxt = toks[i + 1]
    if nxt[0] == "^^":
        i += 2
        dt = toks[i]
        if dt[0] == "iri":
            datatype = _iri(dt).value
        elif dt[0] == "pname":
            datatype = _expand(dt, prefixes).value
        else:
            _fail("expected a datatype IRI after '^^'", dt)
    elif nxt[0] == "lang":
        i += 1
        language = nxt[1]
    try:
        return Literal(value, datatype, language), i + 1
    except MalformedTermError as exc:  # a lone surrogate
        _fail(str(exc), tok)


def _count(toks: list[tuple], i: int, *after) -> int:
    """The index after an opening '( COUNT ( ?v )' that starts at toks[i],
    and the kinds given after it."""
    return _expect(toks, i, "(", "count", "(", "var", ")", *after)


def _check(ast: QueryAST) -> None:
    """The checks of a whole query; the first that fails raises at offset 0."""

    def fail(message: str):
        raise QueryParseError(message, 0)

    select = ast.select
    if not select:
        fail("SELECT needs at least one item")
    if not ast.where:
        fail("WHERE needs at least one pattern")
    in_patterns = {part.name for pat in ast.where for part in (pat.s, pat.p, pat.o) if type(part) is Var}
    plain = [item.name for item in select if type(item) is Var]
    aggs = [item for item in select if type(item) is CountAgg] if len(plain) < len(select) else ()
    projected = set(plain)
    if aggs:
        projected.update([a.alias for a in aggs])
    if len(projected) != len(select):
        fail("duplicate name in SELECT")
    grouped = {v.name for v in ast.group_by} if ast.group_by else ()
    for name in plain:
        if name not in in_patterns:
            fail(f"projected variable ?{name} never appears in WHERE")
        if grouped and name not in grouped:
            fail(f"projected variable ?{name} is not grouped")
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
    """Parse a query; raises QueryParseError (with offset) on any defect.

    The tokens are read by index, each checked where the grammar expects it."""
    toks = _tokens(text)
    ast = QueryAST()
    prefixes = ast.prefixes
    i = 0
    while toks[i][0] == "prefix":
        tok = toks[i + 1]
        if tok[0] != "pname" or tok[1][1]:
            _fail("expected a 'name:' prefix declaration", tok)
        i = _expect(toks, i + 2, "iri")
        prefixes[tok[1][0]] = _iri(toks[i - 1]).value
    i = _expect(toks, i, "select")
    select = ast.select
    while toks[i][0] != "where":
        kind, value, _ = tok = toks[i]
        if kind == "var":
            select.append(Var(value))
            i += 1
        elif kind == "(":
            i = _count(toks, i, "as", "var", ")")
            select.append(CountAgg(Var(toks[i - 5][1]), toks[i - 2][1]))  # ( COUNT ( ?v ) AS ?a )
        else:
            _fail("expected a variable, an aggregate, or WHERE", tok)
    i = _expect(toks, i + 1, "{")
    where = ast.where
    while toks[i][0] != "}":
        s, i = _term(toks, i, prefixes, "subject")
        p, i = _term(toks, i, prefixes, "predicate")
        o, i = _term(toks, i, prefixes, "object")
        where.append(TriplePattern(s, p, o))
        if toks[i][0] == ".":
            i += 1
    i += 1
    if toks[i][0] == "group":
        i = _expect(toks, i + 1, "by")
        while toks[i][0] == "var":
            ast.group_by.append(Var(toks[i][1]))
            i += 1
        if not ast.group_by:
            _fail("GROUP BY needs at least one variable", toks[i])
    if toks[i][0] == "having":
        i = _count(toks, i + 1)
        if toks[i][0] not in _OPS:
            _fail("expected a comparison operator", toks[i])
        i = _expect(toks, i + 1, "int", ")")
        ast.having = Having(Var(toks[i - 5][1]), toks[i - 3][0], toks[i - 2][1])  # ( COUNT ( ?v ) op n )
    if toks[i][0] == "order":
        i = _expect(toks, i + 1, "by")
        if toks[i][0] not in ("asc", "desc"):
            _fail("expected ASC(...) or DESC(...)", toks[i])
        i = _expect(toks, i + 1, "(", "var", ")")
        ast.order_by = (toks[i - 2][1], toks[i - 4][0].upper())  # ASC|DESC ( ?v )
    if toks[i][0] == "limit":
        i = _expect(toks, i + 1, "int")
        ast.limit = toks[i - 1][1]
    if toks[i][0] != "eof":
        _fail("unexpected trailing content", toks[i])
    _check(ast)
    return ast


_EMPTY: dict = {}  # the entry of a key an index lacks; never written


def _join(graph: Graph, patterns: list[TriplePattern]) -> tuple[dict[str, list[int]], int]:
    """Join the patterns over term ids, a column at a time.

    Returns the solutions as columns, one list of ids per variable, and
    their count, the length of every column.  A constant is its id and
    takes no column; one the graph does not hold leaves no solutions and
    is not interned.  The next pattern is the one with the most bound
    positions, then the most constants.

    Each step reads its pattern by one of four access paths.  The map
    read, when the object or the subject is the one free position and the
    predicate p is a constant, looks up every solution's leaf at once in
    one dict of p's (_map_read): _pos[p], keyed by object, when the
    subject is free; when the object is free, p's subject map
    (_subject_map), but only in a query whose first step scanned a whole
    _pos entry, so a point query never pays the map's O(|p|) build.  The
    leaf read, when the object or the subject is the one free position
    otherwise, looks up the index leaf that holds it (_spo[s][p] or
    _pos[p][o]) for every solution at once, with map (_leaf_read).  The
    entry scan, for a first pattern with two distinct free variables
    beside a constant predicate or subject, fills both columns from one
    index entry, _pos[p] or _spo[s] (_entry_scan).  Any other pattern, a
    free predicate included, goes through Graph._rows for each solution
    (_scan).  A step lists the solution each new row extends and gathers
    the older columns by that list, unless every solution got exactly one
    id.  A first step with one free position has no older column: it
    reads its one index leaf, and the leaf's ids are the new column.
    """
    # a variable is its name, a constant its id
    ids = graph._id
    remaining = [[part.name if type(part) is Var else ids(part) for part in (pat.s, pat.p, pat.o)] for pat in patterns]
    n = 0 if None in chain.from_iterable(remaining) else 1
    columns: dict[str, list[int]] = {}
    whole = False  # whether the first step scanned a whole _pos entry
    while remaining and n:
        refs = remaining.pop() if len(remaining) == 1 else _next_pattern(remaining, columns)
        free = [pos for pos, r in enumerate(refs) if type(r) is str and r not in columns]
        first = free[0] if not columns and len(free) == 2 and free[1] == 2 else 2
        if first < 2 and refs[first] != refs[2]:
            index, key, by_key, by_leaf = _ENTRY_OF[first]
            columns[refs[by_key]], columns[refs[by_leaf]] = _entry_scan(getattr(graph, index).get(refs[key], _EMPTY))
            n = len(columns[refs[2]])
            whole = index == "_pos"
            continue
        keys = [columns[r] if r in columns else repeat(r if type(r) is int else None, n) for r in refs]
        if len(free) == 1 and free[0] != 1:
            p = refs[1]
            if not columns:  # the first step: its one solution's leaf is the new column
                index, a, b = _LEAF_OF[free[0]]
                leaf = getattr(graph, index).get(refs[a], _EMPTY).get(refs[b], ())
                column, at = ([leaf] if type(leaf) is int else list(leaf)), None
                n = len(column)
            elif type(p) is int and free[0] == 0:
                column, at = _map_read(graph._pos.get(p, _EMPTY), keys[2], n)
            elif type(p) is int and whole:
                column, at = _map_read(_subject_map(graph, p), keys[0], n)
            else:
                index, a, b = _LEAF_OF[free[0]]
                column, at = _leaf_read(getattr(graph, index), keys[a], keys[b], n)
            new = {refs[free[0]]: column}
        else:
            new, at = _scan(graph._rows, refs, free, keys)
        if at is not None:
            columns = {name: list(map(column.__getitem__, at)) for name, column in columns.items()}
            n = len(at)
        columns.update(new)
    if n:
        return columns, n
    return {part.name: () for pat in patterns for part in (pat.s, pat.p, pat.o) if type(part) is Var}, 0


# a free position -> the index whose leaves hold it, and the positions of
# that index's two keys
_LEAF_OF = {2: ("_spo", 0, 1), 0: ("_pos", 1, 2)}
# the first of two free positions, the other the object -> the index whose
# entry holds both, the position of the entry's key, and the positions its
# keys and its leaves' ids fill
_ENTRY_OF = {0: ("_pos", 1, 2, 0), 1: ("_spo", 0, 1, 2)}


def _next_pattern(remaining: list[list], columns: dict) -> list:
    """Remove and return the pattern with the most bound positions, then
    the most constants; a tie goes to the one written first."""

    def score(refs: list) -> tuple[int, int]:
        consts = sum(type(r) is int for r in refs)
        return (consts + sum(r in columns for r in refs), consts)

    refs = max(remaining, key=score)
    remaining.remove(refs)
    return refs


# The subject maps of the last graph a whole-graph query ran on: a weak
# reference to that graph, its size when the maps were built, and
# predicate id -> that predicate's subject map.  None when there is none.
_memo: Optional[tuple[weakref.ref, int, dict[int, dict]]] = None


def _subject_map(graph: Graph, p: int) -> dict:
    """Predicate p's subject -> leaf map: for each subject s, _spo[s][p].

    Built from _pos[p] on first use (_build_subject_map) and memoized in
    _memo.  The maps live while queries run on this graph at this size: a
    query on another graph, or on this one after a triple was added (a
    graph only grows, so its size tells), starts a new memo, and the memo
    is dropped when its graph is freed.
    """
    global _memo
    memo = _memo
    if memo is None or memo[0]() is not graph or memo[1] != len(graph):
        memo = _memo = (weakref.ref(graph, _forget), len(graph), {})
    maps = memo[2]
    found = maps.get(p)
    if found is None:
        found = maps[p] = _build_subject_map(graph._spo, p, graph._pos.get(p, _EMPTY))
    return found


def _forget(ref: weakref.ref) -> None:
    """Drop the memo when the graph it was built for is freed."""
    global _memo
    if _memo is not None and _memo[0] is ref:
        _memo = None


def _build_subject_map(spo: dict, p: int, entry: dict) -> dict:
    """Predicate p's subject -> leaf map, inverted from its POS entry: a
    subject's one object as an int, and its SPO leaf, the set, where it
    has several."""
    objects, subjects = _entry_scan(entry)
    found = dict(zip(subjects, objects))
    if len(found) < len(subjects):
        # a subject's first and last object differ exactly when it has several
        firsts = dict(zip(reversed(subjects), reversed(objects)))
        several = list(compress(found, map(ne, found.values(), map(firsts.__getitem__, found))))
        found.update(zip(several, map(itemgetter(p), map(spo.__getitem__, several))))
    return found


def _entry_scan(entry: dict) -> tuple[list[int], list[int]]:
    """Two columns from one index entry: each key once per id of its leaf,
    and those ids.  When every leaf is one id, they are the entry's keys and
    values as they are."""
    leaves = list(entry.values())
    if set not in set(map(type, leaves)):
        return list(entry), leaves
    keys: list[int] = []
    ids: list[int] = []
    for key, leaf in zip(entry, leaves):
        if type(leaf) is int:
            keys.append(key)
            ids.append(leaf)
        else:
            keys.extend(repeat(key, len(leaf)))
            ids.extend(leaf)
    return keys, ids


def _leaf_read(
    index: dict, a_keys: Iterable[int], b_keys: Iterable[int], n: int
) -> tuple[list[int], Optional[list[int]]]:
    """Each solution's ids in its index leaf index[a][b], and the solution
    each id extends, as _gather gives them."""
    return _gather(list(map(dict.get, map(index.get, a_keys, repeat(_EMPTY, n)), b_keys)), n)


def _map_read(leaf_of: dict, keys: Iterable[int], n: int) -> tuple[list[int], Optional[list[int]]]:
    """Each solution's ids in its leaf leaf_of[key], one predicate's map,
    and the solution each id extends, as _gather gives them."""
    return _gather(list(map(leaf_of.get, keys)), n)


def _gather(leaves: list, n: int) -> tuple[list[int], Optional[list[int]]]:
    """The ids of n solutions' leaves (an int, a set or None each), and the
    solution each id extends; None in place of that list when every
    solution got exactly one id.  The one-id leaves are taken at once, with
    compress, and only the set leaves are walked one by one."""
    kinds = set(map(type, leaves))
    if kinds == {int}:  # one id each, the common case
        return leaves, None
    types = list(map(type, leaves))
    ones = list(map(is_, types, repeat(int)))
    new = list(compress(leaves, ones))
    at = list(compress(range(n), ones))
    if set in kinds:
        for i, leaf in compress(enumerate(leaves), map(is_, types, repeat(set))):
            new.extend(leaf)
            at.extend(repeat(i, len(leaf)))
    return new, at


def _scan(
    rows_of, refs: list, free: list[int], keys: list[Iterable]
) -> tuple[dict[str, list[int]], list[int]]:
    """The id triples Graph._rows gives for each solution's probe keys: a
    new column for each free variable, and the solution each row extends."""
    first: dict[str, int] = {}  # variable -> the position it is read from
    same: list[tuple[int, int]] = []  # (position, first position) of a repeated one
    for pos in free:
        if first.setdefault(refs[pos], pos) != pos:
            same.append((pos, first[refs[pos]]))
    new = {name: [] for name in first}
    reads = [(pos, new[name]) for name, pos in first.items()]
    at: list[int] = []
    for i, probe in enumerate(zip(*keys)):
        for row in rows_of(*probe):
            if same and any(row[a] != row[b] for a, b in same):
                continue
            for pos, column in reads:
                column.append(row[pos])
            at.append(i)
    return new, at


_FIRST = itemgetter(0)
_OPS = {">": gt, ">=": ge, "<": lt, "<=": le, "=": eq}


def evaluate(graph: Graph, ast: QueryAST) -> ResultTable:
    """Evaluate over the graph; results come back deterministically ordered.

    Rows sort by their cells in header order, then stably by the ORDER BY
    key, then LIMIT applies.  A column holds only counts or only terms, and
    terms order by their canonical N-Triples text.  The table holds each
    row's tokens and counts; Terms are built only for the cells a query
    returns, when its rows are first read.
    """
    select = ast.select
    header = [f"?{item.name}" if type(item) is Var else f"?{item.alias}" for item in select]
    counted = [type(item) is CountAgg for item in select]
    columns, n = _join(graph, ast.where)
    tokens = graph._tokens
    by_first = None  # the sort key, when the first cell alone orders the rows
    if ast.group_by or True in counted:
        # ids are one-to-one with terms, so id tuples group like terms
        keys = [columns[v.name] for v in ast.group_by]
        groups = Counter(zip(*keys) if keys else repeat((), n))
        group_keys = list(groups)
        counts = list(groups.values())
        having = ast.having
        if having is not None:
            kept = list(map(_OPS[having.op], counts, repeat(having.value)))
            group_keys = list(compress(group_keys, kept))
            counts = list(compress(counts, kept))
        # a projected variable is grouped, so its id is in the group key
        at = {v.name: i for i, v in enumerate(ast.group_by)}
        cells = list(zip(*(
            counts if c else map(tokens.__getitem__, map(itemgetter(at[item.name]), group_keys))
            for item, c in zip(select, counted)
        )))
    else:
        # rows of one type, tuples, so list.sort compares them in C
        cells = list(zip(*[map(tokens.__getitem__, columns[item.name]) for item in select]))
        if len(set(columns[select[0].name])) == n:
            # ids are one-to-one with tokens: no two rows tie on the first cell
            by_first = _FIRST

    # a column holds only tokens or only counts, so rows compare cell by cell
    cells.sort(key=by_first)
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
