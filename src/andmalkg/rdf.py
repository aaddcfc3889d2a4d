"""In-memory RDF triple store with N-Triples and Turtle serialization.

Terms are immutable.  A Graph is dictionary-encoded: each distinct term
is named by its canonical N-Triples token (the spelling serialize_ntriples
writes) and stored once, under an int id; the SPO and POS indexes
(subject- and predicate-keyed) hold ids only, and are the only copy of
the triples.  A pattern with any bound position is answered from an
index instead of a full scan (see Graph._rows), a whole-graph walk reads
SPO, and the serializers sort by the tokens.  Ids are private: equality,
matching and output depend on the terms alone, never on insertion order.

A term's token is its identity: one dict maps each token to its id, and
a token is checked once, when it enters the graph.  Other legal
spellings the parser meets (escapes, an explicit ^^xsd:string) stay in
that dict as aliases of the canonical token.  A Term object is built
from its token only when asked for (Graph._term), without re-running
the checks, so code that needs only the text of a term (the
serializers, the validator, stats, query results) never builds one.

The id interface is Graph._id (term -> id), Graph._intern_token (token
-> id), Graph._add (id triple), Graph._rows (id-level pattern lookup),
Graph._walk (every id triple), Graph._spo, Graph._tokens (id -> token),
Graph._term (id -> term) and _literal_parts (a literal token's fields).
Four modules use it: query (the join), ingest (report rows go in as
tokens, and ingest_file writes a graph file's new lines with Graph._walk
and _ntriples_lines), schema (the validator walks a subject's SPO entry,
reading leaves with _each) and cli (stats).  No other module uses ids.

parse_ntriples reads lines in the canonical form the serializer writes
with one regular expression each, mapping tokens it has seen straight to
their ids; a new token is checked by _CHECKED_TOKEN_RE, and one that
regex rejects is built into a term by its constructor, which checks it in
full and so raises the same errors as ever.  Any other line
(comments, blank nodes, escapes, language tags, other spacing) is read by
_NT_LINE, the full N-Triples line grammar; where it stops short, the
line's first defect is named with its line number.  Every spelling of a
term gets the same id.
The parse runs with the cyclic garbage collector suspended: it builds
only acyclic containers, so a collection could free nothing.  The CLI
keeps the collector suspended until it has frozen the loaded graph
(gc.freeze), so no later collection walks it.

_is_canonical and load_subjects let ingest.ingest_file grow a graph file
without loading all of it.  _is_canonical says whether a file's lines are
already what serialize_ntriples writes: each line matches one strict
regular expression (IRIs and plain or datatyped literals without escapes,
single spaces, " ." and a newline) and the lines strictly increase.
ingest_file parses and re-serializes any other text, so it raises the
parse's error at the parse's line.  load_subjects finds, by bisection on
"TOKEN ", the lines of some subjects and the rdf:type lines of their
objects, and loads only those.

dump_snapshot and load_snapshot own the snapshot format: the marshalled
state parse_ntriples builds (_tokens, _ids with its aliases, the triple
count, _spo, _pos) under a header that records the stat stamp of the
graph file it was parsed from (_stamp) and the payload's CRC-32, so only
this module knows what the stamp holds and when it is trusted.  A
snapshot loads only when the file's stamp is the recorded one and older
than the snapshot; then it is several times faster than the parse and
yields an equal graph with the same ids.  One whose stamp is not trusted,
or that does not match its CRC or its shape, loads nothing, and the
caller parses instead.  Where a snapshot file lives is the CLI's
concern.

_decoded and _replace_file, which read and write every command's files,
live here because read commands import neither ingest nor schema.

A Graph supports one writer or many concurrent readers, never both;
serialization and matching are read-only.
"""

from __future__ import annotations

import gc
import marshal
import os
import re
import stat
import sys
import zlib
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .errors import AndMalKgError, MalformedTermError, NTriplesParseError
from .ns import PREFIXES, RDF_TYPE, XSD_STRING

# The term grammar, spelled once: every term check, token regex and
# scanner in the package is built from these fragments.  A blank node label
# may not end in '.' (the N-Triples BLANK_NODE_LABEL).  No term holds a lone
# surrogate (U+D800-U+DFFF), which UTF-8 cannot encode.
_SCHEME = r"[A-Za-z][A-Za-z0-9+.\-]*:"
_SURROGATES = r"\ud800-\udfff"  # the body of a character class
_IRI_FORBIDDEN = r'\x00-\x20<>"{}|^`\\' + _SURROGATES  # likewise
_LANG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_BLANK_LABEL = r"[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?"
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


class _Lazy:
    """A regular expression compiled when first used; the first lookup of
    a method of the compiled pattern keeps that method on the instance.
    The four token regexes with the surrogate range in a character class
    are slow to compile, and a command that loads a snapshot uses none of
    them."""

    def __init__(self, pattern: str):
        self.pattern = pattern

    def __getattr__(self, name: str):
        method = getattr(re.compile(self.pattern), name)
        setattr(self, name, method)
        return method


_SCHEME_RE = re.compile(_SCHEME)
_IRI_FORBIDDEN_RE = _Lazy(f"[{_IRI_FORBIDDEN}]")
_LANG_TAG_RE = re.compile(_LANG)
_BLANK_LABEL_RE = re.compile(_BLANK_LABEL)
_SURROGATE_RE = _Lazy(f"[{_SURROGATES}]")
# One escape: a character of _UNESCAPES, or a code point in hex that is not
# a surrogate.
_ESCAPE = (
    r"\\(?:[" + re.escape("".join(_UNESCAPES)) + r"]"
    r"|u(?![Dd][89A-Fa-f])[0-9A-Fa-f]{4}"
    r"|U00(?!00[Dd][89A-Fa-f])(?:0[0-9A-Fa-f]|10)[0-9A-Fa-f]{4})"
)
_ESCAPE_RE = re.compile(_ESCAPE)
# The text between a literal's quotes.
_LITERAL_BODY = rf'[^"\\]*(?:{_ESCAPE}[^"\\]*)*'


def _unescape(body: str) -> str:
    """The text a literal's or a query string's body spells."""
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(lambda e: _UNESCAPES.get(e[0][1:]) or chr(int(e[0][2:], 16)), body)


@dataclass(frozen=True)
class IRI:
    value: str

    def __post_init__(self):
        if not _SCHEME_RE.match(self.value):
            raise MalformedTermError(f"not an absolute IRI (missing scheme): {self.value!r}")
        if _IRI_FORBIDDEN_RE.search(self.value):
            raise MalformedTermError(f"IRI contains forbidden character: {self.value!r}")

    def __repr__(self):
        return f"IRI({self.value!r})"


@dataclass(frozen=True)
class Literal:
    lexical: str
    datatype: str = XSD_STRING
    language: Optional[str] = None

    def __post_init__(self):
        if self.datatype != XSD_STRING:
            IRI(self.datatype)  # checked first, as a parse reads it; no IRI holds a surrogate
        if _SURROGATE_RE.search(self.lexical):
            raise MalformedTermError(f"literal holds a lone surrogate: {self!r}")
        if self.language is not None:
            if not _LANG_TAG_RE.fullmatch(self.language):
                raise MalformedTermError(f"bad language tag: {self.language!r}")
            # the N-Triples form of a tagged literal has no room for a datatype
            if self.datatype != XSD_STRING:
                raise MalformedTermError(
                    f"a literal with a language tag cannot have datatype {self.datatype!r}"
                )

    def __repr__(self):
        if self.language:
            return f"Literal({self.lexical!r}, lang={self.language!r})"
        if self.datatype != XSD_STRING:
            return f"Literal({self.lexical!r}, datatype={self.datatype!r})"
        return f"Literal({self.lexical!r})"


@dataclass(frozen=True)
class BlankNode:
    label: str

    def __post_init__(self):
        if not _BLANK_LABEL_RE.fullmatch(self.label):
            raise MalformedTermError(f"bad blank node label: {self.label!r}")

    def __repr__(self):
        return f"BlankNode({self.label!r})"


Term = Union[IRI, Literal, BlankNode]

_ESCAPES = str.maketrans({char: "\\" + code for code, char in _UNESCAPES.items()})
# Any character _ESCAPES rewrites: most literals hold none, and a search is
# several times cheaper than a translate that changes nothing.
_ESCAPED_RE = re.compile(f"[{re.escape(''.join(_UNESCAPES.values()))}]")


def _literal_token(lexical: str, datatype: str = XSD_STRING, language: Optional[str] = None) -> str:
    """The canonical N-Triples token of a literal."""
    out = f'"{lexical.translate(_ESCAPES) if _ESCAPED_RE.search(lexical) else lexical}"'
    if language:
        return f"{out}@{language}"
    if datatype != XSD_STRING:
        return f"{out}^^<{datatype}>"
    return out


def term_to_ntriples(term: Term) -> str:
    """Render one term in N-Triples lexical form."""
    if isinstance(term, IRI):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        return _literal_token(term.lexical, term.datatype, term.language)
    raise MalformedTermError(f"not an RDF term: {term!r}")


@dataclass(frozen=True)
class Triple:
    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self):
        if not isinstance(self.subject, (IRI, BlankNode)):
            raise MalformedTermError(f"subject must be an IRI or blank node: {self.subject!r}")
        if not isinstance(self.predicate, IRI):
            raise MalformedTermError(f"predicate must be an IRI: {self.predicate!r}")
        if not isinstance(self.object, (IRI, BlankNode, Literal)):
            raise MalformedTermError(f"object is not an RDF term: {self.object!r}")


_IRI_TOKEN = f"<{_SCHEME}[^{_IRI_FORBIDDEN}]*>"
# A token this regex accepts is canonical and passes the IRI and Literal
# constructor checks: an IRI, or a literal without escapes, raw tab, CR,
# newline or surrogate, language tag or explicit ^^xsd:string, whose
# datatype is an IRI.
_CHECKED_TOKEN_RE = _Lazy(
    _IRI_TOKEN + r'|"[^"\\\t\r\n' + _SURROGATES + r']*"'
    r"(?:\^\^(?!<" + re.escape(XSD_STRING) + ">)" + _IRI_TOKEN + ")?"
)
# A literal token: its body, then its datatype or language, if any.
_LITERAL_RE = re.compile(f'"({_LITERAL_BODY})"(?:\\^\\^<([^>]*)>|@({_LANG}))?')


def _literal_parts(token: str) -> tuple[str, str, Optional[str]]:
    """(lexical, datatype, language) of a literal token."""
    if token[-1] == '"' and "\\" not in token:  # the common plain literal
        return token[1:-1], XSD_STRING, None
    if "\\" in token:
        body, datatype, language = _LITERAL_RE.fullmatch(token).groups()
        return _unescape(body), XSD_STRING if datatype is None else datatype, language
    close = token.index('"', 1)
    if token[close + 1] == "@":
        return token[1:close], XSD_STRING, token[close + 2 :]
    return token[1:close], token[close + 4 : -1], None  # suffix is ^^<datatype>


def _build_term(token: str) -> Term:
    """The term a canonical token of a graph spells.  Every token was
    checked when it entered the graph, so the constructor's checks are
    skipped: object.__new__ and stores into __dict__ bypass the frozen
    dataclass's __init__ and __post_init__."""
    if token[0] == "<":
        term = object.__new__(IRI)
        term.__dict__["value"] = token[1:-1]
    elif token[0] == "_":
        term = object.__new__(BlankNode)
        term.__dict__["label"] = token[2:]
    else:
        term = object.__new__(Literal)
        fields = term.__dict__
        fields["lexical"], fields["datatype"], fields["language"] = _literal_parts(token)
    return term


def _checked_term(token: str) -> Term:
    """The term an IRI or literal token spells, built and checked by its
    constructor (a literal may use the escapes serialize_ntriples writes)."""
    if token[0] == "<":
        return IRI(token[1:-1])
    return Literal(*_literal_parts(token))


# An index maps id a -> id b -> the ids c completing (a, b).  Most (a, b)
# pairs have one c, so a leaf holds a lone id as a bare int and becomes a
# set at its second id: far less memory, and fewer objects for the cyclic
# garbage collector to walk.
_Leaf = Union[int, set[int]]
_Index = dict[int, dict[int, _Leaf]]


def _index(index: _Index, a: int, b: int, c: int) -> bool:
    """Add c under (a, b); True when it was there already."""
    inner = index.get(a)
    if inner is None:
        index[a] = {b: c}
        return False
    leaf = inner.get(b)
    if leaf is None:
        inner[b] = c
    elif type(leaf) is int:
        if leaf == c:
            return True
        inner[b] = {leaf, c}
    elif c in leaf:
        return True
    else:
        leaf.add(c)
    return False


def _each(leaf: _Leaf) -> Iterable[int]:
    return (leaf,) if type(leaf) is int else leaf


def _leaf(index: _Index, a: int, b: int) -> Iterable[int]:
    inner = index.get(a)
    leaf = None if inner is None else inner.get(b)
    return () if leaf is None else _each(leaf)


class _Memo(dict):
    """A dict that fills a missing key k with fn(k) on its first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class Graph:
    """A set of triples, held in SPO and POS indexes.

    Every distinct term is stored once, named by its canonical N-Triples
    token and numbered by an int id; the indexes hold ids only.  Two
    graphs compare equal when they hold the same triples, whatever ids
    their terms got.
    """

    def __init__(self):
        self._tokens: list[str] = []  # id -> canonical N-Triples token
        self._ids: dict[str, int] = {}  # canonical token or another spelling -> id
        self._size = 0  # the number of triples
        self._spo: _Index = {}
        self._pos: _Index = {}

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Triple]:
        term = self._term
        return (Triple(term(s), term(p), term(o)) for s, p, o in self._walk())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._size != other._size:
            return False
        # distinct terms have distinct tokens, so this id map is one-to-one
        theirs = [other._ids.get(token) for token in self._tokens]
        spo = other._spo
        return all(theirs[o] in _leaf(spo, theirs[s], theirs[p]) for s, p, o in self._walk())

    def _id(self, term: Term) -> Optional[int]:
        """The term's id, or None when no triple of this graph uses it (or
        it is not a term at all)."""
        try:
            return self._ids.get(term_to_ntriples(term))
        except MalformedTermError:
            return None

    def _term(self, i: int) -> Term:
        """The term with id i, built from its token."""
        return _build_term(self._tokens[i])

    def _new(self, token: str) -> int:
        i = len(self._tokens)
        self._ids[token] = i
        self._tokens.append(token)
        return i

    def _intern(self, term: Term) -> int:
        token = term_to_ntriples(term)
        i = self._ids.get(token)
        return self._new(token) if i is None else i

    def _intern_token(self, token: str) -> int:
        """The id of the term one IRI or literal token spells.

        A new token _CHECKED_TOKEN_RE accepts is stored as it is.  Any
        other new token is built into a term by its constructor, which
        raises MalformedTermError on a bad term, and is kept as another
        spelling of the term's canonical token.
        """
        i = self._ids.get(token)
        if i is None:
            if _CHECKED_TOKEN_RE.fullmatch(token):
                return self._new(token)
            i = self._ids[token] = self._intern(_checked_term(token))
        return i

    def _add(self, s: int, p: int, o: int) -> bool:
        if _index(self._spo, s, p, o):
            return False
        _index(self._pos, p, o, s)
        self._size += 1
        return True

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns False when it was already present."""
        if not isinstance(t, Triple):
            raise MalformedTermError(f"not a triple: {t!r}")
        return self._add(self._intern(t.subject), self._intern(t.predicate), self._intern(t.object))

    def insert_all(self, triples) -> int:
        return sum(1 for t in triples if self.insert(t))

    def _walk(self) -> Iterator[tuple[int, int, int]]:
        """Every id triple, read from SPO, in no particular order."""
        return (
            (s, p, o)
            for s, by_p in self._spo.items()
            for p, objs in by_p.items()
            for o in _each(objs)
        )

    def _rows(
        self, si: Optional[int], pi: Optional[int], oi: Optional[int]
    ) -> list[tuple[int, int, int]]:
        """Id triples matching the bound ids (None leaves a position
        unbound), in no particular order.

        Served from SPO when the subject or nothing is bound, else from
        POS.  With the object bound and the predicate not, each of the
        subject's predicates, or each predicate's POS entry, is probed for
        the object: a graph built from reports has a few dozen predicates.
        Every id passed must come from this graph.
        """
        if si is not None:
            if pi is not None:
                objs = _leaf(self._spo, si, pi)
                if oi is None:
                    return [(si, pi, obj) for obj in objs]
                return [(si, pi, oi)] if oi in objs else []
            by_p = self._spo.get(si, {})
            if oi is not None:
                return [(si, pred, oi) for pred, objs in by_p.items() if oi in _each(objs)]
            return [(si, pred, obj) for pred, objs in by_p.items() for obj in _each(objs)]
        if pi is not None:
            if oi is not None:
                return [(sub, pi, oi) for sub in _leaf(self._pos, pi, oi)]
            by_o = self._pos.get(pi, {})
            return [(sub, pi, obj) for obj, subs in by_o.items() for sub in _each(subs)]
        if oi is not None:
            return [(sub, pred, oi) for pred, by_o in self._pos.items() for sub in _each(by_o.get(oi, ()))]
        return list(self._walk())

    def match(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> list[Triple]:
        """All triples matching the bound positions, in canonical order.

        A bound term the graph does not hold matches nothing and is not
        interned.
        """
        si = pi = oi = None
        if s is not None and (si := self._id(s)) is None:
            return []
        if p is not None and (pi := self._id(p)) is None:
            return []
        if o is not None and (oi := self._id(o)) is None:
            return []
        rows = self._rows(si, pi, oi)
        tokens = self._tokens
        term = self._term
        if len(rows) > 1:  # sorted by their N-Triples text
            rows.sort(key=lambda r: (tokens[r[0]], tokens[r[1]], tokens[r[2]]))
        return [Triple(term(s), term(p), term(o)) for s, p, o in rows]


def _ntriples_lines(graph: Graph, triples: Optional[Iterable[tuple[int, int, int]]] = None) -> list[str]:
    """The canonical lines of the id triples (default: all of graph's),
    each ending in a newline, sorted.  Tokens are self-delimiting, so no
    line is a prefix of another and the newline leaves the order as it is
    without one."""
    tokens = graph._tokens
    rows = graph._walk() if triples is None else triples
    return sorted(f"{tokens[s]} {tokens[p]} {tokens[o]} .\n" for s, p, o in rows)


def serialize_ntriples(graph: Graph) -> str:
    """Canonical N-Triples: one sorted line per triple, UTF-8 text."""
    return "".join(_ntriples_lines(graph))


# One N-Triples term, with five groups: an IRI's text, or a literal's body
# and its datatype or language, or a blank node label.
_NT_TERM = f'<([^>]*)>|"({_LITERAL_BODY})"(?:\\^\\^[ \t]*<([^>]*)>|@({_LANG}))?|_:({_BLANK_LABEL})'
# A line: three terms, " ." and an optional comment, with spaces and tabs
# between.  Each part is optional after the one before, so the regex always
# matches, as far as the line is well formed, and never backtracks into a
# term it has read: each term is read greedily, left to right, as the
# grammar reads it.  Only lines off the canonical fast path use it, so it is
# compiled on first use (re caches it), not on every import.
_NT_LINE = "[ \t]*(?:(?:{0})[ \t]*(?:(?:{0})[ \t]*(?:(?:{0})[ \t]*(?:(\\.)[ \t]*(?:#.*)?)?)?)?)?".format(
    _NT_TERM
)


def _nt_line_error(line: str, pos: int, parts: int) -> str:
    """What is wrong at pos, where _NT_LINE stopped after parts parts
    (terms, then the dot) of line."""
    ch = line[pos : pos + 1]
    if line[pos - 1 : pos] == '"':  # right after a literal's closing quote
        if line.startswith("^^", pos):
            after = line[pos + 2 :].lstrip(" \t")
            return "unterminated IRI" if after[:1] == "<" else "expected datatype IRI after '^^'"
        if ch == "@":
            return "bad language tag"
    if parts == 4:
        return "unexpected trailing content after '.'"
    if parts == 3:
        return "missing terminating '.'"
    if not ch:
        return "unexpected end of line, expected a term"
    if ch == "<":
        return "unterminated IRI"
    if ch == "_":
        return "bad blank node label" if line.startswith("_:", pos) else "expected '_:' blank node"
    if ch != '"':
        return f"expected IRI, literal, or blank node at column {pos + 1}"
    end = re.compile(_LITERAL_BODY).match(line, pos + 1).end()
    if end == len(line):
        return "unterminated literal"
    escape = line[end + 1 : end + 2]  # the body stopped at a backslash
    if not escape:
        return "unterminated escape in literal"
    if escape in "uU":
        return f"bad \\{escape} escape in literal"
    return f"unknown escape '\\{escape}' in literal"


def _scan_line(line: str, lineno: int) -> Triple:
    """The triple of one N-Triples line that is not blank or a comment.
    Its terms are built in line order, so the first bad IRI raises; else
    the line's first defect, read from the left, raises NTriplesParseError."""
    m = re.match(_NT_LINE, line)
    groups = m.groups()
    terms: list[Term] = []
    try:
        for k in range(0, 15, 5):
            iri, body, datatype, language, label = groups[k : k + 5]
            if iri is not None:
                terms.append(IRI(iri))
            elif body is not None:
                dt = XSD_STRING if datatype is None else datatype
                terms.append(Literal(_unescape(body), dt, language))
            elif label is not None:
                terms.append(BlankNode(label))
        parts = len(terms) + (groups[15] is not None)
        if parts < 4 or m.end() < len(line):
            raise NTriplesParseError(_nt_line_error(line, m.end(), parts), lineno)
        return Triple(*terms)
    except MalformedTermError as exc:
        raise NTriplesParseError(str(exc), lineno) from exc


# Two expressions for one line form, because their jobs cost differently:
# the parse checks only a new token, ingest checks every token of every
# line.  On the 51,011 lines of the seed-5 1,500-report benchmark graph
# (2-CPU VM, Python 3.11, best of 7), _CANONICAL_LINE_RE takes 28 ms and
# _STRICT_LINE_RE 83 to 116 ms: one expression would slow every parse.

# A line as serialize_ntriples writes it when no term needs an escape, a
# language tag or a blank node: single spaces between the three tokens,
# then " .".  Each group is one whole token; Graph._intern_token checks a
# new one.
_CANONICAL_LINE_RE = re.compile(r'(<[^>]*>) (<[^>]*>) (<[^>]*>|"[^"\\]*"(?:\^\^<[^>]*>)?) \.')

# A line exactly as serialize_ntriples writes it, newline included, when no
# term needs an escape, a language tag or a blank node.  Every token of a
# line it accepts passes the term constructors' checks.
_STRICT_LINE_RE = _Lazy(f"{_IRI_TOKEN} {_IRI_TOKEN} (?:{_CHECKED_TOKEN_RE.pattern}) \\.\n")


class _collector_paused:
    """A with block that suspends the cyclic garbage collector and leaves
    it as it was found.  Leaving allocates nothing, so no collection can
    start before the code after the block runs."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.enabled:
            gc.enable()


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples text (with '#' comments and blank lines) into a Graph.
    Only a newline ends a line: a caller reading a file reads CRLF and a
    lone CR as a newline first, as the CLI does.

    Lines in the canonical form this module writes take a fast path: each
    token already seen maps straight to its id, and only a new token is
    checked.  Any other line is read by the full line grammar (_scan_line).
    Every spelling of a term gets the same id.  The cyclic garbage
    collector is suspended while parsing and left as it was found.
    """
    with _collector_paused():
        graph = Graph()
        token_ids = graph._ids
        intern = graph._intern_token
        canonical = _CANONICAL_LINE_RE.fullmatch
        add = graph._add
        for lineno, raw in enumerate(text.split("\n"), start=1):
            m = canonical(raw)
            if m is not None:
                s_token, p_token, o_token = m.groups()
                s = token_ids.get(s_token)
                p = token_ids.get(p_token)
                o = token_ids.get(o_token)
                try:
                    if s is None:
                        s = intern(s_token)
                    if p is None:
                        p = intern(p_token)
                    if o is None:
                        o = intern(o_token)
                except MalformedTermError as exc:
                    raise NTriplesParseError(str(exc), lineno) from exc
                add(s, p, o)
                continue
            stripped = raw.strip()
            if stripped and stripped[0] != "#":
                graph.insert(_scan_line(raw, lineno))
        return graph


def _is_canonical(lines: list[str]) -> bool:
    """Whether every line is strict (_STRICT_LINE_RE) and they strictly
    increase: then the lines are those serialize_ntriples writes."""
    strict = _STRICT_LINE_RE.fullmatch
    return all(map(strict, lines)) and all(map(str.__lt__, lines, islice(lines, 1, None)))


_TYPE_TOKEN = f"<{RDF_TYPE}>"


def load_subjects(lines: list[str], subjects: Iterable[str]) -> Graph:
    """The graph of the lines whose subject is one of the subject tokens,
    plus the rdf:type lines of every IRI or blank-node object of those
    lines: all a validation of those subjects reads.

    lines must be canonical (_is_canonical), so sorted, and their tokens
    enter the graph unchecked.  All lines of one subject start with its
    token and a space, so they are one run, found by bisection; so are a
    subject's rdf:type lines.
    """
    end = len(lines)

    def run(prefix: str) -> list[str]:
        first = last = bisect_left(lines, prefix)
        while last < end and lines[last].startswith(prefix):
            last += 1
        return lines[first:last]

    picked = [line for s in subjects for line in run(s + " ")]
    objects = {line[:-3].split(" ", 2)[2] for line in picked}
    picked += [line for o in objects if o[0] != '"' for line in run(f"{o} {_TYPE_TOKEN} ")]
    graph = Graph()
    ids = graph._ids

    def intern(token: str) -> int:
        i = ids.get(token)
        return graph._new(token) if i is None else i

    for line in picked:
        s, p, o = line[:-3].split(" ", 2)
        graph._add(intern(s), intern(p), intern(o))
    return graph


# A snapshot is one ASCII header line, then the payload: the marshalled
# state parse_ntriples builds.  The header names the format, the marshal
# version and the interpreter, because marshal data is only promised to
# load where it was written; then the stat stamp of the graph file the
# graph was parsed from (_stamp) and the CRC-32 of the payload.  The format
# number, 5, changes whenever the header's or the payload's layout does.
_SNAPSHOT_TAG = (
    f"andmalkg-snapshot 5 marshal {marshal.version} "
    f"{sys.implementation.name} {sys.version_info.major}.{sys.version_info.minor}"
)
_SNAPSHOT_SHAPE = (list, dict, int, dict, dict)


def _stamp(info: os.stat_result) -> str:
    """The stat stamp of a graph file: its device, inode, size, and
    modification and status-change times in nanoseconds.  A rename over the
    file gives it another inode, and every write, chmod or utime moves its
    ctime, which no call sets back."""
    return f"{info.st_dev}:{info.st_ino}:{info.st_size}:{info.st_mtime_ns}:{info.st_ctime_ns}"


def dump_snapshot(graph: Graph, info: os.stat_result) -> bytes:
    """A snapshot of graph, stamped with info, the os.fstat of the graph
    file taken before its bytes were read and parsed: load_snapshot turns
    it back into an equal graph, with the same tokens, aliases and ids, far
    faster than a parse.
    """
    payload = marshal.dumps((graph._tokens, graph._ids, graph._size, graph._spo, graph._pos))
    header = f"{_SNAPSHOT_TAG} {_stamp(info)} {zlib.crc32(payload):08x}\n"
    return header.encode("ascii") + payload


def load_snapshot(data: bytes, info: os.stat_result, written_ns: int) -> Optional[Graph]:
    """The graph a dump_snapshot output holds, when its header matches this
    format, marshal version and interpreter, it records the stamp of info,
    the graph file's fstat now, and the stamp is trusted: the file's mtime
    and ctime are both older than written_ns, the snapshot file's mtime.
    Then the file holds the bytes the snapshot was parsed from, and they
    need not be read.  Else, or unless the payload matches its CRC-32 and
    has the expected shape, None: the caller parses the file.

    The rule is git's for racily clean index entries.  The stamp is taken
    before the parse reads the file, and the snapshot is written after it.
    A rename over the file gives it another inode.  A write in place moves
    the file's mtime and ctime to the clock's time then: past the stamp's,
    unless the clock has not ticked since the file's previous change, and
    no earlier than written_ns for a write after the snapshot's, so a stamp
    no older than the snapshot is not trusted.  One case is left open: a
    same-size write in place, landing after the parse read the file but
    within the clock tick of the file's previous change, with the snapshot
    written in a later tick.  Nothing this package writes is in place
    (ingest and emit rename a new file over the old one), and a file system
    clock ticks every few milliseconds at most, so it takes two same-size
    writes by hand within one tick, around a parse; git takes the same risk.
    Where st_ctime is the creation time (Windows), an in-place edit that
    puts the mtime back keeps the stamp as well.

    The CRC catches a torn, truncated or damaged payload, not a forged one.
    marshal is not safe against crafted input: load only a snapshot that
    no one could write who could not also rewrite the N-Triples file.
    """
    if info.st_mtime_ns >= written_ns or info.st_ctime_ns >= written_ns:
        return None
    head = f"{_SNAPSHOT_TAG} {_stamp(info)} ".encode("ascii")
    end = len(head) + 8  # the CRC-32 in 8 hex digits, then a newline
    if not data.startswith(head) or data[end : end + 1] != b"\n":
        return None
    payload = memoryview(data)[end + 1 :]
    if data[len(head) : end] != f"{zlib.crc32(payload):08x}".encode("ascii"):
        return None
    try:
        state = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None
    if type(state) is not tuple or tuple(map(type, state)) != _SNAPSHOT_SHAPE:
        return None
    graph = Graph()
    graph._tokens, graph._ids, graph._size, graph._spo, graph._pos = state
    return graph


def _decoded(path, source: bytes) -> str:
    """The UTF-8 text of the file at path's bytes, CRLF and a lone CR read as
    a newline (universal newlines); bytes not UTF-8 raise, naming their line."""
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _decoded(path, source[: exc.start]).count("\n") + 1
        raise AndMalKgError(f"{path}: line {line}: not UTF-8") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _named(exc: OSError, path: Path) -> OSError:
    """exc, naming the file at path in place of the temporary or sidecar
    file the failed call was given: the user named path, and the other
    name changes from run to run."""
    return OSError(exc.errno, exc.strerror, os.fspath(path))


def _replace_file(path: Path, chunks: Iterable[bytes], mode: Optional[int] = None, durable: bool = False) -> None:
    """Replace the file at path with the chunks, written in turn,
    atomically: when a write fails or the process dies part-way, the old
    file is left as it was.  The new file gets permission bits mode; when
    mode is None, those of the file it replaces, or the umask's default if
    there is none.  It is never more readable than that while it is
    written.  The temporary file gets a random name and is created afresh
    (O_EXCL), so a link planted under its name is never followed, and one
    left by a killed process never blocks a later write; an OSError names
    path, not the temporary file.  A durable replace also survives a power
    loss: the new bytes reach the disk (fsync) before the rename, and the
    directory is flushed after it, except where a directory cannot be
    opened (Windows)."""
    if mode is None:
        with suppress(FileNotFoundError):
            mode = stat.S_IMODE(path.stat().st_mode)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(tmp, flags, 0o666 if mode is None else 0o600)
    except OSError as exc:
        raise _named(exc, path) from exc
    try:
        with open(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            if durable:
                f.flush()
                os.fsync(fd)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _named(exc, path) from exc
        raise
    if not durable:
        return
    try:
        fd = os.open(path.parent, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _turtle_name(prefixes: dict[str, str]):
    """The function writing an IRI in Turtle: prefix:local under the longest
    namespace of prefixes whose local part is a name, else <IRI>.  One regex
    tries the namespaces, longest first, each followed by the name."""
    first: dict[str, str] = {}  # namespace -> the first prefix naming it
    for prefix, namespace in prefixes.items():
        first.setdefault(namespace, prefix)
    namespaces = "|".join(map(re.escape, sorted(first, key=len, reverse=True))) or "(?!)"
    # Turtle's PN_LOCAL, cut down to ASCII without ':' or escapes, has the
    # grammar of a blank node label: enough for every local name this
    # toolkit mints; anything else falls back to <...> form
    split = re.compile(f"({namespaces})({_BLANK_LABEL})").fullmatch

    def name(value: str) -> str:
        m = split(value)
        return f"<{value}>" if m is None else f"{first[m[1]]}:{m[2]}"

    return name


def serialize_turtle(graph: Graph) -> str:
    """Turtle output: @prefix header, then subject blocks with ';' grouping."""
    tokens = graph._tokens
    spo = graph._spo
    by_token = tokens.__getitem__

    iri_text = _turtle_name(PREFIXES)
    # each term's text as a subject or an object, and each predicate's as a
    # verb: the same IRI text, but 'a' for rdf:type, a shorthand legal only
    # as a predicate
    term = [iri_text(token[1:-1]) if token[0] == "<" else token for token in tokens]
    verb = {p: term[p] for p in graph._pos}
    rdf_type = graph._ids.get(_TYPE_TOKEN)
    if rdf_type in verb:
        verb[rdf_type] = "a"
    out = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(PREFIXES.items())]
    body: list[str] = []
    for s in sorted(spo, key=by_token):
        by_p = spo[s]
        pairs: list[str] = []
        for p in by_p if len(by_p) == 1 else sorted(by_p, key=by_token):
            text = verb[p]
            leaf = by_p[p]
            if type(leaf) is int:
                pairs.append(f"{text} {term[leaf]}")
            else:
                pairs += [f"{text} {term[o]}" for o in sorted(leaf, key=by_token)]
        body.append(f"{term[s]} " + " ;\n    ".join(pairs) + " .")
    text = "\n".join(out) + "\n"
    if body:
        text += "\n" + "\n\n".join(body) + "\n"
    return text
