"""In-memory RDF triple store with N-Triples and Turtle serialization.

Terms are immutable.  A Graph is dictionary-encoded: each distinct term
is named by its canonical N-Triples token (the spelling serialize_ntriples
writes) and stored once, under an int id; the triple set and the
SPO/POS/OSP indexes (subject-, predicate- and object-keyed) hold ids only.
A pattern with any bound position is answered from an index instead of a
full scan, and the serializers sort by the tokens.  Ids are private:
equality, matching and output depend on the terms alone, never on
insertion order.

A term's token is its identity: one dict maps each token to its id, and
a token is checked once, when it enters the graph.  Other legal
spellings the parser meets (escapes, an explicit ^^xsd:string) stay in
that dict as aliases of the canonical token.  Graph._terms[i] is built
from Graph._tokens[i] on first use, without re-running the checks, so
code that needs only the text of a term (the serializers, the validator,
stats) never builds one.

The id interface is Graph._id (term -> id), Graph._intern_token (token
-> id), Graph._add (id triple), Graph._rows (id-level pattern lookup),
Graph._spo, Graph._tokens (id -> token), Graph._term (id -> term) and
_literal_parts (a literal token's fields).  Four modules use it: query
(the join), ingest (report rows go in as tokens), schema (the validator
walks a subject's SPO entry, reading leaves with _each) and cli (stats).
No other module uses ids.

parse_ntriples reads lines in the canonical form the serializer writes
with one regular expression each, mapping tokens it has seen straight to
their ids; a new token is checked by _CHECKED_TOKEN_RE, and one that
regex rejects is built into a term by its constructor, which checks it in
full and so raises the same errors as ever.  Any other line
(comments, blank nodes, escapes, language tags, other spacing) goes
through the strict scanner.  Every spelling of a term gets the same id.
The parse runs with the cyclic garbage collector suspended: it builds
only acyclic containers, so a collection could free nothing.  The CLI
keeps the collector suspended until it has frozen the loaded graph
(gc.freeze), so no later collection walks it.

A Graph supports one writer or many concurrent readers, never both;
serialization and matching are read-only, except that readers fill the
term cache, where two of them may race to build the same term (either
result is kept, and the two are equal).
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .errors import MalformedTermError, NTriplesParseError
from .ns import PREFIXES, RDF_TYPE, XSD_STRING

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_IRI_FORBIDDEN_RE = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
# scanning form: no anchor, and the label may not end with '.'
_BLANK_SCAN_RE = re.compile(r"[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?")
_LANG_TAG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")
# Conservative subset of Turtle's PN_LOCAL: good enough for every local
# name this toolkit mints; anything else falls back to <...> form.
_PN_LOCAL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_\-.]*$")


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
        if self.language is not None:
            if not _LANG_TAG_RE.match(self.language):
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
        if not _BLANK_LABEL_RE.match(self.label):
            raise MalformedTermError(f"bad blank node label: {self.label!r}")

    def __repr__(self):
        return f"BlankNode({self.label!r})"


Term = Union[IRI, Literal, BlankNode]

_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _literal_token(lexical: str, datatype: str = XSD_STRING, language: Optional[str] = None) -> str:
    """The canonical N-Triples token of a literal."""
    out = f'"{lexical.translate(_ESCAPES)}"'
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

    def sort_key(self) -> tuple[str, str, str]:
        return (
            term_to_ntriples(self.subject),
            term_to_ntriples(self.predicate),
            term_to_ntriples(self.object),
        )


_IRI_TOKEN = r'<[A-Za-z][A-Za-z0-9+.\-]*:[^\x00-\x20<>"{}|^`\\]*>'
# A token this regex accepts is canonical and passes the IRI and Literal
# constructor checks: an IRI, or a literal without escapes, raw tab, CR or
# newline, language tag or explicit ^^xsd:string, whose datatype is an IRI.
_CHECKED_TOKEN_RE = re.compile(
    _IRI_TOKEN + r'|"[^"\\\t\r\n]*"(?:\^\^(?!<' + re.escape(XSD_STRING) + ">)" + _IRI_TOKEN + ")?"
)
_LEXICAL_RE = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"', re.S)
_UNESCAPE_RE = re.compile(r"\\(.)", re.S)


def _literal_parts(token: str) -> tuple[str, str, Optional[str]]:
    """(lexical, datatype, language) of a literal token that uses only the
    escapes serialize_ntriples writes."""
    if token[-1] == '"' and "\\" not in token:  # the common plain literal
        return token[1:-1], XSD_STRING, None
    if "\\" in token:
        m = _LEXICAL_RE.match(token)
        lexical = _UNESCAPE_RE.sub(lambda e: _UNESCAPES[e[1]], m[1])
        close = m.end(1)
    else:
        close = token.index('"', 1)
        lexical = token[1:close]
    suffix = token[close + 1 :]
    if not suffix:
        return lexical, XSD_STRING, None
    if suffix[0] == "@":
        return lexical, XSD_STRING, suffix[1:]
    return lexical, suffix[3:-1], None  # suffix is ^^<datatype>


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
    lexical, datatype, language = _literal_parts(token)
    return Literal(lexical, IRI(datatype).value, language)


# An index maps id a -> id b -> the ids c completing (a, b).  Most (a, b)
# pairs have one c, so a leaf holds a lone id as a bare int and becomes a
# set at its second id: far less memory, and fewer objects for the cyclic
# garbage collector to walk.
_Leaf = Union[int, set[int]]
_Index = dict[int, dict[int, _Leaf]]


def _index(index: _Index, a: int, b: int, c: int) -> None:
    """Add c under (a, b); the caller guarantees c is not there yet."""
    inner = index.get(a)
    if inner is None:
        index[a] = {b: c}
        return
    leaf = inner.get(b)
    if leaf is None:
        inner[b] = c
    elif type(leaf) is int:
        inner[b] = {leaf, c}
    else:
        leaf.add(c)


def _each(leaf: _Leaf) -> Iterable[int]:
    return (leaf,) if type(leaf) is int else leaf


def _leaf(index: _Index, a: int, b: int) -> Iterable[int]:
    inner = index.get(a)
    leaf = None if inner is None else inner.get(b)
    return () if leaf is None else _each(leaf)


_RDF_TYPE_IRI = IRI(RDF_TYPE)


class Graph:
    """A set of triples plus SPO/POS/OSP indexes and a prefix table.

    Every distinct term is stored once, named by its canonical N-Triples
    token and numbered by an int id; the triple set and the indexes hold
    ids only.  Two graphs compare equal when they hold the same triple
    set, whatever ids their terms got; prefixes are serialization state
    and do not take part in equality.
    """

    def __init__(self, prefixes: Optional[dict[str, str]] = None):
        self._terms: list[Optional[Term]] = []  # id -> term, None until first use
        self._tokens: list[str] = []  # id -> canonical N-Triples token
        self._ids: dict[str, int] = {}  # canonical token or another spelling -> id
        self._triples: set[tuple[int, int, int]] = set()
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self.prefixes: dict[str, str] = dict(PREFIXES if prefixes is None else prefixes)

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        term = self._term
        return (Triple(term(s), term(p), term(o)) for s, p, o in self._triples)

    def __contains__(self, t: Triple) -> bool:
        if not isinstance(t, Triple):
            return False
        return (self._id(t.subject), self._id(t.predicate), self._id(t.object)) in self._triples

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self._triples) != len(other._triples):
            return False
        # distinct terms have distinct tokens, so this id map is one-to-one
        theirs = [other._ids.get(token) for token in self._tokens]
        return all((theirs[s], theirs[p], theirs[o]) in other._triples for s, p, o in self._triples)

    def bind(self, prefix: str, namespace: str) -> None:
        self.prefixes[prefix] = namespace

    def _id(self, term: Term) -> Optional[int]:
        """The term's id, or None when no triple of this graph uses it (or
        it is not a term at all)."""
        try:
            return self._ids.get(term_to_ntriples(term))
        except MalformedTermError:
            return None

    def _term(self, i: int) -> Term:
        """The term with id i, built from its token on first use."""
        term = self._terms[i]
        if term is None:
            term = self._terms[i] = _build_term(self._tokens[i])
        return term

    def _new(self, token: str, term: Optional[Term]) -> int:
        i = len(self._tokens)
        self._ids[token] = i
        self._tokens.append(token)
        self._terms.append(term)
        return i

    def _intern(self, term: Term) -> int:
        token = term_to_ntriples(term)
        i = self._ids.get(token)
        return self._new(token, term) if i is None else i

    def _intern_token(self, token: str) -> int:
        """The id of the term one IRI or literal token spells.

        A new token _CHECKED_TOKEN_RE accepts is stored as it is; its term
        is built on first use.  Any other new token is built into a term
        by its constructor, which raises MalformedTermError on a bad term,
        and is kept as another spelling of the term's canonical token.
        """
        i = self._ids.get(token)
        if i is None:
            if _CHECKED_TOKEN_RE.fullmatch(token):
                return self._new(token, None)
            i = self._ids[token] = self._intern(_checked_term(token))
        return i

    def _add(self, s: int, p: int, o: int) -> bool:
        key = (s, p, o)
        if key in self._triples:
            return False
        self._triples.add(key)
        _index(self._spo, s, p, o)
        _index(self._pos, p, o, s)
        _index(self._osp, o, s, p)
        return True

    def insert(self, t: Triple) -> bool:
        """Add a triple; returns False when it was already present."""
        if not isinstance(t, Triple):
            raise MalformedTermError(f"not a triple: {t!r}")
        return self._add(self._intern(t.subject), self._intern(t.predicate), self._intern(t.object))

    def insert_all(self, triples) -> int:
        return sum(1 for t in triples if self.insert(t))

    def _canonical(self, rows: list[tuple[int, int, int]]) -> list[Triple]:
        """The rows as Triples, sorted by their N-Triples text."""
        tokens = self._tokens
        term = self._term
        if len(rows) > 1:
            rows.sort(key=lambda r: (tokens[r[0]], tokens[r[1]], tokens[r[2]]))
        return [Triple(term(s), term(p), term(o)) for s, p, o in rows]

    def _rows(
        self, si: Optional[int], pi: Optional[int], oi: Optional[int]
    ) -> list[tuple[int, int, int]]:
        """Id triples matching the bound ids (None leaves a position
        unbound), in no particular order.

        Served from SPO when the subject is bound (from OSP when the object
        is bound and the predicate is not), else from POS when the
        predicate is bound, else from OSP.  Every id passed must come from
        this graph.
        """
        if si is not None:
            if pi is not None:
                objs = _leaf(self._spo, si, pi)
                if oi is None:
                    return [(si, pi, obj) for obj in objs]
                return [(si, pi, oi)] if oi in objs else []
            if oi is not None:
                return [(si, pred, oi) for pred in _leaf(self._osp, oi, si)]
            by_p = self._spo.get(si, {})
            return [(si, pred, obj) for pred, objs in by_p.items() for obj in _each(objs)]
        if pi is not None:
            if oi is not None:
                return [(sub, pi, oi) for sub in _leaf(self._pos, pi, oi)]
            by_o = self._pos.get(pi, {})
            return [(sub, pi, obj) for obj, subs in by_o.items() for sub in _each(subs)]
        if oi is not None:
            by_s = self._osp.get(oi, {})
            return [(sub, pred, oi) for sub, preds in by_s.items() for pred in _each(preds)]
        return list(self._triples)

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
        return self._canonical(self._rows(si, pi, oi))

    def subjects(self) -> list[Term]:
        """Distinct subjects, in canonical order."""
        return [self._term(i) for i in sorted(self._spo, key=self._tokens.__getitem__)]

    def types_of(self, subject: Term) -> list[Term]:
        return [t.object for t in self.match(s=subject, p=_RDF_TYPE_IRI)]


def serialize_ntriples(graph: Graph) -> str:
    """Canonical N-Triples: one sorted line per triple, UTF-8 text."""
    tokens = graph._tokens
    lines = sorted(f"{tokens[s]} {tokens[p]} {tokens[o]} ." for s, p, o in graph._triples)
    return "".join(line + "\n" for line in lines)


class _LineCursor:
    """Single-line scanner for the N-Triples grammar."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.pos = 0
        self.lineno = lineno

    def error(self, message: str):
        raise NTriplesParseError(message, self.lineno)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text) or self.text[self.pos] == "#"

    def take_term(self) -> Term:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("unexpected end of line, expected a term")
        ch = self.text[self.pos]
        if ch == "<":
            return self._take_iri()
        if ch == '"':
            return self._take_literal()
        if ch == "_":
            return self._take_blank()
        self.error(f"expected IRI, literal, or blank node at column {self.pos + 1}")

    def _take_iri(self) -> IRI:
        end = self.text.find(">", self.pos + 1)
        if end == -1:
            self.error("unterminated IRI")
        raw = self.text[self.pos + 1 : end]
        self.pos = end + 1
        try:
            return IRI(raw)
        except MalformedTermError as exc:
            self.error(str(exc))

    def _take_blank(self) -> BlankNode:
        if not self.text.startswith("_:", self.pos):
            self.error("expected '_:' blank node")
        m = _BLANK_SCAN_RE.match(self.text, self.pos + 2)
        if not m:
            self.error("bad blank node label")
        label = m.group(0)
        self.pos = m.end()
        return BlankNode(label)

    def _take_literal(self) -> Literal:
        chars: list[str] = []
        i = self.pos + 1
        text = self.text
        while True:
            if i >= len(text):
                self.error("unterminated literal")
            ch = text[i]
            if ch == '"':
                i += 1
                break
            if ch == "\\":
                if i + 1 >= len(text):
                    self.error("unterminated escape in literal")
                esc = text[i + 1]
                if esc in _UNESCAPES:
                    chars.append(_UNESCAPES[esc])
                    i += 2
                elif esc == "u" or esc == "U":
                    width = 4 if esc == "u" else 8
                    hexpart = text[i + 2 : i + 2 + width]
                    if len(hexpart) != width or not re.fullmatch(r"[0-9A-Fa-f]+", hexpart):
                        self.error(f"bad \\{esc} escape in literal")
                    chars.append(chr(int(hexpart, 16)))
                    i += 2 + width
                else:
                    self.error(f"unknown escape '\\{esc}' in literal")
            else:
                chars.append(ch)
                i += 1
        self.pos = i
        lexical = "".join(chars)
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            self.skip_ws()
            if self.pos >= len(self.text) or self.text[self.pos] != "<":
                self.error("expected datatype IRI after '^^'")
            dt = self._take_iri()
            return Literal(lexical, datatype=dt.value)
        if self.pos < len(self.text) and self.text[self.pos] == "@":
            m = re.match(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)", self.text[self.pos :])
            if not m:
                self.error("bad language tag")
            self.pos += m.end()
            return Literal(lexical, language=m.group(1))
        return Literal(lexical)

    def take_dot(self) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ".":
            self.error("missing terminating '.'")
        self.pos += 1


# A line as serialize_ntriples writes it when no term needs an escape, a
# language tag or a blank node: single spaces between the three tokens,
# then " .".  Each group is one whole token; Graph._intern_token checks a
# new one.
_CANONICAL_LINE_RE = re.compile(r'(<[^>]*>) (<[^>]*>) (<[^>]*>|"[^"\\]*"(?:\^\^<[^>]*>)?) \.')


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

    Lines in the canonical form this module writes take a fast path: each
    token already seen maps straight to its id, and only a new token is
    checked.  Any other line goes through the strict _LineCursor scanner.
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
            if not stripped or stripped.startswith("#"):
                continue
            cur = _LineCursor(raw, lineno)
            subject = cur.take_term()
            predicate = cur.take_term()
            obj = cur.take_term()
            cur.take_dot()
            if not cur.at_end():
                cur.error("unexpected trailing content after '.'")
            try:
                graph.insert(Triple(subject, predicate, obj))
            except MalformedTermError as exc:
                raise NTriplesParseError(str(exc), lineno) from exc
        return graph


def _turtle_iri(value: str, prefixes: dict[str, str], predicate: bool = False) -> str:
    # 'a' is the rdf:type shorthand and is legal only as a predicate
    if predicate and value == RDF_TYPE:
        return "a"
    best = None
    for prefix, namespace in prefixes.items():
        if value.startswith(namespace) and (best is None or len(namespace) > len(prefixes[best])):
            local = value[len(namespace) :]
            if _PN_LOCAL_RE.match(local) and not local.endswith("."):
                best = prefix
    if best is not None:
        return f"{best}:{value[len(prefixes[best]):]}"
    return f"<{value}>"


def serialize_turtle(graph: Graph) -> str:
    """Turtle output: @prefix header, then subject blocks with ';' grouping."""
    prefixes = graph.prefixes
    tokens = graph._tokens
    by_token = tokens.__getitem__
    rendered: dict[tuple[int, bool], str] = {}

    def render(i: int, predicate: bool = False) -> str:
        text = rendered.get((i, predicate))
        if text is None:
            token = tokens[i]
            text = _turtle_iri(token[1:-1], prefixes, predicate) if token[0] == "<" else token
            rendered[i, predicate] = text
        return text

    out = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(prefixes.items())]
    body: list[str] = []
    for s in sorted(graph._spo, key=by_token):
        by_p = graph._spo[s]
        pairs = [
            f"{render(p, predicate=True)} {render(o)}"
            for p in sorted(by_p, key=by_token)
            for o in sorted(_each(by_p[p]), key=by_token)
        ]
        body.append(f"{render(s)} " + " ;\n    ".join(pairs) + " .")
    text = "\n".join(out) + "\n"
    if body:
        text += "\n" + "\n\n".join(body) + "\n"
    return text
