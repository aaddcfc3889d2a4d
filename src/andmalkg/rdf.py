"""In-memory RDF triple store with N-Triples and Turtle serialization.

Terms are immutable.  A Graph is dictionary-encoded: each distinct term
is stored once, under an int id, together with its canonical N-Triples
token, and the triple set and the SPO/POS/OSP indexes (subject-,
predicate- and object-keyed) hold ids only.  A pattern with any bound
position is answered from an index instead of a full scan, and the
serializers sort by the cached tokens.  Ids are private: equality,
matching and output depend on the terms alone, never on insertion order.

The id interface is Graph._id (term -> id), Graph._intern_key (term key
-> id, building the term only when it is new), Graph._add (id triple),
Graph._rows (id-level pattern lookup), Graph._spo, and Graph._terms and
Graph._tokens (id -> term, id -> token).  Three modules use it: query
(the join), ingest (report rows go in as term keys) and schema (the
validator walks a subject's SPO entry, reading leaves with _each).  No
other module uses ids.

parse_ntriples reads lines in the canonical form the serializer writes
with one regular expression each, mapping tokens it has seen straight to
their ids; a new token is built into a term and checked in full.  Any
other line (comments, blank nodes, escapes, language tags, other
spacing) goes through the strict scanner.  Every spelling of a term gets
the same id.

A Graph supports one writer or many concurrent readers, never both;
serialization and matching are read-only.
"""

from __future__ import annotations

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
        if self.language is not None and not _LANG_TAG_RE.match(self.language):
            raise MalformedTermError(f"bad language tag: {self.language!r}")

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


def term_to_ntriples(term: Term) -> str:
    """Render one term in N-Triples lexical form."""
    if isinstance(term, IRI):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        out = f'"{term.lexical.translate(_ESCAPES)}"'
        if term.language:
            return out + f"@{term.language}"
        if term.datatype != XSD_STRING:
            return out + f"^^<{term.datatype}>"
        return out
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


def _term_key(term) -> object:
    """Hashable identity of a term, built from its fields.

    A frozen dataclass hashes and compares in Python code; a str or tuple
    key does so in C.  The three shapes never collide: an IRI is its value
    string, a literal a 3-tuple, a blank node a 1-tuple.  Anything that is
    not a term has no key (None).
    """
    if isinstance(term, IRI):
        return term.value
    if isinstance(term, Literal):
        return (term.lexical, term.datatype, term.language)
    if isinstance(term, BlankNode):
        return (term.label,)
    return None


def _key_term(key) -> Term:
    """The term a _term_key value names, built and checked by its constructor."""
    if type(key) is str:
        return IRI(key)
    if len(key) == 3:
        return Literal(*key)
    return BlankNode(*key)


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

    Every distinct term is stored once and named by an int id; the triple
    set and the indexes hold ids only.  Two graphs compare equal when they
    hold the same triple set, whatever ids their terms got; prefixes are
    serialization state and do not take part in equality.
    """

    def __init__(self, prefixes: Optional[dict[str, str]] = None):
        self._terms: list[Term] = []  # id -> term
        self._tokens: list[str] = []  # id -> canonical N-Triples token
        self._ids: dict[object, int] = {}  # _term_key(term) -> id
        self._token_ids: dict[str, int] = {}  # canonical or parsed spelling -> id
        self._triples: set[tuple[int, int, int]] = set()
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self.prefixes: dict[str, str] = dict(PREFIXES if prefixes is None else prefixes)

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        terms = self._terms
        return (Triple(terms[s], terms[p], terms[o]) for s, p, o in self._triples)

    def __contains__(self, t: Triple) -> bool:
        if not isinstance(t, Triple):
            return False
        return (self._id(t.subject), self._id(t.predicate), self._id(t.object)) in self._triples

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if len(self._triples) != len(other._triples):
            return False
        # distinct terms have distinct keys, so this id map is one-to-one
        theirs = [other._ids.get(_term_key(term)) for term in self._terms]
        return all((theirs[s], theirs[p], theirs[o]) in other._triples for s, p, o in self._triples)

    def bind(self, prefix: str, namespace: str) -> None:
        self.prefixes[prefix] = namespace

    def _id(self, term: Term) -> Optional[int]:
        """The term's id, or None when no triple of this graph uses it."""
        return self._ids.get(_term_key(term))

    def _intern(self, term: Term) -> int:
        key = _term_key(term)
        i = self._ids.get(key)
        if i is None:
            i = len(self._terms)
            token = term_to_ntriples(term)
            self._ids[key] = i
            self._terms.append(term)
            self._tokens.append(token)
            self._token_ids.setdefault(token, i)
        return i

    def _intern_key(self, key) -> int:
        """The id of the term whose _term_key is key; the term is built and
        checked only when the graph does not hold it yet."""
        i = self._ids.get(key)
        return self._intern(_key_term(key)) if i is None else i

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
        terms = self._terms
        if len(rows) > 1:
            rows.sort(key=lambda r: (tokens[r[0]], tokens[r[1]], tokens[r[2]]))
        return [Triple(terms[s], terms[p], terms[o]) for s, p, o in rows]

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
        terms = self._terms
        return [terms[i] for i in sorted(self._spo, key=self._tokens.__getitem__)]

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
# then " .".  Each group is one whole token; _token_term checks it.
_CANONICAL_LINE_RE = re.compile(r'(<[^>]*>) (<[^>]*>) (<[^>]*>|"[^"\\]*"(?:\^\^<[^>]*>)?) \.')


def _token_term(token: str) -> Term:
    """The term a token matched by _CANONICAL_LINE_RE spells, fully checked."""
    if token[0] == "<":
        return IRI(token[1:-1])
    close = token.index('"', 1)
    if close == len(token) - 1:
        return Literal(token[1:close])
    # skip the closing quote, '^^' and '<'
    return Literal(token[1:close], datatype=IRI(token[close + 4 : -1]).value)


def _intern_token(graph: Graph, token: str, lineno: int) -> int:
    try:
        term = _token_term(token)
    except MalformedTermError as exc:
        raise NTriplesParseError(str(exc), lineno) from exc
    i = graph._intern(term)
    graph._token_ids[token] = i
    return i


def parse_ntriples(text: str) -> Graph:
    """Parse N-Triples text (with '#' comments and blank lines) into a Graph.

    Lines in the canonical form this module writes take a fast path: each
    token already seen maps straight to its id, and only a new token is
    built into a term and checked.  Any other line goes through the strict
    _LineCursor scanner.  Every spelling of a term gets the same id.
    """
    graph = Graph()
    token_ids = graph._token_ids
    canonical = _CANONICAL_LINE_RE.fullmatch
    add = graph._add
    for lineno, raw in enumerate(text.split("\n"), start=1):
        m = canonical(raw)
        if m is not None:
            s_token, p_token, o_token = m.groups()
            s = token_ids.get(s_token)
            if s is None:
                s = _intern_token(graph, s_token, lineno)
            p = token_ids.get(p_token)
            if p is None:
                p = _intern_token(graph, p_token, lineno)
            o = token_ids.get(o_token)
            if o is None:
                o = _intern_token(graph, o_token, lineno)
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
    terms = graph._terms
    tokens = graph._tokens
    by_token = tokens.__getitem__
    rendered: dict[tuple[int, bool], str] = {}

    def render(i: int, predicate: bool = False) -> str:
        text = rendered.get((i, predicate))
        if text is None:
            term = terms[i]
            text = _turtle_iri(term.value, prefixes, predicate) if isinstance(term, IRI) else tokens[i]
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
