"""parse_query against the front end it replaced (tests/reference_parse.py).

Every input must give an equal QueryAST from both, or the same exception
class, message and offset: the use cases, the golden object-keyed query,
every query text of test_query.py's parametrizations, and seeded edits of
one to three characters of those texts.
"""

import random

import pytest

import test_query
from andmalkg import parse_query
from conftest import QUERIES, ROOT

from reference_parse import parse_reference

EDITS = 20_000
# Characters an edit inserts or substitutes: the query syntax, letters and
# digits, whitespace (Unicode's included), the escapes, a digit of another
# script, a non-digit numeral and a lone surrogate.
ALPHABET = (
    "{}().;=<>^@?\"\\:_-#/|`~ \t\n"
    "aAbBeEfFnNrRsStTxXzZ019"
    "\xa0\x1c\u0663\xb2\xe9\ud800"
)


def outcome(parse, text):
    """The AST parse gives for text, or the class, message and offset of
    what it raised."""
    try:
        return parse(text)
    except Exception as exc:  # any difference counts, not just QueryParseError
        return type(exc), str(exc), getattr(exc, "position", None)


def parametrized_queries() -> list[str]:
    """The query texts of test_query.py's parametrizations: the values of a
    "text" or "query" argument, the second also with the prefix
    declaration its test adds."""
    texts = []
    for test in vars(test_query).values():
        for mark in getattr(test, "pytestmark", ()):
            if mark.name != "parametrize":
                continue
            names = [name.strip() for name in mark.args[0].split(",")]
            for name in {"text", "query"}.intersection(names):
                at = names.index(name)
                for value in mark.args[1]:
                    text = value[at] if len(names) > 1 else value
                    texts.append(text)
                    if name == "query":
                        texts.append(f"PREFIX x: <http://e.org/> {text}")
    return texts


def base_queries() -> list[str]:
    files = sorted(QUERIES.glob("use_case_*.rq")) + [ROOT / "tests" / "golden" / "object_keyed.rq"]
    return [path.read_text(encoding="utf-8") for path in files] + parametrized_queries()


def edited(rng: random.Random, text: str) -> str:
    """text with one to three characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(chars) + 1)
        op = rng.randrange(3) if at < len(chars) else 0
        if op == 0:
            chars.insert(at, rng.choice(ALPHABET))
        elif op == 1:
            del chars[at]
        else:
            chars[at] = rng.choice(ALPHABET)
    return "".join(chars)


def test_every_query_text_of_the_suite_is_collected():
    texts = parametrized_queries()
    assert len(base_queries()) == len(texts) + 7
    assert "SELECT ?s WHERE { ?s ?p ?o . } LIMIT -2" in texts
    assert "SELECT ?s WHERE { ?s ?p ?o } !" in texts
    assert "PREFIX x: <http://e.org/> SELECT ?x WHERE { ?x x:linksTo ?x }" in texts


@pytest.mark.parametrize("text", base_queries())
def test_parse_query_matches_the_reference(text):
    assert outcome(parse_query, text) == outcome(parse_reference, text)


def test_parse_query_matches_the_reference_on_seeded_edits():
    rng = random.Random(2727)
    bases = base_queries()
    differ = []
    parsed = 0
    for _ in range(EDITS):
        text = edited(rng, rng.choice(bases))
        mine, want = outcome(parse_query, text), outcome(parse_reference, text)
        parsed += type(want) is not tuple
        if mine != want:
            differ.append((text, mine, want))
    assert differ == []
    # the edits reach both sides of the parser: some still parse, most fail
    assert 0 < parsed < EDITS


def test_an_iri_holding_any_character_parses_as_the_reference_parses_it():
    # the tokenizer takes a well-formed ASCII IRI at once and leaves any
    # other to the IRI constructor: both must answer as the reference does
    others = ["\x85", "\xa0", "\xe9", "\u2003", "\u3000", "\ud800", "\U0001f600"]
    for ch in [*map(chr, range(128)), *others]:
        for text in (
            f"SELECT ?s WHERE {{ ?s ?p <http://e.org/{ch}> }}",
            f"SELECT ?s WHERE {{ ?s ?p <{ch}:x> }}",
            f"PREFIX x: <http://e.org/{ch}> SELECT ?s WHERE {{ ?s x:p ?o }}",
            f'SELECT ?s WHERE {{ ?s ?p "v"^^<http://e.org/{ch}> }}',
        ):
            assert outcome(parse_query, text) == outcome(parse_reference, text), text
