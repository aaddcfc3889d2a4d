"""Seeded random graph generator shared by the round-trip and oracle tests."""

import random

from andmalkg import Graph, IRI, Literal, BlankNode, Triple
from andmalkg.ns import RDF_TYPE, XSD_ANYURI, XSD_DATETIME, XSD_INTEGER, XSD_STRING

NASTY_STRINGS = [
    "",
    " ",
    "plain",
    "two  spaces",
    'quote " inside',
    "back\\slash",
    "line\nbreak",
    "tab\there",
    "carriage\rreturn",
    'both " and \\ and \n',
    "café 中文 ☃",
    "trailing space ",
    ".dot .start",
]

_IRIS = [f"http://example.org/n{i}" for i in range(12)] + [
    "http://secuirty.birzeit.edu/android_malware_ontology#thing",
    "http://idea.rpi.edu/malont#Node",
    "urn:uuid:0f3a",
]
_PREDICATES = [f"http://example.org/p{i}" for i in range(6)] + [
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
]


def random_literal(rng: random.Random) -> Literal:
    roll = rng.random()
    if roll < 0.5:
        return Literal(rng.choice(NASTY_STRINGS))
    if roll < 0.7:
        return Literal(str(rng.randint(-5000, 5000)), datatype=XSD_INTEGER)
    if roll < 0.85:
        return Literal("2021-06-01T08:00:00Z", datatype=XSD_DATETIME)
    return Literal(rng.choice(NASTY_STRINGS) or "x", language=rng.choice(["en", "de", "pt-BR"]))


def random_subject(rng: random.Random):
    if rng.random() < 0.15:
        return BlankNode(f"b{rng.randint(0, 9)}")
    return IRI(rng.choice(_IRIS))


def random_object(rng: random.Random):
    roll = rng.random()
    if roll < 0.45:
        return random_literal(rng)
    if roll < 0.55:
        return BlankNode(f"b{rng.randint(0, 9)}")
    return IRI(rng.choice(_IRIS))


def random_triple(rng: random.Random) -> Triple:
    return Triple(random_subject(rng), IRI(rng.choice(_PREDICATES)), random_object(rng))


def random_graph(rng: random.Random, max_triples: int = 200) -> Graph:
    graph = Graph()
    for _ in range(rng.randint(0, max_triples)):
        graph.insert(random_triple(rng))
    return graph


# Inputs for the schema checker: nodes that share a small pool, so leaves
# get several values, and lexicals each datatype or hash format accepts
# and rejects.
_SCHEMA_NODES = [IRI(f"http://secuirty.birzeit.edu/android_malware_ontology#n{i}") for i in range(8)] + [
    BlankNode(f"b{i}") for i in range(3)
]
_UNREGISTERED = [
    "http://secuirty.birzeit.edu/android_malware_ontology#Imaginary",
    "http://example.org/p",
]
_LEXICALS = [
    "",
    "x",
    "42",
    "-7",
    "+3",
    "4.5",
    "٣",
    "2021-06-01T08:00:00Z",
    "2021-02-30T00:00:00Z",
    "0000-01-01T00:00:00",
    "2021-06-01T08:00:00+14:00",
    "2021-06-01T08:00:00+14:30",
    "http://example.org/x",
    "not a uri",
    "d41d8cd98f00b204e9800998ecf8427e",
    "D41D8CD98F00B204E9800998ECF8427E",
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "T1" + "a" * 70,
    "3:abc:def",
    "line\nbreak",
]
_DATATYPES = [XSD_STRING, XSD_STRING, XSD_INTEGER, XSD_DATETIME, XSD_ANYURI, "http://example.org/custom"]


def random_schema_literal(rng: random.Random) -> Literal:
    lexical = rng.choice(_LEXICALS)
    if rng.random() < 0.1:
        return Literal(lexical, language="en")
    return Literal(lexical, datatype=rng.choice(_DATATYPES))


def random_schema_graph(rng: random.Random, registry, max_triples: int = 40) -> Graph:
    """Triples for validation: registered and unregistered classes and
    properties, multi-typed and untyped nodes, blank nodes, literal and
    node objects of every property kind."""
    classes = sorted(registry.classes)
    properties = sorted(registry.object_properties) + sorted(registry.data_properties)
    graph = Graph()
    for _ in range(rng.randint(0, max_triples)):
        subject = rng.choice(_SCHEMA_NODES)
        roll = rng.random()
        if roll < 0.3:
            predicate = RDF_TYPE
            pick = rng.random()
            if pick < 0.8:
                obj = IRI(rng.choice(classes))
            elif pick < 0.9:
                obj = IRI(_UNREGISTERED[0])
            else:
                obj = rng.choice([Literal("File"), BlankNode("b0")])
        else:
            predicate = rng.choice(properties) if roll < 0.93 else rng.choice(_UNREGISTERED)
            if predicate in registry.object_properties:
                obj = rng.choice(_SCHEMA_NODES) if rng.random() < 0.85 else random_schema_literal(rng)
            else:
                obj = random_schema_literal(rng) if rng.random() < 0.85 else rng.choice(_SCHEMA_NODES)
        graph.insert(Triple(subject, IRI(predicate), obj))
    return graph
