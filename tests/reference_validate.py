"""Brute-force schema checker used as an independent oracle.

Deliberately naive: a subject's triples come from Graph.match, an object's
types from one more Graph.match, classes and properties from the
registry's public maps, and literal values from the Literal terms.  The
only production code it calls is validate_hash_format and
_literal_value_ok, the two deciders of a literal, and term_to_ntriples,
which spells a term in a violation's text.  It shares no walk, cache or
ordering code with schema._Checker.

The violations of one subject are sorted by the documented key:
(0, type token) for unknown-class, (1,) for missing-type, and
(2, predicate token, object token, rank) for the rest, where rank is 0
for domain-mismatch and 1 for the other rule of the same triple.
"""

from andmalkg import IRI, Literal, Violation
from andmalkg.ns import RDF_TYPE
from andmalkg.rdf import term_to_ntriples
from andmalkg.schema import HASH_KINDS, _literal_value_ok, validate_hash_format

_TYPE = IRI(RDF_TYPE)
_HASH_VALUE_PROPERTIES = {kind.value_property for kind in HASH_KINDS}


def _classes(registry, term) -> frozenset:
    """The registered class term and its ancestors; empty for anything else."""
    if isinstance(term, IRI) and term.value in registry.classes:
        return registry.ancestors[term.value]
    return frozenset()


def _rules(registry, graph, subject_classes, triple):
    """(rank, rule, detail) of each violation of one non-type triple."""
    pred = triple.predicate.value
    obj = triple.object
    token = term_to_ntriples(obj)
    prop = registry.object_properties.get(pred) or registry.data_properties.get(pred)
    if prop is None:
        return [(1, "unknown-property", f"unregistered property {pred} (object {token})")]
    found = []
    if subject_classes and prop.domain not in subject_classes:
        found.append((0, "domain-mismatch", f"{pred} requires a {prop.domain} subject (object {token})"))
    if prop.kind == "object":
        if isinstance(obj, Literal):
            found.append((1, "range-mismatch", f"{pred} object is a literal (object {token})"))
        elif not any(prop.range in _classes(registry, t.object) for t in graph.match(obj, _TYPE, None)):
            found.append((1, "range-mismatch", f"{pred} requires a {prop.range} object (object {token})"))
    elif not isinstance(obj, Literal):
        found.append((1, "datatype-mismatch", f"{pred} value is not a literal"))
    elif obj.language is None and not _literal_value_ok(obj.datatype, obj.lexical):
        detail = f"{pred} value {obj.lexical!r} does not parse as {obj.datatype}"
        found.append((1, "datatype-mismatch", detail))
    elif pred in _HASH_VALUE_PROPERTIES and not validate_hash_format(registry, prop.domain, obj.lexical):
        found.append((1, "bad-hash-format", f"{pred} value {obj.lexical!r} fails the format rules"))
    return found


def violations_reference(registry, graph, subject) -> list:
    """The violations of one subject, in the documented order."""
    triples = graph.match(subject, None, None)
    types = [t.object for t in triples if t.predicate == _TYPE]
    keyed = []
    subject_classes = frozenset()
    for cls in types:
        classes = _classes(registry, cls)
        if not classes:
            token = term_to_ntriples(cls)
            keyed.append(((0, token), "unknown-class", f"type is not a registered class: {token}"))
        subject_classes |= classes
    if not types:
        keyed.append(((1,), "missing-type", "no type triple"))
    for t in triples:
        if t.predicate != _TYPE:
            for rank, rule, detail in _rules(registry, graph, subject_classes, t):
                key = (2, term_to_ntriples(t.predicate), term_to_ntriples(t.object), rank)
                keyed.append((key, rule, detail))
    keyed.sort(key=lambda v: v[0])
    return [Violation(term_to_ntriples(subject), rule, detail) for _, rule, detail in keyed]


def validate_reference(registry, graph) -> list:
    """Every subject's violations, subject by subject in token order."""
    subjects = sorted({t.subject for t in graph.match()}, key=term_to_ntriples)
    return [v for s in subjects for v in violations_reference(registry, graph, s)]
