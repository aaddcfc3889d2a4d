"""Namespace IRIs and datatype constants shared across the toolkit."""

# "secuirty" is the spelling published with the AndMalOnt ontology; do not fix it.
ANDMAL = "http://secuirty.birzeit.edu/android_malware_ontology#"
MALONT = "http://idea.rpi.edu/malont#"

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DATETIME = XSD + "dateTime"
XSD_ANYURI = XSD + "anyURI"

# The Turtle prefix table: serialize_turtle writes these prefixes and no others.
PREFIXES = {
    "android_malware_ontology": ANDMAL,
    "malont": MALONT,
}

def andmal(local: str) -> str:
    return ANDMAL + local


def malont(local: str) -> str:
    return MALONT + local
