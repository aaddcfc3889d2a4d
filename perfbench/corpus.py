"""Seeded synthetic MalwareBazaar corpus, and the query results it implies.

Every report starts as a table1 fixture report (tools/make_fixtures.py), so
it has table1's richness: vendor intel, YARA rules and certificates on the
same index cycles.  The generator then re-keys it with a fresh SHA-256 and
relabels it from skewed distributions: about twelve families plus an
unlabeled share, countries, tags shared across many reports, about 2% of
SHA-256s reported under a second family (so use case 4 has rows), and about
1% of reports carrying a tag that the current slug() merges with another
label (`anti-vm`/`anti_vm`, or two non-ASCII tags).

Expected results are derived from this plan, never from the engine.  IRIs
come from the public `mint_iris`, applied to the plan's own view of each
report, so a change to IRI minting needs no change here.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from andmalkg import (
    CertInfo,
    IRI,
    Literal,
    MalwareReport,
    VendorVerdict,
    YaraRuleInfo,
    mint_iris,
    term_to_ntriples,
)
from andmalkg.ns import RDF_TYPE, XSD_DATETIME, XSD_INTEGER, andmal, malont

ROOT = Path(__file__).resolve().parent.parent


def _load_make_fixtures():
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", ROOT / "tools" / "make_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fixtures = _load_make_fixtures()
table1_report = _fixtures.table1_report
hexdigest = _fixtures.hexdigest

FAMILIES = [
    "SharkBot", "Anubis", "Cerberus", "Joker", "FluBot", "Hydra",
    "Alien", "AbereBot", "Hook", "Xenomorph", "Ermac", "SpyNote",
]
FAMILY_ZIPF = 1.1
UNLABELED_SHARE = 0.15
COUNTRIES = [("US", 30), ("CN", 20), ("RU", 14), ("DE", 10), ("FR", 8), ("BR", 7), ("IN", 6), ("NL", 5)]
NO_COUNTRY_SHARE = 0.04
NO_REPORTER_SHARE = 0.03
SHARED_TAGS = [
    "sms", "overlay", "keylogger", "accessibility", "dropper", "rat", "stealer",
    "adware", "clicker", "fakeapp", "loader", "miner", "ransomware", "backdoor",
    "botnet", "phishing", "otp", "crypto", "vnc", "screencast",
]
SHARED_TAG_ZIPF = 0.9
# Pairs of distinct labels that slug() maps to one IRI today.
COLLIDING_TAGS = [("anti-vm", "anti_vm"), ("dropper-v2", "dropper_v2"), ("банкер", "木马")]
COLLIDING_SHARE = 0.01
DUAL_SHARE = 0.02
# Share of an ingest batch that repeats base reports, and that is malformed.
DUP_SHARE = 0.03
MALFORMED_SHARE = 0.02


def _zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (r ** s) for r in range(1, n + 1)]


def normalize_timestamp(raw: str) -> str:
    """table1 timestamps are naive 'YYYY-MM-DD HH:MM:SS', read as UTC."""
    return raw.replace(" ", "T") + "Z"


def plan_report(record: dict) -> MalwareReport:
    """The plan's view of a well-formed record, as far as IRI minting needs it."""
    intel = record.get("vendor_intel")
    vendors: list[str] = []
    vhash = record.get("vhash")
    if isinstance(intel, dict):
        vendors = [name for name in intel if name != "vhash"]
        if "vhash" in intel:
            vhash = vhash or intel["vhash"]["hash"]
    elif isinstance(intel, list):
        vendors = [entry["vendor"] for entry in intel]
    signature = record.get("signature")
    if signature == "n/a":
        signature = None
    tags: list[str] = []
    for tag in record.get("tags", []):
        tag = tag.strip().lower()
        if tag not in tags:
            tags.append(tag)
    first, last = record.get("first_seen"), record.get("last_seen")
    return MalwareReport(
        sha256=record["sha256_hash"],
        file_name=record["file_name"],
        sha1=record.get("sha1_hash"),
        md5=record.get("md5_hash"),
        imphash=record.get("imphash"),
        tlsh=record.get("tlsh"),
        telfhash=record.get("telfhash"),
        gimphash=record.get("gimphash"),
        ssdeep=record.get("ssdeep"),
        vhash=vhash,
        file_size=record.get("file_size"),
        file_type=record.get("file_type"),
        first_seen=normalize_timestamp(first) if first else None,
        last_seen=normalize_timestamp(last) if last else None,
        signature=signature,
        reporter=record.get("reporter"),
        origin_country=record.get("origin_country"),
        tags=tuple(tags),
        vendor_intel=tuple(VendorVerdict(name, "unknown") for name in vendors),
        yara_rules=tuple(YaraRuleInfo(rule["rule_name"]) for rule in record.get("yara_rules", [])),
        certificate=CertInfo("plan") if record.get("code_sign") else None,
    )


@dataclass
class Entry:
    """One report file: its name, its text, and what the plan says it is."""

    name: str
    text: str
    kind: str  # "new", "dual" (second family for a known SHA-256), "dup", "malformed"
    report: Optional[MalwareReport] = None


class Generator:
    """Deterministic report source: the same seed gives the same reports."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self._indexes = iter(self.rng.sample(range(1, 100_000), 40_000))
        self._family_weights = [
            w * (1 - UNLABELED_SHARE) / sum(_zipf_weights(len(FAMILIES), FAMILY_ZIPF))
            for w in _zipf_weights(len(FAMILIES), FAMILY_ZIPF)
        ] + [UNLABELED_SHARE]
        self._shared_weights = _zipf_weights(len(SHARED_TAGS), SHARED_TAG_ZIPF)

    def _record(self) -> tuple[int, dict]:
        rng = self.rng
        k = next(self._indexes)
        family = rng.choices(FAMILIES + [None], self._family_weights)[0]
        country = None
        if rng.random() >= NO_COUNTRY_SHARE:
            country = rng.choices([c for c, _ in COUNTRIES], [w for _, w in COUNTRIES])[0]
        record = table1_report(k, family, country)
        record["sha256_hash"] = hexdigest(f"perfbench-{self.seed}-{k}", "sha256", 64)
        if rng.random() < NO_REPORTER_SHARE:
            del record["reporter"]
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            tag = rng.choices(SHARED_TAGS, self._shared_weights)[0]
            if tag not in record["tags"]:
                record["tags"].append(tag)
        if rng.random() < COLLIDING_SHARE:
            record["tags"].append(rng.choice([t for pair in COLLIDING_TAGS for t in pair]))
        return k, record

    @staticmethod
    def _entry(name: str, record: dict, kind: str) -> Entry:
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        return Entry(name, text, kind, plan_report(record))

    def reports(self, n: int) -> list[Entry]:
        """n well-formed reports; about DUAL_SHARE of them re-report a SHA-256."""
        entries: list[Entry] = []
        labeled: list[tuple[int, dict]] = []
        while len(entries) < n:
            if labeled and self.rng.random() < DUAL_SHARE:
                k, first = labeled.pop(self.rng.randrange(len(labeled)))
                record = copy.deepcopy(first)
                other = self.rng.choice([f for f in FAMILIES if f != first["signature"]])
                record["signature"] = other
                record["tags"] = [other.lower(), record["tags"][-1]]
                entries.append(self._entry(f"r_{k:06d}_b.json", record, "dual"))
                continue
            k, record = self._record()
            if record["signature"] not in (None, "n/a"):
                labeled.append((k, record))
            entries.append(self._entry(f"r_{k:06d}.json", record, "new"))
        return entries

    def malformed(self, j: int) -> Entry:
        """A report that parsing must reject; the defect cycles with j."""
        k, record = self._record()
        variant = j % 5
        if variant == 0:
            text = json.dumps(record)[:-7]
        else:
            if variant == 1:
                record["sha256_hash"] = "not-a-sha256"
            elif variant == 2:
                del record["file_name"]
            elif variant == 3:
                record["origin_country"] = "USA"
            else:
                record["first_seen"], record["last_seen"] = record["last_seen"], record["first_seen"]
            text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        return Entry(f"r_{k:06d}.json", text, "malformed")

    def batch(self, base: list[Entry], n: int) -> list[Entry]:
        """n report files: new reports, repeats of base reports, malformed files."""
        n_dup = round(n * DUP_SHARE)
        n_bad = round(n * MALFORMED_SHARE)
        entries = self.reports(n - n_dup - n_bad)
        for entry in self.rng.sample(base, n_dup):
            entries.append(Entry(entry.name, entry.text, "dup", entry.report))
        entries.extend(self.malformed(j) for j in range(n_bad))
        return entries


def write_dir(path: Path, entries: list[Entry]) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for entry in entries:
        (path / entry.name).write_text(entry.text, encoding="utf-8")


def properties(entries: list[Entry]) -> dict:
    """Measured share of every input property the engine's behaviour depends on."""
    kinds = Counter(e.kind for e in entries)
    reports = [e.report for e in entries if e.report is not None]
    n = len(reports) or 1
    families_by_sha: dict[str, set] = {}
    for r in reports:
        families_by_sha.setdefault(r.sha256, set()).update([r.signature] if r.signature else [])
    files = len(families_by_sha) or 1
    family_sizes = Counter(f for fams in families_by_sha.values() for f in fams)
    tag_sizes = Counter(t for r in reports for t in r.tags)
    colliding = {t for pair in COLLIDING_TAGS for t in pair}
    shared = set(SHARED_TAGS)

    def share(count: int, base: int = n) -> float:
        return round(count / base, 4)

    return {
        "files": len(entries),
        "reports": len(reports),
        "distinct_sha256": len(families_by_sha),
        "kind_share": {k: share(v, len(entries) or 1) for k, v in sorted(kinds.items())},
        "families": len(family_sizes),
        "unlabeled_file_share": share(sum(1 for f in families_by_sha.values() if not f), files),
        "top_family_share": share(max(family_sizes.values(), default=0), files),
        "multi_family_file_share": share(sum(1 for f in families_by_sha.values() if len(f) > 1), files),
        "shared_tag_report_share": share(sum(1 for r in reports if shared & set(r.tags))),
        "max_tag_report_share": share(max(tag_sizes.values(), default=0)),
        "slug_colliding_tag_report_share": share(sum(1 for r in reports if colliding & set(r.tags))),
        "non_ascii_tag_report_share": share(sum(1 for r in reports if any(not t.isascii() for t in r.tags))),
        "vendor_intel_share": share(sum(1 for r in reports if r.vendor_intel)),
        "yara_share": share(sum(1 for r in reports if r.yara_rules)),
        "certificate_share": share(sum(1 for r in reports if r.certificate)),
        "no_country_share": share(sum(1 for r in reports if not r.origin_country)),
        "no_reporter_share": share(sum(1 for r in reports if not r.reporter)),
    }


def _nt(term) -> str:
    return term_to_ntriples(term)


class Expected:
    """Query and command results implied by the plan for a set of reports."""

    def __init__(self, reports: list[MalwareReport]):
        self.by_sha: dict[str, list[MalwareReport]] = {}
        for r in reports:
            self.by_sha.setdefault(r.sha256, []).append(r)
        self.ids = {sha: self._merged_ids(rs) for sha, rs in self.by_sha.items()}
        self.family_iri: dict[str, str] = {}
        self.family_members: dict[str, set[str]] = {}
        self.tag_iri: dict[str, str] = {}
        self.tag_members: dict[str, set[str]] = {}
        for sha, rs in self.by_sha.items():
            malware = self.ids[sha]["malware"]
            for r in rs:
                ids = mint_iris(r)
                if r.signature:
                    self.family_iri[r.signature] = ids["family"]
                    self.family_members.setdefault(r.signature, set()).add(malware)
                for tag in r.tags:
                    self.tag_iri[tag] = ids[f"tag:{tag}"]
                    self.tag_members.setdefault(tag, set()).add(malware)

    @staticmethod
    def _merged_ids(reports: list[MalwareReport]) -> dict[str, str]:
        ids: dict[str, str] = {}
        for r in reports:
            ids.update(mint_iris(r))
        return ids

    def shas(self) -> list[str]:
        return sorted(self.by_sha)

    def dual_shas(self) -> list[str]:
        return sorted(sha for sha, rs in self.by_sha.items() if len({r.signature for r in rs}) > 1)

    def uc1(self, family: str) -> set:
        return {(IRI(m),) for m in self.family_members[family]}

    def uc2(self, tag: str) -> set:
        return {(IRI(m),) for m in self.tag_members[tag]}

    def uc3(self, sha: str) -> set:
        r = self.by_sha[sha][0]
        ids = self.ids[sha]
        rows = {
            (IRI(RDF_TYPE), IRI(andmal("File"))),
            (IRI(andmal("contains")), IRI(ids["malware"])),
            (IRI(andmal("hasFileName")), Literal(r.file_name)),
        }
        if r.file_size is not None:
            rows.add((IRI(andmal("hasFileSize")), Literal(str(r.file_size), XSD_INTEGER)))
        if r.file_type is not None:
            rows.add((IRI(andmal("hasFileType")), Literal(r.file_type)))
        if r.first_seen is not None:
            rows.add((IRI(andmal("firstSeen")), Literal(r.first_seen, XSD_DATETIME)))
        if r.last_seen is not None:
            rows.add((IRI(andmal("lastSeen")), Literal(r.last_seen, XSD_DATETIME)))
        if r.reporter:
            rows.add((IRI(malont("hasReporter")), IRI(ids["reporter"])))
        if r.origin_country:
            rows.add((IRI(andmal("ReportedFrom")), IRI(ids["location"])))
        if r.certificate:
            rows.add((IRI(andmal("hasCertificate")), IRI(ids["cert"])))
        for role, iri in ids.items():
            if role.startswith("hash:"):
                rows.add((IRI(andmal("hasHash")), IRI(iri)))
        return rows

    def uc4(self) -> set:
        return {
            (IRI(self.ids[sha]["file"]), Literal(self.by_sha[sha][0].file_name), 2)
            for sha in self.dual_shas()
        }

    def uc5(self) -> set:
        return {
            (IRI(self.ids[sha]["file"]), Literal(rs[0].file_name),
             IRI(self.ids[sha]["reporter"]), IRI(self.ids[sha]["location"]))
            for sha, rs in self.by_sha.items()
            if rs[0].reporter and rs[0].origin_country
        }

    def uc6(self) -> list[tuple]:
        counts = Counter(
            self.ids[sha]["location"]
            for sha, rs in self.by_sha.items()
            if rs[0].reporter and rs[0].origin_country
        )
        rows = sorted((_nt(IRI(loc)), n) for loc, n in counts.items() if n > 10)
        rows.sort(key=lambda row: row[1], reverse=True)
        return [(IRI(loc[1:-1]), n) for loc, n in rows]

    def uc6_tsv(self) -> str:
        lines = ["?reportedFrom\t?count"] + [f"{_nt(loc)}\t{n}" for loc, n in self.uc6()]
        return "\n".join(lines) + "\n"

    def stats_family(self) -> str:
        """Expected stdout of `stats --by family`."""
        counts: Counter = Counter()
        for family, members in self.family_members.items():
            local = self.family_iri[family].rsplit("#", 1)[-1]
            key = local[len("family_"):] if local.startswith("family_") else local
            counts[key] += len(members)
        unlabeled = sum(1 for rs in self.by_sha.values() if not any(r.signature for r in rs))
        if unlabeled:
            counts["n/a"] += unlabeled
        lines = [f"{k}\t{c}" for k, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        lines.append(f"TOTAL\t{len(self.by_sha)}")
        return "\n".join(lines) + "\n"

    def colliding_tags(self) -> list[str]:
        """Tags in the corpus whose slug is shared with another label present."""
        labels = {t for pair in COLLIDING_TAGS for t in pair}
        return sorted(t for t in self.tag_members if t in labels)

    def rotating_tags(self) -> list[str]:
        """uc2 constants for timed ops: every tag not known to collide."""
        labels = {t for pair in COLLIDING_TAGS for t in pair}
        return sorted(t for t in self.tag_members if t not in labels)
