"""Seeded, stdlib-only synthetic corpus for the benchmark.

Everything here depends on the seed and the sizes alone: the same seed
writes byte-identical zips, because member order and ``ZipInfo`` fields
are fixed.  The convert builders also write ``manifest.json``: what a
correct conversion must produce (WKU order, dates, inventors, reference
counts, claims line counts, canonical IPC codes) and the faults they
injected, computed from the generated values without the library, so the
checker never trusts the code it checks.

Three shapes, one per workload:

* APS weeks: fixed-tag text, Latin-1, claims of 5-50 KB with
  continuation lines, 1-15 inventors, 0-40 references, and about 0.5%
  of PATN sections without a WKU or with an invalid ISD.
* XML weeks: XML2 (2002-2004 layout, undefined DTD entities such as
  ``&bull;``) and XML4 (v4 layout) documents, about 0.5% of them
  truncated or without a document number, laid out as a download cache
  with ``.meta.json`` sidecars so nothing is ever fetched.
* Stats CSV: about 100k short records in the documented nine-column
  CSV format, written with the stdlib ``csv`` module.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import os
import random
import zipfile
from dataclasses import dataclass, field

ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)
FAULT_SHARE = 0.005

SYLLABLES = (
    "ab ac ad al am an ar as at ba be bi bo ca ce ci co cu da de di do du "
    "el em en er es et fa fe fi fo ga ge gi go ha he hi ho ic id il im in "
    "ir is it la le li lo lu ma me mi mo mu na ne ni no nu ob oc od ol om "
    "on or os ot pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to "
    "tu ul um un ur us va ve vi vo"
).split()

# Latin-1 names, so the APS path's encoding handling shows in the output.
LAST_NAMES = (
    "Müller", "Østergaard", "Núñez", "Doe", "Smith", "Béla", "Åkesson",
    "Groß", "Lefèvre", "O'Brien", "Ibáñez", "Jørgensen", "Kowalski",
    "Nguyen", "Schäfer", "Zoë", "Castaño", "Håkansson", "Weiß", "Dupré",
)
FIRST_NAMES = (
    "Jürgen", "Anaïs", "José", "John", "Ærlig", "Renée", "Søren", "Ines",
    "Björn", "Mária", "Chloé", "Peter", "Ángel", "Noël", "Grete",
)
CITIES = ("Springfield", "Zürich", "Malmö", "Columbus", "Köln", "Portland")
STATES = ("OH", "NY", "CA", "TX", "WA", "MA")
ORG_SUFFIXES = ("Inc.", "GmbH", "AB", "Corporation", "S.A.", "Ltd.")
SUBCLASSES = (
    "A01B", "A47B", "A61K", "A61B", "B01D", "B29C", "B60R", "B65D", "C07C",
    "C07D", "C08F", "C08L", "C12N", "D04H", "E04B", "E21B", "F02M", "F16B",
    "F16H", "G01N", "G02B", "G06F", "G06K", "G11B", "H01L", "H01M", "H04L",
    "H04N", "H05K", "G03G",
)


def first_tuesday(year: int) -> dt.date:
    jan1 = dt.date(year, 1, 1)
    return jan1 + dt.timedelta(days=(1 - jan1.weekday()) % 7)


def week_tuesday(year: int, week: int) -> dt.date:
    return first_tuesday(year) + dt.timedelta(weeks=week - 1)


def ymd(d: dt.date) -> str:
    return d.strftime("%Y%m%d")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_zip(path: str, member: str, data: bytes) -> None:
    """One deflated member with fixed metadata, so bytes depend on data only."""
    info = zipfile.ZipInfo(member, date_time=ZIP_DATE_TIME)
    info.compress_type = zipfile.ZIP_DEFLATED
    info.create_system = 3
    info.external_attr = 0o644 << 16
    with zipfile.ZipFile(path, "w") as archive:
        # level 1: set-up stays cheap, and inflate speed barely depends on level
        archive.writestr(info, data, compresslevel=1)


def write_manifest(root: str, manifest: dict) -> None:
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, ensure_ascii=False, indent=1)


@dataclass
class Patent:
    """Generated field values of one patent, before any rendering."""

    wku: str
    title: list[str]
    app_date: dt.date | None
    issue_date: dt.date
    inventors: list[tuple[str, str]]
    assignee: str | None
    ipc: list[tuple[str, int, int]]
    references: list[str]
    claims: list[list[str]]
    fault: str | None = None

    def expected(self, claims_preamble: int = 0) -> dict:
        """What a correct conversion writes for this patent; the APS claims
        section carries one statement line ahead of the claims."""
        return {
            "wku": self.wku,
            "title": " ".join(self.title),
            "app_date": self.app_date.isoformat() if self.app_date else "",
            "issue_date": self.issue_date.isoformat(),
            "inventors": ["%s, %s" % name for name in self.inventors],
            "references": len(self.references),
            "claims_lines": claims_preamble + sum(len(claim) for claim in self.claims),
            "ipc": ["%s %d/%02d" % code for code in self.ipc],
        }


@dataclass
class Corpus:
    """Generated inputs plus the manifest a correct run must match."""

    root: str
    inputs: list[str]
    input_bytes: int
    records: int
    manifest: dict = field(default_factory=dict)


class Strata:
    """Integers from [lo, hi] that cover the range evenly in every block of
    BLOCK draws, so corpus-wide means, and with them the work per record,
    barely move with the seed."""

    BLOCK = 50

    def __init__(self, rng: random.Random, lo: int, hi: int) -> None:
        self.rng, self.lo, self.hi = rng, lo, hi
        self.pending: list[int] = []

    def draw(self) -> int:
        if not self.pending:
            span = self.hi - self.lo + 1
            self.pending = [self.lo + int(span * (k + self.rng.random()) / self.BLOCK)
                            for k in range(self.BLOCK)]
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class TextSource:
    """Words, claim lines and per-patent sizes drawn from one seeded stream."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.claims_bytes = Strata(rng, 5_000, 50_000)
        self.inventors = Strata(rng, 1, 15)
        self.references = Strata(rng, 0, 40)
        vocab: set[str] = set()
        while len(vocab) < 3000:
            vocab.add("".join(rng.choices(SYLLABLES, k=rng.randint(2, 5))))
        self.words = sorted(vocab)
        # A pool of claim lines wider than deflate's 32 KB window keeps
        # compression ratios near real text while generation stays cheap.
        self.lines = [self.phrase(6, 11) for _ in range(6000)]

    def phrase(self, lo: int, hi: int) -> str:
        return " ".join(self.rng.choices(self.words, k=self.rng.randint(lo, hi)))

    def title(self) -> list[str]:
        return self.rng.choices(self.words, k=self.rng.randint(3, 12))

    def claims(self) -> list[list[str]]:
        rng = self.rng
        budget = self.claims_bytes.draw()
        claims: list[list[str]] = []
        size = 0
        while size < budget:
            lines = rng.choices(self.lines, k=rng.randint(3, 12))
            lines[0] = "%d. A %s comprising:" % (len(claims) + 1, lines[0])
            size += sum(len(line) + 6 for line in lines)
            claims.append(lines)
        return claims


def make_patent(rng: random.Random, text: TextSource, wku: str, issue: dt.date) -> Patent:
    app = None
    if rng.random() > 0.01:
        app = issue - dt.timedelta(days=rng.randint(200, 2500))
    heads = rng.sample(SUBCLASSES, rng.randint(1, 4))
    return Patent(
        wku=wku,
        title=text.title(),
        app_date=app,
        issue_date=issue,
        inventors=[
            (rng.choice(LAST_NAMES), rng.choice(FIRST_NAMES))
            for _ in range(text.inventors.draw())
        ],
        assignee=(
            "%s %s" % (text.phrase(1, 2).title(), rng.choice(ORG_SUFFIXES))
            if rng.random() < 0.8 else None
        ),
        ipc=[(head, rng.randint(1, 999), rng.randint(0, 99)) for head in heads],
        references=["%07d" % rng.randrange(1_000_000, 6_000_000)
                    for _ in range(text.references.draw())],
        claims=text.claims(),
    )


def fault_positions(rng: random.Random, count: int) -> set[int]:
    """About FAULT_SHARE of ``count`` positions, never none."""
    return set(rng.sample(range(count), max(1, round(count * FAULT_SHARE))))


# ---------------------------------------------------------------- APS


def aps_section(p: Patent, rng: random.Random) -> list[str]:
    lines = ["PATN"]
    if p.fault != "no_wku":
        lines.append("WKU  " + p.wku)
    lines.append("SRC  5")
    lines.append("APN  %06d" % rng.randrange(10**6))
    if p.app_date:
        lines.append("APD  " + ymd(p.app_date))
    half = max(1, len(p.title) // 2)
    lines.append("TTL  " + " ".join(p.title[:half]))
    if p.title[half:]:
        lines.append("     " + " ".join(p.title[half:]))
    lines.append("ISD  " + ("%d1340" % p.issue_date.year if p.fault == "bad_isd" else ymd(p.issue_date)))
    lines.append("NCL  %d" % len(p.claims))
    for last, first in p.inventors:
        lines += ["INVT", "NAM  %s; %s" % (last, first), "CTY  " + rng.choice(CITIES),
                  "STA  " + rng.choice(STATES)]
    if p.assignee:
        lines += ["ASSG", "NAM  " + p.assignee, "COD  02"]
    lines += ["CLAS", "OCL  %06d" % rng.randrange(10**6)]
    lines += ["ICL  %s%3d%02d" % code for code in p.ipc]
    for ref in p.references:
        lines += ["UREF", "PNO  " + ref, "ISD  19661100", "NAM  " + rng.choice(LAST_NAMES)]
    lines += ["ABST", "PAL  " + rng.choice(p.claims[0]), "     " + rng.choice(p.claims[0])]
    lines += ["CLMS", "STM  What is claimed is:"]
    for claim in p.claims:
        for i, line in enumerate(claim):
            # every claim line, continuation or not, becomes one claims line
            code = "PAR " if i == 0 else ("    " if rng.random() < 0.3 else "PA1 ")
            lines.append(code + " " + line)
    return lines


def build_aps(root: str, seed: int, weeks: int = 3, week_bytes: int = 13_000_000) -> Corpus:
    """APS weeks of 1996 as ``pftaps*.zip``, one text member each."""
    rng = random.Random("aps:%d" % seed)
    text = TextSource(rng)
    os.makedirs(root, exist_ok=True)
    inputs, expected, injected = [], [], []
    input_bytes = 0
    serial = 50_000_000
    for week in range(1, weeks + 1):
        issue = week_tuesday(1996, week)
        sections: list[list[str]] = []
        patents: list[Patent] = []
        size = 0
        while size < week_bytes:
            serial += 1
            p = make_patent(rng, text, "%09d" % serial, issue)
            section = aps_section(p, rng)
            patents.append(p)
            sections.append(section)
            size += sum(len(line) + 1 for line in section)
        for index in sorted(fault_positions(rng, len(patents))):
            p = patents[index]
            p.fault = rng.choice(("no_wku", "bad_isd"))
            sections[index] = aps_section(p, rng)
            injected.append({"week": week, "section": index, "wku": p.wku, "fault": p.fault})
        expected += [p.expected(claims_preamble=1) for p in patents if p.fault is None]
        data = "".join(line + "\n" for section in sections for line in section).encode("latin-1")
        name = "pftaps%s_wk%02d" % (ymd(issue), week)
        path = os.path.join(root, name + ".zip")
        write_zip(path, name + ".txt", data)
        inputs.append(path)
        input_bytes += len(data)
    manifest = {"records": expected, "injected": injected}
    write_manifest(root, manifest)
    return Corpus(root, inputs, input_bytes, len(expected), manifest)


# ---------------------------------------------------------------- XML


def _xml4_doc(p: Patent, rng: random.Random) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<!DOCTYPE us-patent-grant SYSTEM "us-patent-grant-v40-2004-12-02.dtd" [ ]>',
        '<us-patent-grant lang="EN" dtd-version="v4.0 2004-12-02" file="US%s-%s.XML"'
        ' status="PRODUCTION" id="us-patent-grant" country="US" date-produced="%s"'
        ' date-publ="%s">' % (p.wku, ymd(p.issue_date), ymd(p.issue_date), ymd(p.issue_date)),
        "<us-bibliographic-data-grant>",
        "<publication-reference>",
        "<document-id>",
        "<country>US</country>",
    ]
    if p.fault != "no_number":
        out.append("<doc-number>%s</doc-number>" % p.wku)
    out += ["<kind>B2</kind>", "<date>%s</date>" % ymd(p.issue_date), "</document-id>",
            "</publication-reference>", '<application-reference appl-type="utility">',
            "<document-id>", "<country>US</country>",
            "<doc-number>%08d</doc-number>" % rng.randrange(10**8)]
    if p.app_date:
        out.append("<date>%s</date>" % ymd(p.app_date))
    out += ["</document-id>", "</application-reference>", "<classifications-ipcr>"]
    for head, group, sub in p.ipc:
        out.append(
            "<classification-ipcr><ipc-version-indicator><date>20060101</date>"
            "</ipc-version-indicator><section>%s</section><class>%s</class>"
            "<subclass>%s</subclass><main-group>%d</main-group><subgroup>%02d</subgroup>"
            "</classification-ipcr>" % (head[0], head[1:3], head[3], group, sub)
        )
    out += ["</classifications-ipcr>", '<invention-title id="d0e53">%s</invention-title>'
            % " ".join(p.title), "<us-references-cited>"]
    for i, ref in enumerate(p.references, 1):
        out.append(
            '<us-citation><patcit num="%05d"><document-id><country>US</country>'
            "<doc-number>%s</doc-number><kind>A</kind><date>19661100</date></document-id>"
            "</patcit><category>cited by examiner</category></us-citation>" % (i, ref)
        )
    out.append('<us-citation><nplcit num="09999"><othercit>%s</othercit></nplcit>'
               "<category>cited by other</category></us-citation>" % " ".join(p.title))
    out += ["</us-references-cited>", "<us-parties>", "<inventors>"]
    for i, (last, first) in enumerate(p.inventors, 1):
        out.append(
            '<inventor sequence="%03d" designation="us-only"><addressbook>'
            "<last-name>%s</last-name><first-name>%s</first-name><address><city>%s</city>"
            "<country>US</country></address></addressbook></inventor>"
            % (i, last, first, rng.choice(CITIES))
        )
    out += ["</inventors>", "</us-parties>"]
    if p.assignee:
        out.append("<assignees><assignee><addressbook><orgname>%s</orgname><role>02</role>"
                   "</addressbook></assignee></assignees>" % p.assignee)
    out += ["</us-bibliographic-data-grant>",
            '<abstract id="abstract"><p id="p-0001" num="0000">%s</p></abstract>'
            % p.claims[0][-1], '<claims id="claims">']
    for number, claim in enumerate(p.claims, 1):
        out.append('<claim id="CLM-%05d" num="%05d">' % (number, number))
        out.append("<claim-text>%s" % claim[0])
        out += ["<claim-text>%s</claim-text>" % line for line in claim[1:]]
        out.append("</claim-text>")
        out.append("</claim>")
    out += ["</claims>", "</us-patent-grant>"]
    return "\n".join(out) + "\n"


def _xml2_doc(p: Patent, rng: random.Random) -> tuple[str, int]:
    """(document, undefined entity references in it)."""
    d = ymd(p.issue_date)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<!DOCTYPE PATDOC SYSTEM "ST32-US-Grant-025xml.dtd" [',
        '<!ENTITY US%s-%s-D00000.TIF SYSTEM "US%s-%s-D00000.TIF" NDATA TIF>' % (p.wku, d, p.wku, d),
        "]>",
        '<PATDOC DTD="2.5" STATUS="Build 20031216">',
        "<SDOBI>",
        "<B100>",
    ]
    if p.fault != "no_number":
        out.append("<B110><DNUM><PDAT>%s</PDAT></DNUM></B110>" % p.wku)
    out += ["<B130><PDAT>B2</PDAT></B130>", "<B140><DATE><PDAT>%s</PDAT></DATE></B140>" % d,
            "<B190><PDAT>US</PDAT></B190>", "</B100>", "<B200>",
            "<B210><DNUM><PDAT>%08d</PDAT></DNUM></B210>" % rng.randrange(10**8)]
    if p.app_date:
        out.append("<B220><DATE><PDAT>%s</PDAT></DATE></B220>" % ymd(p.app_date))
    out += ["</B200>", "<B500>", "<B510>"]
    for i, code in enumerate(p.ipc):
        out.append("<B51%d><PDAT>%s %d/%02d</PDAT></B51%d>" % (1 if i == 0 else 2, *code, 1 if i == 0 else 2))
    out += ["<B516><PDAT>7</PDAT></B516>", "</B510>",
            "<B540><STEXT><PDAT>%s</PDAT></STEXT></B540>" % " ".join(p.title), "<B560>"]
    out += ["<B561><PCIT><DOC><DNUM><PDAT>%s</PDAT></DNUM><KIND>A</KIND></DOC></PCIT>"
            "<CITED-BY-EXAMINER/></B561>" % ref for ref in p.references]
    out += ["</B560>", "</B500>", "<B700>", "<B720>"]
    out += ["<B721><PARTY-US><NAM><FNM><PDAT>%s</PDAT></FNM><SNM><STEXT><PDAT>%s</PDAT>"
            "</STEXT></SNM></NAM><ADR><CITY><PDAT>%s</PDAT></CITY></ADR></PARTY-US></B721>"
            % (first, last, rng.choice(CITIES)) for last, first in p.inventors]
    out.append("</B720>")
    if p.assignee:
        out.append("<B730><B731><PARTY-US><NAM><ONM><STEXT><PDAT>%s</PDAT></STEXT></ONM>"
                   "</NAM></PARTY-US></B731></B730>" % p.assignee)
    out += ["</B700>", "</SDOBI>",
            "<SDOAB><BTEXT><PARA ID=\"P-00001\"><PTEXT><PDAT>%s</PDAT></PTEXT></PARA>"
            "</BTEXT></SDOAB>" % p.claims[0][-1],
            "<SDOCL>", "<H LVL=\"1\"><STEXT><PDAT>What is claimed is:</PDAT></STEXT></H>", "<CL>"]
    entities = 0
    for number, claim in enumerate(p.claims, 1):
        out.append('<CLM ID="CLM-%05d">' % number)
        for i, line in enumerate(claim):
            if i and rng.random() < 0.2:
                line = "&bull; " + line
                entities += 1
            out.append('<PARA ID="P-%05d" LVL="%d"><PTEXT><PDAT>%s</PDAT></PTEXT></PARA>'
                       % (i + 1, 0 if i == 0 else 1, line))
        out.append("</CLM>")
    out += ["</CL>", "</SDOCL>", "</PATDOC>"]
    return "\n".join(out) + "\n", entities


def _truncate(doc: str) -> str:
    lines = doc.split("\n")
    return "\n".join(lines[: len(lines) // 2]) + "\n"


def xml_cache_name(year: int, week: int) -> str:
    """Cache file name of a week, as the fetch layer names it."""
    issue = week_tuesday(year, week)
    prefix = "pg" if year <= 2004 else "ipg"
    return "%s%s.zip" % (prefix, issue.strftime("%y%m%d"))


def build_xml_cache(
    root: str, seed: int, years: tuple[int, ...] = (2004, 2005), weeks: int = 2,
    week_bytes: int = 6_000_000,
) -> Corpus:
    """XML2 weeks of 2004 and XML4 weeks of 2005 laid out as a fetch cache."""
    rng = random.Random("xml:%d" % seed)
    text = TextSource(rng)
    os.makedirs(root, exist_ok=True)
    inputs, expected, injected = [], [], []
    input_bytes = entities_total = 0
    serial = 6_800_000
    for year in years:
        for week in range(1, weeks + 1):
            issue = week_tuesday(year, week)
            patents: list[Patent] = []
            size = 0
            while size < week_bytes:
                serial += 1
                p = make_patent(rng, text, "%08d" % serial, issue)
                patents.append(p)
                # claim lines plus their markup, and the bibliographic block
                size += sum(len(line) + 40 for claim in p.claims for line in claim) + 3_000
            for index in sorted(fault_positions(rng, len(patents))):
                patents[index].fault = rng.choice(("truncated", "no_number"))
            docs = []
            for index, p in enumerate(patents):
                if year <= 2004:
                    doc, entities = _xml2_doc(p, rng)
                    entities_total += entities
                else:
                    doc = _xml4_doc(p, rng)
                if p.fault == "truncated":
                    doc = _truncate(doc)
                if p.fault:
                    injected.append({"year": year, "week": week, "document": index,
                                     "wku": p.wku, "fault": p.fault})
                docs.append(doc)
            expected += [p.expected() for p in patents if p.fault is None]
            data = "".join(docs).encode("utf-8")
            name = xml_cache_name(year, week)
            path = os.path.join(root, name)
            write_zip(path, name[:-4] + ".xml", data)
            _write_sidecar(path, year)
            inputs.append(path)
            input_bytes += len(data)
    manifest = {"records": expected, "injected": injected, "entities": entities_total}
    write_manifest(root, manifest)
    return Corpus(root, inputs, input_bytes, len(expected), manifest)


def _write_sidecar(path: str, year: int) -> None:
    """Cache index entry the fetch layer accepts as a hit."""
    meta = {
        "source_url": "https://bulkdata.uspto.gov/data/patent/grant/redbook/fulltext/%d/%s"
        % (year, os.path.basename(path)),
        "byte_size": os.path.getsize(path),
        "content_digest": "sha256:" + sha256_file(path),
        "retrieved_at": "2000-01-01T00:00:00+00:00",
    }
    with open(path + ".meta.json", "w") as handle:
        json.dump(meta, handle, indent=2)


# ---------------------------------------------------------------- stats


CSV_COLUMNS = (
    "wku", "title", "app_date", "issue_date", "inventors", "assignees",
    "ipc_codes", "references", "claims",
)


def stats_rows(seed: int, records: int) -> list[list[str]]:
    """Short records over 1996-2005 with a skewed subclass mix."""
    rng = random.Random("stats:%d" % seed)
    draw = rng.random  # plain floats: randint per cell would dominate set-up time
    tuesdays = [week_tuesday(year, week) for year in range(1996, 2006) for week in range(1, 53)]
    names = ["%s, %s" % (last, first) for last in LAST_NAMES for first in FIRST_NAMES]
    weights = [1.0 / (rank + 1) for rank in range(len(SUBCLASSES))]
    rows = []
    for serial in range(records):
        issue = tuesdays[int(draw() * len(tuesdays))]
        roll = draw()
        if roll < 0.05:
            app = ""
        elif roll < 0.055:
            # a source-data error: applied after issue
            app = (issue + dt.timedelta(days=1 + int(draw() * 60))).isoformat()
        else:
            app = (issue - dt.timedelta(days=150 + int(draw() * 2850))).isoformat()
        heads = list(dict.fromkeys(rng.choices(SUBCLASSES, weights, k=1 + int(draw() * 3))))
        rows.append([
            "%09d" % (40_000_000 + serial),
            "Widget %d" % int(draw() * 10**6),
            app,
            issue.isoformat(),
            "; ".join(names[int(draw() * len(names))] for _ in range(1 + int(draw() * 3))),
            "Acme %d Inc." % int(draw() * 100) if draw() < 0.7 else "",
            "; ".join("%s %d/%02d" % (h, 1 + int(draw() * 999), int(draw() * 100)) for h in heads),
            "; ".join("%07d" % int(draw() * 10**7) for _ in range(int(draw() * 4))),
            "1. A widget comprising a frame.",
        ])
    return rows


def build_stats_csv(root: str, seed: int, records: int = 100_000) -> Corpus:
    """The CSV is its own manifest: the checker recomputes the expected
    tables from the generated rows, kept in memory."""
    os.makedirs(root, exist_ok=True)
    rows = stats_rows(seed, records)
    path = os.path.join(root, "records.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    return Corpus(root, [path], os.path.getsize(path), records, {"rows": rows})


BUILDERS = {"aps": build_aps, "xml": build_xml_cache, "stats": build_stats_csv}
