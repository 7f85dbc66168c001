"""Splitter and record mapper for the XML-era weekly grant files.

A weekly file concatenates thousands of standalone XML documents, each
with its own prolog.  The splitter yields one document at a time, cut
before each line-start ``<?xml`` by ``model.cut_before`` as APS input is
cut before each PATN, and maps it through an era-specific element table.
The tables are data (JSON shipped with the package), not code, so schema
drift within an era is absorbed by editing paths.

Each document is parsed in one expat pass.  An entity that nothing in the
document declares (``&bull;`` of the DTD-era files) becomes its name in
square brackets, counted in the parse report.  As expat has it, such an
entity is dropped uncounted inside an attribute value, an entity reference
in CDATA stays literal, a general entity declared in the internal subset is
expanded, a ``standalone="yes"`` document that references an undeclared
entity is malformed, and namespace prefixes are not checked: tags arrive as
written.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from xml.parsers import expat
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Union

from .model import (
    CSV_COLUMNS,
    GrantParseError,
    ParseReport,
    PatentRecord,
    SourceFormat,
    WrongFileTypeError,
    build_record,
    cut_before,
    ipc_parse,  # noqa: F401 - unused; perfbench/tracing.py wraps it by this module's name
    record_fields,
)


@dataclass(frozen=True)
class XmlDocSlice:
    """Bytes of exactly one embedded XML document plus its file position."""

    data: bytes
    ordinal: int


def split_concatenated_documents(
    stream: Union[BinaryIO, Iterable[bytes]]
) -> Iterator[XmlDocSlice]:
    """Yield each embedded document once, in file order.

    Cuts the input, a stream or an iterable of pieces such as lines,
    before each line that starts with ``<?xml``.  A slice covers every
    byte from its prolog up to the next, so concatenating the slices
    reproduces the input from its first prolog on; any bytes before that
    are dropped.  Raises WrongFileTypeError when no prolog is found.
    """
    ordinal = 0
    for chunk in cut_before(stream, b"\n<?xml"):
        if chunk.startswith(b"<?xml"):
            yield XmlDocSlice(chunk, ordinal)
            ordinal += 1
    if not ordinal:
        raise WrongFileTypeError("no XML document prolog found in input")


class ElementMapping:
    """Era-specific table of element paths per record field."""

    FIELD_NAMES = CSV_COLUMNS

    def __init__(self, format: SourceFormat, table: dict) -> None:
        missing = [f for f in self.FIELD_NAMES if f not in table.get("fields", {})]
        if missing:
            raise ValueError("mapping table misses fields: %s" % ", ".join(missing))
        self.format = format
        self.root = table["root"]
        self.fields = table["fields"]


@cache
def mapping_for(format: SourceFormat) -> ElementMapping:
    """Load the era's mapping table once; APS is not XML and is rejected."""
    if format is SourceFormat.APS:
        raise ValueError("APS is a fixed-tag text format, not XML")
    name = "%s.json" % format.value
    text = resources.files("patentbulk").joinpath("mappings", name).read_text()
    return ElementMapping(format, json.loads(text))


_ENCODING_RE = re.compile(rb'<\?xml[^>]*encoding=["\']([A-Za-z0-9._-]+)["\']')


def _decode(data: bytes) -> str:
    m = _ENCODING_RE.match(data)
    encoding = m.group(1).decode("ascii") if m else "utf-8"
    try:
        return data.decode(encoding)
    except (LookupError, UnicodeDecodeError):
        # latin-1 maps every byte; a wrong glyph beats an aborted week
        return data.decode("latin-1")


def _parse_document(text: str, report: ParseReport) -> ET.Element:
    """Build one decoded document's tree; pyexpat reads a ``str`` as UTF-8
    whatever its prolog declares, and the foreign DTD makes an undeclared
    entity one that expat skips rather than an error."""
    builder = ET.TreeBuilder()
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.UseForeignDTD(True)
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        builder.data("[%s]" % name)
        report.entity_substitutions += 1

    parser.SkippedEntityHandler = skipped_entity
    parser.Parse(text, True)
    return builder.close()


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _text_of(elem: ET.Element) -> str:
    return _collapse("".join(elem.itertext()))


def _first_values(
    root: ET.Element, paths: list[str], value: Callable[[ET.Element], str] = _text_of
) -> Iterator[str]:
    """Yield the non-empty values of the first path that yields any, the
    lookup rule of every field but the IPC codes; ``value`` turns a match
    into text."""
    for path in paths:
        found = False
        for elem in root.iterfind(path):
            text = value(elem)
            if text:
                found = True
                yield text
        if found:
            return


def _part_text(elem: ET.Element, path: str) -> str:
    found = elem.find(path)
    return _text_of(found) if found is not None else ""


def _name(block: ET.Element, parts: dict) -> str:
    """A name block's name: an organization verbatim, a person in the
    fixed-tag era's source order, surname first ("Doe, John")."""
    org = _part_text(block, parts["org"])
    if org:
        return org
    last = _part_text(block, parts["last"])
    first = _part_text(block, parts["first"])
    return "%s, %s" % (last, first) if last and first else last or first


def _assemble_ipcr(elem: ET.Element, parts: dict) -> str:
    section = _part_text(elem, parts["section"])
    class_num = _part_text(elem, parts["class"])
    subclass = _part_text(elem, parts["subclass"])
    group = _part_text(elem, parts["group"])
    subgroup = _part_text(elem, parts["subgroup"])
    head = section + class_num + subclass
    if group and subgroup:
        return "%s %s/%s" % (head, group, subgroup)
    if len(group) > 3:  # alone, 2300 would read as a packed field, 230/0
        return "%s %s/" % (head, group)
    return head + group


def _ipc_texts(root: ET.Element, rule: dict) -> Iterator[str]:
    """The non-empty raw text of every classification block on every path:
    the IPC codes alone are the union of their paths."""
    for entry in rule["paths"]:
        for elem in root.findall(entry["path"]):
            if entry["style"] == "parts":
                raw = _assemble_ipcr(elem, rule["ipc_parts"])
            else:
                raw = _text_of(elem)
            if raw:
                yield raw


def _claim_text(claim: ET.Element, para_tags: frozenset) -> str:
    """One claim's text lines, joined by newlines.

    A paragraph element (tag in ``para_tags``) starts a new line at any
    depth; whitespace within a line collapses.  NUL marks the breaks, as
    XML cannot contain it: the marks go into the text and tail of each
    paragraph element, so the C ``itertext`` does the walk.  NUL is not
    whitespace, so the whole claim collapses at once; then the one space
    a run may leave beside a mark goes.
    """
    for e in claim.iter():
        if e.tag in para_tags:
            e.text = "\0" + (e.text or "")
            e.tail = "\0" + (e.tail or "")
    text = _collapse("".join(claim.itertext())).replace(" \0", "\0").replace("\0 ", "\0")
    return "\n".join(filter(None, text.split("\0")))


def parse_grant_xml(
    doc: XmlDocSlice,
    mapping: ElementMapping,
    report: Optional[ParseReport] = None,
) -> PatentRecord:
    """Map one document to a record under the era's element table.

    Raises GrantParseError for malformed XML and WrongFileTypeError for a
    root element of another era.  The raw field values then pass the
    rules both eras share, ``model.record_fields``: a document without its
    number or a valid grant date raises GrantParseError, and field-level
    problems (bad IPC, bad application date) are warnings in ``report``
    (a fresh one if none is given) that do not lose the record.
    """
    if report is None:
        report = ParseReport()
    try:
        root = _parse_document(_decode(doc.data), report)
    except (expat.ExpatError, UnicodeEncodeError) as exc:
        # a lone surrogate decoded from the declared codec cannot reach expat
        raise GrantParseError(doc.ordinal, "malformed XML: %s" % exc) from exc
    if root.tag != mapping.root:
        raise WrongFileTypeError(
            "document %d: root element <%s> is not the %s root <%s>"
            % (doc.ordinal, root.tag, mapping.format.value, mapping.root)
        )

    fields = mapping.fields
    para_tags = frozenset(fields["claims"]["paragraph_tags"])
    values = {
        name: list(_first_values(root, fields[name]["paths"]))
        for name in ("wku", "title", "app_date", "issue_date", "references")
    }
    for name in ("inventors", "assignees"):
        parts = fields[name]["name_parts"]
        values[name] = list(_first_values(root, fields[name]["paths"], lambda b: _name(b, parts)))
    values["ipc_codes"] = list(_ipc_texts(root, fields["ipc_codes"]))
    values["claims"] = list(
        _first_values(root, fields["claims"]["paths"], lambda c: _claim_text(c, para_tags))
    )
    return build_record(**record_fields(values, doc.ordinal, report))


class XmlWeeklyParser:
    """Split a weekly file and map each document; one instance per stream.
    A foreign root before the first record fails the stream; later, it is skipped."""

    def __init__(self, format: SourceFormat) -> None:
        self.mapping = mapping_for(format)
        self.report = ParseReport()

    def parse(self, stream: Union[BinaryIO, Iterable[bytes]]) -> Iterator[PatentRecord]:
        for doc in split_concatenated_documents(stream):
            self.report.slices_seen += 1
            try:
                record = parse_grant_xml(doc, self.mapping, self.report)
            except WrongFileTypeError as exc:
                if not self.report.records_emitted:
                    raise
                self.report.skip(doc.ordinal, str(exc))
                continue
            except GrantParseError as exc:
                self.report.skip(exc.ordinal, exc.reason)
                continue
            self.report.records_emitted += 1
            yield record
