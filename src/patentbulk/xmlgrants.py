"""Splitter and record mapper for the XML-era weekly grant files.

A weekly file concatenates thousands of standalone XML documents, each
with its own prolog.  The splitter yields one document at a time keyed on
``<?xml`` boundaries at line starts; each document is then mapped to a
record through an era-specific element mapping table.  The tables are
data (JSON shipped with the package), not code, so schema drift within an
era is absorbed by editing paths.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from importlib import resources
from typing import BinaryIO, Iterable, Iterator, Optional, Union

from .model import (
    IpcParseError,
    ParseReport,
    PatentRecord,
    SourceFormat,
    build_record,
    ipc_parse,
    parse_date,
)


class WrongFileTypeError(ValueError):
    """Input contained no XML document prolog at all."""


class GrantParseError(Exception):
    """One document could not be turned into a record; the run continues."""

    def __init__(self, ordinal: int, reason: str) -> None:
        super().__init__("document %d: %s" % (ordinal, reason))
        self.ordinal = ordinal
        self.reason = reason


@dataclass(frozen=True)
class XmlDocSlice:
    """Bytes of exactly one embedded XML document plus its file position."""

    data: bytes
    ordinal: int


def split_concatenated_documents(
    stream: Union[BinaryIO, Iterable[bytes]]
) -> Iterator[XmlDocSlice]:
    """Yield each embedded document once, in file order.

    Splits on lines starting with ``<?xml``.  Slices cover every byte
    from their prolog up to the next prolog, so concatenating them (after
    any leading whitespace) reproduces the input exactly.  Raises
    WrongFileTypeError when no prolog is found.
    """
    buf: list[bytes] = []
    ordinal = 0
    seen_prolog = False
    for line in stream:
        if line.startswith(b"<?xml"):
            if seen_prolog:
                yield XmlDocSlice(b"".join(buf), ordinal)
                ordinal += 1
            seen_prolog = True
            buf = [line]
        elif seen_prolog:
            buf.append(line)
    if not seen_prolog:
        raise WrongFileTypeError("no XML document prolog found in input")
    yield XmlDocSlice(b"".join(buf), ordinal)


class ElementMapping:
    """Era-specific table of element paths per record field."""

    FIELD_NAMES = (
        "wku", "title", "app_date", "issue_date", "inventors",
        "assignees", "ipc_codes", "references", "claims",
    )

    def __init__(self, format: SourceFormat, table: dict) -> None:
        missing = [f for f in self.FIELD_NAMES if f not in table.get("fields", {})]
        if missing:
            raise ValueError("mapping table misses fields: %s" % ", ".join(missing))
        self.format = format
        self.root = table["root"]
        self.fields = table["fields"]


_MAPPING_CACHE: dict[SourceFormat, ElementMapping] = {}


def mapping_for(format: SourceFormat) -> ElementMapping:
    """Load the era's mapping table; APS is not XML and is rejected."""
    if format is SourceFormat.APS:
        raise ValueError("APS is a fixed-tag text format, not XML")
    if format not in _MAPPING_CACHE:
        name = "%s.json" % format.value
        text = resources.files("patentbulk").joinpath("mappings", name).read_text()
        _MAPPING_CACHE[format] = ElementMapping(format, json.loads(text))
    return _MAPPING_CACHE[format]


_ENCODING_RE = re.compile(rb'<\?xml[^>]*encoding=["\']([A-Za-z0-9._-]+)["\']')
_ENTITY_RE = re.compile(r"&([A-Za-z][A-Za-z0-9._-]*);")
_BUILTIN_ENTITIES = frozenset({"amp", "lt", "gt", "apos", "quot"})


def _decode(data: bytes) -> str:
    m = _ENCODING_RE.match(data)
    encoding = m.group(1).decode("ascii") if m else "utf-8"
    try:
        return data.decode(encoding)
    except (LookupError, UnicodeDecodeError):
        # latin-1 maps every byte; a wrong glyph beats an aborted week
        return data.decode("latin-1")


def _strip_declaration(text: str) -> str:
    # ET.fromstring rejects str input that still carries an encoding
    # declaration; the slice is already decoded at this point.
    stripped = text.lstrip()
    if stripped.startswith("<?xml"):
        end = stripped.find("?>")
        if end != -1:
            return stripped[end + 2 :]
    return text


def _strip_doctype(text: str) -> str:
    i = text.find("<!DOCTYPE")
    if i == -1:
        return text
    gt = text.find(">", i)
    bracket = text.find("[", i)
    if bracket != -1 and (gt == -1 or bracket < gt):
        end = text.find("]>", bracket)
        if end == -1:
            return text[:i]
        return text[:i] + text[end + 2 :]
    if gt == -1:
        return text[:i]
    return text[:i] + text[gt + 1 :]


def _substitute_entities(text: str) -> tuple[str, int]:
    """Replace entity references the stdlib parser cannot resolve.

    DTD-era files lean on external entities (&bull;, &Agr;, ...); these
    become the entity name in square brackets rather than aborting a
    multi-hundred-megabyte parse.
    """
    count = 0

    def sub(m: re.Match) -> str:
        nonlocal count
        if m.group(1) in _BUILTIN_ENTITIES:
            return m.group(0)
        count += 1
        return "[%s]" % m.group(1)

    return _ENTITY_RE.sub(sub, text), count


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _text_of(elem: ET.Element) -> str:
    return _collapse("".join(elem.itertext()))


def _first_text(root: ET.Element, paths: list[str]) -> str:
    for path in paths:
        found = root.find(path)
        if found is not None:
            text = _text_of(found)
            if text:
                return text
    return ""


def _repeated_text(root: ET.Element, paths: list[str]) -> list[str]:
    for path in paths:
        found = root.findall(path)
        if found:
            return [t for t in (_text_of(e) for e in found) if t]
    return []


def _part_text(elem: ET.Element, path: str) -> str:
    found = elem.find(path)
    return _text_of(found) if found is not None else ""


def _names(root: ET.Element, rule: dict) -> list[str]:
    """Assemble person/organization names from name blocks.

    Organizations keep their name verbatim; people follow the fixed-tag
    era's source order, surname first ("Doe, John").
    """
    parts = rule["name_parts"]
    for path in rule["paths"]:
        blocks = root.findall(path)
        if not blocks:
            continue
        names = []
        for block in blocks:
            org = _part_text(block, parts["org"])
            if org:
                names.append(org)
                continue
            last = _part_text(block, parts["last"])
            first = _part_text(block, parts["first"])
            if last and first:
                names.append("%s, %s" % (last, first))
            elif last or first:
                names.append(last or first)
        if names:
            return names
    return []


def _assemble_ipcr(elem: ET.Element, parts: dict) -> str:
    section = _part_text(elem, parts["section"])
    class_num = _part_text(elem, parts["class"])
    subclass = _part_text(elem, parts["subclass"])
    group = _part_text(elem, parts["group"])
    subgroup = _part_text(elem, parts["subgroup"])
    head = section + class_num + subclass
    if group and subgroup:
        return "%s %s/%s" % (head, group, subgroup)
    if group:
        return "%s %s" % (head, group)
    return head


def _ipc_codes(root: ET.Element, rule: dict, ordinal: int, report: ParseReport) -> list:
    """Read every classification block present; de-duplicate by canonical form."""
    codes = []
    seen = set()
    for entry in rule["paths"]:
        for elem in root.findall(entry["path"]):
            if entry["style"] == "parts":
                raw = _assemble_ipcr(elem, rule["ipc_parts"])
            else:
                raw = _text_of(elem)
            if not raw:
                continue
            try:
                code = ipc_parse(raw)
            except IpcParseError:
                report.warn(ordinal, "unparseable IPC %r skipped" % (raw,))
                continue
            key = code.canonical()
            if key not in seen:
                seen.add(key)
                codes.append(code)
    return codes


def _paragraph_lines(elem: ET.Element, para_tags: frozenset) -> list[str]:
    """Flatten one paragraph-bearing element into text lines.

    Elements whose tag is in ``para_tags`` start a new line; everything
    else joins the current line.  Whitespace within a line collapses
    (pretty-printing noise); the line structure itself is preserved.
    """
    lines: list[str] = []
    current: list[str] = [elem.text or ""]

    def flush() -> None:
        text = _collapse("".join(current))
        if text:
            lines.append(text)
        current.clear()

    for child in elem:
        tag = child.tag.rsplit("}", 1)[-1]
        if tag in para_tags:
            flush()
            lines.extend(_paragraph_lines(child, para_tags))
            current.append(child.tail or "")
        else:
            current.append("".join(child.itertext()))
            current.append(child.tail or "")
    flush()
    return lines


def _claims_text(root: ET.Element, rule: dict) -> str:
    para_tags = frozenset(rule["paragraph_tags"])
    blocks = []
    for path in rule["paths"]:
        for claim in root.findall(path):
            lines = _paragraph_lines(claim, para_tags)
            if lines:
                blocks.append("\n".join(lines))
        if blocks:
            break
    return "\n".join(blocks)


def parse_grant_xml(
    doc: XmlDocSlice,
    mapping: ElementMapping,
    report: Optional[ParseReport] = None,
) -> PatentRecord:
    """Map one document to a record under the era's element table.

    Raises GrantParseError for malformed XML or a document missing its
    number or grant date; field-level problems (bad IPC, bad application
    date) are recorded as warnings in ``report`` (a fresh one if none is
    given) and do not lose the record.
    """
    if report is None:
        report = ParseReport()
    text = _decode(doc.data)
    text = _strip_declaration(text)
    text = _strip_doctype(text)
    text, substitutions = _substitute_entities(text)
    report.entity_substitutions += substitutions
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise GrantParseError(doc.ordinal, "malformed XML: %s" % exc) from exc

    fields = mapping.fields
    wku = _first_text(root, fields["wku"]["paths"])
    if not wku:
        raise GrantParseError(doc.ordinal, "missing document number")

    issue_raw = _first_text(root, fields["issue_date"]["paths"])
    try:
        issue_date = parse_date(issue_raw)
    except ValueError:
        raise GrantParseError(
            doc.ordinal, "%s: missing or invalid grant date %r" % (wku, issue_raw)
        ) from None

    app_date = None
    app_raw = _first_text(root, fields["app_date"]["paths"])
    if app_raw:
        try:
            app_date = parse_date(app_raw)
        except ValueError:
            report.warn(doc.ordinal, "%s: invalid application date %r" % (wku, app_raw))

    return build_record(
        wku=wku,
        title=_first_text(root, fields["title"]["paths"]),
        app_date=app_date,
        issue_date=issue_date,
        inventors=_names(root, fields["inventors"]),
        assignees=_names(root, fields["assignees"]),
        ipc_codes=_ipc_codes(root, fields["ipc_codes"], doc.ordinal, report),
        references=_repeated_text(root, fields["references"]["paths"]),
        claims=_claims_text(root, fields["claims"]),
    )


class XmlWeeklyParser:
    """Split a weekly file and map each document; one instance per stream."""

    def __init__(self, format: SourceFormat) -> None:
        self.mapping = mapping_for(format)
        self.report = ParseReport()

    def parse(self, stream: Union[BinaryIO, Iterable[bytes]]) -> Iterator[PatentRecord]:
        for doc in split_concatenated_documents(stream):
            self.report.slices_seen += 1
            try:
                record = parse_grant_xml(doc, self.mapping, self.report)
            except GrantParseError as exc:
                self.report.skip(exc.ordinal, exc.reason)
                continue
            self.report.records_emitted += 1
            yield record
