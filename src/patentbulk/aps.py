"""Streaming parser for the 1976-2001 fixed-tag full-text weekly files.

Lines carry a field code in columns 1-4 and the value from column 6; a
blank code marks a continuation of the previous field.  Records are
delimited by PATN section headers.  The parser is single-pass: it cuts
its input before each line-start PATN (``model.cut_before``) and splits
each section into lines once.  Memory holds a few copies of one section,
so weekly files of any size stream through in bounded space.
"""

from __future__ import annotations

from operator import itemgetter
from typing import IO, Iterable, Iterator, Optional, Union

from .model import (
    LIST_COLUMNS,
    GrantParseError,
    ParseReport,
    PatentRecord,
    WrongFileTypeError,
    build_record,
    cut_before,
    ipc_parse,  # noqa: F401 - unused; perfbench/tracing.py wraps it by this module's name
    record_fields,
)

# Section headers observed in the fixed-tag grant files.  Sections not in
# the capture tables below are recognized so their data lines can be
# skipped without desynchronizing the section machine.
SECTION_HEADERS = frozenset(
    {
        "PATN", "INVT", "ASSG", "PRIR", "REIS", "RLAP", "CLAS", "UREF",
        "FREF", "OREF", "LREP", "PCTA", "ABST", "GOVT", "PARN", "BSUM",
        "DRWD", "DETD", "CLMS", "DCLM",
    }
)

# field code -> record field, per section.  Table-driven so corrections
# from real-file validation stay one-line changes.
CAPTURED_FIELDS: dict[str, dict[str, str]] = {
    "PATN": {"WKU": "wku", "TTL": "title", "APD": "app_date", "ISD": "issue_date"},
    "INVT": {"NAM": "inventors"},
    "ASSG": {"NAM": "assignees"},
    "CLAS": {"ICL": "ipc_codes"},
    "UREF": {"PNO": "references"},
}

# Sections whose text lines become the claims field, formatting preserved.
CLAIMS_SECTIONS = frozenset({"CLMS", "DCLM"})

DEFAULT_ENCODING = "latin-1"


def text_encoding(name: str, error: type[Exception] = ValueError) -> str:
    """``name``, if it names a text encoding; else ``error`` is raised with
    the codec lookup's text (an unknown name, or a codec such as rot13)."""
    try:
        "".encode(name)
    except LookupError as exc:
        raise error(str(exc)) from None
    return name


# a line's field code as written, and its value
_TAG = itemgetter(slice(0, 4))
_VALUE = itemgetter(slice(5, None))


class ApsParser:
    """One-shot parser; create a fresh instance per input stream.

    ``parse`` yields records lazily in file order; ``report`` is complete
    once iteration finishes.  Input with lines but no PATN header raises
    WrongFileTypeError when it ends.
    """

    def __init__(self) -> None:
        self.report = ParseReport()

    def parse(self, source: Union[IO[str], Iterable[str]]) -> Iterator[PatentRecord]:
        """The records of ``source``: a text stream, or an iterable of text
        pieces, such as lines, that join into the input."""
        report = self.report
        for text in cut_before(source, "\nPATN"):
            start_line = report.lines_read + 1
            if not text.startswith("PATN"):
                self._read_section(text, None)
                continue
            report.patn_sections += 1
            pending: dict[str, list[str]] = {"claims": []}
            self._read_section(text, pending)
            try:
                fields = record_fields(pending, start_line, report)
            except GrantParseError as exc:
                report.skip(exc.ordinal, exc.reason)
                continue
            record = build_record(**fields)
            report.records_emitted += 1
            yield record
        if not report.patn_sections and report.lines_read:
            raise WrongFileTypeError("no PATN header in %d lines of input" % report.lines_read)

    def _read_section(self, text: str, pending: Optional[dict[str, list[str]]]) -> None:
        """Apply the line rules to ``text``, one PATN section, adding its raw
        values to ``pending``, or lines before the first PATN, when
        ``pending`` is None.  After a claims header, the rest of the section
        is taken in one step when it holds no header and no blank value:
        every rule would append each line's value to the claims.  Values are
        rstripped there, as ``build_record`` would, unless a CR is left."""
        report = self.report
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # the text ended with a line break
        if "\r" in text:
            lines = [line.rstrip("\r") for line in lines]  # what is left of "\r\n" ends
        report.lines_read += len(lines)
        # current section's capture table and claims list; the list a continuation extends
        section_fields: Optional[dict[str, str]] = None
        claims: Optional[list[str]] = None
        target: Optional[list[str]] = None

        for index, line in enumerate(lines):
            code = line[:4].strip()
            value = line[5:]

            if not code:
                # continuation: a claims line of its own, or the rest of the last value
                if target is claims and claims is not None:
                    claims.append(value)
                elif target:
                    target[-1] += " " + value
                elif value.strip():
                    report.skipped_fields += 1
                continue

            if code in SECTION_HEADERS:
                # PATN opens the section; a claims header opens its claims list
                section_fields = CAPTURED_FIELDS.get(code)
                claims = target = (
                    pending["claims"] if pending is not None and code in CLAIMS_SECTIONS else None
                )
                if claims is not None:
                    rest = lines[index + 1 :]
                    if SECTION_HEADERS.isdisjoint(map(_TAG, rest)):
                        values = list(map(str.rstrip, map(_VALUE, rest)))
                        if "" not in values:
                            # a lone CR is a line break to build_record, and rstrip
                            # would drop one that ends a value: pass those as read
                            claims += map(_VALUE, rest) if "\r" in text else values
                            return
                continue

            mapped = section_fields.get(code) if section_fields else None
            if pending is not None and mapped is not None:
                target = pending.setdefault(mapped, [])
                if target and mapped not in LIST_COLUMNS:
                    # duplicate scalar tag; record_fields reads only the first value
                    report.skipped_fields += 1
                target.append(value)
            elif not value.strip():
                # tag with no value: an unrecognized section header; skip
                # its data lines until the next known boundary
                section_fields = claims = target = None
                report.skipped_fields += 1
            elif claims is not None:
                claims.append(value)
                target = claims
            else:
                report.skipped_fields += 1
                target = None
