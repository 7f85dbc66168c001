"""Streaming parser for the 1976-2001 fixed-tag full-text weekly files.

Lines carry a field code in columns 1-4 and the value from column 6; a
blank code marks a continuation of the previous field.  Records are
delimited by PATN section headers.  The parser is single-pass and holds
at most one patent section in memory, so weekly files of any size stream
through in bounded space.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .model import (
    LIST_COLUMNS,
    GrantParseError,
    ParseReport,
    PatentRecord,
    WrongFileTypeError,
    build_record,
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


class ApsParser:
    """One-shot parser; create a fresh instance per input stream.

    ``parse`` yields records lazily in file order; ``report`` is complete
    once iteration finishes.  Input with lines but no PATN header raises
    WrongFileTypeError when it ends.
    """

    def __init__(self) -> None:
        self.report = ParseReport()

    def parse(self, lines: Iterable[str]) -> Iterator[PatentRecord]:
        report = self.report
        # raw values of the open PATN section by record field, and its line
        pending: Optional[dict[str, list[str]]] = None
        start_line = lines_read = 0
        # current section's capture table and claims list; the list a continuation extends
        section_fields: Optional[dict[str, str]] = None
        claims: Optional[list[str]] = None
        target: Optional[list[str]] = None

        for line in lines:
            lines_read += 1
            code = line[:4].strip()
            value = line[5:].rstrip("\r\n")

            if not code:
                # continuation: a claims line of its own, or the rest of the last value
                if target is claims and claims is not None:
                    claims.append(value)
                elif target:
                    target[-1] += " " + value
                elif value.strip():
                    report.skipped_fields += 1
                continue

            if code == "PATN":
                report.lines_read = lines_read
                yield from self._flush(pending, start_line)
                report.patn_sections += 1
                pending, start_line = {"claims": []}, lines_read
                section_fields, claims, target = CAPTURED_FIELDS["PATN"], None, None
                continue

            if code in SECTION_HEADERS:
                section_fields = CAPTURED_FIELDS.get(code)
                claims = target = (
                    pending["claims"] if pending is not None and code in CLAIMS_SECTIONS else None
                )
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

        report.lines_read = lines_read
        if pending is None and lines_read:
            raise WrongFileTypeError("no PATN header in %d lines of input" % lines_read)
        yield from self._flush(pending, start_line)

    def _flush(self, pending: Optional[dict[str, list[str]]], line: int) -> Iterator[PatentRecord]:
        """The record of a closed section, if it has one."""
        if pending is None:
            return
        try:
            fields = record_fields(pending, line, self.report)
        except GrantParseError as exc:
            self.report.skip(exc.ordinal, exc.reason)
            return
        record = build_record(**fields)
        self.report.records_emitted += 1
        yield record
