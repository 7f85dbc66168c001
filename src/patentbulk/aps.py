"""Streaming parser for the 1976-2001 fixed-tag full-text weekly files.

Lines carry a field code in columns 1-4 and the value from column 6; a
blank code marks a continuation of the previous field.  Records are
delimited by PATN section headers.  The parser is single-pass and holds
at most one patent section in memory, so weekly files of any size stream
through in bounded space.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .model import IpcParseError, ParseReport, PatentRecord, build_record, ipc_parse, parse_date

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

LIST_FIELDS = frozenset({"inventors", "assignees", "ipc_codes", "references"})

# Sections whose text lines become the claims field, formatting preserved.
CLAIMS_SECTIONS = frozenset({"CLMS", "DCLM"})

DEFAULT_ENCODING = "latin-1"

class _Pending:
    """Mutable accumulator for the patent section currently being read."""

    __slots__ = (
        "start_line", "wku", "title", "app_date", "issue_date",
        "inventors", "assignees", "ipc_codes", "references", "claims_lines",
    )

    def __init__(self, start_line: int) -> None:
        self.start_line = start_line
        self.wku: Optional[str] = None
        self.title: Optional[str] = None
        self.app_date: Optional[str] = None
        self.issue_date: Optional[str] = None
        self.inventors: list[str] = []
        self.assignees: list[str] = []
        self.ipc_codes: list[str] = []
        self.references: list[str] = []
        self.claims_lines: list[str] = []


class ApsParser:
    """One-shot parser; create a fresh instance per input stream.

    ``parse`` yields records lazily in file order; ``report`` is complete
    once iteration finishes.
    """

    def __init__(self) -> None:
        self.report = ParseReport()

    def parse(self, lines: Iterable[str]) -> Iterator[PatentRecord]:
        report = self.report
        pending: Optional[_Pending] = None
        # capture table and claims flag for the current section, plus the
        # field the last value went to, for continuations
        section_fields: Optional[dict[str, str]] = None
        in_claims = False
        target: Optional[str] = None
        lines_read = 0

        for line in lines:
            lines_read += 1
            code = line[:4].strip()
            value = line[5:].rstrip("\r\n")

            if not code:
                # continuation of the previous field
                if pending is not None and target == "claims":
                    pending.claims_lines.append(value)
                elif pending is not None and target:
                    self._append_continuation(pending, target, value)
                elif value.strip():
                    report.skipped_fields += 1
                continue

            if code == "PATN":
                report.lines_read = lines_read
                rec = self._flush(pending)
                if rec is not None:
                    yield rec
                report.patn_sections += 1
                pending = _Pending(lines_read)
                section_fields = CAPTURED_FIELDS["PATN"]
                in_claims = False
                target = None
                continue

            if code in SECTION_HEADERS:
                section_fields = CAPTURED_FIELDS.get(code)
                in_claims = code in CLAIMS_SECTIONS
                target = "claims" if in_claims else None
                continue

            mapped = section_fields.get(code) if section_fields else None
            if pending is not None and mapped is not None:
                self._capture(pending, mapped, value)
                target = mapped
            elif not value.strip():
                # tag with no value: an unrecognized section header; skip
                # its data lines until the next known boundary
                section_fields = None
                in_claims = False
                target = None
                report.skipped_fields += 1
            elif pending is not None and in_claims:
                pending.claims_lines.append(value)
                target = "claims"
            else:
                report.skipped_fields += 1
                target = None

        report.lines_read = lines_read

        rec = self._flush(pending)
        if rec is not None:
            yield rec

    def _capture(self, pending: _Pending, name: str, value: str) -> None:
        if name in LIST_FIELDS:
            getattr(pending, name).append(value)
        elif getattr(pending, name) is None:
            setattr(pending, name, value)
        else:
            # duplicate scalar tag; first occurrence wins
            self.report.skipped_fields += 1

    def _append_continuation(self, pending: _Pending, target: str, value: str) -> None:
        if target in LIST_FIELDS:
            items = getattr(pending, target)
            if items:
                items[-1] = items[-1] + " " + value
        else:
            current = getattr(pending, target)
            if current is not None:
                setattr(pending, target, current + " " + value)

    def _flush(self, pending: Optional[_Pending]) -> Optional[PatentRecord]:
        if pending is None:
            return None
        report = self.report
        line = pending.start_line

        wku = (pending.wku or "").strip()
        if not wku:
            report.skip(line, "patent section without WKU skipped")
            return None

        if pending.issue_date is None:
            report.skip(line, "%s: missing ISD, record skipped" % wku)
            return None
        try:
            issue_date = parse_date(pending.issue_date)
        except ValueError:
            report.skip(line, "%s: invalid ISD %r, record skipped" % (wku, pending.issue_date))
            return None

        app_date = None
        if pending.app_date is not None:
            try:
                app_date = parse_date(pending.app_date)
            except ValueError:
                report.warn(line, "%s: invalid APD %r stored as absent" % (wku, pending.app_date))

        ipc_codes = []
        for raw in pending.ipc_codes:
            try:
                ipc_codes.append(ipc_parse(raw))
            except IpcParseError:
                report.warn(line, "%s: unparseable ICL %r skipped" % (wku, raw))

        record = build_record(
            wku=wku,
            title=pending.title or "",
            app_date=app_date,
            issue_date=issue_date,
            inventors=pending.inventors,
            assignees=pending.assignees,
            ipc_codes=ipc_codes,
            references=pending.references,
            claims="\n".join(pending.claims_lines),
        )
        report.records_emitted += 1
        return record
