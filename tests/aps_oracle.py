"""The fixed-tag parser as it was before it read its input by PATN
section: one Python step per line.  Frozen here as the reference that
``patentbulk.aps.ApsParser`` must match, records and report alike; do not
change it to follow the library.
"""

from typing import Iterable, Iterator, Optional

from patentbulk.aps import CAPTURED_FIELDS, CLAIMS_SECTIONS, SECTION_HEADERS
from patentbulk.model import (
    LIST_COLUMNS,
    GrantParseError,
    ParseReport,
    PatentRecord,
    WrongFileTypeError,
    build_record,
    record_fields,
)


class OracleApsParser:
    """The line-at-a-time parser: each line read, tokenized and applied to
    the open section in turn, claims lines included."""

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
