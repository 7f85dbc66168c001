"""Unified patent record model shared by the parsers, sinks, and analytics.

One granted patent becomes one rectangular record of nine fields.
Multi-valued fields (inventors, assignees, IPC codes, references) are kept
as tuples in memory and joined with ``"; "`` on flat-file surfaces.  The
claims text is the only field allowed to keep embedded newlines; every
other string field is collapsed to a single line at construction.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

MULTIVALUE_DELIMITER = "; "

# Canonical flat-file column order.  Changing this breaks every golden file.
CSV_COLUMNS = (
    "wku",
    "title",
    "app_date",
    "issue_date",
    "inventors",
    "assignees",
    "ipc_codes",
    "references",
    "claims",
)


def sanitize_field(raw: str, preserve_newlines: bool = False) -> str:
    """Normalize raw source text for storage in a record field.

    With ``preserve_newlines`` off (everything but claims) all whitespace
    runs collapse to a single space, the ends are trimmed, and any
    occurrence of the multi-value delimiter ``"; "`` is rewritten to
    ``", "`` so that joining and splitting stay true inverses.

    With ``preserve_newlines`` on (claims only) the line structure is
    kept: line endings are normalized to ``\\n``, trailing whitespace is
    trimmed per line, and blank lines at either end are dropped.
    Idempotent in both modes.
    """
    if preserve_newlines:
        text = raw.replace("\r\n", "\n").replace("\r", "\n")
        return "\n".join(line.rstrip() for line in text.split("\n")).strip("\n")
    collapsed = " ".join(raw.split())
    return collapsed.replace(MULTIVALUE_DELIMITER, ", ")


def join_multivalue(items: Sequence[str]) -> str:
    """Join already-sanitized values with the two-character delimiter.

    Rejects items that would make the join ambiguous; hitting this means
    a sanitization bug upstream, not bad source data.
    """
    for item in items:
        if not item:
            raise ValueError("multi-value item is empty; sanitize upstream")
        if MULTIVALUE_DELIMITER in item or "\n" in item or "\r" in item:
            raise ValueError(
                "multi-value item contains the delimiter or a newline: %r" % (item,)
            )
    return MULTIVALUE_DELIMITER.join(items)


def split_multivalue(cell: str) -> list[str]:
    """Inverse of :func:`join_multivalue`; an empty cell is an empty list."""
    if not cell:
        return []
    return cell.split(MULTIVALUE_DELIMITER)


_DATE_RE = re.compile(r"(\d{4})-?(\d{2})-?(\d{2})$")


def parse_date(raw: str) -> dt.date:
    """Parse ``YYYY-MM-DD`` or the bulk files' ``YYYYMMDD`` into a date.

    Raises ValueError for anything that is not a valid Gregorian calendar
    date (bad month lengths, month 00, Feb 30, ...).
    """
    m = _DATE_RE.match(raw.strip())
    if m is None:
        raise ValueError("unrecognized date: %r" % (raw,))
    return dt.date(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def format_date(d: dt.date) -> str:
    return d.isoformat()


def first_grant_tuesday(year: int) -> dt.date:
    """First Tuesday of the year (USPTO issues grants on Tuesdays)."""
    jan1 = dt.date(year, 1, 1)
    return jan1 + dt.timedelta(days=(1 - jan1.weekday()) % 7)


def tuesdays_in_year(year: int) -> int:
    return ((dt.date(year, 12, 31) - first_grant_tuesday(year)).days // 7) + 1


@dataclass(frozen=True, order=True)
class WeekSpec:
    """One weekly bulk file, identified by (year, week index).

    Week ``w`` is the w-th grant Tuesday of the year; ordering is
    lexicographic on (year, week).
    """

    year: int
    week: int

    def __post_init__(self) -> None:
        if self.year < 1976:
            raise ValueError("bulk grant data starts in 1976, got year %d" % self.year)
        if not 1 <= self.week <= 53:
            raise ValueError("week must be in 1..53, got %d" % self.week)

    def issue_date(self) -> dt.date:
        """Grant Tuesday this week maps to; raises if the year runs out."""
        d = first_grant_tuesday(self.year) + dt.timedelta(weeks=self.week - 1)
        if d.year != self.year:
            raise ValueError(
                "%d has only %d grant Tuesdays, week %d is out of range"
                % (self.year, tuesdays_in_year(self.year), self.week)
            )
        return d

    def label(self) -> str:
        return "%dwk%02d" % (self.year, self.week)


# Warning messages kept verbatim; beyond this only the total grows, so a
# dirty multi-gigabyte file cannot balloon the report.
MAX_REPORT_MESSAGES = 100


@dataclass
class ParseReport:
    """Counters and anomalies accumulated over one parse, either era.

    A position is a line number for the fixed-tag era and a document
    ordinal for the XML eras.  Each era's own counters stay 0 for the
    other era.
    """

    records_emitted: int = 0
    records_skipped: int = 0
    warnings_total: int = 0
    warnings: list[tuple[int, str]] = field(default_factory=list)
    # fixed-tag era
    lines_read: int = 0
    patn_sections: int = 0
    skipped_fields: int = 0
    # XML eras
    slices_seen: int = 0
    entity_substitutions: int = 0

    @property
    def record_errors_total(self) -> int:
        """Former XML-era name of ``records_skipped``, still read by
        ``perfbench/tracing.py``."""
        return self.records_skipped

    def warn(self, position: int, message: str) -> None:
        self.warnings_total += 1
        if len(self.warnings) < MAX_REPORT_MESSAGES:
            self.warnings.append((position, message))

    def skip(self, position: int, message: str) -> None:
        """A record dropped whole; also counted among the warnings."""
        self.records_skipped += 1
        self.warn(position, message)


class SourceFormat(Enum):
    """Era tag selecting the parser: fixed-tag text or an XML generation."""

    APS = "aps"
    XML2 = "xml2"
    XML4 = "xml4"

    @classmethod
    def for_year(cls, year: int) -> "SourceFormat":
        if year < 1976:
            raise ValueError("no bulk grant data before 1976")
        if year <= 2001:
            return cls.APS
        if year <= 2004:
            return cls.XML2
        return cls.XML4


class IpcParseError(ValueError):
    """Raised for IPC text without a section letter or two-digit class."""


_IPC_HEAD = re.compile(r"([A-H])\s?(\d{2})\s?([A-Z])?")


_SLASHED_GROUP = re.compile(r"(\d+)/(\d+)$")


def _normalize_ipc_remainder(rest: str) -> str:
    # The fixed-tag era packs group/subgroup into a 4-5 char field with a
    # right-aligned 3-char main group and no slash ("29512", " 4700").
    tail = rest.rstrip()
    if (
        "/" not in tail
        and 4 <= len(tail) <= 5
        and all(c.isdigit() or c == " " for c in tail)
    ):
        group = tail[:3].strip()
        subgroup = tail[3:].strip()
        if group and subgroup:
            return "%s/%s" % (group, subgroup)
    collapsed = " ".join(rest.split())
    # XML-era legacy blocks zero-pad the main group ("009/04"); strip the
    # padding so the same code spelled both ways de-duplicates.  Subgroup
    # leading zeros are significant and stay.
    m = _SLASHED_GROUP.match(collapsed)
    if m is not None:
        return "%s/%s" % (m.group(1).lstrip("0") or "0", m.group(2))
    return collapsed


@dataclass(frozen=True)
class IpcCode:
    """Structured International Patent Classification symbol."""

    section: str
    class_num: str
    subclass: Optional[str]
    remainder: str = ""

    def canonical(self) -> str:
        head = self.section + self.class_num + (self.subclass or "")
        return "%s %s" % (head, self.remainder) if self.remainder else head

    def subclass_key(self) -> str:
        """Aggregation key, e.g. ``C07D``; 4 characters when subclass present."""
        return self.section + self.class_num + (self.subclass or "")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.canonical()


def ipc_parse(raw: str) -> IpcCode:
    """Parse an IPC symbol from any of the bulk formats' spellings.

    Tolerates the fixed-tag era's padded fields ("C07D29512", "A47B 4700")
    and the XML eras' slashed or concatenated forms ("C07D 295/12").  The
    canonical form is stable under re-parse.
    """
    text = raw.strip().upper()
    if not text:
        raise IpcParseError("empty IPC code")
    m = _IPC_HEAD.match(text)
    if m is None:
        raise IpcParseError("malformed IPC code: %r" % (raw,))
    section, class_num, subclass = m.group(1), m.group(2), m.group(3)
    remainder = _normalize_ipc_remainder(text[m.end() :])
    return IpcCode(section, class_num, subclass, remainder)


@dataclass(frozen=True)
class PatentRecord:
    """One granted patent in the unified nine-field rectangular schema.

    Immutable after construction and safe to share across workers.  Use
    :func:`build_record` to construct from raw parser output; the
    constructor itself validates the sanitization invariants.
    """

    wku: str
    title: str
    app_date: Optional[dt.date]
    issue_date: dt.date
    inventors: tuple[str, ...]
    assignees: tuple[str, ...]
    ipc_codes: tuple[IpcCode, ...]
    references: tuple[str, ...]
    claims: str

    def __post_init__(self) -> None:
        if not self.wku or self.wku != self.wku.strip():
            raise ValueError("wku must be non-empty with no surrounding whitespace")
        for name in ("wku", "title"):
            if "\n" in getattr(self, name) or "\r" in getattr(self, name):
                raise ValueError("%s may not contain newlines" % name)
        for name in ("inventors", "assignees", "references"):
            for item in getattr(self, name):
                if not item:
                    raise ValueError("%s contains an empty element" % name)
                if MULTIVALUE_DELIMITER in item or "\n" in item or "\r" in item:
                    raise ValueError(
                        "%s element not sanitized: %r" % (name, item)
                    )


def build_record(
    *,
    wku: str,
    issue_date: dt.date,
    title: str = "",
    app_date: Optional[dt.date] = None,
    inventors: Iterable[str] = (),
    assignees: Iterable[str] = (),
    ipc_codes: Iterable[IpcCode] = (),
    references: Iterable[str] = (),
    claims: str = "",
) -> PatentRecord:
    """Sanitize raw field text and assemble a record.

    List fields are sanitized element-wise with empties dropped; claims
    keep their line structure.
    """

    def clean(items: Iterable[str]) -> tuple[str, ...]:
        return tuple(s for s in (sanitize_field(i) for i in items) if s)

    return PatentRecord(
        wku=sanitize_field(wku),
        title=sanitize_field(title),
        app_date=app_date,
        issue_date=issue_date,
        inventors=clean(inventors),
        assignees=clean(assignees),
        ipc_codes=tuple(ipc_codes),
        references=clean(references),
        claims=sanitize_field(claims, preserve_newlines=True),
    )


def record_to_row(record: PatentRecord) -> list[str]:
    """Flatten a record into the canonical CSV cell order."""
    return [
        record.wku,
        record.title,
        format_date(record.app_date) if record.app_date else "",
        format_date(record.issue_date),
        join_multivalue(record.inventors),
        join_multivalue(record.assignees),
        join_multivalue([c.canonical() for c in record.ipc_codes]),
        join_multivalue(record.references),
        record.claims,
    ]


def record_from_row(row: Sequence[str]) -> PatentRecord:
    """Rebuild a record from a CSV row; exact inverse of record_to_row."""
    if len(row) != len(CSV_COLUMNS):
        raise ValueError("expected %d cells, got %d" % (len(CSV_COLUMNS), len(row)))
    wku, title, app, issue, inv, assg, ipc, refs, claims = row
    return PatentRecord(
        wku=wku,
        title=title,
        app_date=parse_date(app) if app else None,
        issue_date=parse_date(issue),
        inventors=tuple(split_multivalue(inv)),
        assignees=tuple(split_multivalue(assg)),
        ipc_codes=tuple(ipc_parse(c) for c in split_multivalue(ipc)),
        references=tuple(split_multivalue(refs)),
        claims=claims,
    )


def record_to_dict(record: PatentRecord) -> dict:
    """JSON-friendly mapping with keys in schema order; lists stay arrays."""
    return {
        "wku": record.wku,
        "title": record.title,
        "app_date": format_date(record.app_date) if record.app_date else None,
        "issue_date": format_date(record.issue_date),
        "inventors": list(record.inventors),
        "assignees": list(record.assignees),
        "ipc_codes": [c.canonical() for c in record.ipc_codes],
        "references": list(record.references),
        "claims": record.claims,
    }


def record_from_dict(data: dict) -> PatentRecord:
    return PatentRecord(
        wku=data["wku"],
        title=data["title"],
        app_date=parse_date(data["app_date"]) if data.get("app_date") else None,
        issue_date=parse_date(data["issue_date"]),
        inventors=tuple(data.get("inventors") or ()),
        assignees=tuple(data.get("assignees") or ()),
        ipc_codes=tuple(ipc_parse(c) for c in (data.get("ipc_codes") or ())),
        references=tuple(data.get("references") or ()),
        claims=data.get("claims", ""),
    )
