"""patentbulk: fetch USPTO weekly bulk patent grant files and normalize
them into one tidy, rectangular record format with CSV/JSONL output."""

from .analytics import (
    ClassCount,
    LagStats,
    WeeklyCount,
    lag_days,
    lag_stats_by,
    lag_stats_by_class,
    lag_stats_by_year,
    top_ipc_subclasses,
    weekly_counts,
)
from .aps import ApsParser
from .fetch import CacheEntry, FetchPlan, open_archive, resolve_plan
from .model import (
    IpcCode,
    ParseReport,
    PatentRecord,
    SourceFormat,
    WeekSpec,
    build_record,
    ipc_parse,
    join_multivalue,
    sanitize_field,
    split_multivalue,
)
from .pipeline import (
    CsvSink,
    JsonlSink,
    PipelineConfig,
    RunSummary,
    convert_files,
    get_bulk_patent_data,
    read_csv,
    read_jsonl,
)
from .xmlgrants import (
    XmlDocSlice,
    XmlWeeklyParser,
    mapping_for,
    parse_grant_xml,
    split_concatenated_documents,
)

__version__ = "0.1.0"

__all__ = [
    "ApsParser",
    "CacheEntry",
    "ClassCount",
    "CsvSink",
    "FetchPlan",
    "IpcCode",
    "JsonlSink",
    "LagStats",
    "ParseReport",
    "PatentRecord",
    "PipelineConfig",
    "RunSummary",
    "SourceFormat",
    "WeekSpec",
    "WeeklyCount",
    "XmlDocSlice",
    "XmlWeeklyParser",
    "build_record",
    "convert_files",
    "get_bulk_patent_data",
    "ipc_parse",
    "join_multivalue",
    "lag_days",
    "lag_stats_by",
    "lag_stats_by_class",
    "lag_stats_by_year",
    "mapping_for",
    "open_archive",
    "parse_grant_xml",
    "read_csv",
    "read_jsonl",
    "resolve_plan",
    "sanitize_field",
    "split_concatenated_documents",
    "split_multivalue",
    "top_ipc_subclasses",
    "weekly_counts",
]
