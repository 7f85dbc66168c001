"""patentbulk: fetch USPTO weekly bulk patent grant files and normalize
them into one tidy, rectangular record format with CSV/JSONL output."""

from importlib import import_module

# each submodule's public names, imported with it on first use (PEP 562),
# so that a command loads only the modules it runs
_HOMES = {
    "analytics": "ClassCount LagStats WeeklyCount lag_days lag_stats_by lag_stats_by_class"
    " lag_stats_by_year top_ipc_subclasses weekly_counts",
    "aps": "ApsParser",
    "fetch": "CacheEntry FetchPlan open_archive resolve_plan",
    "model": "IpcCode ParseReport PatentRecord SourceFormat WeekSpec build_record ipc_parse"
    " join_multivalue sanitize_field split_multivalue",
    "pipeline": "CsvSink JsonlSink PipelineConfig RunSummary convert_files get_bulk_patent_data"
    " read_csv read_jsonl",
    "xmlgrants": "XmlDocSlice XmlWeeklyParser mapping_for parse_grant_xml"
    " split_concatenated_documents",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

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


def __getattr__(name: str):
    """Import a submodule, or a public name from its submodule, on first use."""
    if name in _HOMES:
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + _HOME[name], __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *__all__})
