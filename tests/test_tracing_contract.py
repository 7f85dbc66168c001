"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions,
generators, methods and parse-report fields of this package by name.
Renaming or deleting one of them fails here instead of breaking
``perfbench/run.py --trace 1``."""

import importlib.util
import io
from pathlib import Path

import pytest

import patentbulk
from conftest import random_records
from patentbulk.model import ParseReport, SourceFormat

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    missing = [
        "%s.%s" % (module, attribute)
        for module, attribute, _ in tracing.FUNCTIONS + tracing.GENERATORS
        if not hasattr(getattr(patentbulk, module), attribute)
    ]
    missing += [
        "%s.%s.%s" % (module, cls, attribute)
        for module, cls, attribute, _ in tracing.METHODS
        if not hasattr(getattr(getattr(patentbulk, module), cls, None), attribute)
    ]
    missing += [
        "ParseReport.%s" % attribute
        for attribute, _ in tracing.APS_REPORT + tracing.XML_REPORT
        if not hasattr(ParseReport(), attribute)
    ]
    assert missing == []


def test_install_wraps_callers_and_uninstall_restores():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, patentbulk)
    try:
        wrapped = len(tracing.FUNCTIONS) + len(tracing.GENERATORS) + len(tracing.METHODS)
        assert len(saved) == wrapped + 2  # plus both parsers' parse methods
        patentbulk.analytics.weekly_counts([])
        assert tracer.calls["analytics.weekly_counts"] == 1
    finally:
        tracing.uninstall(saved)
    assert all(getattr(owner, attribute) is original for owner, attribute, original in saved)


def test_parsers_call_the_traced_names(data_dir):
    # a parser that binds build_record or ipc_parse to a local name, or an
    # XML parser that cuts its documents without split_concatenated_documents,
    # would bypass the wrappers and read as zero time in those layers
    tracing = load_tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, patentbulk)
    aps_input, xml_input = data_dir / "aps_two_patents.txt", data_dir / "era_xml4.xml"
    try:
        for parser, open_input in [
            (patentbulk.ApsParser(), lambda: open(aps_input, encoding="latin-1")),
            (patentbulk.XmlWeeklyParser(SourceFormat.XML4), lambda: open(xml_input, "rb")),
        ]:
            tracer.reset()
            with open_input() as stream:
                records = list(parser.parse(stream))
            assert tracer.calls["model.build_record"] == parser.report.records_emitted
            assert tracer.calls["model.build_record"] == len(records) > 0
            assert tracer.calls["model.ipc_parse"] > 0
            assert tracer.calls["xmlgrants.split"] >= parser.report.slices_seen
    finally:
        tracing.uninstall(saved)


@pytest.mark.parametrize("sink_class", [patentbulk.CsvSink, patentbulk.JsonlSink])
def test_one_serialize_span_per_record(sink_class):
    # record_to_row is built on record_to_dict; only the name the sink
    # calls may open a serialize span, or each row would count two
    tracing = load_tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer, patentbulk)
    try:
        sink = sink_class(io.StringIO())
        for record in random_records(25, seed=5):
            sink.write(record)
    finally:
        tracing.uninstall(saved)
    assert tracer.calls["model.serialize"] == tracer.calls["pipeline.sink_write"] == 25
