import io
import json
import threading
import weakref

import pytest

from conftest import FakeTransport, make_zip, parse_aps, random_records, sink_to_file
from patentbulk import pipeline
from patentbulk.model import SourceFormat, WeekSpec
from patentbulk.pipeline import (
    CsvSink,
    JsonlSink,
    PipelineConfig,
    RunError,
    convert_stream,
    get_bulk_patent_data,
    read_csv,
    read_jsonl,
)


@pytest.fixture
def fixture_records(aps_fixture_text):
    records, _ = parse_aps(io.StringIO(aps_fixture_text))
    return records


class TestCsv:
    def test_header_only_for_empty_stream(self):
        out = io.StringIO()
        CsvSink(out)
        assert out.getvalue() == (
            "wku,title,app_date,issue_date,inventors,assignees,ipc_codes,references,claims\n"
        )

    def test_comma_in_title_is_quoted(self, fixture_records):
        record = fixture_records[0]
        altered = record.__class__(**{**record.__dict__, "title": "Widget, press"})
        out = io.StringIO()
        CsvSink(out).write(altered)
        assert '"Widget, press"' in out.getvalue()

    def test_golden_bytes(self, fixture_records, data_dir, tmp_path):
        target = tmp_path / "out.csv"
        count = sink_to_file(target, CsvSink, fixture_records)
        produced = target.read_bytes()
        assert produced == (data_dir / "golden_two_patents.csv").read_bytes()
        assert count == len(produced)

    def test_round_trip(self, fixture_records, tmp_path):
        target = tmp_path / "out.csv"
        sink_to_file(target, CsvSink, fixture_records)
        assert list(read_csv(target)) == fixture_records

    def test_append_suppresses_header(self, fixture_records, tmp_path):
        target = tmp_path / "out.csv"
        sink_to_file(target, CsvSink, fixture_records[:1])
        sink_to_file(target, CsvSink, fixture_records[1:], mode="a", write_header=False)
        assert list(read_csv(target)) == fixture_records
        assert target.read_text().count("wku,title") == 1


class TestJsonl:
    def test_empty_stream_empty_file(self, tmp_path):
        target = tmp_path / "out.jsonl"
        sink_to_file(target, JsonlSink, [])
        assert target.read_bytes() == b""

    def test_two_inventors_stay_an_array(self, fixture_records, tmp_path):
        target = tmp_path / "out.jsonl"
        sink_to_file(target, JsonlSink, fixture_records)
        lines = target.read_text().splitlines()
        assert json.loads(lines[1])["inventors"] == ["Roe, Jane", "Stone, Alice M."]

    def test_golden_bytes(self, fixture_records, data_dir, tmp_path):
        target = tmp_path / "out.jsonl"
        count = sink_to_file(target, JsonlSink, fixture_records)
        produced = target.read_bytes()
        assert produced == (data_dir / "golden_two_patents.jsonl").read_bytes()
        assert count == len(produced)

    def test_round_trip(self, fixture_records, tmp_path):
        target = tmp_path / "out.jsonl"
        sink_to_file(target, JsonlSink, fixture_records)
        assert list(read_jsonl(target)) == fixture_records


class TestFormatAgreement:
    def test_csv_and_jsonl_reconstruct_identically(self, tmp_path):
        records = random_records(120, seed=9)
        csv_path = tmp_path / "r.csv"
        jsonl_path = tmp_path / "r.jsonl"
        sink_to_file(csv_path, CsvSink, records)
        sink_to_file(jsonl_path, JsonlSink, records)
        assert list(read_csv(csv_path)) == list(read_jsonl(jsonl_path)) == records


def _week_url(week, base="http://fake.test/bulk"):
    from patentbulk.fetch import resolve_plan

    return resolve_plan(week, base).url


def _config(tmp_path, transport, **kwargs):
    return PipelineConfig(
        cache_dir=str(tmp_path / "cache"),
        base_url="http://fake.test/bulk",
        transport=transport,
        **kwargs,
    )


class TestGetBulkPatentData:
    def test_empty_weeks_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            get_bulk_patent_data([], CsvSink(io.StringIO()), _config(tmp_path, FakeTransport()))

    def test_one_aps_week(self, aps_fixture_text, data_dir, tmp_path):
        week = WeekSpec(1976, 1)
        transport = FakeTransport(
            {_week_url(week): make_zip({"w1.txt": aps_fixture_text.encode("latin-1")})}
        )
        out = io.StringIO()
        sink = CsvSink(out)
        summary = get_bulk_patent_data([week], sink, _config(tmp_path, transport))
        assert summary.records_written == 2
        assert summary.weeks_fetched == 1
        assert summary.weeks_failed == []
        assert out.getvalue().encode() == (data_dir / "golden_two_patents.csv").read_bytes()
        assert summary.output_bytes == len(out.getvalue().encode())
        assert summary.input_bytes_decompressed == len(aps_fixture_text.encode("latin-1"))

    def test_partial_failure_isolated(self, aps_fixture_text, tmp_path):
        ok_week, missing_week = WeekSpec(1976, 1), WeekSpec(1976, 2)
        transport = FakeTransport(
            {_week_url(ok_week): make_zip({"w1.txt": aps_fixture_text.encode("latin-1")})}
        )
        out = io.StringIO()
        summary = get_bulk_patent_data(
            [ok_week, missing_week], CsvSink(out), _config(tmp_path, transport)
        )
        assert summary.weeks_fetched == 1
        assert len(summary.weeks_failed) == 1
        assert summary.weeks_failed[0][0] == missing_week
        assert "404" in summary.weeks_failed[0][1]
        assert summary.records_written == 2

    def test_all_weeks_failed_is_run_error(self, tmp_path):
        with pytest.raises(RunError):
            get_bulk_patent_data(
                [WeekSpec(1976, 1)], CsvSink(io.StringIO()), _config(tmp_path, FakeTransport())
            )

    def test_weeks_ordered_even_when_requested_shuffled(self, aps_fixture_text, tmp_path):
        w1, w2 = WeekSpec(1976, 1), WeekSpec(1976, 2)
        text_b = aps_fixture_text.replace("039305672", "039309999")
        transport = FakeTransport(
            {
                _week_url(w1): make_zip({"a.txt": aps_fixture_text.encode("latin-1")}),
                _week_url(w2): make_zip({"b.txt": text_b.encode("latin-1")}),
            }
        )
        out = io.StringIO()
        get_bulk_patent_data([w2, w1], CsvSink(out), _config(tmp_path, transport))
        rows = list(read_csv(io.StringIO(out.getvalue())))
        assert rows[0].wku == "039305672"  # week 1 rows come first

    def test_parallel_run_matches_sequential_bytes(self, aps_fixture_text, tmp_path):
        weeks = [WeekSpec(1976, w) for w in range(1, 5)]
        responses = {}
        for i, week in enumerate(weeks):
            text = aps_fixture_text.replace("039305672", "03930%04d" % i)
            responses[_week_url(week)] = make_zip({"w.txt": text.encode("latin-1")})
        seq_out, par_out = io.StringIO(), io.StringIO()
        get_bulk_patent_data(
            weeks, CsvSink(seq_out), _config(tmp_path / "s", FakeTransport(responses), jobs=1)
        )
        get_bulk_patent_data(
            weeks, CsvSink(par_out), _config(tmp_path / "p", FakeTransport(responses), jobs=4)
        )
        assert seq_out.getvalue() == par_out.getvalue()

    def test_look_ahead_bounded_by_jobs(self, aps_fixture_text, tmp_path):
        jobs = 2
        weeks = [WeekSpec(1976, w) for w in range(1, 7)]
        payload = make_zip({"w.txt": aps_fixture_text.encode("latin-1")})
        overrun = threading.Event()

        class CountingTransport(FakeTransport):
            def get(self, url):
                response = super().get(url)
                if len(self.requests) > jobs:
                    overrun.set()
                return response

        transport = CountingTransport({_week_url(week): payload for week in weeks})
        served_at_first_write = []

        class StallingSink(CsvSink):
            def write(self, record):
                if not served_at_first_write:
                    # gives a loop that looks further ahead time to fetch more weeks
                    overrun.wait(timeout=1.0)
                    served_at_first_write.append(len(transport.requests))
                super().write(record)

        summary = get_bulk_patent_data(
            weeks, StallingSink(io.StringIO()), _config(tmp_path, transport, jobs=jobs)
        )
        assert served_at_first_write[0] <= jobs
        assert summary.records_written == 12

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_weeks_held_bounded_by_jobs(self, aps_fixture_text, tmp_path, monkeypatch, jobs):
        weeks = [WeekSpec(1976, w) for w in range(1, 7)]
        payload = make_zip({"w.txt": aps_fixture_text.encode("latin-1")})
        transport = FakeTransport({_week_url(week): payload for week in weeks})
        held = weakref.WeakValueDictionary()
        held_at_step_start = []

        class Batch(list):  # a plain list cannot be weakly referenced
            pass

        collect = pipeline._collect_week

        def tracked_collect(week, config):
            held_at_step_start.append(len(held) + 1)  # + the week starting now
            records, *rest = collect(week, config)
            batch = Batch(records)
            held[week] = batch
            return (batch, *rest)

        monkeypatch.setattr(pipeline, "_collect_week", tracked_collect)
        summary = get_bulk_patent_data(
            weeks, CsvSink(io.StringIO()), _config(tmp_path, transport, jobs=jobs)
        )
        assert summary.records_written == 12
        assert max(held_at_step_start) <= jobs

    def test_determinism_from_cache(self, aps_fixture_text, tmp_path):
        week = WeekSpec(1976, 1)
        transport = FakeTransport(
            {_week_url(week): make_zip({"w1.txt": aps_fixture_text.encode("latin-1")})}
        )
        config = _config(tmp_path, transport)
        first, second = io.StringIO(), io.StringIO()
        get_bulk_patent_data([week], CsvSink(first), config)
        get_bulk_patent_data([week], CsvSink(second), config)
        assert first.getvalue() == second.getvalue()
        assert len(transport.requests) == 1

    def test_duplicate_wkus_counted_not_dropped(self, aps_fixture_text, tmp_path):
        w1, w2 = WeekSpec(1976, 1), WeekSpec(1976, 2)
        payload = make_zip({"w.txt": aps_fixture_text.encode("latin-1")})
        transport = FakeTransport({_week_url(w1): payload, _week_url(w2): payload})
        out = io.StringIO()
        summary = get_bulk_patent_data([w1, w2], CsvSink(out), _config(tmp_path, transport))
        assert summary.records_written == 4
        assert summary.duplicate_wkus == 2

    def test_xml4_week_dispatch(self, data_dir, tmp_path):
        week = WeekSpec(2010, 1)
        payload = make_zip({"ipg.xml": (data_dir / "era_xml4.xml").read_bytes()})
        transport = FakeTransport({_week_url(week): payload})
        out = io.StringIO()
        summary = get_bulk_patent_data([week], JsonlSink(out), _config(tmp_path, transport))
        assert summary.records_written == 1
        assert json.loads(out.getvalue())["wku"] == "07641234"


class TestConvertStream:
    def test_aps_stream(self, aps_fixture_text):
        out = io.StringIO()
        report = convert_stream(
            io.BytesIO(aps_fixture_text.encode("latin-1")), SourceFormat.APS, CsvSink(out)
        )
        assert report.records_emitted == 2
        assert report.warnings_total == 1  # the invalid APD in the second patent

    def test_skipped_section_counts_one_warning(self):
        text = "PATN\nWKU  039305672\nISD  19760106\nPATN\nTTL  Widget\nISD  19760106\n"
        report = convert_stream(
            io.BytesIO(text.encode("latin-1")), SourceFormat.APS, CsvSink(io.StringIO())
        )
        assert report.records_emitted == 1
        assert report.warnings_total == 1  # the second section has no WKU

    def test_xml_stream(self, data_dir):
        out = io.StringIO()
        report = convert_stream(
            io.BytesIO((data_dir / "era_xml4.xml").read_bytes()),
            SourceFormat.XML4,
            JsonlSink(out),
        )
        assert report.records_emitted == 1
