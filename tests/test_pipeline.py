import bz2
import csv
import datetime as dt
import errno
import gc
import gzip
import io
import json
import lzma
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import zipfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (
    DATA_DIR,
    FORK_THREADS,
    FakeTransport,
    make_zip,
    parse_aps,
    random_records,
    run_capped,
    run_python,
    sink_to_file,
)
from patentbulk import analytics, cli, fetch as fetchmod, model, pipeline, xmlgrants
from patentbulk.fetch import fetch, resolve_plan
from patentbulk.model import SourceFormat, WeekSpec, WrongFileTypeError
from patentbulk.pipeline import (
    CsvSink,
    JsonlSink,
    PipelineConfig,
    OutputError,
    RunError,
    convert_files,
    get_bulk_patent_data,
    read_csv,
    read_jsonl,
)


# CSV cells of any text but \r: the quoted characters, runs of spaces, and
# Latin-1 and non-BMP characters, each drawn often
CSV_CELLS = st.one_of(
    st.just(""),
    st.text(alphabet=" ", min_size=1),
    st.text(alphabet=st.one_of(
        st.sampled_from('",\n a\xe9\xff\U0001f600'),
        st.characters(blacklist_characters="\r", blacklist_categories=("Cs",)),
    )),
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

    def test_a_held_header_is_written_once_before_the_first_rows(self, tmp_path):
        out = io.StringIO()
        sink = CsvSink(out, hold_header=True)
        assert out.getvalue() == ""
        for rows in ("1,a\n", "2,b\n"):
            (tmp_path / "spool").write_text(rows)
            sink.append(str(tmp_path / "spool"))
        sink.write_header()
        assert out.getvalue() == CsvSink.header + "1,a\n2,b\n"
        assert sink.bytes_written == len(out.getvalue())

    def test_comma_in_title_is_quoted(self, fixture_records):
        record = fixture_records[0]
        altered = record.__class__(**{**record._asdict(), "title": "Widget, press"})
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

    def test_row_with_wrong_cell_count_names_its_line(self):
        out = io.StringIO()
        CsvSink(out)
        out.write("1,t,,1976-01-06,,,,,\n2,t,,1976-01-06,,,,\n")  # 9 cells, then 8
        with pytest.raises(ValueError, match=r"^line 3: expected 9 cells, got 8$"):
            list(read_csv(io.StringIO(out.getvalue())))

    def test_append_suppresses_header(self, fixture_records, tmp_path):
        target = tmp_path / "out.csv"
        sink_to_file(target, CsvSink, fixture_records[:1])
        sink_to_file(target, CsvSink, fixture_records[1:], mode="a", write_header=False)
        assert list(read_csv(target)) == fixture_records
        assert target.read_text().count("wku,title") == 1

    @settings(max_examples=300)
    @given(st.lists(CSV_CELLS, min_size=9, max_size=9))
    def test_line_matches_csv_writer(self, cells):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerow(cells)
        out = io.StringIO()
        with mock.patch.object(pipeline, "record_to_row", lambda row: row):
            CsvSink(out, write_header=False).write(cells)
        assert out.getvalue() == expected.getvalue()

    def test_quotes_and_newlines_round_trip(self, tmp_path):
        record = model.build_record(
            wku="04000001",
            issue_date=dt.date(1977, 1, 4),
            title='A "quick" press, with ram',
            claims='1. A press comprising:\na "ram", and\n  a frame.\n\n2. The press of claim 1.',
        )
        target = tmp_path / "out.csv"
        sink_to_file(target, CsvSink, [record])
        assert target.read_text().splitlines()[1].startswith(
            '04000001,"A ""quick"" press, with ram",,1977-01-04,,,,,"1. A press comprising:'
        )
        assert list(read_csv(target)) == [record]


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


class FullDisk(io.StringIO):
    """An output whose device fills up after 200 characters."""

    def write(self, text):
        if self.tell() + len(text) > 200:  # the header fits, a week does not
            raise OSError(28, "No space left on device")
        return super().write(text)


def _cache_with_bad_crc(config, weeks, corrupt, text):
    """Fetch ``weeks`` into ``config``'s cache, then flip one bit of
    ``text`` in the cached archive of ``corrupt``, so that its member
    fails its CRC check while the cache still accepts the entry."""
    assert pipeline.fetch_weeks(weeks, config).weeks_failed == []
    cached = Path(config.cache_dir) / resolve_plan(corrupt, config.base_url).cache_path
    payload = bytearray(cached.read_bytes())
    payload[payload.index(text)] ^= 0x01
    cached.write_bytes(bytes(payload))


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

    @pytest.mark.parametrize(
        "name, reason", [("nope", "unknown encoding: nope"), ("rot13", "'rot13' is not a text encoding")]
    )
    def test_encoding_checked_before_any_download(self, name, reason, aps_fixture_text, tmp_path):
        weeks = [WeekSpec(1976, week) for week in (1, 2, 3)]
        archive = make_zip({"w.txt": aps_fixture_text.encode("latin-1")})
        transport = FakeTransport({_week_url(week): archive for week in weeks})
        with pytest.raises(ValueError, match=reason):
            get_bulk_patent_data(weeks, CsvSink(io.StringIO()),
                                 _config(tmp_path, transport, encoding=name))
        assert transport.requests == []
        with pytest.raises(ValueError, match=reason):  # before a missing file is opened
            convert_files([tmp_path / "missing.txt"], SourceFormat.APS, CsvSink(io.StringIO()),
                          PipelineConfig(encoding=name))

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

    @pytest.mark.parametrize("sink_class", [CsvSink, JsonlSink])
    def test_parallel_run_matches_sequential_bytes(self, aps_fixture_text, tmp_path, sink_class):
        weeks = [WeekSpec(1976, w) for w in range(1, 5)]
        responses = {}
        for i, week in enumerate(weeks):
            text = aps_fixture_text.replace("039305672", "03930%04d" % i)
            responses[_week_url(week)] = make_zip({"w.txt": text.encode("latin-1")})
        seq_out, par_out = io.StringIO(), io.StringIO()
        seq = get_bulk_patent_data(
            weeks, sink_class(seq_out), _config(tmp_path / "s", FakeTransport(responses), jobs=1)
        )
        par = get_bulk_patent_data(
            weeks, sink_class(par_out), _config(tmp_path / "p", FakeTransport(responses), jobs=4)
        )
        assert seq_out.getvalue() == par_out.getvalue()
        assert seq.to_dict() == par.to_dict()
        assert seq.records_written == 8

    def test_look_ahead_bounded_by_jobs(self, aps_fixture_text, tmp_path):
        jobs = 2
        weeks = [WeekSpec(1976, w) for w in range(1, 7)]
        payload = make_zip({"w.txt": aps_fixture_text.encode("latin-1")})
        log = tmp_path / "requests.log"
        log.touch()

        class CountingTransport(FakeTransport):
            def get(self, url):
                with open(log, "a") as handle:  # the forked children request here too
                    handle.write(url + "\n")
                return super().get(url)

        transport = CountingTransport({_week_url(week): payload for week in weeks})
        served_at_first_write = []

        class StallingSink(CsvSink):
            def append(self, name):
                if not served_at_first_write:
                    # gives a loop that looks further ahead time to fetch more weeks
                    deadline = time.monotonic() + 1.0
                    while len(log.read_text().split()) <= jobs and time.monotonic() < deadline:
                        time.sleep(0.01)
                    served_at_first_write.append(len(log.read_text().split()))
                super().append(name)

        summary = get_bulk_patent_data(
            weeks, StallingSink(io.StringIO()), _config(tmp_path, transport, jobs=jobs)
        )
        assert served_at_first_write[0] <= jobs
        assert summary.records_written == 12
        assert len(log.read_text().split()) == 6

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_at_most_two_records_alive_at_each_write(
        self, aps_fixture_text, tmp_path, monkeypatch, jobs
    ):
        weeks = [WeekSpec(1976, w) for w in range(1, 7)]
        first_patent = aps_fixture_text[: aps_fixture_text.index("PATN", 1)]
        transport = FakeTransport({
            _week_url(week): make_zip({"w.txt": "".join(
                first_patent.replace("039305672", "0393%02d%03d" % (week.week, i))
                for i in range(5)
            ).encode("latin-1")})
            for week in weeks
        })
        log = tmp_path / "alive.log"
        alive = [0]  # records built and not yet freed, in this process

        class TrackedRecord(model.PatentRecord):  # a tuple: no weak reference
            def __new__(cls, *args, **kwargs):
                alive[0] += 1
                return super().__new__(cls, *args, **kwargs)

            def __del__(self):
                alive[0] -= 1

        class TrackingSink(CsvSink):
            def write(self, record):
                assert type(record) is TrackedRecord
                with open(log, "a") as handle:  # forked workers write here too
                    handle.write("%d\n" % alive[0])
                super().write(record)

        monkeypatch.setattr(model, "PatentRecord", TrackedRecord)

        summary = get_bulk_patent_data(
            weeks, TrackingSink(io.StringIO()), _config(tmp_path, transport, jobs=jobs)
        )
        alive_at_write = [int(line) for line in log.read_text().splitlines()]
        assert summary.records_written == len(alive_at_write) == 30
        # the record being written and at most the one before it: no week is held
        assert max(alive_at_write) <= 2

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

    def test_corrupt_member_of_a_cached_week_fails_the_week(self, aps_fixture_text, tmp_path):
        good, corrupt = WeekSpec(1976, 1), WeekSpec(1976, 2)
        members = io.BytesIO()
        with zipfile.ZipFile(members, "w", zipfile.ZIP_STORED) as archive:
            for number in ("039300001", "039300002", "039300003"):
                text = aps_fixture_text.replace("039305672", number)
                archive.writestr("%s.txt" % number, text.encode("latin-1"))
        transport = FakeTransport({
            _week_url(good): make_zip({"w.txt": aps_fixture_text.encode("latin-1")}),
            _week_url(corrupt): members.getvalue(),
        })
        config = _config(tmp_path, transport)
        _cache_with_bad_crc(config, [good, corrupt], corrupt, b"WKU  039300002")

        out = io.StringIO()
        summary = get_bulk_patent_data([good, corrupt], CsvSink(out), config)
        assert len(transport.requests) == 2  # both weeks read from the cache
        [(week, reason)] = summary.weeks_failed
        assert week == corrupt and "Bad CRC-32" in reason
        assert [r.wku for r in read_csv(io.StringIO(out.getvalue()))] == ["039305672", "D02394801"]

    def test_failed_week_leaves_no_trace_in_the_summary(self, aps_fixture_text, tmp_path):
        failing, good = WeekSpec(1976, 1), WeekSpec(1976, 2)
        first_patent = aps_fixture_text[: aps_fixture_text.index("PATN", 1)]
        members = io.BytesIO()
        with zipfile.ZipFile(members, "w", zipfile.ZIP_STORED) as archive:
            # the fixture's first patent, then one whose member fails its CRC
            archive.writestr("a.txt", first_patent.encode("latin-1"))
            archive.writestr("b.txt", first_patent.replace("039305672", "039300002").encode())
        transport = FakeTransport({
            _week_url(failing): members.getvalue(),
            _week_url(good): make_zip({"w.txt": aps_fixture_text.encode("latin-1")}),
        })
        config = _config(tmp_path, transport)
        _cache_with_bad_crc(config, [failing, good], failing, b"WKU  039300002")

        out = io.StringIO()
        summary = get_bulk_patent_data([failing, good], CsvSink(out), config)
        assert [week for week, _ in summary.weeks_failed] == [failing]
        assert summary.duplicate_wkus == 0
        assert summary.records_written == len(list(read_csv(io.StringIO(out.getvalue())))) == 2
        assert summary.output_bytes == len(out.getvalue().encode())
        assert summary.warnings_total == 1  # the good week's invalid APD only

    def test_failed_write_to_the_output_is_fatal(self, aps_fixture_text, tmp_path):
        weeks = [WeekSpec(1976, 1), WeekSpec(1976, 2)]
        payload = make_zip({"w.txt": aps_fixture_text.encode("latin-1")})
        transport = FakeTransport({_week_url(week): payload for week in weeks})
        with pytest.raises(OutputError, match="No space left"):
            get_bulk_patent_data(weeks, CsvSink(FullDisk()), _config(tmp_path, transport))
        assert len(transport.requests) == 1  # the run stopped at the first week

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_any_error_while_appending_ends_the_run(self, aps_fixture_text, tmp_path, jobs):
        weeks = [WeekSpec(1976, 1), WeekSpec(1976, 2)]
        appended = []

        class FailingSink(CsvSink):
            def append(self, name):  # part of the week reaches the output, then it fails
                appended.append(name)
                if len(appended) > 1:
                    return super().append(name)
                os.unlink(name)
                self.out.write("a line of the week\n")
                raise ValueError("appending failed")

        config = _config(tmp_path, _served_weeks(aps_fixture_text, weeks), jobs=jobs)
        with pytest.raises(ValueError, match="^appending failed$"):
            get_bulk_patent_data(weeks, FailingSink(io.StringIO()), config)
        assert len(appended) == 1  # the second week is not appended

    def test_duplicate_wkus_counted_not_dropped(self, aps_fixture_text, tmp_path):
        w1, w2 = WeekSpec(1976, 1), WeekSpec(1976, 2)
        payload = make_zip({"w.txt": aps_fixture_text.encode("latin-1")})
        transport = FakeTransport({_week_url(w1): payload, _week_url(w2): payload})
        out = io.StringIO()
        summary = get_bulk_patent_data([w1, w2], CsvSink(out), _config(tmp_path, transport))
        assert summary.records_written == 4
        assert summary.duplicate_wkus == 2

    def test_ipc_code_holding_the_delimiter_keeps_its_week(self, aps_fixture_text, tmp_path):
        w1, w2 = WeekSpec(1976, 1), WeekSpec(1976, 2)
        # the fixture's two patents, then one whose only ICL holds "; "
        week_2 = aps_fixture_text + "PATN\nWKU  039309999\nISD  19760113\nCLAS\nICL  A01B; X\n"
        transport = FakeTransport(
            {
                _week_url(w1): make_zip({"a.txt": aps_fixture_text.encode("latin-1")}),
                _week_url(w2): make_zip({"b.txt": week_2.encode("latin-1")}),
            }
        )
        out = io.StringIO()
        summary = get_bulk_patent_data([w1, w2], CsvSink(out), _config(tmp_path, transport))
        rows = list(read_csv(io.StringIO(out.getvalue())))
        assert summary.weeks_failed == []
        assert summary.records_written == len(rows) == 5
        assert (rows[-1].wku, rows[-1].ipc_codes) == ("039309999", ())

    def test_xml4_week_dispatch(self, data_dir, tmp_path):
        week = WeekSpec(2010, 1)
        payload = make_zip({"ipg.xml": (data_dir / "era_xml4.xml").read_bytes()})
        transport = FakeTransport({_week_url(week): payload})
        out = io.StringIO()
        summary = get_bulk_patent_data([week], JsonlSink(out), _config(tmp_path, transport))
        assert summary.records_written == 1
        assert json.loads(out.getvalue())["wku"] == "07641234"

    def test_wrong_era_week_adds_no_rows(self, data_dir, tmp_path):
        good, mixed = WeekSpec(2010, 1), WeekSpec(2010, 2)
        xml4 = (data_dir / "era_xml4.xml").read_bytes()
        xml2 = (data_dir / "era_xml2.xml").read_bytes()
        transport = FakeTransport(
            {
                _week_url(good): make_zip({"ipg.xml": xml4}),
                # a grant of the XML2 era first, which decides the week's era
                _week_url(mixed): make_zip({"ipg.xml": xml2 + xml4}),
            }
        )
        out = io.StringIO()
        summary = get_bulk_patent_data([good, mixed], JsonlSink(out), _config(tmp_path, transport))
        assert summary.records_written == 1
        assert out.getvalue().count("\n") == 1
        assert [week for week, _ in summary.weeks_failed] == [mixed]
        assert "<PATDOC>" in summary.weeks_failed[0][1]

    def test_later_foreign_document_is_a_warning_not_a_failed_week(self, data_dir, tmp_path):
        week = WeekSpec(2010, 1)
        xml4 = (data_dir / "era_xml4.xml").read_bytes()
        xml2 = (data_dir / "era_xml2.xml").read_bytes()
        transport = FakeTransport({_week_url(week): make_zip({"ipg.xml": xml4 + xml2})})
        out = io.StringIO()
        summary = get_bulk_patent_data([week], JsonlSink(out), _config(tmp_path, transport))
        assert (summary.records_written, summary.warnings_total) == (1, 1)
        assert summary.weeks_failed == []
        assert json.loads(out.getvalue())["wku"] == "07641234"


def _served_weeks(aps_fixture_text, weeks):
    """A transport serving each of ``weeks`` as a zip of the fixture's
    two patents, renumbered per week so that no WKU repeats."""
    return FakeTransport({
        _week_url(week): make_zip({"w.txt": aps_fixture_text.replace(
            "039305672", "0393%02d%03d" % (week.week, week.year % 1000)
        ).encode("latin-1")})
        for week in weeks
    })


@pytest.fixture
def spool_dir(tmp_path, monkeypatch):
    """An empty ``TMPDIR`` for the run; each test checks it is empty after."""
    path = tmp_path / "tmp"
    path.mkdir()
    monkeypatch.setenv("TMPDIR", str(path))
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


class TestWorkerProcesses:
    WEEKS = [WeekSpec(1976, w) for w in range(1, 7)]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_where_weeks_are_parsed(self, aps_fixture_text, tmp_path, monkeypatch, jobs):
        log = tmp_path / "parses.log"
        parse = pipeline.parse_archive_stream

        def logged_parse(*args):
            with open(log, "a") as handle:  # forked workers inherit this patch
                handle.write("%d %d\n" % (os.getpid(), threading.get_ident()))
            return parse(*args)

        monkeypatch.setattr(pipeline, "parse_archive_stream", logged_parse)
        transport = _served_weeks(aps_fixture_text, self.WEEKS)
        summary = get_bulk_patent_data(
            self.WEEKS, CsvSink(io.StringIO()), _config(tmp_path, transport, jobs=jobs)
        )
        assert summary.records_written == 12
        places = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert len(places) == len(self.WEEKS)
        if jobs == 1:
            assert set(places) == {(os.getpid(), threading.get_ident())}
        else:
            assert os.getpid() not in {pid for pid, _ in places}

    def test_workers_forked_before_any_thread_starts(self, aps_fixture_text, tmp_path):
        FORK_THREADS.clear()
        transport = _served_weeks(aps_fixture_text, self.WEEKS)
        get_bulk_patent_data(
            self.WEEKS, CsvSink(io.StringIO()), _config(tmp_path, transport, jobs=3)
        )
        assert FORK_THREADS and set(FORK_THREADS) == {1}

    @pytest.mark.parametrize(
        "jobs, weeks, cpus, window", [(3, 6, 8, 3), (3, 2, 8, 2), (3, 6, 2, 3), (2, 6, 1, 2)]
    )
    def test_worker_count(
        self, aps_fixture_text, tmp_path, monkeypatch, jobs, weeks, cpus, window
    ):
        # one child per week, ``window`` of them forked before the first
        # append whatever the CPUs; at each append the week taken is
        # reaped and the next not yet forked
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        alive = []

        class CountingSink(CsvSink):
            def append(self, name):
                alive.append(len(_children()))
                super().append(name)

        FORK_THREADS.clear()
        transport = _served_weeks(aps_fixture_text, self.WEEKS[:weeks])
        summary = get_bulk_patent_data(
            self.WEEKS[:weeks], CountingSink(io.StringIO()), _config(tmp_path, transport, jobs=jobs)
        )
        assert summary.records_written == 2 * weeks
        assert alive[0] == window - 1
        assert alive == [min(taken + jobs, weeks) - taken - 1 for taken in range(weeks)]
        assert FORK_THREADS == [1] * weeks
        assert _children() == []

    def test_spools_bounded_by_jobs_and_removed(self, aps_fixture_text, tmp_path, spool_dir):
        transport = _served_weeks(aps_fixture_text, self.WEEKS)
        spools_at_write = []

        class CountingSink(CsvSink):
            def append(self, name):
                spools_at_write.append(sum(path.is_file() for path in spool_dir.rglob("*")))
                super().append(name)

        out = io.StringIO()
        summary = get_bulk_patent_data(
            self.WEEKS, CountingSink(out), _config(tmp_path, transport, jobs=3)
        )
        assert summary.records_written == len(list(read_csv(io.StringIO(out.getvalue())))) == 12
        assert max(spools_at_write) <= 3
        assert list(spool_dir.iterdir()) == []

    def test_failed_crc_fails_its_week_as_in_line(self, aps_fixture_text, tmp_path, spool_dir):
        weeks = self.WEEKS[:3]
        transport = _served_weeks(aps_fixture_text, weeks)
        stored = io.BytesIO()
        with zipfile.ZipFile(stored, "w", zipfile.ZIP_STORED) as archive:
            archive.writestr("w.txt", aps_fixture_text.encode("latin-1"))
        transport.add(_week_url(weeks[1]), stored.getvalue())
        config = _config(tmp_path, transport)
        _cache_with_bad_crc(config, weeks, weeks[1], b"WKU  039305672")
        runs = {}
        for jobs in (1, 3):
            out = io.StringIO()
            config.jobs = jobs
            summary = get_bulk_patent_data(weeks, CsvSink(out), config)
            runs[jobs] = summary.to_dict(), out.getvalue()
        assert runs[1] == runs[3]
        [failure] = runs[3][0]["weeks_failed"]
        assert (failure["week"], "Bad CRC-32" in failure["reason"]) == (2, True)
        assert list(spool_dir.iterdir()) == []

    def test_failed_write_to_the_output_is_fatal(self, aps_fixture_text, tmp_path, spool_dir):
        transport = _served_weeks(aps_fixture_text, self.WEEKS)
        with pytest.raises(OutputError, match="No space left"):
            get_bulk_patent_data(
                self.WEEKS, CsvSink(FullDisk()), _config(tmp_path, transport, jobs=3)
            )
        assert list(spool_dir.iterdir()) == []

    def test_worker_that_dies_fails_its_week(self, aps_fixture_text, data_dir, tmp_path):
        aps_week, xml_week = WeekSpec(1976, 1), WeekSpec(2010, 1)
        transport = _served_weeks(aps_fixture_text, [aps_week])
        xml4 = (data_dir / "era_xml4.xml").read_bytes()
        transport.add(_week_url(xml_week), make_zip({"ipg.xml": xml4}))
        config = _config(tmp_path, transport)
        assert pipeline.fetch_weeks([aps_week, xml_week], config).weeks_failed == []
        spool = tmp_path / "tmp"
        spool.mkdir()
        result = run_python(
            "-c", DYING_WORKER, "convert", "--years", "1976,2010", "--weeks", "1", "--jobs", "2",
            "--cache-dir", config.cache_dir, "--output", tmp_path / "out.csv", "--quiet",
            timeout=60, TMPDIR=str(spool),
        )
        assert result.returncode in (1, 2), result.stderr
        assert re.search(r"2010wk01: \S", result.stderr), result.stderr
        assert list(spool.iterdir()) == []

    def test_dead_worker_costs_only_the_weeks_it_had(self, data_dir, tmp_path):
        # the 2005 week kills its child; the children of the other weeks,
        # forked before and after it, are untouched
        weeks = [WeekSpec(year, 1) for year in (2004, 2005, 2006, 2007)]
        xml4 = (data_dir / "era_xml4.xml").read_bytes()
        transport = FakeTransport(
            {_week_url(weeks[0]): make_zip({"pg.xml": (data_dir / "era_xml2.xml").read_bytes()})}
        )
        for week in weeks[1:]:
            transport.add(
                _week_url(week),
                make_zip({"ipg.xml": xml4.replace(b"07641234", b"%08d" % week.year)}),
            )
        config = _config(tmp_path, transport)
        assert pipeline.fetch_weeks(weeks, config).weeks_failed == []
        spool, out = tmp_path / "tmp", tmp_path / "out.csv"
        spool.mkdir()
        result = run_python(
            "-c", DYING_2005, "convert", "--years", "2004-2007", "--weeks", "1", "--jobs", "2",
            "--cache-dir", config.cache_dir, "--output", out, "--quiet",
            timeout=60, TMPDIR=str(spool),
        )
        assert result.returncode == 2, result.stderr
        assert re.fullmatch(r"failed 2005wk01: \S[^\n]*\n", result.stderr), result.stderr
        assert [record.wku for record in read_csv(out)] == ["07641234", "00002006", "00002007"]
        assert list(spool.iterdir()) == []

    def test_worker_that_dies_ends_convert_input(self, data_dir, tmp_path):
        spool, out = tmp_path / "tmp", tmp_path / "out.csv"
        spool.mkdir()
        xml4 = data_dir / "era_xml4.xml"
        result = run_python(
            "-c", DYING_WORKER, "convert", "--input", xml4, "--input", xml4, "--format-era", "xml4",
            "--jobs", "2", "--output", out, "--quiet", timeout=60, TMPDIR=str(spool),
        )
        assert result.returncode == 1, result.stderr
        assert re.fullmatch(r"error: \S[^\n]*\n", result.stderr), result.stderr
        assert "era_xml4.xml" in result.stderr
        assert not out.exists()
        assert list(spool.iterdir()) == []


# runs the command line in a process whose parse of an XML4 week in a
# worker process kills that worker
DYING_WORKER = """
import os, sys
from patentbulk import cli, pipeline
from patentbulk.model import SourceFormat
command, parse = os.getpid(), pipeline.parse_archive_stream

def dying_parse(stream, format, encoding):
    if format is SourceFormat.XML4 and os.getpid() != command:
        os._exit(1)
    return parse(stream, format, encoding)

pipeline.parse_archive_stream = dying_parse
sys.exit(cli.run(sys.argv[1:]))
"""
# runs the command line in a process whose spool of the 2005 week's
# archive (ipg050104.zip) in a child process kills that child
DYING_2005 = """
import os, signal, sys
from patentbulk import cli, pipeline
command, spool_file = os.getpid(), pipeline.spool_file

def dying_spool(path, *args):
    if os.path.basename(path) == "ipg050104.zip" and os.getpid() != command:
        os.kill(os.getpid(), signal.SIGKILL)
    return spool_file(path, *args)

pipeline.spool_file = dying_spool
sys.exit(cli.run(sys.argv[1:]))
"""


def _children():
    """The PIDs of this process's children not yet reaped."""
    tasks = Path("/proc/self/task").iterdir()
    return [pid for task in tasks for pid in (task / "children").read_text().split()]


def _aps_zip(path, text, copies=300, method=zipfile.ZIP_DEFLATED):
    """A weekly archive of ``copies`` of ``text``, many times the size of
    a pipe's buffer; returns its path."""
    with zipfile.ZipFile(path, "w", method) as archive:
        archive.writestr("week.txt", (text * copies).encode("latin-1"))
    return path


class TestInflateAhead:
    """A forked child inflates each archive ahead of the parse; every way
    a stream can end reaps it and leaves no spool file."""

    def _closed_after_one_read(self, path):
        with pipeline._inflated(path) as stream:
            assert len(stream.read(10)) == 10

    def _parse_raises(self, path):
        with pytest.raises(UnicodeDecodeError):
            pipeline.spool_file(path, SourceFormat.APS, "utf-8", CsvSink(io.StringIO()))

    def _interrupted(self, path):  # the stream is closed deep inside the member
        class Interrupted(CsvSink):
            def write(self, record):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            pipeline.spool_file(path, SourceFormat.APS, "latin-1", Interrupted(io.StringIO()))

    def _bad_crc(self, path):
        with pytest.raises(fetchmod.IntegrityError) as caught:
            pipeline.spool_file(path, SourceFormat.APS, "latin-1", CsvSink(io.StringIO()))
        assert str(caught.value).startswith("%s: Bad CRC-32 for file 'week.txt'" % path)

    @pytest.mark.parametrize("end", ["closed_after_one_read", "parse_raises", "interrupted",
                                     "bad_crc"])
    def test_no_child_left_behind(self, aps_fixture_text, tmp_path, spool_dir, monkeypatch, end):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path = tmp_path / "week.zip"
        if end == "parse_raises":  # a byte that is not UTF-8, well inside the member
            _aps_zip(path, aps_fixture_text * 10 + "PATN\nTTL  \xc9\n" + aps_fixture_text * 300, 1)
        elif end == "bad_crc":
            _aps_zip(path, aps_fixture_text, method=zipfile.ZIP_STORED)
            payload = bytearray(path.read_bytes())
            payload[payload.index(b"WKU", len(payload) // 2)] ^= 0x20  # "W" -> "w"
            path.write_bytes(bytes(payload))
        else:
            _aps_zip(path, aps_fixture_text)
        FORK_THREADS.clear()
        getattr(self, "_" + end)(path)
        assert FORK_THREADS == [1]
        assert _children() == []
        assert list(spool_dir.iterdir()) == []

    def test_a_killed_child_is_named_with_its_file_and_signal(
        self, aps_fixture_text, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        init = fetchmod.ForkedPipe.__init__

        def killed(self, fill, name):  # the child dies before it can send an error
            init(self, fill, name)
            os.kill(self._pid, signal.SIGKILL)

        monkeypatch.setattr(fetchmod.ForkedPipe, "__init__", killed)
        path = _aps_zip(tmp_path / "week.zip", aps_fixture_text)
        text = "%s: the child process was killed by signal %d" % (path, signal.SIGKILL)
        with pytest.raises(fetchmod.IntegrityError) as caught:
            convert_files([path], SourceFormat.APS, CsvSink(io.StringIO()), PipelineConfig(jobs=1))
        assert str(caught.value) == text
        out = tmp_path / "out.csv"
        assert cli.run(["convert", "--input", str(path), "--format-era", "aps", "--quiet",
                        "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % text
        assert not out.exists() and _children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-line", "ahead"])
    def test_bad_crc_reads_the_same_either_way(
        self, aps_fixture_text, tmp_path, monkeypatch, spool_dir, cpus
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        path = _aps_zip(tmp_path / "week.zip", aps_fixture_text, method=zipfile.ZIP_STORED)
        payload = bytearray(path.read_bytes())
        payload[payload.index(b"WKU", len(payload) // 2)] ^= 0x20  # "W" -> "w"
        path.write_bytes(bytes(payload))
        FORK_THREADS.clear()
        with pytest.raises(fetchmod.IntegrityError) as caught:
            pipeline.spool_file(path, SourceFormat.APS, "latin-1", CsvSink(io.StringIO()))
        assert str(caught.value) == "%s: Bad CRC-32 for file 'week.txt'" % path
        assert len(FORK_THREADS) == cpus - 1
        assert _children() == []

    def test_a_second_thread_inflates_in_line(self, aps_fixture_text, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path = _aps_zip(tmp_path / "week.zip", aps_fixture_text)

        def convert():
            out = io.StringIO()
            convert_files([path], SourceFormat.APS, CsvSink(out), PipelineConfig(jobs=1))
            return out.getvalue()

        FORK_THREADS.clear()
        alone = convert()
        assert FORK_THREADS == [1]
        FORK_THREADS.clear()
        with ThreadPoolExecutor(1) as pool:
            beside = pool.submit(convert).result(timeout=60)
        assert FORK_THREADS == []
        assert beside == alone and len(list(read_csv(io.StringIO(alone)))) == 600

    @pytest.mark.parametrize(
        "jobs, files, cpus, ahead",
        [(1, 2, 1, False), (1, 2, 2, True), (1, 1, None, False), (2, 3, 4, False),
         (2, 3, None, False)],
    )
    def test_ahead_only_at_one_job_with_a_cpu_idle(
        self, aps_fixture_text, tmp_path, monkeypatch, jobs, files, cpus, ahead
    ):
        if cpus is None:  # a platform without CPU affinity
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        log = tmp_path / "children.log"
        log.touch()

        class LoggedPipe(fetchmod.ForkedPipe):  # forked workers inherit this patch
            def __init__(self, fill, name):
                with open(log, "a") as handle:
                    handle.write("%d\n" % os.getpid())
                super().__init__(fill, name)

        monkeypatch.setattr(fetchmod, "ForkedPipe", LoggedPipe)
        path = _aps_zip(tmp_path / "week.zip", aps_fixture_text, copies=2)
        out = io.StringIO()
        convert_files([path] * files, SourceFormat.APS, CsvSink(out), PipelineConfig(jobs=jobs))
        # at more than one job, a child per file, each of which inflates in line
        forks = files if ahead or jobs > 1 else 0
        assert log.read_text().split() == [str(os.getpid())] * forks
        assert len(list(read_csv(io.StringIO(out.getvalue())))) == 4 * files

    @pytest.mark.parametrize("failure", ["unknown_method", "failed_read"])
    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-line", "ahead"])
    def test_error_names_the_file_either_way(
        self, aps_fixture_text, tmp_path, monkeypatch, spool_dir, cpus, failure
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        path = _aps_zip(tmp_path / "week.zip", aps_fixture_text, 1, zipfile.ZIP_STORED)
        if failure == "unknown_method":
            payload = bytearray(path.read_bytes())
            for header, offset in ((b"PK\x03\x04", 8), (b"PK\x01\x02", 10)):
                at = payload.index(header) + offset
                payload[at : at + 2] = (99).to_bytes(2, "little")
            path.write_bytes(bytes(payload))
            text = "That compression method is not supported"
        else:
            def failed_read(self, buffer):
                raise OSError("read failed")

            monkeypatch.setattr(fetchmod._ConcatenatedMembers, "readinto", failed_read)
            text = "read failed"
        FORK_THREADS.clear()
        with pytest.raises((fetchmod.IntegrityError, OSError)) as caught:
            convert_files([path], SourceFormat.APS, CsvSink(io.StringIO()), PipelineConfig(jobs=1))
        assert str(caught.value) == "%s: %s" % (path, text)
        assert len(FORK_THREADS) == cpus - 1
        assert _children() == []
        assert list(spool_dir.iterdir()) == []


# the four stats analyses as the CLI runs them at --top 20: (analysis, table writer)
STATS_ANALYSES = [
    (analytics.weekly_counts, analytics.weekly_table),
    (lambda records: analytics.top_ipc_subclasses(records, 20), analytics.classes_table),
    (lambda records: analytics.lag_stats_by_class(records, 20), analytics.lag_table),
    (analytics.lag_stats_by_year, analytics.lag_table),
]
# application date, issue date and IPC codes of the rows stats_inputs draws;
# every sixth application date is after its issue date, and the last four
# lags, in years no other row has, are either side of the bound of a
# group's array of lag-day counts or from 0001-01-01
STATS_ROWS = [
    {"app_date": None if n % 5 == 4 else str(issue - dt.timedelta(days=400 * (n % 6) - 200)),
     "issue_date": str(issue), "ipc_codes": ["A01B 1/00", "C07D 295/12", "H04L 9/32"][: n % 4]}
    for n, issue in ((n, dt.date(1976, 1, 6) + dt.timedelta(weeks=37 * n)) for n in range(30))
] + [
    {"app_date": str(app), "issue_date": str(issue), "ipc_codes": ipc_codes}
    for issue, app, ipc_codes in (
        (dt.date(2010, 1, 5), dt.date(2010, 1, 5) - dt.timedelta(days=analytics._DENSE_DAYS - 1),
         ["A01B 1/00", "G06F 3/00"]),
        (dt.date(2010, 1, 5), dt.date(2010, 1, 5) - dt.timedelta(days=analytics._DENSE_DAYS),
         ["G06F 3/00"]),
        (dt.date(2011, 1, 4), dt.date(1, 1, 1), ["G06F 3/00"]),
        (dt.date(2012, 1, 3), dt.date(1, 1, 1), ["H04L 9/32"]),
    )
]
# claims with the characters a CSV cell quotes: `"`, `,` and line breaks
STATS_CLAIMS = st.sampled_from(["", "1. a", 'a "b", c', "1. a,\n2. b", "x\r\ny", "a\rb", '"', ",,"])


def _stats_tables(path, jsonl, one_process=False, analyses=STATS_ANALYSES):
    """The tables of ``analyses`` of the grants at ``path``, each an
    error's text instead if its read fails; with ``one_process``, read
    as an iterator, which has no ``tally`` to split."""
    tables = []
    for analyse, write_table in analyses:
        out = io.StringIO()
        grants = pipeline.read_grants(path, jsonl)
        try:
            write_table(analyse(iter(grants) if one_process else grants), out)
        except ValueError as exc:
            out.write("error: %s" % exc)
        tables.append(out.getvalue())
    return tables


def _stats_cell(text):
    return '"%s"' % text.replace('"', '""') if any(c in text for c in '",\n\r') else text


@st.composite
def stats_inputs(draw):
    """(bytes, jsonl) of a CSV or JSONL file for ``stats``: rows of
    ``STATS_ROWS`` with drawn claims, ended by ``\\n``, ``\\r\\n`` or ``\\r``.
    Drawn too: a large claims cell (``"``, ``,`` and line breaks) that may
    hold the middle, a stray ``"`` in the unquoted title of the first row,
    a bad row first and/or last, and a last row with no line end whose
    long claims hold the middle; or an empty or header-only file."""
    jsonl, end = draw(st.booleans()), draw(st.sampled_from(["\n", "\r\n", "\r"]))
    rows = [dict(row, wku="w%d" % n, claims=claims) for n, (row, claims) in enumerate(
        draw(st.lists(st.tuples(st.sampled_from(STATS_ROWS), STATS_CLAIMS), max_size=10))
    )]
    if rows and draw(st.booleans()):
        big = rows[draw(st.integers(0, len(rows) - 1))]
        big["claims"] = (big["claims"] + '1. "a",\n\r\n2. b,\r') * 40
    bad = {"wku": "bad", "issue_date": "1976-13-06"}
    where = draw(st.sampled_from([(), (0,), (len(rows),), (0, len(rows))]))
    for at in reversed(where):
        rows.insert(at, bad)
    open_end = draw(st.booleans())
    if open_end:
        rows.append({"wku": "open", "issue_date": "1976-01-06", "claims": "x" * 2000})
    if jsonl:
        lines = [json.dumps(row) for row in rows]
    elif rows or draw(st.booleans()):
        stray = draw(st.booleans())
        lines = [",".join(pipeline.CSV_COLUMNS)] + [",".join([
            row["wku"], 'Wid"get' if stray and number == 0 else "t",
            row.get("app_date") or "", row["issue_date"], "", "",
            "; ".join(row.get("ipc_codes", [])), "", _stats_cell(row.get("claims", "")),
        ]) for number, row in enumerate(rows)]
    else:
        lines = []
    text = "".join(line + end for line in lines)
    if open_end:
        text = text[: -len(end)]
    return text.encode(), jsonl


class TestStatsSplit:
    """``stats`` tallies each half of a regular file in its own process when
    a CPU is idle, and its tables and errors are those of one process."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture
    def records_csv(self, tmp_path):
        path = tmp_path / "in.csv"
        sink_to_file(path, CsvSink, random_records(300, seed=11))
        return path

    def _reads(self, monkeypatch):
        """The (start, end) of each read of this process from now on."""
        reads, read_rows = [], pipeline._read_rows

        def logged(source, decode, jsonl=False, start=0, end=None):
            reads.append((start, end))
            return read_rows(source, decode, jsonl, start, end)

        monkeypatch.setattr(pipeline, "_read_rows", logged)
        return reads

    @pytest.mark.parametrize("jsonl", [False, True])
    def test_the_seam_ends_the_first_record_past_the_middle(self, tmp_path, jsonl):
        # rows whose quoted claims hold a line end: in CSV a seam there would
        # cut a cell; the file spans several of the scan's 64 KiB reads
        claims = '1. a "b",\n2. c'
        if jsonl:
            row = json.dumps({"wku": "1", "issue_date": "1976-01-06", "claims": claims}) + "\n"
            header = ""
        else:
            row = '1,t,,1976-01-06,,,,,"%s"\n' % claims.replace('"', '""')
            header = ",".join(pipeline.CSV_COLUMNS) + "\n"
        path = tmp_path / "in"
        path.write_text(header + row * 5000)
        middle = path.stat().st_size // 2
        ends = [len(header) + len(row) * n for n in range(1, 5001)]
        assert pipeline._seam(path, jsonl) == min(end for end in ends if end > middle)
        path.write_text(header + row[:-1] * 5000)  # no record ends after the middle
        assert pipeline._seam(path, jsonl) is None
        path.write_text("1\n" + "2" * 10 + "\n")  # the only one ends the file
        assert pipeline._seam(path, jsonl) is None

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=stats_inputs(), analysis=st.sampled_from(STATS_ANALYSES))
    def test_split_read_equals_one_process(self, drawn, analysis, tmp_path, two_cpus):
        # one analysis per example: each split forks, 2-5 ms on a 2-CPU KVM guest
        data, jsonl = drawn
        path = tmp_path / "in"
        path.write_bytes(data)
        FORK_THREADS.clear()
        one_process = _stats_tables(path, jsonl, True, [analysis])
        assert FORK_THREADS == []
        assert _stats_tables(path, jsonl, False, [analysis]) == one_process
        assert len(FORK_THREADS) == (pipeline._seam(path, jsonl) is not None)
        assert _children() == []

    def test_arrays_and_rare_lags_of_the_childs_half_merge_to_one_process(self, tmp_path, two_cpus):
        # 2,000 weeks, odd rows' lags over 3,000 days and even rows' each a
        # day of its own above the array bound: the child's half sends a
        # large weekly Counter, lag arrays and many of A01B's rare lags
        path = tmp_path / "in.csv"
        rows = [",".join(pipeline.CSV_COLUMNS)]
        for n in range(4000):
            issue = dt.date(1976, 1, 6) + dt.timedelta(weeks=n // 2)
            lag = n % 3000 if n % 2 else analytics._DENSE_DAYS + n
            rows.append("%d,t,%s,%s,,,A01B 1/00,," % (n, issue - dt.timedelta(days=lag), issue))
        path.write_text("\n".join(rows) + "\n")
        one_process = _stats_tables(path, False, one_process=True)
        FORK_THREADS.clear()
        assert _stats_tables(path, False) == one_process
        assert FORK_THREADS == [1] * 4
        assert _children() == []

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_a_clean_seam_reads_each_half_once(self, format, tmp_path, two_cpus, monkeypatch):
        path = tmp_path / ("in." + format)
        sink_to_file(path, CsvSink if format == "csv" else JsonlSink, random_records(300, seed=11))
        one_process = _stats_tables(path, format == "jsonl", one_process=True)
        seam = pipeline._seam(path, format == "jsonl")
        assert path.stat().st_size // 2 <= seam < path.stat().st_size
        reads = self._reads(monkeypatch)
        FORK_THREADS.clear()
        assert _stats_tables(path, format == "jsonl") == one_process
        assert (FORK_THREADS, reads) == ([1] * 4, [(0, seam)] * 4)  # the parent reads its half

    def test_a_seam_inside_a_cell_reads_the_file_again(self, tmp_path, two_cpus, monkeypatch):
        # the stray quote before the middle puts the seam on the first line
        # end inside the last row's quoted claims, whose other lines read
        # as two rows from there: only the parent's strict read can tell
        path = tmp_path / "in.csv"
        rows = ["%d,t,,1976-01-%02d,,,A01B 1/00,," % (n, n % 28 + 1) for n in range(60)]
        rows[0] = rows[0].replace(",t,", ',Wid"get,')
        rows.append('61,t,,1976-01-06,,,,,"x\n62,t,,1976-01-13,,,,,\n63,t,,1976-01-13,,,,,y"')
        path.write_text("\n".join([",".join(pipeline.CSV_COLUMNS)] + rows) + "\n")
        assert pipeline._seam(path, False) == path.read_bytes().index(b'"x\n') + 3
        one_process = _stats_tables(path, False, one_process=True)
        reads = self._reads(monkeypatch)
        FORK_THREADS.clear()
        assert _stats_tables(path, False) == one_process
        assert len(FORK_THREADS) == 4
        assert reads == [(0, pipeline._seam(path, False)), (0, None)] * 4
        assert "error" not in "".join(one_process)

    def test_a_child_killed_before_it_sends_reads_the_file_again(
        self, records_csv, two_cpus, monkeypatch
    ):
        one_process = _stats_tables(records_csv, False, one_process=True)
        init = fetchmod.ForkedPipe.__init__

        def killed(self, fill, name):  # the child dies before it can send its tally
            init(self, fill, name)
            os.kill(self._pid, signal.SIGKILL)

        monkeypatch.setattr(fetchmod.ForkedPipe, "__init__", killed)
        reads = self._reads(monkeypatch)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        FORK_THREADS.clear()
        assert _stats_tables(records_csv, False) == one_process
        assert FORK_THREADS == [1] * 4
        assert reads == [(0, pipeline._seam(records_csv, False)), (0, None)] * 4
        assert _children() == []
        assert sorted(os.listdir("/proc/self/fd")) == descriptors

    def test_a_failing_merge_is_raised_not_read_again(self, records_csv, two_cpus, monkeypatch):
        # only a bad row, a failed child or a failed fork reads the file again
        def broken(tally, other):
            raise TypeError("merge")

        monkeypatch.setattr(analytics, "_merged", broken)
        reads = self._reads(monkeypatch)
        with pytest.raises(TypeError, match="merge"):
            analytics.weekly_counts(pipeline.read_grants(records_csv))
        assert reads == [(0, pipeline._seam(records_csv, False))]
        assert _children() == []

    @pytest.mark.parametrize("cpus, thread, forks", [(1, False, 0), (2, False, 1),
                                                     (None, False, 0), (2, True, 0)])
    def test_split_only_with_a_cpu_idle(
        self, records_csv, capsys, monkeypatch, cpus, thread, forks
    ):
        if cpus is None:  # a platform without CPU affinity
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        expected = io.StringIO()
        analytics.weekly_table(analytics.weekly_counts(read_csv(records_csv)), expected)
        done = threading.Event()
        beside = threading.Thread(target=done.wait)
        if thread:
            beside.start()
        FORK_THREADS.clear()
        try:
            assert cli.run(["stats", "weekly", "--input", str(records_csv)]) == 0
        finally:
            done.set()
            if thread:
                beside.join()
        assert len(FORK_THREADS) == forks
        assert capsys.readouterr().out == expected.getvalue()

    @pytest.mark.parametrize("end", ["success", "bad_first", "bad_second", "wrong_header",
                                     "interrupt"])
    def test_no_child_or_descriptor_left(
        self, records_csv, tmp_path, capsys, monkeypatch, two_cpus, end
    ):
        text = records_csv.read_text(encoding="utf-8")
        if end == "bad_first":
            text = text.replace("\n", "\n9,t,,1976-13-06,,,,,\n", 1)
        elif end == "bad_second":
            text += "9,t,,1976-13-06,,,,,\n"
        elif end == "wrong_header":
            text = text.replace("wku,", "id,", 1)
        elif end == "interrupt":
            command = os.getpid()

            def interrupted(row):
                if os.getpid() == command:
                    raise KeyboardInterrupt
                time.sleep(60)  # a child still reading is killed, not waited for
                os._exit(1)

            monkeypatch.setattr(pipeline, "grant_from_row", interrupted)
        records_csv.write_text(text, encoding="utf-8")
        table = tmp_path / "table.csv"
        descriptors = sorted(os.listdir("/proc/self/fd"))
        FORK_THREADS.clear()
        argv = ["stats", "lag-by-class", "--input", str(records_csv), "--output", str(table)]
        started = time.monotonic()
        if end == "interrupt":
            with pytest.raises(KeyboardInterrupt):
                cli.run(argv)
        else:
            assert cli.run(argv) == (0 if end == "success" else 1)
        assert time.monotonic() - started < 30
        assert FORK_THREADS == [1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == descriptors
        assert table.exists() == (end == "success")
        err = capsys.readouterr().err
        if end.startswith("bad"):  # the line of one process's read
            bad_line = text.splitlines().index("9,t,,1976-13-06,,,,,") + 1
            assert "error: line %d: " % bad_line in err
        if end == "wrong_header":
            assert "error: unexpected CSV header: ['id', " in err

    def test_a_fifo_is_read_in_one_process(self, records_csv, tmp_path, capsys, two_cpus):
        expected = io.StringIO()
        analytics.lag_table(analytics.lag_stats_by_year(read_csv(records_csv)), expected)
        fifo = tmp_path / "fifo.csv"
        os.mkfifo(fifo)
        copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
        writer = subprocess.Popen([sys.executable, "-c", copy, str(records_csv), str(fifo)])
        try:
            FORK_THREADS.clear()
            code = cli.run(["stats", "lag-by-year", "--input", str(fifo), "--quiet"])
        finally:
            writer.wait(timeout=60)
        assert (code, writer.returncode) == (0, 0)
        assert threading.active_count() == 1 and FORK_THREADS == []
        assert capsys.readouterr().out == expected.getvalue()

    def test_library_calls_read_in_one_process(self, records_csv, two_cpus):
        # read_csv, the exported reader, has no tally: the analyses count here
        FORK_THREADS.clear()
        tables = []
        for analyse, write_table in STATS_ANALYSES:
            out = io.StringIO()
            write_table(analyse(read_csv(records_csv)), out)
            tables.append(out.getvalue())
        assert FORK_THREADS == []
        assert tables == _stats_tables(records_csv, False, one_process=True)


@pytest.mark.parametrize("site", ["inflate", "stats"])
def test_a_failed_fork_leaves_the_work_here(aps_fixture_text, tmp_path, monkeypatch, site):
    # os.fork fails as under a process limit: the archive is inflated, and
    # the file tallied, in this process, and no pipe is left open
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    archive = _aps_zip(tmp_path / "week.zip", aps_fixture_text, copies=50)
    records = tmp_path / "records.csv"
    convert = ["convert", "--input", str(archive), "--format-era", "aps",
               "--output", str(records), "--quiet"]
    if site == "stats":
        assert cli.run(convert) == 0
        one_process = _stats_tables(records, False, one_process=True)

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    descriptors = sorted(os.listdir("/proc/self/fd"))
    if site == "inflate":
        assert cli.run(convert) == 0
    else:
        assert _stats_tables(records, False) == one_process
    assert sorted(os.listdir("/proc/self/fd")) == descriptors
    assert len(list(read_csv(records))) == 100


def test_a_failed_fork_at_two_jobs_runs_each_step_here(aps_fixture_text, tmp_path, monkeypatch):
    # os.fork fails as under a process limit: each week's or file's step
    # runs in this process, in order, and no pipe is left open
    paths, weeks = _local_weeks(tmp_path), [WeekSpec(1976, w) for w in range(1, 4)]

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    runs = {}
    for jobs in (1, 2):
        if jobs == 2:
            monkeypatch.setattr(os, "fork", no_fork)
            descriptors = sorted(os.listdir("/proc/self/fd"))
        transport = _served_weeks(aps_fixture_text, weeks)
        local, cached = io.StringIO(), io.StringIO()
        convert_files(paths, SourceFormat.APS, CsvSink(local), PipelineConfig(jobs=jobs))
        summary = get_bulk_patent_data(
            weeks, CsvSink(cached), _config(tmp_path / str(jobs), transport, jobs=jobs)
        )
        runs[jobs] = local.getvalue(), cached.getvalue(), summary.to_dict(), len(transport.requests)
    assert runs[2] == runs[1] and runs[1][3] == 3  # the fake transport ran here
    assert sorted(os.listdir("/proc/self/fd")) == descriptors


class TestExceptionsCrossProcesses:
    ERRORS = [
        model.WrongFileTypeError("expected <us-patent-grant>, found <PATDOC>"),
        model.IpcParseError("no section letter: '9X'"),
        model.GrantParseError(7, "no WKU"),
        fetchmod.FetchError("http://fake.test/bulk/pftaps19760106_wk01.zip", "HTTP 404", 404),
        fetchmod.IntegrityError("w.zip: Bad CRC-32 for file 'w.txt'"),
        fetchmod.TransportError("connection dropped mid-stream"),
    ]

    def test_every_exception_class_listed(self):
        defined = {
            value
            for module in (model, fetchmod)
            for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        }
        assert defined == {type(error) for error in self.ERRORS}

    @pytest.mark.parametrize("error", ERRORS, ids=lambda error: type(error).__name__)
    def test_pickle_round_trip(self, error):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))


# one value of each class that a forked child may pickle back or that a
# caller may send: the results, reports and configs of a run
VALUES = [
    WeekSpec(1976, 2),
    model.ParseReport(records_emitted=2, warnings=[(3, "kept")], slices_seen=2),
    model.ipc_parse("C07D 295/12"),
    model.build_record(wku="1", issue_date=dt.date(1976, 1, 6), title="t",
                       ipc_codes=[model.ipc_parse("A01B 1/00")], claims="a\nb"),
    resolve_plan(WeekSpec(2005, 1)),
    fetchmod.CacheEntry("ipg050104.zip", "file:///ipg050104.zip", 3, "sha256:00", "now"),
    xmlgrants.XmlDocSlice(b"<?xml?>", 4),
    analytics.WeeklyCount(1976, 1, 2),
    analytics.ClassCount("C07D", 3),
    analytics.LagStats("C07D", 1, 365.0, 365.0, 365.0, 365.0, 365.0, 2),
    pipeline.RunSummary(weeks_requested=2, weeks_fetched=1,
                        weeks_failed=[(WeekSpec(1976, 1), "HTTP 404")], records_written=4),
    pipeline._Halves("grants.csv", True),
    PipelineConfig(cache_dir="c", jobs=2, retries=0),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_value_pickle_round_trip(value):
    # as _Forked sends a result: pickle.dump into a pipe, pickle.load out of it
    pipe = io.BytesIO()
    pickle.dump(value, pipe)
    pipe.seek(0)
    copy = pickle.load(pipe)
    assert type(copy) is type(value)
    assert vars(copy) == vars(value) if hasattr(value, "__dict__") else copy == value


class TestConvertStream:
    def test_aps_stream(self, aps_fixture_text, tmp_path):
        source = tmp_path / "week.txt"
        source.write_bytes(aps_fixture_text.encode("latin-1"))
        summary = convert_files([source], SourceFormat.APS, CsvSink(io.StringIO()))
        assert summary.records_written == 2
        assert summary.warnings_total == 1  # the invalid APD in the second patent

    def test_skipped_section_counts_one_warning(self, tmp_path):
        source = tmp_path / "week.txt"
        source.write_text("PATN\nWKU  039305672\nISD  19760106\nPATN\nTTL  Widget\nISD  19760106\n")
        summary = convert_files([source], SourceFormat.APS, CsvSink(io.StringIO()))
        assert summary.records_written == 1
        assert summary.warnings_total == 1  # the second section has no WKU

    def test_xml_stream(self, data_dir):
        out = io.StringIO()
        summary = convert_files([data_dir / "era_xml4.xml"], SourceFormat.XML4, JsonlSink(out))
        assert summary.records_written == 1
        assert summary.output_bytes == len(out.getvalue().encode())

    @pytest.mark.parametrize("zipped", [False, True], ids=["txt", "zip"])
    def test_aps_file_leaves_no_file_unclosed(self, aps_fixture_text, tmp_path, zipped):
        text = aps_fixture_text.encode("latin-1")
        source = tmp_path / ("week.zip" if zipped else "week.txt")
        source.write_bytes(make_zip({"w.txt": text}) if zipped else text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = convert_files([source], SourceFormat.APS, CsvSink(io.StringIO()))
            gc.collect()
        assert summary.records_written == 2
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_paths_rejected(self, jobs):
        with pytest.raises(ValueError, match="paths must be non-empty"):
            convert_files([], SourceFormat.APS, CsvSink(io.StringIO()), PipelineConfig(jobs=jobs))


# the fixtures of every era, whole and line by line, so that drawn bytes
# hold PATN headers, <?xml prologs and documents of each era
_FIXTURES = [
    (DATA_DIR / name).read_bytes()
    for name in ("aps_two_patents.txt", "era_aps.txt", "era_xml2.xml", "era_xml4.xml")
]
_FIXTURE_LINES = sorted({line for data in _FIXTURES for line in data.splitlines(keepends=True)})
_ARCHIVE_BYTES = st.one_of(
    st.binary(max_size=300),
    st.lists(st.one_of(
        st.sampled_from(_FIXTURES), st.sampled_from(_FIXTURE_LINES), st.binary(max_size=16)
    ), max_size=12).map(b"".join),
)


@pytest.mark.parametrize("era", list(SourceFormat))
@settings(max_examples=200, deadline=None)
@given(data=_ARCHIVE_BYTES)
def test_random_bytes_give_records_or_wrong_file_type(era, data):
    records, report = pipeline.parse_archive_stream(io.BytesIO(data), era)
    try:
        emitted = sum(1 for _ in records)
    except WrongFileTypeError:
        return
    units = report.patn_sections if era is SourceFormat.APS else report.slices_seen
    assert report.records_emitted == emitted
    assert report.records_emitted + report.records_skipped == units


def _local_weeks(tmp_path, weeks=3, patents=40):
    """Plain fixed-tag files whose rows outgrow a pipe's buffer, with
    Latin-1 names that UTF-8 writes in two bytes."""
    paths = []
    for week in range(weeks):
        path = tmp_path / ("week%d.txt" % week)
        path.write_bytes(b"".join(
            b"PATN\nWKU  0400%02d%03d\nISD  19760106\nINVT\nNAM  M\xfcller; J\xf6rg\nCLMS\n"
            % (week, i) + b"PAR  1. A press, \"the\" ram.\n     a frame.\n" * 60
            for i in range(patents)
        ))
        paths.append(path)
    return paths


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("sink_class", [CsvSink, JsonlSink])
class TestSinkAppend:
    """Each kind of output gets the same bytes and ``bytes_written``: a
    file, a file opened to append, a pipe, a file that compresses what is
    written to it, a file in another encoding, and binary files, buffered
    or raw, which take the spools' bytes."""

    def _expected(self, paths, sink_class, jobs):
        out = io.StringIO()
        summary = convert_files(paths, SourceFormat.APS, sink_class(out), PipelineConfig(jobs=jobs))
        data = out.getvalue().encode("utf-8")
        assert summary.output_bytes == len(data) > len(paths) * 64 * 1024
        return data

    def test_file_and_append(self, tmp_path, sink_class, jobs):
        paths = _local_weeks(tmp_path)
        expected = self._expected(paths, sink_class, jobs)
        target = tmp_path / "out"
        with open(target, "w", encoding="utf-8", newline="") as out:
            sink = sink_class(out)
            convert_files(paths[:1], SourceFormat.APS, sink, PipelineConfig(jobs=jobs))
        with open(target, "a", encoding="utf-8", newline="") as out:
            appended = sink_class(out) if sink_class is JsonlSink else CsvSink(out, False)
            convert_files(paths[1:], SourceFormat.APS, appended, PipelineConfig(jobs=jobs))
        assert target.read_bytes() == expected
        assert sink.bytes_written + appended.bytes_written == len(expected)

    def test_pipe_to_a_subprocess(self, tmp_path, sink_class, jobs):
        paths = _local_weeks(tmp_path)
        expected = self._expected(paths, sink_class, jobs)
        inputs = [arg for path in paths for arg in ("--input", path)]
        result = run_python(
            "-c", "from patentbulk.cli import main; main()", "convert", *inputs,
            "--format-era", "aps", "--format", "csv" if sink_class is CsvSink else "jsonl",
            "--jobs", jobs, "--summary-json", tmp_path / "summary.json", "--quiet",
            timeout=60, PYTHONIOENCODING="utf-8",
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.encode("utf-8") == expected
        assert json.loads((tmp_path / "summary.json").read_text())["output_bytes"] == len(expected)

    @pytest.mark.parametrize("codec", [gzip, bz2, lzma])
    def test_compressing_text_file(self, tmp_path, sink_class, jobs, codec):
        # the text wrapper's descriptor is the compressed file's
        paths = _local_weeks(tmp_path, weeks=2)
        expected = self._expected(paths, sink_class, jobs)
        with codec.open(tmp_path / "out", "wt", encoding="utf-8", newline="") as out:
            sink = sink_class(out)
            convert_files(paths, SourceFormat.APS, sink, PipelineConfig(jobs=jobs))
        assert codec.decompress((tmp_path / "out").read_bytes()) == expected
        assert sink.bytes_written == len(expected)

    def test_other_encodings_get_the_text(self, tmp_path, sink_class, jobs):
        paths = _local_weeks(tmp_path, weeks=1)
        expected = self._expected(paths, sink_class, jobs)
        with open(tmp_path / "out", "w", encoding="utf-16", newline="") as out:
            sink = sink_class(out)
            convert_files(paths, SourceFormat.APS, sink, PipelineConfig(jobs=jobs))
        assert (tmp_path / "out").read_bytes() == expected.decode("utf-8").encode("utf-16")
        assert sink.bytes_written == len(expected)

    def test_binary_file_takes_the_utf8_of_the_text(self, tmp_path, sink_class, jobs):
        paths = _local_weeks(tmp_path, weeks=2)
        expected = self._expected(paths, sink_class, jobs)
        out = io.BytesIO()
        sink = sink_class(out, hold_header=True)
        summary = convert_files(paths, SourceFormat.APS, sink, PipelineConfig(jobs=jobs))
        assert out.getvalue() == expected
        assert sink.bytes_written == summary.output_bytes == len(expected)
        del sink
        gc.collect()
        assert not out.closed  # the caller's file, not the sink's
        records = random_records(30, seed=4)
        text, data = io.StringIO(), io.BytesIO()
        for sink in sink_class(text), sink_class(data):
            for record in records:
                sink.write(record)
        assert data.getvalue() == text.getvalue().encode("utf-8")

    def test_raw_file_that_takes_part_of_each_write(self, tmp_path, sink_class, jobs):
        class Trickle(io.RawIOBase):
            """A raw output that takes at most 1000 bytes per write."""

            def __init__(self):
                self.data = bytearray()

            def writable(self):
                return True

            def write(self, block):
                taken = bytes(block[:1000])
                self.data += taken
                return len(taken)

        paths = _local_weeks(tmp_path, weeks=1)
        expected = self._expected(paths, sink_class, jobs)
        out = Trickle()
        convert_files(paths, SourceFormat.APS, sink_class(out), PipelineConfig(jobs=jobs))
        assert bytes(out.data) == expected and not out.closed
        out.close()


def _cache_week(cache, week, documents):
    """Zip ``documents`` (byte strings, written as they are drawn) into one
    member and put it into the cache at ``cache`` as ``week``'s archive;
    returns its cache entry."""
    payload = io.BytesIO()
    with zipfile.ZipFile(payload, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as archive:
        with archive.open("week", "w") as member:
            for document in documents:
                member.write(document)
    plan = resolve_plan(week)
    return fetch(plan, str(cache), transport=FakeTransport({plan.url: payload.getvalue()}))


# the address-space cap of the memory tests: well above what the command
# needs for one patent, below what one of their weeks takes once parsed
MEMORY_LIMIT = 96 * 1024 * 1024
PATENTS = 120
CLAIM_BYTES = 1024 * 1024


def _claim_text():
    sentence = b"A widget press comprising a frame and a ram. "
    return sentence * (CLAIM_BYTES // len(sentence))


def _aps_patents(wkus):
    """One fixed-tag patent per WKU, each with a claim of ``CLAIM_BYTES``."""
    claim = b"PAR  1. " + _claim_text() + b"\n"
    return (b"PATN\nWKU  %s\nISD  19760106\nTTL  Widget press\nCLMS\n" % wku + claim for wku in wkus)


@pytest.mark.parametrize("jobs", [1, 2])
class TestBoundedMemory:
    """``convert`` of cached weeks and of local files whose parsed records
    outgrow ``MEMORY_LIMIT``: writing each record as it is parsed keeps
    the command under it, and so does parsing in a worker process, which
    inherits the cap."""

    def _convert(self, tmp_path, week, documents, jobs):
        _cache_week(tmp_path / "cache", week, documents)
        return self._run(tmp_path, jobs, "--years", week.year, "--weeks", week.week)

    def _run(self, tmp_path, jobs, *sources):
        cache, summary = tmp_path / "cache", tmp_path / "summary.json"
        result = run_capped(
            MEMORY_LIMIT, "cli", "convert", *sources,
            "--cache-dir", cache, "--output", os.devnull, "--summary-json", summary, "--quiet",
            "--jobs", jobs, timeout=60,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        written = json.loads(summary.read_text())
        assert written["output_bytes"] > MEMORY_LIMIT
        return written

    def test_aps_week(self, tmp_path, jobs):
        documents = _aps_patents(b"0393%05d" % i for i in range(PATENTS))
        summary = self._convert(tmp_path, WeekSpec(1976, 1), documents, jobs)
        assert (summary["records_written"], summary["weeks_failed"]) == (PATENTS, [])

    def test_local_aps_zip(self, tmp_path, jobs):
        documents = _aps_patents(b"0393%05d" % i for i in range(PATENTS))
        entry = _cache_week(tmp_path / "cache", WeekSpec(1976, 1), documents)
        summary = self._run(tmp_path, jobs, "--input", entry.cache_path, "--format-era", "aps")
        assert (summary["records_written"], summary["weeks_requested"]) == (PATENTS, 0)

    def test_xml4_week(self, data_dir, tmp_path, jobs):
        base = (data_dir / "era_xml4.xml").read_bytes()
        document = base.replace(b"a frame; and", _claim_text())
        documents = (document.replace(b"07641234", b"%08d" % i) for i in range(PATENTS))
        summary = self._convert(tmp_path, WeekSpec(2005, 1), documents, jobs)
        assert (summary["records_written"], summary["weeks_failed"]) == (PATENTS, [])

    def test_three_aps_weeks(self, tmp_path, jobs):
        for week in (1, 2, 3):
            documents = _aps_patents(b"0393%02d%03d" % (week, i) for i in range(PATENTS // 2))
            _cache_week(tmp_path / "cache", WeekSpec(1976, week), documents)
        summary = self._run(tmp_path, jobs, "--years", 1976, "--weeks", "1-3")
        assert summary["output_bytes"] // 3 < MEMORY_LIMIT  # the run outgrows it, no week does
        assert summary["records_written"] == 3 * (PATENTS // 2)
        assert (summary["duplicate_wkus"], summary["weeks_failed"]) == (0, [])
