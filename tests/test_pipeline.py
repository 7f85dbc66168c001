import io
import json
import os
import threading
import weakref
import zipfile

import pytest

from conftest import FakeTransport, make_zip, parse_aps, random_records, run_capped, sink_to_file
from patentbulk import pipeline
from patentbulk.fetch import fetch, resolve_plan
from patentbulk.model import SourceFormat, WeekSpec
from patentbulk.pipeline import (
    CsvSink,
    JsonlSink,
    PipelineConfig,
    OutputError,
    RunError,
    RunSummary,
    get_bulk_patent_data,
    read_csv,
    read_jsonl,
    write_file,
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
    def test_at_most_two_records_alive_at_each_write(self, aps_fixture_text, tmp_path, jobs):
        weeks = [WeekSpec(1976, w) for w in range(1, 7)]
        first_patent = aps_fixture_text[: aps_fixture_text.index("PATN", 1)]
        transport = FakeTransport({
            _week_url(week): make_zip({"w.txt": "".join(
                first_patent.replace("039305672", "0393%02d%03d" % (week.week, i))
                for i in range(5)
            ).encode("latin-1")})
            for week in weeks
        })
        written = []
        alive_at_write = []

        class TrackingSink(CsvSink):
            def write(self, record):
                written.append(weakref.ref(record))
                alive_at_write.append(sum(ref() is not None for ref in written))
                super().write(record)

        summary = get_bulk_patent_data(
            weeks, TrackingSink(io.StringIO()), _config(tmp_path, transport, jobs=jobs)
        )
        assert summary.records_written == len(alive_at_write) == 30
        # the record being written and at most the one before it: no week is held
        assert max(alive_at_write) <= 2

    def test_weeks_parsed_on_the_calling_thread(self, aps_fixture_text, tmp_path, monkeypatch):
        weeks = [WeekSpec(1976, w) for w in range(1, 7)]
        payload = make_zip({"w.txt": aps_fixture_text.encode("latin-1")})
        transport = FakeTransport({_week_url(week): payload for week in weeks})
        parse_threads = []
        parse = pipeline.parse_archive_stream

        def tracked_parse(*args):
            parse_threads.append(threading.get_ident())
            return parse(*args)

        monkeypatch.setattr(pipeline, "parse_archive_stream", tracked_parse)
        summary = get_bulk_patent_data(
            weeks, CsvSink(io.StringIO()), _config(tmp_path, transport, jobs=3)
        )
        assert summary.records_written == 12
        assert parse_threads == [threading.get_ident()] * len(weeks)

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
        assert pipeline.fetch_weeks([good, corrupt], config).weeks_failed == []
        # same size, so the cache's .meta.json sidecar still accepts the entry
        cached = tmp_path / "cache" / resolve_plan(corrupt, config.base_url).cache_path
        payload = bytearray(cached.read_bytes())
        payload[payload.index(b"WKU  039300002")] ^= 0x01  # "W" -> "V"
        cached.write_bytes(bytes(payload))

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
        assert pipeline.fetch_weeks([failing, good], config).weeks_failed == []
        cached = tmp_path / "cache" / resolve_plan(failing, config.base_url).cache_path
        payload = bytearray(cached.read_bytes())
        payload[payload.index(b"WKU  039300002")] ^= 0x01
        cached.write_bytes(bytes(payload))

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

        class FullDisk(io.StringIO):
            def write(self, text):
                if self.tell() + len(text) > 200:  # the header fits, a week does not
                    raise OSError(28, "No space left on device")
                return super().write(text)

        with pytest.raises(OutputError, match="No space left"):
            get_bulk_patent_data(weeks, CsvSink(FullDisk()), _config(tmp_path, transport))
        assert len(transport.requests) == 1  # the run stopped at the first week

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
                # a grant of this era first, then one of the XML2 era
                _week_url(mixed): make_zip({"ipg.xml": xml4 + xml2}),
            }
        )
        out = io.StringIO()
        summary = get_bulk_patent_data([good, mixed], JsonlSink(out), _config(tmp_path, transport))
        assert summary.records_written == 1
        assert out.getvalue().count("\n") == 1
        assert [week for week, _ in summary.weeks_failed] == [mixed]
        assert "<PATDOC>" in summary.weeks_failed[0][1]


class TestConvertStream:
    def test_aps_stream(self, aps_fixture_text, tmp_path):
        source = tmp_path / "week.txt"
        source.write_bytes(aps_fixture_text.encode("latin-1"))
        summary = RunSummary()
        write_file(source, SourceFormat.APS, CsvSink(io.StringIO()), summary)
        assert summary.records_written == 2
        assert summary.warnings_total == 1  # the invalid APD in the second patent

    def test_skipped_section_counts_one_warning(self, tmp_path):
        source = tmp_path / "week.txt"
        source.write_text("PATN\nWKU  039305672\nISD  19760106\nPATN\nTTL  Widget\nISD  19760106\n")
        summary = RunSummary()
        write_file(source, SourceFormat.APS, CsvSink(io.StringIO()), summary)
        assert summary.records_written == 1
        assert summary.warnings_total == 1  # the second section has no WKU

    def test_xml_stream(self, data_dir):
        out = io.StringIO()
        summary = RunSummary()
        write_file(data_dir / "era_xml4.xml", SourceFormat.XML4, JsonlSink(out), summary)
        assert summary.records_written == 1
        assert summary.output_bytes == len(out.getvalue().encode())


def _cache_week(cache, week, documents):
    """Zip ``documents`` (byte strings, written as they are drawn) into one
    member and put it into the cache at ``cache`` as ``week``'s archive."""
    payload = io.BytesIO()
    with zipfile.ZipFile(payload, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as archive:
        with archive.open("week", "w") as member:
            for document in documents:
                member.write(document)
    plan = resolve_plan(week)
    fetch(plan, str(cache), transport=FakeTransport({plan.url: payload.getvalue()}))


# the address-space cap of the memory tests: well above what the command
# needs for one patent, below what one of their weeks takes once parsed
MEMORY_LIMIT = 96 * 1024 * 1024
PATENTS = 120
CLAIM_BYTES = 1024 * 1024


def _claim_text():
    sentence = b"A widget press comprising a frame and a ram. "
    return sentence * (CLAIM_BYTES // len(sentence))


class TestBoundedMemory:
    """``convert --years`` over one cached week whose parsed records
    outgrow ``MEMORY_LIMIT``: writing each record as it is parsed keeps
    the command under it."""

    def _convert(self, tmp_path, week, documents):
        cache, summary = tmp_path / "cache", tmp_path / "summary.json"
        _cache_week(cache, week, documents)
        result = run_capped(
            MEMORY_LIMIT, "cli", "convert", "--years", week.year, "--weeks", week.week,
            "--cache-dir", cache, "--output", os.devnull, "--summary-json", summary, "--quiet",
            timeout=60,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        written = json.loads(summary.read_text())
        assert written["output_bytes"] > MEMORY_LIMIT
        return written

    def test_aps_week(self, tmp_path):
        claim = b"PAR  1. " + _claim_text() + b"\n"
        documents = (
            b"PATN\nWKU  0393%05d\nISD  19760106\nTTL  Widget press\nCLMS\n" % i + claim
            for i in range(PATENTS)
        )
        summary = self._convert(tmp_path, WeekSpec(1976, 1), documents)
        assert (summary["records_written"], summary["weeks_failed"]) == (PATENTS, [])

    def test_xml4_week(self, data_dir, tmp_path):
        base = (data_dir / "era_xml4.xml").read_bytes()
        document = base.replace(b"a frame; and", _claim_text())
        documents = (document.replace(b"07641234", b"%08d" % i) for i in range(PATENTS))
        summary = self._convert(tmp_path, WeekSpec(2005, 1), documents)
        assert (summary["records_written"], summary["weeks_failed"]) == (PATENTS, [])
