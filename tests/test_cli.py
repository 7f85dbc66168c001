import json
import random
import tracemalloc

import pytest

from conftest import FakeTransport, make_zip, random_record, sink_to_file
from patentbulk import cli
from patentbulk.fetch import resolve_plan
from patentbulk.model import WeekSpec
from patentbulk.pipeline import CsvSink


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseRange:
    def test_span(self):
        assert cli.parse_range("1976-1980", 1976, 9999, "year") == [1976, 1977, 1978, 1979, 1980]

    def test_span_with_extra_value(self):
        assert cli.parse_range("1-3,7", 1, 53, "week") == [1, 2, 3, 7]

    def test_single(self):
        assert cli.parse_range("1976", 1976, 9999, "year") == [1976]

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            cli.parse_range("1975", 1976, 9999, "year")

    def test_reversed(self):
        with pytest.raises(ValueError):
            cli.parse_range("8-1", 1, 53, "week")


class TestExitContract:
    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["frobnicate"])
        assert excinfo.value.code == 1

    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["get", "--years", "1976", "--bogus"])
        assert excinfo.value.code == 1

    def test_no_subcommand_exits_1(self, capsys):
        assert cli.run([]) == 1

    def test_year_before_coverage_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["get", "--years", "1975", "--weeks", "1", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 1
        assert "error" in err


class TestHelp:
    @pytest.mark.parametrize(
        "argv,expected_flags",
        [
            (["--help"], ["fetch", "convert", "get", "stats"]),
            (["get", "--help"],
             ["--years", "--weeks", "--output", "--format", "--append", "--encoding",
              "--summary-json", "--cache-dir", "--base-url", "--jobs", "--retries", "--quiet"]),
            (["convert", "--help"], ["--input", "--format-era", "--years", "--output"]),
            (["stats", "--help"], ["--input", "--input-format", "--top", "--output"]),
            (["fetch", "--help"], ["--years", "--weeks", "--cache-dir", "--base-url"]),
        ],
    )
    def test_every_flag_documented(self, argv, expected_flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(argv)
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for flag in expected_flags:
            assert flag in out


class TestConvertLocal:
    def test_golden_csv_from_fixture(self, data_dir, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(
            [
                "convert",
                "--input", str(data_dir / "aps_two_patents.txt"),
                "--format-era", "aps",
                "--output", str(out_path),
                "--quiet",
            ],
            capsys,
        )
        assert code == 0
        assert out_path.read_bytes() == (data_dir / "golden_two_patents.csv").read_bytes()

    def test_jsonl_to_stdout(self, data_dir, capsys):
        code, out, _ = run_cli(
            [
                "convert",
                "--input", str(data_dir / "era_xml4.xml"),
                "--format-era", "xml4",
                "--format", "jsonl",
                "--quiet",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["wku"] == "07641234"

    def test_zip_input(self, data_dir, tmp_path, capsys):
        archive = tmp_path / "week.zip"
        archive.write_bytes(
            make_zip({"w.txt": (data_dir / "aps_two_patents.txt").read_bytes()})
        )
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(
            ["convert", "--input", str(archive), "--format-era", "aps",
             "--output", str(out_path), "--quiet"],
            capsys,
        )
        assert code == 0
        assert out_path.read_bytes() == (data_dir / "golden_two_patents.csv").read_bytes()

    def test_input_requires_era(self, data_dir, capsys):
        code, _, err = run_cli(
            ["convert", "--input", str(data_dir / "aps_two_patents.txt"), "--quiet"], capsys
        )
        assert code == 1
        assert "--format-era" in err

    def test_convert_without_input_or_years(self, capsys):
        code, _, err = run_cli(["convert", "--quiet"], capsys)
        assert code == 1


class _PatchedTransport:
    """Route pipeline fetches through a FakeTransport for CLI-level runs."""

    def __init__(self, monkeypatch, responses):
        self.transport = FakeTransport(responses)
        monkeypatch.setattr(
            "patentbulk.fetch.UrllibTransport", lambda *a, **kw: self.transport
        )


@pytest.fixture
def served_week(monkeypatch, data_dir):
    text = (data_dir / "aps_two_patents.txt").read_bytes()
    url = resolve_plan(WeekSpec(1976, 1)).url
    patched = _PatchedTransport(monkeypatch, {url: make_zip({"w.txt": text})})
    return patched.transport


class TestGetAndFetch:
    def test_get_writes_golden_and_summary(self, served_week, data_dir, tmp_path, capsys):
        out_path = tmp_path / "pat.csv"
        summary_path = tmp_path / "summary.json"
        code, _, err = run_cli(
            [
                "get", "--years", "1976", "--weeks", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(out_path),
                "--summary-json", str(summary_path),
            ],
            capsys,
        )
        assert code == 0
        assert out_path.read_bytes() == (data_dir / "golden_two_patents.csv").read_bytes()
        summary = json.loads(summary_path.read_text())
        assert summary["records_written"] == 2
        assert summary["weeks_fetched"] == 1
        assert "records written" in err

    def test_partial_failure_exits_2(self, served_week, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "get", "--years", "1976", "--weeks", "1-2",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "pat.csv"),
                "--quiet",
            ],
            capsys,
        )
        assert code == 2

    def test_get_equals_fetch_then_convert(self, served_week, tmp_path, capsys):
        cache = tmp_path / "cache"
        get_out = tmp_path / "get.csv"
        convert_out = tmp_path / "convert.csv"

        code, _, _ = run_cli(
            ["get", "--years", "1976", "--weeks", "1", "--cache-dir", str(cache),
             "--output", str(get_out), "--quiet"],
            capsys,
        )
        assert code == 0

        code, _, _ = run_cli(
            ["fetch", "--years", "1976", "--weeks", "1", "--cache-dir", str(cache), "--quiet"],
            capsys,
        )
        assert code == 0

        code, _, _ = run_cli(
            ["convert", "--years", "1976", "--weeks", "1", "--cache-dir", str(cache),
             "--output", str(convert_out), "--quiet"],
            capsys,
        )
        assert code == 0
        assert get_out.read_bytes() == convert_out.read_bytes()

    def test_convert_from_cache_never_touches_network(self, served_week, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, _, _ = run_cli(
            ["convert", "--years", "1976", "--weeks", "1", "--cache-dir", str(cache),
             "--output", str(tmp_path / "x.csv"), "--quiet"],
            capsys,
        )
        assert code == 1  # nothing cached, network disabled: every week fails
        assert served_week.requests == []

    def test_fetch_all_weeks_missing_exits_1(self, monkeypatch, tmp_path, capsys):
        _PatchedTransport(monkeypatch, {})
        code, _, _ = run_cli(
            ["fetch", "--years", "1976", "--weeks", "1", "--cache-dir", str(tmp_path), "--quiet"],
            capsys,
        )
        assert code == 1

    def test_fetch_partial_failure_names_failed_weeks_under_quiet(
        self, monkeypatch, data_dir, tmp_path, capsys
    ):
        text = (data_dir / "aps_two_patents.txt").read_bytes()
        _PatchedTransport(
            monkeypatch,
            {
                resolve_plan(WeekSpec(1976, 1)).url: make_zip({"w.txt": text}),
                # week 2 is missing (404); week 3 fails outside the fetch
                # layer's own errors, as a full disk would
                resolve_plan(WeekSpec(1976, 3)).url: OSError("disk full"),
            },
        )
        code, _, err = run_cli(
            ["fetch", "--years", "1976", "--weeks", "1-3", "--cache-dir", str(tmp_path),
             "--quiet"],
            capsys,
        )
        assert code == 2
        assert "1976wk01" not in err
        assert "failed 1976wk02" in err
        assert "failed 1976wk03: disk full" in err

    def test_explicit_week_beyond_year_is_partial_failure(self, served_week, tmp_path, capsys):
        # 1976 has 52 grant Tuesdays; an explicit week 53 fails that week only
        code, _, err = run_cli(
            [
                "get", "--years", "1976", "--weeks", "1,53",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "pat.csv"),
                "--quiet",
            ],
            capsys,
        )
        assert code == 2

    def test_default_weeks_cover_whole_year_without_spurious_failures(
        self, monkeypatch, data_dir, tmp_path, capsys
    ):
        text = (data_dir / "era_aps.txt").read_bytes()
        responses = {
            resolve_plan(WeekSpec(1976, w)).url: make_zip({"w.txt": text})
            for w in range(1, 53)
        }
        _PatchedTransport(monkeypatch, responses)
        code, _, _ = run_cli(
            ["get", "--years", "1976", "--cache-dir", str(tmp_path / "cache"),
             "--output", str(tmp_path / "pat.csv"), "--quiet"],
            capsys,
        )
        assert code == 0


class TestStats:
    @pytest.fixture
    def converted_csv(self, data_dir, tmp_path, capsys):
        out_path = tmp_path / "pat.csv"
        run_cli(
            ["convert", "--input", str(data_dir / "aps_two_patents.txt"),
             "--format-era", "aps", "--output", str(out_path), "--quiet"],
            capsys,
        )
        return out_path

    def test_weekly(self, converted_csv, capsys):
        code, out, _ = run_cli(["stats", "weekly", "--input", str(converted_csv)], capsys)
        assert code == 0
        assert out == "year,week,count\n1976,1,2\n"

    def test_classes(self, converted_csv, capsys):
        code, out, _ = run_cli(
            ["stats", "classes", "--input", str(converted_csv), "--top", "2"], capsys
        )
        assert code == 0
        assert out == "subclass,count\nA47B,1\nA47F,1\n"

    def test_lag_by_year_reports_quartile_rule(self, converted_csv, capsys):
        code, out, err = run_cli(
            ["stats", "lag-by-year", "--input", str(converted_csv)], capsys
        )
        assert code == 0
        assert out.startswith("group,count,min,q1,median,q3,max,negative_lags\n")
        assert "1976,1,365,365,365,365,365,0" in out
        assert "Tukey" in err

    def test_lag_by_class(self, converted_csv, capsys):
        code, out, _ = run_cli(
            ["stats", "lag-by-class", "--input", str(converted_csv), "--quiet"], capsys
        )
        assert code == 0
        # only the first patent has an application date; its class is C07D
        assert "C07D,1,365,365,365,365,365,0" in out

    def test_jsonl_input_sniffed(self, data_dir, tmp_path, capsys):
        out_path = tmp_path / "pat.jsonl"
        run_cli(
            ["convert", "--input", str(data_dir / "aps_two_patents.txt"),
             "--format-era", "aps", "--format", "jsonl", "--output", str(out_path), "--quiet"],
            capsys,
        )
        code, out, _ = run_cli(["stats", "weekly", "--input", str(out_path)], capsys)
        assert code == 0
        assert "1976,1,2" in out

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["stats", "weekly", "--input", str(tmp_path / "nope.csv")], capsys
        )
        assert code == 1
        assert "error" in err

    def test_malformed_row_exits_1_without_output(self, converted_csv, tmp_path, capsys):
        with open(converted_csv, "a", encoding="utf-8") as handle:
            handle.write("only,three,cells\n")
        table = tmp_path / "table.csv"
        code, _, err = run_cli(
            ["stats", "weekly", "--input", str(converted_csv), "--output", str(table)], capsys
        )
        assert code == 1
        assert "error" in err
        assert not table.exists()

    def test_weekly_streams_its_input(self, tmp_path, capsys):
        # 20k records take about 18 MB once listed; streamed, the peak
        # stays near 0.3 MB
        path = tmp_path / "big.csv"
        rng = random.Random(7)
        sink_to_file(path, CsvSink, (random_record(rng) for _ in range(20_000)))
        tracemalloc.start()
        try:
            code, out, _ = run_cli(["stats", "weekly", "--input", str(path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sum(int(row.rsplit(",", 1)[1]) for row in out.splitlines()[1:]) == 20_000
        assert peak < 4_000_000
