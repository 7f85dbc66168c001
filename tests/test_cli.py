import argparse
import contextlib
import csv
import io
import json
import os
import random
import re
import runpy
import select
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import zipfile
from types import SimpleNamespace

import pytest

from conftest import (
    FORK_THREADS, FakeTransport, make_zip, python_command, random_record, random_records, run_python,
    sink_to_file,
)
from patentbulk import analytics, cli, pipeline
from patentbulk.fetch import FetchError, resolve_plan
from patentbulk.model import SourceFormat, WeekSpec
from patentbulk.pipeline import CsvSink, JsonlSink, read_csv, read_jsonl


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

    def test_empty_parts_are_skipped(self):
        assert cli.parse_range("1,,2", 1, 53, "week") == [1, 2]

    @pytest.mark.parametrize(
        "text, what, part",
        [("-3", "year", "-3"), ("1-x", "week", "1-x"), ("1,2-", "week", "2-"), ("x", "week", "x")],
    )
    def test_unreadable_part_is_named(self, text, what, part):
        with pytest.raises(ValueError) as excinfo:
            cli.parse_range(text, 1, 9999, what)
        assert str(excinfo.value) == "%s range %r is not N or N-M" % (what, part)


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

    # runpy warns that it runs a module already imported, as the package's is
    @pytest.mark.filterwarnings("ignore:'patentbulk.cli' found in sys.modules:RuntimeWarning")
    def test_module_run_as_main_exits_1_with_usage(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["patentbulk"])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("patentbulk.cli", run_name="__main__")
        assert excinfo.value.code == 1
        assert capsys.readouterr().err.startswith("usage: patentbulk [-h] COMMAND ...\n")

    def test_unreadable_selection_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["convert", "--years", "1976", "--weeks", "1-x", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 1
        assert err.strip() == "error: week range '1-x' is not N or N-M"

    def test_selection_without_numbers_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["convert", "--years", "1976", "--weeks", ",", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 1
        assert "error: empty week selection" in err

    def test_year_before_coverage_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["get", "--years", "1975", "--weeks", "1", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 1
        assert "error" in err


def test_defaults_and_eras_come_from_the_library(monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_CACHE_DIR, raising=False)
    args, config = cli.build_parser().parse_args(["get", "--years", "1976"]), pipeline.PipelineConfig()
    assert (args.jobs, args.retries, args.cache_dir) == (config.jobs, config.retries, config.cache_dir)
    for era in SourceFormat:
        argv = ["convert", "--input", "x", "--format-era", era.value]
        assert cli.build_parser().parse_args(argv).format_era == era.value
    with pytest.raises(SystemExit) as excinfo:
        cli.run(["convert", "--input", "x", "--format-era", "xml3"])
    assert excinfo.value.code == 1
    assert "argument --format-era: invalid choice: 'xml3'" in capsys.readouterr().err


class TestPositiveCounts:
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_top_checked_before_the_input_is_opened(self, value, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["stats", "classes", "--top", value, "--input", str(missing)])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "argument --top: must be a positive integer" in err
        assert "missing.csv" not in err

    @pytest.mark.parametrize("command", ["fetch", "convert", "get"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_checked_before_any_week_is_fetched(
        self, command, value, monkeypatch, tmp_path, capsys
    ):
        fetched = []
        monkeypatch.setattr("patentbulk.fetch.fetch", lambda plan, *a, **kw: fetched.append(plan))
        with pytest.raises(SystemExit) as excinfo:
            cli.run([command, "--years", "1976", "--weeks", "1", "--jobs", value,
                     "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert "argument --jobs: must be a positive integer" in capsys.readouterr().err
        assert fetched == []


class TestEncodingChecked:
    @pytest.mark.parametrize(
        "value, reason", [("nope", "unknown encoding: nope"), ("rot13", "'rot13' is not a text encoding")]
    )
    def test_unusable_encoding_is_a_usage_error(self, value, reason, data_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["convert", "--input", str(data_dir / "aps_two_patents.txt"),
                     "--format-era", "aps", "--encoding", value,
                     "--output", str(tmp_path / "out.csv")])
        assert excinfo.value.code == 1
        assert "argument --encoding: " + reason in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_encoding_checked_before_any_week_is_fetched(self, monkeypatch, tmp_path, capsys):
        fetched = []
        monkeypatch.setattr("patentbulk.fetch.fetch", lambda plan, *a, **kw: fetched.append(plan))
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["get", "--years", "1976", "--weeks", "1", "--encoding", "nope",
                     "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert "argument --encoding: unknown encoding: nope" in capsys.readouterr().err
        assert fetched == []


# runs the commands given as JSON argv lists in one process, then prints
# which of the modules named after them they imported
IMPORTS_CHILD = """
import json, sys
from patentbulk import cli
for argv in json.loads(sys.argv[1]):
    assert cli.run(argv) == 0, argv
print(sorted(set(sys.argv[2:]) & set(sys.modules)))
"""


def test_single_job_commands_start_no_processes(data_dir, tmp_path):
    week, cache = WeekSpec(1976, 1), tmp_path / "cache"
    fixture = data_dir / "aps_two_patents.txt"
    transport = FakeTransport({resolve_plan(week).url: make_zip({"w.txt": fixture.read_bytes()})})
    pipeline.fetch_weeks([week], pipeline.PipelineConfig(cache_dir=str(cache), transport=transport))
    table = str(tmp_path / "pat.csv")
    converts = [
        ["convert", "--input", str(fixture), "--format-era", "aps", "--output", table, "--quiet"],
        ["convert", "--years", "1976", "--weeks", "1", "--cache-dir", str(cache),
         "--output", str(tmp_path / "cached.csv"), "--quiet"],
    ]
    # on two or more CPUs `stats` tallies half of a regular file in a forked
    # child, which pickles its tally back: it may load pickle, not a pool
    stats = [["stats", "classes", "--input", table, "--output", str(tmp_path / "classes.csv")]]
    for argvs, modules in [(converts, ["multiprocessing", "pickle"]), (stats, ["multiprocessing"])]:
        result = run_python("-c", IMPORTS_CHILD, json.dumps(argvs), *modules, timeout=60)
        assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_cli_import_leaves_out_the_http_stack():
    # only a download needs it, and every command would pay for loading it
    child = (
        "import sys, patentbulk.cli\n"
        "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))"
    )
    result = run_python("-c", child, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


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

    @pytest.mark.parametrize("columns,terminal", [
        (None, None), ("120", None), ("30", None), ("0", None), ("-4", None), ("wide", None),
        (None, 100), (None, 0), ("-4", 100), ("90", 100),
    ])
    def test_width_as_argparse_finds_it(self, columns, terminal, capsys, monkeypatch):
        # COLUMNS, else standard output's terminal, else 80, as argparse reads
        # them through shutil.get_terminal_size, which stats does not load
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)

        def terminal_size(fd):
            if terminal is None:
                raise OSError("not a terminal")
            return os.terminal_size((terminal, 24))

        monkeypatch.setattr(os, "get_terminal_size", terminal_size)

        def helps():
            for command in ([], ["fetch"], ["convert"], ["get"], ["stats"]):
                with pytest.raises(SystemExit):
                    cli.run([*command, "--help"])
                yield capsys.readouterr().out

        ours = list(helps())
        monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
        assert list(helps()) == ours


class TestRetries:
    @pytest.fixture
    def attempts(self, monkeypatch):
        """The download attempts each week's fetch was allowed; every
        fetch then fails without touching the cache or the network."""
        allowed = []

        def fake_fetch(plan, cache_dir, transport=None, retries=3):
            allowed.append(retries)
            raise FetchError(plan.url, "not served")

        monkeypatch.setattr("patentbulk.fetch.fetch", fake_fetch)
        return allowed

    @pytest.mark.parametrize("command", ["fetch", "get"])
    def test_downloading_commands_take_retries(self, command, attempts, tmp_path, capsys):
        argv = [command, "--years", "1976", "--weeks", "1", "--cache-dir", str(tmp_path), "--quiet"]
        run_cli(argv, capsys)
        run_cli(argv + ["--retries", "5"], capsys)
        run_cli(argv + ["--retries", "0"], capsys)
        assert attempts == [3, 5, 0]

    @pytest.mark.parametrize("command", ["fetch", "get"])
    def test_negative_retries_rejected_before_any_lookup(
        self, command, attempts, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.run([command, "--years", "1976", "--weeks", "1", "--retries", "-2",
                     "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 1
        assert "argument --retries: must be a non-negative integer" in capsys.readouterr().err
        assert attempts == []

    def test_convert_looks_weeks_up_with_zero_attempts(self, attempts, tmp_path, capsys):
        run_cli(["convert", "--years", "1976", "--weeks", "1", "--cache-dir", str(tmp_path),
                 "--quiet"], capsys)
        assert attempts == [0]

    def test_convert_rejects_retries(self, attempts, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.run(["convert", "--years", "1976", "--weeks", "1", "--retries", "2"])
        assert excinfo.value.code == 1
        assert "--retries" in capsys.readouterr().err
        assert attempts == []


def _damaged_archive(damage, data_dir):
    """A ``.zip`` that is only a truncated header, or a stored copy of the
    APS fixture with one payload byte flipped, so that its CRC check fails."""
    if damage == "truncated":
        return b"PK\x03\x04"
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as stored:
        stored.writestr("w.txt", (data_dir / "aps_two_patents.txt").read_bytes())
    payload = bytearray(buffer.getvalue())
    payload[payload.index(b"Widget press")] ^= 0x20  # "W" -> "w"
    return bytes(payload)


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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_jobs_applies_to_input_files(self, jobs, data_dir, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        code, _, _ = run_cli(
            ["convert", "--input", str(data_dir / "aps_two_patents.txt"), "--format-era", "aps",
             "--jobs", jobs, "--output", str(out_path), "--quiet"],
            capsys,
        )
        assert code == 0
        assert out_path.read_bytes() == (data_dir / "golden_two_patents.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sigterm_unwinds_as_ctrl_c_does(self, jobs, tmp_path):
        # the input is a FIFO that the command opens twice, to check it before
        # the output's temp file exists and to parse it after; its parse then
        # waits for input, at --jobs 2 in a forked child
        fifo, out, spools = tmp_path / "week.txt", tmp_path / "out.csv", tmp_path / "spools"
        os.mkfifo(fifo)
        spools.mkdir()
        command = subprocess.Popen(
            **python_command("-m", "patentbulk.cli", "convert", "--input", fifo, "--format-era",
                             "aps", "--jobs", jobs, "--output", out, "--quiet", TMPDIR=str(spools)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )

        def no_reader(fd, timeout_ms):  # a write end polls POLLERR once no reader holds the FIFO
            poller = select.poll()
            poller.register(fd, select.POLLERR)
            return poller.poll(timeout_ms) != []

        def timed_out(signum, frame):
            raise TimeoutError("the command did not open its input")

        writer, previous = None, signal.signal(signal.SIGALRM, timed_out)
        try:
            signal.alarm(60)  # each open of a FIFO's write end waits for a reader
            check = os.open(fifo, os.O_WRONLY)
            assert no_reader(check, 60_000)
            os.close(check)
            writer = os.open(fifo, os.O_WRONLY)
            signal.alarm(0)
            assert [p.name for p in tmp_path.glob("*.tmp")] == ["out.csv.%d.tmp" % command.pid]
            assert os.listdir(spools) != []
            command.send_signal(signal.SIGTERM)
            assert command.wait(60) == 143
            assert command.stderr.read() == b""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["spools", "week.txt"]
            assert os.listdir(spools) == []
            # a child left running would still be reading the input
            assert no_reader(writer, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            if writer is not None:
                os.close(writer)
            if command.poll() is None:
                command.kill()
                command.wait(60)
            command.stderr.close()

    def test_two_jobs_write_the_bytes_of_one(self, data_dir, tmp_path, capsys):
        fixture = data_dir / "aps_two_patents.txt"
        archive = tmp_path / "week.zip"
        archive.write_bytes(make_zip({"w.txt": fixture.read_bytes()}))
        inputs = [arg for path in (fixture, fixture, archive) for arg in ("--input", str(path))]
        runs = []
        for jobs in ("1", "2"):
            out_path, summary_path = tmp_path / ("out%s.csv" % jobs), tmp_path / ("s%s.json" % jobs)
            code, _, _ = run_cli(
                ["convert", *inputs, "--format-era", "aps", "--jobs", jobs,
                 "--output", str(out_path), "--summary-json", str(summary_path), "--quiet"],
                capsys,
            )
            assert code == 0
            runs.append((out_path.read_bytes(), summary_path.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[1][1])["duplicate_wkus"] == 4

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("damage", ["truncated", "bad-crc"])
    def test_corrupt_archive_at_two_jobs_exits_1_without_output(
        self, damage, position, data_dir, tmp_path, capsys, monkeypatch
    ):
        spool = tmp_path / "tmp"
        spool.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        archive = tmp_path / "bad.zip"
        archive.write_bytes(_damaged_archive(damage, data_dir))
        inputs = [str(data_dir / "aps_two_patents.txt")] * 2
        inputs.insert(position, str(archive))
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(
            ["convert", *(arg for path in inputs for arg in ("--input", path)), "--format-era",
             "aps", "--jobs", "2", "--output", str(out_path), "--quiet"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ") and str(archive) in err
        assert sorted(tmp_path.iterdir()) == [archive, spool]
        assert list(spool.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "name, era", [("aps_two_patents.txt", "aps"), ("era_xml2.xml", "xml2"),
                      ("era_xml4.xml", "xml4")],
    )
    def test_a_file_gets_the_bytes_of_stdout(self, name, era, format, jobs, data_dir, tmp_path,
                                             capsys):
        # a file and standard output take each spool's bytes
        argv = ["convert", "--input", str(data_dir / name), "--input", str(data_dir / name),
                "--format-era", era, "--format", format, "--jobs", jobs, "--quiet"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        out_path = tmp_path / "out"
        assert run_cli(argv + ["--output", str(out_path)], capsys) == (0, "", "")
        assert out_path.read_bytes() == out.encode("utf-8")
        if era == "aps":
            golden = (data_dir / ("golden_two_patents." + format)).read_bytes()
            header = golden.index(b"\n") + 1 if format == "csv" else 0
            assert out_path.read_bytes() == golden + golden[header:]

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

    @staticmethod
    def _cafe(data_dir, tmp_path):
        """``era_xml4.xml`` whose title starts with ``Café — ``, which
        neither Latin-1 nor ASCII can encode whole."""
        text = (data_dir / "era_xml4.xml").read_text("utf-8")
        path = tmp_path / "cafe.xml"
        path.write_text(re.sub(r"(<invention-title[^>]*>)", r"\1Café — ", text, 1), "utf-8")
        return path

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
    def test_standard_output_takes_utf8_whatever_its_encoding(
        self, encoding, unbuffered, format, jobs, data_dir, tmp_path, capsys
    ):
        # with PYTHONUNBUFFERED set, standard output's buffer is a raw file
        argv = ["convert", "--input", str(self._cafe(data_dir, tmp_path)), "--format-era", "xml4",
                "--format", format, "--jobs", jobs, "--quiet"]
        out_path = tmp_path / "out"
        assert run_cli(argv + ["--output", str(out_path)], capsys) == (0, "", "")
        expected = out_path.read_bytes()
        assert "Café — Widget press".encode("utf-8") in expected
        result = run_python("-m", "patentbulk.cli", *argv, timeout=60, text=False,
                            PYTHONIOENCODING=encoding, PYTHONUNBUFFERED=unbuffered)
        assert (result.returncode, result.stdout, result.stderr) == (0, expected, b"")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_summary_follows_the_table_on_standard_output(
        self, unbuffered, data_dir, tmp_path, capsys
    ):
        argv = ["convert", "--input", str(self._cafe(data_dir, tmp_path)), "--format-era", "xml4",
                "--quiet"]
        env = {"PYTHONIOENCODING": "latin-1", "PYTHONUNBUFFERED": unbuffered}
        table = run_python("-m", "patentbulk.cli", *argv, timeout=60, text=False, **env)
        assert table.returncode == 0
        both = run_python("-m", "patentbulk.cli", *argv, "--summary-json", "-", timeout=60,
                          text=False, **env)
        assert both.returncode == 0 and both.stdout.startswith(table.stdout)
        summary = json.loads(both.stdout[len(table.stdout):])
        assert summary["output_bytes"] == len(table.stdout)
        redirected = tmp_path / "table.csv"
        redirected.write_bytes(table.stdout)
        code, out, _ = run_cli(["stats", "weekly", "--input", str(redirected)], capsys)
        assert code == 0 and out.splitlines()[1].endswith(",1")

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_text_written_before_the_table_stays_before_it(self, unbuffered, data_dir, tmp_path):
        source = self._cafe(data_dir, tmp_path)
        argv = ["convert", "--input", str(source), "--format-era", "xml4", "--quiet"]
        child = "import sys; from patentbulk import cli; print('before'); sys.exit(cli.run(%r))"
        result = run_python("-c", child % argv, timeout=60, text=False,
                            PYTHONUNBUFFERED=unbuffered)
        table = run_python("-m", "patentbulk.cli", *argv, timeout=60, text=False).stdout
        assert (result.returncode, result.stdout) == (0, b"before\n" + table)

    def test_a_text_standard_output_gets_the_table_as_text(self, data_dir, tmp_path, capsys):
        # a stream with no byte buffer, such as io.StringIO, takes text
        argv = ["convert", "--input", str(self._cafe(data_dir, tmp_path)), "--format-era", "xml4",
                "--quiet"]
        out_path = tmp_path / "out"
        assert run_cli(argv + ["--output", str(out_path)], capsys) == (0, "", "")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(argv + ["--summary-json", "-"]) == 0
        table = out_path.read_text("utf-8")
        assert out.getvalue().startswith(table)
        assert json.loads(out.getvalue()[len(table):])["records_written"] == 1

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

    @pytest.mark.parametrize(
        "fixture, era, found, expected",
        [
            ("era_xml2.xml", "xml4", "<PATDOC>", "<us-patent-grant>"),
            ("era_xml4.xml", "xml2", "<us-patent-grant>", "<PATDOC>"),
        ],
        ids=["xml2-as-xml4", "xml4-as-xml2"],
    )
    def test_wrong_xml_era_exits_1_naming_both_roots(
        self, fixture, era, found, expected, data_dir, tmp_path, capsys
    ):
        out_path = tmp_path / "wrong.csv"
        argv = ["convert", "--input", str(data_dir / fixture), "--format-era", era,
                "--output", str(out_path), "--quiet"]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert found in err and expected in err
        assert list(tmp_path.iterdir()) == []

        out_path.write_text("an older table\n")
        code, _, _ = run_cli(argv, capsys)
        assert code == 1
        assert out_path.read_text() == "an older table\n"
        assert list(tmp_path.iterdir()) == [out_path]

    def test_output_through_a_symlink_is_written_in_place(self, data_dir, tmp_path, capsys):
        target = tmp_path / "target.csv"
        target.write_text("an older table\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _, _ = run_cli(
            ["convert", "--input", str(data_dir / "aps_two_patents.txt"), "--format-era", "aps",
             "--output", str(link), "--quiet"],
            capsys,
        )
        assert code == 0
        assert link.is_symlink()
        assert target.read_bytes() == (data_dir / "golden_two_patents.csv").read_bytes()

    @pytest.mark.parametrize("zipped", [False, True], ids=["txt", "zip"])
    def test_summary_counts_input_bytes(self, zipped, data_dir, tmp_path, capsys):
        text = (data_dir / "aps_two_patents.txt").read_bytes()
        source = tmp_path / ("week.zip" if zipped else "week.txt")
        source.write_bytes(make_zip({"w.txt": text}) if zipped else text)
        out_path, summary_path = tmp_path / "out.csv", tmp_path / "summary.json"
        code, _, _ = run_cli(
            ["convert", "--input", str(source), "--format-era", "aps",
             "--output", str(out_path), "--summary-json", str(summary_path), "--quiet"],
            capsys,
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["input_bytes_compressed"] == source.stat().st_size
        assert summary["input_bytes_decompressed"] == len(text)
        assert summary["size_reduction_ratio"] == out_path.stat().st_size / len(text)

    @pytest.mark.parametrize(
        "compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED], ids=["stored", "deflated"]
    )
    def test_zip_suffix_in_any_case(self, compression, data_dir, tmp_path, capsys):
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", compression) as archive:
            archive.writestr("w.txt", (data_dir / "aps_two_patents.txt").read_bytes())
        runs = []
        for name in ("week.zip", "WEEK.ZIP"):
            source = tmp_path / name
            source.write_bytes(buffer.getvalue())
            out_path, summary_path = tmp_path / (name + ".csv"), tmp_path / (name + ".json")
            code, _, _ = run_cli(
                ["convert", "--input", str(source), "--format-era", "aps", "--output",
                 str(out_path), "--summary-json", str(summary_path), "--quiet"],
                capsys,
            )
            assert code == 0
            runs.append((out_path.read_bytes(), summary_path.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (data_dir / "golden_two_patents.csv").read_bytes()

    def test_empty_input_has_no_size_ratio(self, tmp_path, capsys):
        source, summary_path = tmp_path / "empty.txt", tmp_path / "summary.json"
        source.write_bytes(b"")
        code, _, err = run_cli(
            ["convert", "--input", str(source), "--format-era", "aps", "--output",
             str(tmp_path / "out.csv"), "--summary-json", str(summary_path)],
            capsys,
        )
        assert code == 0
        assert json.loads(summary_path.read_text())["size_reduction_ratio"] is None
        assert "records written" in err and "ratio" not in err

    def test_summary_to_stdout(self, data_dir, tmp_path, capsys):
        out_path = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["convert", "--input", str(data_dir / "aps_two_patents.txt"), "--format-era", "aps",
             "--output", str(out_path), "--summary-json", "-", "--quiet"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["records_written"] == 2
        assert list(tmp_path.iterdir()) == [out_path]

    def test_failed_summary_write_keeps_the_old_summary(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        out_path, summary_path = tmp_path / "out.csv", tmp_path / "summary.json"
        summary_path.write_text("an older summary\n")
        dumps = json.dumps
        # the summary's text ends in a character the encoder rejects, so its
        # write fails once the file is open
        monkeypatch.setattr(
            cli, "json", SimpleNamespace(dumps=lambda *a, **k: dumps(*a, **k) + "\udc80")
        )
        code, _, err = run_cli(
            ["convert", "--input", str(data_dir / "aps_two_patents.txt"), "--format-era", "aps",
             "--output", str(out_path), "--summary-json", str(summary_path), "--quiet"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ") and "can't encode" in err
        assert summary_path.read_text() == "an older summary\n"
        assert sorted(tmp_path.iterdir()) == [out_path, summary_path]

    @pytest.mark.parametrize("case", ["convert --output", "--summary-json", "stats --output"])
    def test_path_in_a_missing_directory_is_named(self, case, data_dir, tmp_path, capsys):
        missing = str(tmp_path / "missing" / "out")
        convert = ["convert", "--input", str(data_dir / "aps_two_patents.txt"),
                   "--format-era", "aps", "--quiet"]
        argv = {
            "convert --output": convert + ["--output", missing],
            "--summary-json": convert + ["--output", str(tmp_path / "out.csv"),
                                         "--summary-json", missing],
            "stats --output": ["stats", "weekly", "--input",
                               str(data_dir / "golden_two_patents.csv"), "--output", missing],
        }[case]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and missing in err and ".tmp" not in err, err

    def test_repeated_input_counts_duplicate_wkus(self, data_dir, tmp_path, capsys):
        fixture, summary_path = str(data_dir / "aps_two_patents.txt"), tmp_path / "summary.json"
        code, _, _ = run_cli(
            ["convert", "--input", fixture, "--input", fixture, "--format-era", "aps",
             "--output", str(tmp_path / "out.csv"), "--summary-json", str(summary_path),
             "--quiet"],
            capsys,
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert (summary["records_written"], summary["duplicate_wkus"]) == (4, 2)

    @pytest.mark.parametrize("damage", ["truncated", "bad-crc"])
    def test_corrupt_archive_exits_1_without_output(self, damage, data_dir, tmp_path, capsys):
        archive = tmp_path / "bad.zip"
        archive.write_bytes(_damaged_archive(damage, data_dir))
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(
            ["convert", "--input", str(archive), "--format-era", "aps",
             "--output", str(out_path), "--quiet"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ") and str(archive) in err
        assert list(tmp_path.iterdir()) == [archive]

    def test_failed_input_adds_no_rows_under_append(self, data_dir, tmp_path, capsys):
        source = tmp_path / "mixed.zip"
        # a grant, then a member holding another that fails its CRC check
        grant = (data_dir / "era_xml4.xml").read_bytes()
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as stored:
            stored.writestr("1.xml", grant)
            stored.writestr("2.xml", grant.replace(b"07641234", b"07649999"))
        payload = bytearray(buffer.getvalue())
        payload[payload.index(b"07649999")] ^= 0x01
        source.write_bytes(bytes(payload))
        out_path = tmp_path / "out.csv"
        out_path.write_bytes((data_dir / "golden_two_patents.csv").read_bytes())
        code, _, err = run_cli(
            ["convert", "--input", str(source), "--format-era", "xml4", "--append",
             "--output", str(out_path), "--quiet"],
            capsys,
        )
        assert code == 1
        assert "Bad CRC-32" in err and str(source) in err
        assert out_path.read_bytes() == (data_dir / "golden_two_patents.csv").read_bytes()

    def test_xml_read_as_aps_exits_1(self, data_dir, capsys):
        code, _, err = run_cli(
            ["convert", "--input", str(data_dir / "era_xml4.xml"), "--format-era", "aps",
             "--quiet"],
            capsys,
        )
        assert code == 1
        assert "no PATN header" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_input_is_named_once(self, jobs, data_dir, tmp_path, capsys):
        xml2, xml4 = str(data_dir / "era_xml2.xml"), str(data_dir / "era_xml4.xml")
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes((data_dir / "aps_two_patents.txt").read_bytes().replace(b"T", b"\xc9"))
        missing = str(tmp_path / "missing.xml")
        missing_zip = str(tmp_path / "nope" / "missing.zip")
        for inputs, era, shown in [
            ([xml4, xml2], "xml4", xml2),  # the wrong era
            ([xml4, missing], "xml4", missing),  # an OSError names it itself
            ([missing_zip], "aps", missing_zip),  # also from opening an archive
            ([str(latin1)], "aps", str(latin1)),  # undecodable under --encoding
        ]:
            code, _, err = run_cli(
                ["convert", *(arg for path in inputs for arg in ("--input", path)),
                 "--format-era", era, "--encoding", "utf-8", "--jobs", jobs, "--quiet",
                 "--output", str(tmp_path / "out.csv")],
                capsys,
            )
            assert code == 1
            assert err.startswith("error: ") and err.count(shown) == 1, err
            assert [path for path in inputs if path in err] == [shown]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_missing_input_writes_nothing_to_standard_output(self, jobs, data_dir, tmp_path, capsys):
        # every input opens before the sink writes its header
        missing = str(tmp_path / "missing.txt")
        code, out, err = run_cli(
            ["convert", "--input", str(data_dir / "aps_two_patents.txt"), "--input", missing,
             "--format-era", "aps", "--jobs", jobs, "--output", "-"],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count(missing) == 1, err

    def test_dead_worker_is_an_error_naming_the_file(self, monkeypatch, data_dir, tmp_path, capsys):
        parent, spool_file = os.getpid(), pipeline.spool_file

        def die_in_worker(*args):
            return os._exit(1) if os.getpid() != parent else spool_file(*args)

        monkeypatch.setattr(pipeline, "spool_file", die_in_worker)
        fixture = str(data_dir / "aps_two_patents.txt")
        code, out, err = run_cli(
            ["convert", "--input", fixture, "--format-era", "aps", "--jobs", "2", "--quiet",
             "--output", str(tmp_path / "out.csv")],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: %s: " % fixture) and err.count(fixture) == 1, err
        assert list(tmp_path.iterdir()) == []

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
        assert not cache.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_run_whose_weeks_all_fail_writes_nothing_to_standard_output(
        self, monkeypatch, jobs, tmp_path, capsys
    ):
        _PatchedTransport(monkeypatch, {})  # every week is missing
        for command in ("get", "convert"):
            code, out, err = run_cli(
                [command, "--years", "1976", "--weeks", "1-2", "--jobs", jobs,
                 "--cache-dir", str(tmp_path / command), "--quiet"],
                capsys,
            )
            assert (code, out) == (1, "")
            assert err.startswith("error: all requested weeks failed")

    def test_a_week_of_no_records_still_writes_the_header(self, monkeypatch, tmp_path, capsys):
        _PatchedTransport(monkeypatch, {resolve_plan(WeekSpec(1976, 1)).url: make_zip({"w.txt": b""})})
        code, out, _ = run_cli(
            ["get", "--years", "1976", "--weeks", "1-2", "--cache-dir", str(tmp_path), "--quiet"],
            capsys,
        )
        assert (code, out) == (2, CsvSink.header)

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
        # each failed week is listed once, by fetch and get, with and without --quiet
        for command in ("fetch", "get"):
            for quiet in (["--quiet"], []):
                run = tmp_path / command / ("quiet" if quiet else "loud")
                run.mkdir(parents=True)
                argv = [command, "--years", "1976", "--weeks", "1-3", "--cache-dir", str(run)]
                if command == "get":
                    argv += ["--output", str(run / "pat.csv")]
                code, _, err = run_cli(argv + quiet, capsys)
                assert code == 2
                assert "failed 1976wk01" not in err
                assert ("1976wk01" in err) is not bool(quiet)  # the progress lines name it
                assert err.count("failed 1976wk02") == 1
                assert err.count("failed 1976wk03: disk full") == 1

    def test_failure_without_text_is_named_by_its_class(
        self, monkeypatch, data_dir, tmp_path, capsys
    ):
        text = (data_dir / "aps_two_patents.txt").read_bytes()
        _PatchedTransport(
            monkeypatch,
            {resolve_plan(WeekSpec(1976, w)).url: make_zip({"w.txt": text}) for w in (1, 2)},
        )
        spool_file = pipeline.spool_file

        def out_of_memory_in_week_2(path, *args, **kwargs):
            if "wk02" in str(path):
                raise MemoryError()
            return spool_file(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "spool_file", out_of_memory_in_week_2)
        summary_path = tmp_path / "summary.json"
        code, _, err = run_cli(
            ["get", "--years", "1976", "--weeks", "1-2", "--cache-dir", str(tmp_path / "cache"),
             "--output", str(tmp_path / "pat.csv"), "--summary-json", str(summary_path),
             "--quiet"],
            capsys,
        )
        assert code == 2
        [failure] = json.loads(summary_path.read_text())["weeks_failed"]
        assert failure["reason"] == "MemoryError"
        assert "failed 1976wk02: MemoryError\n" in err

    @pytest.mark.parametrize("quiet", [True, False], ids=["quiet", "loud"])
    def test_convert_fails_an_uncached_week_at_once(self, served_week, tmp_path, capsys, quiet):
        cache = tmp_path / "cache"
        flags = ["--cache-dir", str(cache)] + (["--quiet"] if quiet else [])
        assert run_cli(["fetch", "--years", "1976", "--weeks", "1"] + flags, capsys)[0] == 0
        started = time.monotonic()
        code, _, err = run_cli(
            ["convert", "--years", "1976", "--weeks", "1-2", "--output", str(tmp_path / "x.csv")]
            + flags,
            capsys,
        )
        assert time.monotonic() - started < 1.0
        assert code == 2
        (failure,) = [line for line in err.splitlines() if line.startswith("failed 1976wk02: ")]
        assert str(cache) in failure and "attempts" not in failure
        assert len(served_week.requests) == 1  # the fetch of week 1 only

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


# a CSV cell longer than this fails to read in the malformed-input tests
FIELD_LIMIT = 64 * 1024


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

    @pytest.mark.parametrize("name", ["pat.JSONL", "pat.Jsonl", "pat.NDJSON", "pat.ndjson"])
    def test_jsonl_suffix_sniffed_in_any_case(self, name, data_dir, tmp_path, capsys):
        out_path = tmp_path / name
        run_cli(
            ["convert", "--input", str(data_dir / "aps_two_patents.txt"),
             "--format-era", "aps", "--format", "jsonl", "--output", str(out_path), "--quiet"],
            capsys,
        )
        code, out, err = run_cli(["stats", "weekly", "--input", str(out_path)], capsys)
        assert (code, out, err) == (0, "year,week,count\n1976,1,2\n", "")

    def test_missing_input_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["stats", "weekly", "--input", str(tmp_path / "nope.csv")], capsys
        )
        assert code == 1
        assert "error" in err

    @pytest.fixture
    def low_field_limit(self):
        # the reader's cap on a cell, lowered from 64 MiB so an oversized cell stays small
        default_limit = csv.field_size_limit(FIELD_LIMIT)
        yield
        csv.field_size_limit(default_limit)

    @pytest.mark.parametrize(
        "row",
        [
            "only,three,cells",
            "9,t,,1976-13-06,,,,,",
            "9,t,1975-02-30,1976-01-06,,,,,",
            "9,t,,1976-01-06,,,9X,,",
            "9,t,,1976-01-06,,,C07D 1/00; ,,",
            "9,t,,1976-01-06,,,,,%s" % ("x" * (FIELD_LIMIT + 1)),
        ],
        ids=[
            "short-row", "bad-issue-date", "bad-app-date", "bad-ipc-head", "empty-ipc-element",
            "cell-over-field-limit",
        ],
    )
    def test_malformed_row_exits_1_without_output(
        self, row, converted_csv, tmp_path, capsys, low_field_limit
    ):
        with open(converted_csv, "a", encoding="utf-8") as handle:
            handle.write(row + "\n")
        last_line = len(converted_csv.read_text(encoding="utf-8").splitlines())
        table = tmp_path / "table.csv"
        code, _, err = run_cli(
            ["stats", "weekly", "--input", str(converted_csv), "--output", str(table)], capsys
        )
        assert code == 1
        assert "error: line %d: " % last_line in err
        assert not table.exists()

    def test_unexpected_csv_header_exits_1_without_output(self, converted_csv, tmp_path, capsys):
        source, table = tmp_path / "in.csv", tmp_path / "table.csv"
        source.write_text(converted_csv.read_text(encoding="utf-8").replace("wku,", "id,", 1))
        code, _, err = run_cli(
            ["stats", "weekly", "--input", str(source), "--output", str(table)], capsys
        )
        assert code == 1
        assert "error: unexpected CSV header: ['id', " in err
        assert not table.exists()

    def test_header_cell_over_field_limit_exits_1(self, tmp_path, capsys, low_field_limit):
        source = tmp_path / "in.csv"
        source.write_text("wku,%s\n" % ("x" * (FIELD_LIMIT + 1)), encoding="utf-8")
        code, _, err = run_cli(["stats", "weekly", "--input", str(source)], capsys)
        assert code == 1
        assert "error: line 1: " in err

    # issue date, application date and IPC codes spelled by hand
    HAND_ROWS = [
        ("h1", "1974-03-05", "1976-01-06", ["c 07 d 295/12", "C07D295/12", "a01b 1/00"]),
        ("h2", "", "1976-01-13", ["C07D 1/00", "A01 5/00", "C07"]),
        ("h3", "1975-07-01", "1976-01-13", ["A01", "h04l 9/32", "C07D 2/00", "H04L 1/00"]),
        ("h4", "", "1976-01-13", []),
    ]

    @pytest.mark.parametrize("format", ["csv", "jsonl"])
    def test_tables_equal_those_of_whole_records(self, format, tmp_path, capsys):
        # rows decode only three fields; in either format the tables must
        # equal those of the whole records, including heads spelled by hand
        path = tmp_path / ("in." + format)
        sink_to_file(path, CsvSink if format == "csv" else JsonlSink, random_records(300, seed=3))
        with open(path, "a", encoding="utf-8") as handle:
            for wku, app, issue, ipc in self.HAND_ROWS:
                if format == "csv":
                    handle.write("%s,t,%s,%s,,,%s,,\n" % (wku, app, issue, "; ".join(ipc)))
                else:
                    line = {"wku": wku, "title": "t", "app_date": app or None, "issue_date": issue}
                    handle.write(json.dumps(dict(line, ipc_codes=ipc)) + "\n")
        records = list((read_csv if format == "csv" else read_jsonl)(path))
        assert len(records) == 304
        expected = {
            "weekly": (analytics.weekly_table, analytics.weekly_counts(records)),
            "classes": (analytics.classes_table, analytics.top_ipc_subclasses(records, 20)),
            "lag-by-class": (analytics.lag_table, analytics.lag_stats_by_class(records, 20)),
            "lag-by-year": (analytics.lag_table, analytics.lag_stats_by_year(records)),
        }
        for analysis, (write_table, stats) in expected.items():
            table = io.StringIO()
            write_table(stats, table)
            code, out, _ = run_cli(
                ["stats", analysis, "--input", str(path), "--top", "20", "--quiet"], capsys
            )
            assert code == 0
            assert out == table.getvalue()

    def test_other_accepted_spellings_give_the_same_tables(self, tmp_path, capsys):
        # cells in the form convert writes take a fast path; every other
        # spelling the rules accept must decode to the same tables
        canonical, respelled = tmp_path / "canonical.csv", tmp_path / "respelled.csv"
        sink_to_file(canonical, CsvSink, random_records(300, seed=5))
        dates = [lambda d: d.replace("-", ""), lambda d: " %s " % d, lambda d: d + " "]
        with open(canonical, encoding="utf-8", newline="") as source, open(
            respelled, "w", encoding="utf-8", newline=""
        ) as target:
            rows = csv.reader(source)
            writer = csv.writer(target, lineterminator="\n")
            writer.writerow(next(rows))
            for number, row in enumerate(rows):
                respell = dates[number % len(dates)]
                row[2] = respell(row[2]) if row[2] else ""
                row[3] = respell(row[3])
                row[6] = "; ".join(
                    "%s %s %s%s" % (code[0].lower(), code[1:3], code[3].lower(), code[4:])
                    for code in row[6].split("; ") if code
                )  # C07D 295/12 as c 07 d 295/12
                writer.writerow(row)
        spelled = respelled.read_text(encoding="utf-8")
        assert all(re.search(form, spelled) for form in (r",\d{8},", r", \d{4}-", r"[a-h] \d\d [a-z] "))
        for analysis in ("weekly", "classes", "lag-by-class", "lag-by-year"):
            tables = []
            for path in (canonical, respelled):
                code, out, _ = run_cli(["stats", analysis, "--input", str(path), "--quiet"], capsys)
                assert code == 0
                tables.append(out)
            assert tables[0] == tables[1]
            assert tables[0].count("\n") > 1

    @pytest.mark.parametrize(
        "line",
        [
            "{}",
            "[1]",
            '{"wku": "1", "issue_date": null}',
            '{"wku": "1", "issue_date": "1976-01-06", "inventors": [1]}',
            '{"wku": "1", "issue_date": "1976-01-06", "ipc_codes": ["A01B 1/00; C07D"]}',
            "[" * 200_000 + "]" * 200_000,
            '{"wku": "1", "issue_date": "1976-01-06", "title": 5}',
        ],
        ids=[
            "empty-object", "not-an-object", "null-issue-date", "wrong-type", "delimiter-in-item",
            "nested-too-deep", "wrong-scalar-type",
        ],
    )
    def test_malformed_jsonl_line_exits_1_without_output(self, line, tmp_path, capsys):
        source = tmp_path / "in.jsonl"
        source.write_text('{"wku": "1", "issue_date": "1976-01-06"}\n%s\n' % line)
        table = tmp_path / "table.csv"
        code, _, err = run_cli(
            ["stats", "weekly", "--input", str(source), "--output", str(table)], capsys
        )
        assert code == 1
        assert "error: line 2: " in err
        assert not table.exists()

    @pytest.mark.parametrize("analysis", ["weekly", "classes", "lag-by-class", "lag-by-year"])
    def test_stats_streams_its_input(self, analysis, tmp_path, capsys, monkeypatch):
        # 20k records take about 18 MB once listed; streamed, every
        # analysis peaks under 1 MB, also with the read split in two and
        # the child's tally merged here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        count_total = {
            "weekly": 20_000, "classes": 16_854, "lag-by-class": 14_012, "lag-by-year": 16_651,
        }
        path = tmp_path / "big.csv"
        rng = random.Random(7)
        sink_to_file(path, CsvSink, (random_record(rng) for _ in range(20_000)))
        FORK_THREADS.clear()
        tracemalloc.start()
        try:
            code, out, _ = run_cli(["stats", analysis, "--input", str(path)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert FORK_THREADS == [1]
        counts = [int(row["count"]) for row in csv.DictReader(io.StringIO(out))]
        assert sum(counts) == count_total[analysis]
        assert peak < 4_000_000
