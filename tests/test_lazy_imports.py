"""Each command imports only what it runs: ``import patentbulk`` loads no
submodule, ``stats`` loads no archive, hashing, XML, temp-file, pool or
``shutil`` code, an APS ``convert`` no XML mapper or analyses, no run a
pool, and no command ``dataclasses`` or its ``inspect`` chain.  Each
check runs in a new interpreter started with ``-S``, so that no site hook
has loaded a module first."""

import json
from pathlib import Path

import pytest

import patentbulk
from conftest import FakeTransport, make_zip, random_records, run_python, sink_to_file
from patentbulk.fetch import fetch, resolve_plan
from patentbulk.model import WeekSpec
from patentbulk.pipeline import CsvSink

TRACING_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# runs cli.run(argv) and prints its status and the names of the loaded modules
RUN_CLI = """
import json, sys
from patentbulk import cli
status = cli.run(sys.argv[1:])
print(json.dumps([status, sorted(sys.modules)]))
"""

# no command runs these, which cost about 1 MB of every command's peak RSS
UNRUN = ("dataclasses", "inspect")
# neither stats nor an APS convert runs any of these
HEAVY = ("hashlib", "_hashlib", "zipfile", "tempfile", "xml.etree.ElementTree",
         "concurrent.futures", "patentbulk.xmlgrants", *UNRUN)


def loaded_after(*argv):
    """The status of ``patentbulk`` run with ``argv`` in a new interpreter,
    and the modules it has loaded then."""
    child = run_python("-S", "-c", RUN_CLI, *argv, timeout=120)
    assert child.returncode == 0, child.stderr
    status, modules = json.loads(child.stdout.splitlines()[-1])
    return status, set(modules)


def test_stats_loads_no_archive_hashing_xml_or_pool_code(tmp_path):
    table = tmp_path / "grants.csv"
    sink_to_file(table, CsvSink, random_records(40, seed=5))
    status, modules = loaded_after("stats", "lag-by-class", "--input", str(table),
                                   "--output", str(tmp_path / "lags.csv"), "--quiet")
    assert status == 0 and (tmp_path / "lags.csv").stat().st_size > 0
    assert "patentbulk.analytics" in modules
    # argparse would import shutil, with bz2 and lzma, for its help width
    assert sorted(modules.intersection((*HEAVY, "shutil", "bz2", "lzma"))) == []


def test_aps_convert_loads_no_xml_mapper(data_dir, tmp_path):
    week = tmp_path / "week.zip"
    week.write_bytes(make_zip({"w.txt": (data_dir / "aps_two_patents.txt").read_bytes()}))
    out = tmp_path / "out.csv"
    status, modules = loaded_after("convert", "--input", str(week), "--format-era", "aps",
                                   "--output", str(out), "--quiet")
    assert status == 0
    assert out.read_bytes() == (data_dir / "golden_two_patents.csv").read_bytes()
    assert "zipfile" in modules
    # one job: no thread or process pool either
    assert sorted(modules.intersection(HEAVY)) == ["tempfile", "zipfile"]
    # nor the analyses, which only stats runs
    assert "patentbulk.analytics" not in modules


def test_xml_convert_loads_no_dataclasses(data_dir, tmp_path):
    out = tmp_path / "out.csv"
    status, modules = loaded_after("convert", "--input", str(data_dir / "era_xml4.xml"),
                                   "--format-era", "xml4", "--jobs", "1",
                                   "--output", str(out), "--quiet")
    assert status == 0 and out.read_bytes().count(b"\n") > 1
    assert "patentbulk.xmlgrants" in modules
    assert sorted(modules.intersection(UNRUN)) == []


def test_two_jobs_load_no_pool(data_dir, tmp_path):
    # each weekly file runs in a forked child: no thread or process pool
    plan, cache = resolve_plan(WeekSpec(1976, 1)), tmp_path / "cache"
    week = make_zip({"w.txt": (data_dir / "aps_two_patents.txt").read_bytes()})
    fetch(plan, str(cache), transport=FakeTransport({plan.url: week}))
    out = tmp_path / "out.csv"
    status, modules = loaded_after("convert", "--years", "1976", "--weeks", "1", "--jobs", "2",
                                   "--cache-dir", str(cache), "--output", str(out), "--quiet")
    assert status == 0
    assert out.read_bytes() == (data_dir / "golden_two_patents.csv").read_bytes()
    assert sorted(modules.intersection({"concurrent.futures", "multiprocessing"})) == []


def test_star_import_binds_every_public_name():
    child = run_python("-S", "-c", (
        "import json, sys\n"
        "import patentbulk\n"
        "loaded = [m for m in sys.modules if m.startswith('patentbulk.')]\n"
        "names = {}\n"
        "exec('from patentbulk import *', names)\n"
        "print(json.dumps([loaded, sorted(names), dir(patentbulk)]))\n"
    ), timeout=120)
    assert child.returncode == 0, child.stderr
    loaded, bound, listed = json.loads(child.stdout)
    assert loaded == []
    assert set(patentbulk.__all__) <= set(bound)
    assert set(patentbulk.__all__) | {"aps", "fetch", "pipeline", "xmlgrants"} <= set(listed)


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(patentbulk)
    assert listed == sorted(set(listed))
    submodules = {"analytics", "aps", "fetch", "model", "pipeline", "xmlgrants"}
    assert set(patentbulk.__all__) | submodules <= set(listed)
    assert all(hasattr(patentbulk, name) for name in listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        patentbulk.nope


def test_tracer_installs_in_a_new_interpreter():
    # perfbench --trace 1 installs its tracer right after `import patentbulk.cli`,
    # before any command has imported xmlgrants
    child = run_python("-c", (
        "import importlib.util, sys\n"
        "import patentbulk, patentbulk.cli\n"
        "spec = importlib.util.spec_from_file_location('perfbench_tracing', sys.argv[1])\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracing.uninstall(tracing.install(tracing.Tracer(), patentbulk))\n"
        "print('installed')\n"
    ), TRACING_PATH, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "installed\n"
