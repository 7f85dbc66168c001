"""Tests of the benchmark's own generator and checker.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
import corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = {
    "aps": dict(weeks=2, week_bytes=150_000),
    "xml": dict(weeks=1, week_bytes=150_000),
    "stats": dict(records=500),
}


def _tree_bytes(root):
    return {path.name: path.read_bytes() for path in sorted(Path(root).iterdir())}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_same_seed_same_bytes_other_seed_other_bytes(kind, tmp_path):
    build = corpus.BUILDERS[kind]
    first = build(str(tmp_path / "a"), 7, **SMALL[kind])
    again = build(str(tmp_path / "b"), 7, **SMALL[kind])
    other = build(str(tmp_path / "c"), 8, **SMALL[kind])
    assert _tree_bytes(first.root) == _tree_bytes(again.root)
    assert first.manifest == again.manifest
    assert _tree_bytes(first.root).keys() == _tree_bytes(other.root).keys()
    assert _tree_bytes(first.root) != _tree_bytes(other.root)


def test_faults_are_injected_and_listed(tmp_path):
    aps = corpus.build_aps(str(tmp_path / "aps"), 3, **SMALL["aps"])
    xml = corpus.build_xml_cache(str(tmp_path / "xml"), 3, **SMALL["xml"])
    assert aps.manifest["injected"] and xml.manifest["injected"]
    assert xml.manifest["entities"] > 0
    for built in (aps, xml):
        written = json.loads((Path(built.root) / "manifest.json").read_text(encoding="utf-8"))
        assert written == built.manifest


def _convert(corpus_, out):
    argv = [sys.executable, "-m", "patentbulk.cli", "convert", "--format-era", "aps",
            "--output", out, "--quiet"]
    for path in corpus_.inputs:
        argv += ["--input", path]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(argv, env=env, timeout=120).returncode


def _rewrite(path, edit):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_altered_and_dropped_rows_count_as_failed_operations(tmp_path):
    small = corpus.build_aps(str(tmp_path / "aps"), 5, **SMALL["aps"])
    out = str(tmp_path / "out.csv")
    judge = check.Judge(lambda paths: check.check_convert(paths, small.manifest))

    assert judge.judge(_convert(small, out), [out])

    def alter(rows):
        rows[2][1] += " altered"

    _rewrite(out, alter)
    assert not judge.judge(0, [out])

    assert _convert(small, out) == 0
    _rewrite(out, lambda rows: rows.pop(3))
    assert not judge.judge(0, [out])

    assert (judge.attempted, judge.failed) == (3, 2)
    assert any("differs in title" in p for p in judge.problems)
    assert any("records, expected" in p for p in judge.problems)


def test_stats_tables_changed_row_fails(tmp_path):
    rows = corpus.stats_rows(9, 300)
    expected = check.stats_tables(rows)
    paths = []
    for analysis in check.STATS_ANALYSES:
        path = tmp_path / ("%s.csv" % analysis)
        path.write_text(expected[analysis], encoding="utf-8")
        paths.append(str(path))
    assert check.check_stats(paths, expected) == []
    lines = expected["classes"].splitlines(keepends=True)
    (tmp_path / "classes.csv").write_text("".join(lines[:-1]), encoding="utf-8")
    assert check.check_stats(paths, expected) == ["stats classes table differs from the recomputed one"]
