"""Offline benchmark of the patentbulk CLI over a seeded synthetic corpus.

Run from the root of a checkout:

    python3 perfbench/run.py --workload aps_local_csv --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one operation (one ``patentbulk``
invocation, or the four ``stats`` analyses) runs at a time, as child
processes without tracing, until ``--seconds`` have passed.  Every
operation's output is checked against the generator's manifest and
against the bytes of the run's other operations.  With ``--trace 1`` the
same argv runs in-process under :mod:`tracing` instead, after one untraced
reference operation, and per-layer metrics are printed.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import check
import corpus as corpusmod
import tracing
from spawner import calibrate

# End-to-end times are in reference seconds: measured seconds scaled by
# REFERENCE_CALIBRATION_S / the time spawner.calibrate() took around them.
# The host's speed moves by up to half over tens of minutes, and the loop
# moves with it (README.md, "Host speed").
REFERENCE_CALIBRATION_S = 0.1
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
DRAIN_REPEATS = 3
XML_YEARS, XML_WEEKS = "2004-2005", "1-2"


@dataclass(frozen=True)
class Workload:
    build: Callable[[str, int], corpusmod.Corpus]
    # (corpus, output dir) -> the CLI argvs of one operation, and its output files
    operation: Callable[[corpusmod.Corpus, str], tuple[list[list[str]], list[str]]]
    # corpus -> output check returning problems
    checker: Callable[[corpusmod.Corpus], Callable[[Sequence[str]], list[str]]]


def _aps_operation(corpus, out):
    argv = ["convert"]
    for path in corpus.inputs:
        argv += ["--input", path]
    argv += ["--format-era", "aps", "--format", "csv", "--output", os.path.join(out, "out.csv"),
             "--summary-json", os.path.join(out, "summary.json"), "--quiet"]
    return [argv], [os.path.join(out, "out.csv")]


def _xml_operation(corpus, out):
    argv = ["convert", "--years", XML_YEARS, "--weeks", XML_WEEKS, "--jobs", "2",
            "--format", "jsonl", "--cache-dir", corpus.root,
            "--output", os.path.join(out, "out.jsonl"),
            "--summary-json", os.path.join(out, "summary.json"), "--quiet"]
    return [argv], [os.path.join(out, "out.jsonl")]


def _stats_operation(corpus, out):
    (source,) = corpus.inputs
    outputs = [os.path.join(out, "%s.csv" % a) for a in check.STATS_ANALYSES]
    argvs = [["stats", a, "--input", source, "--output", path, "--quiet"]
             for a, path in zip(check.STATS_ANALYSES, outputs)]
    return argvs, outputs


def _convert_checker(corpus):
    return lambda paths: check.check_convert(paths, corpus.manifest)


def _stats_checker(corpus):
    expected = check.stats_tables(corpus.manifest["rows"])
    return lambda paths: check.check_stats(paths, expected)


WORKLOADS = {
    "aps_local_csv": Workload(corpusmod.build_aps, _aps_operation, _convert_checker),
    "xml_cached_jsonl": Workload(corpusmod.build_xml_cache, _xml_operation, _convert_checker),
    "stats_csv": Workload(corpusmod.build_stats_csv, _stats_operation, _stats_checker),
}

END_TO_END_UNITS = {"setup_s": "s", "mb_per_s": "MB/s", "records_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "fetch.lookup_s": "s", "fetch.cache_hits": "count", "fetch.downloads": "count",
    "fetch.decompress_mb_per_s": "MB/s", "fetch.archive_sizes_s": "s",
    "aps.parse_self_s": "s", "aps.lines": "count", "aps.patn_sections": "count",
    "aps.records_skipped": "count", "aps.warnings": "count",
    "xmlgrants.split_s": "s", "xmlgrants.map_self_s": "s", "xmlgrants.slices": "count",
    "xmlgrants.record_errors": "count", "xmlgrants.entity_substitutions": "count",
    "xmlgrants.warnings": "count",
    "model.build_record_s": "s", "model.build_record_calls": "count", "model.serialize_s": "s",
    "model.record_from_row_s": "s", "model.ipc_parse_s": "s", "model.ipc_parse_calls": "count",
    "pipeline.sink_write_self_s": "s", "pipeline.read_self_s": "s", "pipeline.run_s": "s",
    "pipeline.records_written": "count", "pipeline.output_bytes": "bytes",
    "pipeline.warnings_total": "count", "pipeline.duplicate_wkus": "count",
    "pipeline.weeks_failed": "count", "corpus.injected_faults": "count",
    "analytics.weekly_counts_s": "s", "analytics.top_ipc_subclasses_s": "s",
    "analytics.lag_stats_by_class_s": "s", "analytics.lag_stats_by_year_s": "s",
    "cli.startup_s": "s", "cli.self_s": "s", "cli.op_wall_s": "s", "trace.overhead_ratio": "ratio",
}


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def set_up(workload: Workload, work: str, seed: int) -> tuple[corpusmod.Corpus, float]:
    """Build the corpus SETUP_REPEATS times; keep the last, return the
    median time in reference seconds."""
    times, previous = [], None
    for repeat in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        corpus = workload.build(os.path.join(work, "corpus%d" % repeat), seed)
        elapsed = time.perf_counter() - start
        times.append(elapsed * REFERENCE_CALIBRATION_S * 2 / (before + calibrate()))
        if previous is not None:
            shutil.rmtree(previous.root)
        previous = corpus
    return corpus, statistics.median(times)


class Spawner:
    """Client of ``spawner.py``, started while the harness is still small."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "spawner.py")],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], log: str) -> dict:
        """One child's exit status, wall s, calibration s and peak RSS KB."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": log}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class OpResult:
    status: int = 0
    wall: float = 0.0  # measured seconds
    ref_wall: float = 0.0  # reference seconds
    peak_rss_mb: float = 0.0


def run_children(spawner: Spawner, argvs: list[list[str]], log: str) -> OpResult:
    """Run one operation's invocations in turn."""
    op = OpResult()
    for argv in argvs:
        reply = spawner.run([sys.executable, "-m", "patentbulk.cli", *argv], log)
        op.status = reply["status"]
        op.wall += reply["wall"]
        op.ref_wall += reply["wall"] * REFERENCE_CALIBRATION_S / reply["calibration"]
        op.peak_rss_mb = max(op.peak_rss_mb, reply["maxrss_kb"] / 1024)
        if op.status != 0:
            break
    return op


def _report_problems(judge: check.Judge, log: str) -> None:
    for problem in judge.problems:
        print("failed operation: %s" % problem, file=sys.stderr)
    if judge.failed and os.path.exists(log):
        with open(log, errors="replace") as handle:
            sys.stderr.write(handle.read()[-2000:])


def _prepare(workload: Workload, corpus, work: str):
    """One operation's argvs and outputs, a fresh judge, and the stderr log."""
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    argvs, outputs = workload.operation(corpus, out)
    return argvs, outputs, check.Judge(workload.checker(corpus)), os.path.join(work, "stderr.log")


def measure(workload, corpus, work, seconds, spawner) -> tuple[check.Judge, dict]:
    argvs, outputs, judge, log = _prepare(workload, corpus, work)
    ops, good = [], []
    deadline = time.perf_counter() + seconds
    while True:
        op = run_children(spawner, argvs, log)
        ops.append(op)
        if judge.judge(op.status, outputs):
            good.append(op)
        if time.perf_counter() >= deadline:
            break
    _report_problems(judge, log)
    counted = good or ops
    walls = [op.wall for op in counted]
    ref_wall = statistics.median(op.ref_wall for op in counted)
    print("operation wall: n=%d, measured s median %.4f min %.4f max %.4f, reference s median %.4f"
          % (len(walls), statistics.median(walls), min(walls), max(walls), ref_wall))
    metrics = {
        "mb_per_s": corpus.input_bytes / 1e6 / ref_wall,
        "records_per_s": corpus.records / ref_wall,
        "peak_rss_mb": max(op.peak_rss_mb for op in ops),
    }
    return judge, metrics


def _layer_metrics(tracer: tracing.Tracer, wall: float, summary: dict) -> dict:
    total, own, calls, counts = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    return {
        "fetch.lookup_s": total["fetch.fetch"],
        "fetch.cache_hits": calls["fetch.fetch"] - calls["fetch.download"],
        "fetch.downloads": calls["fetch.download"],
        "fetch.archive_sizes_s": total["fetch.archive_sizes"],
        "aps.parse_self_s": own["aps.parse"],
        "aps.lines": counts["aps.lines"],
        "aps.patn_sections": counts["aps.patn_sections"],
        "aps.records_skipped": counts["aps.records_skipped"],
        "aps.warnings": counts["aps.warnings"],
        "xmlgrants.split_s": total["xmlgrants.split"],
        "xmlgrants.map_self_s": own["xmlgrants.parse_grant_xml"],
        "xmlgrants.slices": counts["xmlgrants.slices"],
        "xmlgrants.record_errors": counts["xmlgrants.record_errors"],
        "xmlgrants.entity_substitutions": counts["xmlgrants.entity_substitutions"],
        "xmlgrants.warnings": counts["xmlgrants.warnings"],
        "model.build_record_s": total["model.build_record"],
        "model.build_record_calls": calls["model.build_record"],
        "model.serialize_s": total["model.serialize"],
        "model.record_from_row_s": total["model.record_from_row"],
        "model.ipc_parse_s": total["model.ipc_parse"],
        "model.ipc_parse_calls": calls["model.ipc_parse"],
        "pipeline.sink_write_self_s": own["pipeline.sink_write"],
        "pipeline.read_self_s": own["pipeline.read"],
        "pipeline.run_s": total["pipeline.run"],
        "pipeline.records_written": summary.get("records_written", 0),
        "pipeline.output_bytes": summary.get("output_bytes", 0),
        "pipeline.warnings_total": summary.get("warnings_total", 0),
        "pipeline.duplicate_wkus": summary.get("duplicate_wkus", 0),
        "pipeline.weeks_failed": len(summary.get("weeks_failed", ())),
        "analytics.weekly_counts_s": total["analytics.weekly_counts"],
        "analytics.top_ipc_subclasses_s": total["analytics.top_ipc_subclasses"],
        "analytics.lag_stats_by_class_s": total["analytics.lag_stats_by_class"],
        "analytics.lag_stats_by_year_s": total["analytics.lag_stats_by_year"],
        "cli.self_s": wall - tracer.main_root_time,
        "cli.op_wall_s": wall,
    }


def _startup_s(spawner: Spawner, log: str) -> float:
    """A fresh interpreter plus ``import patentbulk.cli``, median of a few."""
    argv = [sys.executable, "-c", "import patentbulk.cli"]
    return statistics.median(spawner.run(argv, log)["wall"] for _ in range(STARTUP_REPEATS))


def _drain_mb_per_s(fetchmod, zips: list[str]) -> float:
    """Decompression alone: read every archive through ``open_archive``."""
    if not zips:
        return 0.0
    rates = []
    for _ in range(DRAIN_REPEATS):
        start, total = time.perf_counter(), 0
        for path in zips:
            entry = fetchmod.CacheEntry(cache_path=path, source_url="file://" + path,
                                        byte_size=os.path.getsize(path), content_digest="",
                                        retrieved_at="")
            with fetchmod.open_archive(entry) as stream:
                while block := stream.read(1 << 16):
                    total += len(block)
        rates.append(total / 1e6 / (time.perf_counter() - start))
    return statistics.median(rates)


def _run_in_process(cli, argvs: list[list[str]]) -> tuple[int, float]:
    """(exit status, wall s) of one operation through ``cli.run``."""
    status = 0
    start = time.perf_counter()
    for argv in argvs:
        status = cli.run(argv)
        if status != 0:
            break
    return status, time.perf_counter() - start


def measure_traced(workload, corpus, work, seconds, spawner, trace_path) -> tuple[check.Judge, dict]:
    """One untraced child operation gives the reference output; one untraced
    in-process operation gives the wall time the traced ones are compared
    with; then traced in-process operations for ``seconds``."""
    argvs, outputs, judge, log = _prepare(workload, corpus, work)
    judge.judge(run_children(spawner, argvs, log).status, outputs)
    if judge.reference is None:
        # no untraced reference to compare with: traced outputs cannot pass
        judge.reference = "no untraced reference"

    package = importlib.import_module("patentbulk")
    cli = importlib.import_module("patentbulk.cli")
    status, untraced_wall = _run_in_process(cli, argvs)
    judge.judge(status, outputs)

    tracer = tracing.Tracer()
    saved = tracing.install(tracer, package)
    per_op = []
    summary_path = os.path.join(os.path.dirname(outputs[0]), "summary.json")
    try:
        deadline = time.perf_counter() + seconds
        while True:
            tracer.reset()
            status, wall = _run_in_process(cli, argvs)
            summary = {}
            if os.path.exists(summary_path):
                with open(summary_path) as handle:
                    summary = json.load(handle)
            per_op.append(_layer_metrics(tracer, wall, summary))
            judge.judge(status, outputs)
            if time.perf_counter() >= deadline:
                break
    finally:
        tracing.uninstall(saved)
    _report_problems(judge, log)
    spans = tracer.write(trace_path)
    print("spans: %d over %d traced operations, written to %s"
          % (spans, len(per_op), os.path.relpath(trace_path)))

    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    metrics["trace.overhead_ratio"] = metrics["cli.op_wall_s"] / untraced_wall
    metrics["cli.startup_s"] = _startup_s(spawner, log)
    zips = [path for path in corpus.inputs if path.endswith(".zip")]
    metrics["fetch.decompress_mb_per_s"] = _drain_mb_per_s(package.fetch, zips)
    metrics["corpus.injected_faults"] = len(corpus.manifest.get("injected", ()))
    return judge, metrics


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "patentbulk", "cli.py")):
        print("error: %s has no src/patentbulk; run from the root of a patentbulk checkout"
              % root, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(root),
    }
    print("context: " + json.dumps(context))

    workload = WORKLOADS[args.workload]
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, "run-%d" % os.getpid())
    os.makedirs(work)
    spawner = Spawner(env)
    try:
        corpus, setup_s = set_up(workload, work, args.seed)
        if args.trace:
            os.makedirs(os.path.join(base, "traces"), exist_ok=True)
            trace_path = os.path.join(base, "traces", "%s-seed%d.spans.gz" % (args.workload, args.seed))
            judge, metrics = measure_traced(workload, corpus, work, args.seconds, spawner, trace_path)
            units = PER_LAYER_UNITS
        else:
            judge, metrics = measure(workload, corpus, work, args.seconds, spawner)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    for name, unit in units.items():
        print("%-32s %14.6f %s" % (name, metrics[name], unit))
    print("%-32s %14.6f ratio (%d of %d operations failed)"
          % ("fail_ratio", judge.failed / judge.attempted, judge.failed, judge.attempted))
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
