"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from perfbench import expectations as expect
from perfbench import layers
from perfbench.run import ROOT, timed_phase
from perfbench.workloads import (
    Grade,
    LintEdit,
    Survey,
    build_tree,
    cohort_kind,
    submission,
    submission_sources,
)


def _tree_bytes(root: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_same_seed_gives_byte_identical_trees(tmp_path):
    build_tree(7, str(tmp_path / "a"))
    build_tree(7, str(tmp_path / "b"))
    build_tree(8, str(tmp_path / "c"))
    a, b, c = (_tree_bytes(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c
    assert len(a) == expect.PROJECTS * len(expect.CHAIN) + 5


def test_same_seed_gives_identical_cohorts():
    sources = submission_sources()
    first = [submission(3, i, sources) for i in range(40)]
    assert first == [submission(3, i, sources) for i in range(40)]
    assert first != [submission(4, i, sources) for i in range(40)]
    # Every block holds the mix in its fixed proportions.
    block = len(expect.GRADE_BLOCK)
    for start in range(0, 40, block):
        kinds = sorted(cohort_kind(3, i) for i in range(start, start + block))
        assert kinds == sorted(expect.GRADE_BLOCK)
    starters = {src for kind, src in first if kind == "starter"}
    assert len(starters) == 1


def test_corrupted_item_output_counts_as_failed(tmp_path):
    class CorruptSecond(Grade):
        def item(self, i):
            report = super().item(i)
            if i == 1:
                result = report.results[0]
                report.results[0] = dataclasses.replace(
                    result, fraction=1.0 - result.fraction
                )
            return report

    workload = CorruptSecond()
    workload.setup(1, str(tmp_path))
    phase = timed_phase(workload, seconds=0.5, min_items=3)
    assert len(phase.latencies) == len(phase.cpus) >= 3
    assert phase.failed == 1


def test_survey_check_rejects_a_wrong_aggregate(tmp_path):
    workload = Survey()
    workload.setup(2, str(tmp_path))
    output = workload.item(0)
    assert workload.check(0, output)
    output.topic_counts[0] += 1
    assert not workload.check(0, output)


def test_traced_wrappers_are_removed_afterwards(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    recorder = layers.Recorder(str(spool))
    installation = layers.install(recorder)
    replaced = list(installation.replaced)
    try:
        assert len(replaced) > len(layers.TARGETS)
        assert all(vars(o)[a] is not orig for o, a, orig in replaced)
        workload = Survey()
        workload.setup(1, str(tmp_path))
        assert workload.check(0, workload.item(0))
    finally:
        installation.remove()
    assert all(vars(o)[a] is orig for o, a, orig in replaced)
    recorder.merge_spool()
    # The survey's chunks are synthesized in the pool workers.
    assert recorder.spans["core.pipeline.synthesize_batch"][2] > 0
    assert recorder.spans["pool.worker"][2] > 0
    assert recorder.spans["pool.fanout"][2] == 1


def test_edit_schedule_invalidates_the_same_cone_count(tmp_path):
    workload = LintEdit()
    workload.setup(5, str(tmp_path))
    filled = workload.cache_entries()
    for i in range(expect.PROJECTS + 1):
        output = workload.item(i)
        assert output.stats["analysis.ip.scc.analyzed"] == expect.CONES_PER_EDIT
        assert output.stats["analysis.ip.summary.analyzed"] == 1
        assert workload.check(i, output)
        assert workload.cache_entries() > filled
        workload.reset(i)
        assert workload.cache_entries() == filled


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    recorder = layers.Recorder(str(tmp_path))
    per_layer = layers.layer_metrics(recorder, 1, 1.0, 0.0)
    assert {name: unit for name, (_, unit) in per_layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lint_edit",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert set(result["metrics"]) == set(names)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in names)


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("__init__.py", "run.py"):
        (bench / name).write_text(
            open(os.path.join(ROOT, "perfbench", name), encoding="utf-8").read()
        )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
