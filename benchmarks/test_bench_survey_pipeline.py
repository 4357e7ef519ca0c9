"""Bench for the §III survey pipeline, object path and at scale.

Two parts:

- the seed-survey end-to-end bench (generate 20 programs -> analysis ->
  compliance), unchanged since the seed;
- the scale sweep: n ∈ {1k, 10k, 100k} through the columnar streaming
  driver, sequential vs sharded, against the pre-refactor object path
  (reimplemented here as the baseline).  Emits ``BENCH_survey.json`` at
  the repo root — the perf trajectory later PRs must move — with the
  machine it ran on (core count, start method, thread-cap variables,
  NumPy version) and a per-phase breakdown (synthesize / reduce / merge)
  of one sequential n=100k survey.

Sweep knobs (env): ``SURVEY_BENCH_SIZES`` (comma-separated n values),
``SURVEY_BENCH_BASELINE_N`` (object-path sample size; its programs/sec
rate is what the speedup is measured against).
"""

import json
import multiprocessing
import os
import resource
import statistics
import time

import numpy as np

from repro.core.compliance import Approach, check_program
from repro.core.coverage import CoverageMatrix
from repro.core.batch import SurveyAggregate
from repro.core.pipeline import (
    chunk_grid,
    shard_survey,
    stream_survey,
    synthesize_batch,
)
from repro.core.survey import analyze_survey, generate_survey
from repro.core.taxonomy import PdcTopic

_BENCH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_survey.json"
)


def test_bench_survey_end_to_end(benchmark):
    def pipeline():
        programs = generate_survey(seed=2021)
        analysis = analyze_survey(programs)
        reports = [check_program(p) for p in programs]
        return analysis, reports

    analysis, reports = benchmark(pipeline)
    approaches = [r.approach for r in reports]
    dedicated = approaches.count(Approach.DEDICATED_COURSE)
    distributed = approaches.count(Approach.DISTRIBUTED)
    print(f"\n  programs: {analysis.num_programs}")
    print(f"  compliant: {sum(1 for r in reports if r.compliant)}/20")
    print(f"  dedicated-course approach:  {dedicated}")
    print(f"  distributed approach:       {distributed}")
    mean_newhall = sum(r.newhall.score for r in reports) / len(reports)
    print(f"  mean Newhall score: {mean_newhall:.2f}/4")
    assert all(r.compliant for r in reports)
    assert dedicated == 1 and distributed == 19


# -- the scale sweep ----------------------------------------------------------

def _object_path_analysis(programs):
    """The pre-refactor §III analysis: three CoverageMatrix rebuilds per
    program — kept verbatim as the speedup baseline."""
    topics = list(PdcTopic)
    totals = np.zeros(len(topics))
    for program in programs:
        totals += CoverageMatrix.of(program).matrix.sum(axis=1)
    counts = np.zeros(len(topics), dtype=int)
    for program in programs:
        cm = CoverageMatrix.of(program)
        counts += (cm.matrix.sum(axis=1) > 0).astype(int)
    type_counts = {}
    total = 0
    for program in programs:
        for course in program.required_courses():
            if course.pdc_topics():
                type_counts[course.course_type] = (
                    type_counts.get(course.course_type, 0) + 1
                )
                total += 1
    return totals, counts, type_counts, total


def _rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _machine() -> dict:
    """What the numbers depend on besides the code."""
    return {
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")
        },
        "numpy": np.__version__,
    }


def _phases(n: int, chunk_size: int, seed: int, repeats: int = 5) -> dict:
    """Per-phase wall time of one sequential survey, in ms summed over
    its chunks: synthesize (``synthesize_batch``), reduce
    (``SurveyAggregate.from_batch``) and merge; median of ``repeats``."""
    runs = []
    for _ in range(repeats):
        totals = {"synthesize": 0.0, "reduce": 0.0, "merge": 0.0}
        agg = SurveyAggregate.empty()
        for spec in chunk_grid(n, chunk_size, seed):
            t0 = time.perf_counter()
            batch = synthesize_batch(spec)
            t1 = time.perf_counter()
            part = SurveyAggregate.from_batch(batch)
            t2 = time.perf_counter()
            agg = agg.merge(part)
            t3 = time.perf_counter()
            totals["synthesize"] += t1 - t0
            totals["reduce"] += t2 - t1
            totals["merge"] += t3 - t2
        assert agg.num_programs == n
        runs.append(totals)
    return {
        "n": n,
        "chunk_size": chunk_size,
        "repeats": repeats,
        "ms": {
            phase: round(statistics.median(r[phase] for r in runs) * 1e3, 3)
            for phase in ("synthesize", "reduce", "merge")
        },
    }


def test_bench_survey_scale_sweep():
    """Sweep the streaming pipeline and emit BENCH_survey.json."""
    sizes = [
        int(s)
        for s in os.environ.get(
            "SURVEY_BENCH_SIZES", "1000,10000,100000"
        ).split(",")
    ]
    baseline_n = int(os.environ.get("SURVEY_BENCH_BASELINE_N", "1000"))
    seed, chunk_size, workers = 2021, 8192, 4

    t0 = time.perf_counter()
    baseline_programs = generate_survey(n=baseline_n, seed=seed,
                                        dedicated_index=0)
    _object_path_analysis(baseline_programs)
    baseline_wall = time.perf_counter() - t0
    baseline_rate = baseline_n / baseline_wall
    del baseline_programs

    runs = []
    for n in sizes:
        for mode in ("sequential", "sharded"):
            rss_before = _rss_kb()
            t0 = time.perf_counter()
            if mode == "sequential":
                agg = stream_survey(n, seed=seed, chunk_size=chunk_size)
            else:
                agg = shard_survey(n, seed=seed, chunk_size=chunk_size,
                                   workers=workers)
            wall = time.perf_counter() - t0
            assert agg.num_programs == n and agg.dedicated_programs == 1
            runs.append({
                "n": n,
                "mode": mode,
                "workers": workers if mode == "sharded" else 1,
                "chunk_size": chunk_size,
                "wall_seconds": round(wall, 4),
                "programs_per_sec": round(n / wall, 1),
                "peak_rss_kb": _rss_kb(),
                "rss_growth_kb": _rss_kb() - rss_before,
            })
            print(f"\n  n={n:>7} {mode:<10} {n / wall:>12,.0f} programs/sec "
                  f"({wall:.3f}s, rss {_rss_kb() // 1024} MB)")

    # Memory stays flat whatever the chunk count: the peak RSS of the
    # largest run must not grow with (n / chunk_size).
    n_mem = max(sizes)
    memory = []
    for cs in (2048, 8192, 32768):
        rss_before = _rss_kb()
        stream_survey(n_mem, seed=seed, chunk_size=cs)
        memory.append({
            "n": n_mem,
            "chunk_size": cs,
            "chunks": -(-n_mem // cs),
            "peak_rss_kb": _rss_kb(),
            "rss_growth_kb": _rss_kb() - rss_before,
        })

    phases = _phases(100_000, chunk_size, seed)

    seq_rates = {r["n"]: r["programs_per_sec"] for r in runs
                 if r["mode"] == "sequential"}
    speedup = seq_rates[max(sizes)] / baseline_rate
    payload = {
        "benchmark": "survey_pipeline",
        "machine": _machine(),
        "phases": phases,
        "seed": seed,
        "baseline": {
            "path": "object (pre-refactor: 3x CoverageMatrix per program)",
            "n": baseline_n,
            "wall_seconds": round(baseline_wall, 4),
            "programs_per_sec": round(baseline_rate, 1),
        },
        "runs": runs,
        "memory_flat": memory,
        "speedup_vs_object_path": round(speedup, 1),
    }
    with open(_BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\n  phases at n=100000 (ms): {phases['ms']}")
    print(f"  object-path baseline: {baseline_rate:,.0f} programs/sec")
    print(f"  columnar speedup at n={max(sizes)}: {speedup:.1f}x")
    assert speedup >= 5.0, payload
