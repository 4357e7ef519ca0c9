"""Run one benchmark workload and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced, prints the per-layer metrics and
writes a Chrome trace to ``.perfbench/trace-<workload>.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the machine and the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up runs per benchmark run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Traced items whose spans go into the Chrome trace (all items count
#: toward the per-layer metrics).
TRACE_EVENT_ITEMS = 20
#: ``latency_p90_ms`` needs this many items; an untraced run goes on past
#: ``--seconds`` to reach them, but not past ``MAX_PHASE_S``, and leaves
#: the metric out if it still falls short.
P90_MIN_ITEMS = 100
MAX_PHASE_S = 90


def machine_info(workdir: str) -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    import multiprocessing
    import platform

    import numpy

    return {
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workdir_fs": filesystem_type(workdir),
    }


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (``tmpfs`` when inputs and
    caches live in memory)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def cpu_seconds() -> float:
    """CPU of this process plus every reaped child (pool workers), to the
    microsecond (``os.times`` counts in clock ticks)."""
    import resource

    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def peak_rss_mb() -> float:
    import resource

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def settle(path: str) -> None:
    """Flush the filesystem holding ``path`` to disk.

    Run before each timed set-up and at exit, so that a set-up does not
    pay for journal and writeback work an earlier set-up or run left.
    """
    import ctypes

    fd = os.open(path, os.O_RDONLY)
    try:
        if ctypes.CDLL(None, use_errno=True).syncfs(fd) != 0:
            os.sync()
    except AttributeError:  # no syncfs in this C library
        os.sync()
    finally:
        os.close(fd)


def set_up(name: str, seed: int, workdir: str, repeats: int) -> Tuple[Any, List[float]]:
    """Prepare the workload ``repeats`` times from scratch; keep the last.

    Each set-up builds the inputs, fills the caches and runs one warm-up
    item, all deterministic work; the median of the repeats is
    ``setup_s``.
    """
    from perfbench.workloads import WORKLOADS

    times: List[float] = []
    workload = None
    for r in range(repeats):
        target = os.path.join(workdir, f"setup-{r}")
        if workload is not None:
            shutil.rmtree(os.path.join(workdir, f"setup-{r - 1}"), ignore_errors=True)
        os.makedirs(target)
        workload = WORKLOADS[name]()
        gc.collect()
        settle(workdir)
        start = time.perf_counter()
        workload.setup(seed, target)
        ok = workload.warmup()
        times.append(time.perf_counter() - start)
        if not ok:
            raise RuntimeError(f"{name}: the warm-up item failed its check")
    settle(workdir)
    gc.collect()
    gc.freeze()
    return workload, times


class Phase(NamedTuple):
    """What a timed phase measured: each item's latency and CPU, and how
    many items failed."""

    latencies: List[float]
    cpus: List[float]
    failed: int


def timed_phase(
    workload: Any,
    seconds: float,
    first: int = 0,
    recorder: Optional[Any] = None,
    min_items: int = 1,
) -> Phase:
    """Run items ``first, first + 1, ...`` for ``seconds``, and on until
    ``min_items`` items have run or ``MAX_PHASE_S`` has passed.

    Only ``workload.item`` is inside an item's latency and CPU window;
    the collection before it and the check and reset after it are not.
    Pool workers are reaped inside the item, so their CPU counts.
    """
    from perfbench.layers import ITEM_SPAN

    latencies: List[float] = []
    cpus: List[float] = []
    failed = 0
    i = first
    started = time.perf_counter()

    def done() -> bool:
        elapsed = time.perf_counter() - started
        return bool(latencies) and elapsed >= seconds and (
            len(latencies) >= min_items or elapsed >= MAX_PHASE_S
        )

    while not done():
        if recorder is not None:
            recorder.keep_events = len(latencies) < TRACE_EVENT_ITEMS
        gc.collect()
        ok = True
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        if recorder is not None:
            recorder.enter(ITEM_SPAN)
        try:
            output = workload.item(i)
        except Exception:  # noqa: BLE001 - a raising item is a failed item
            traceback.print_exc()
            ok = False
        finally:
            if recorder is not None:
                recorder.exit(ITEM_SPAN)
        latencies.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        if ok:
            try:
                ok = bool(workload.check(i, output))
            except Exception:  # noqa: BLE001 - a malformed output fails its check
                traceback.print_exc()
                ok = False
        failed += not ok
        workload.reset(i)
        i += 1
    return Phase(latencies, cpus, failed)


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles`` cut point)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(
    workload: Any, seconds: float, setups: List[float]
) -> Tuple[Dict[str, Tuple[float, str]], int, int]:
    phase = timed_phase(workload, seconds, min_items=P90_MIN_ITEMS)
    items = len(phase.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (
            workload.units_per_item * items / sum(phase.latencies), "1/s"
        ),
        "latency_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "cpu_ms_per_item": (sum(phase.cpus) * 1e3 / items, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if items >= P90_MIN_ITEMS:
        metrics["latency_p90_ms"] = (percentile(phase.latencies, 90) * 1e3, "ms")
    else:
        print(f"perfbench: only {items} items in {MAX_PHASE_S} s; "
              f"latency_p90_ms left out", file=sys.stderr)
    return metrics, items, phase.failed


def traced(
    workload: Any, seconds: float, workdir: str, trace_path: str
) -> Tuple[Dict[str, Tuple[float, str]], int, int]:
    from perfbench import layers

    plain = timed_phase(workload, seconds / 2)
    spool = os.path.join(workdir, "spool")
    os.makedirs(spool)
    recorder = layers.Recorder(spool)
    installation = layers.install(recorder)
    try:
        spanned = timed_phase(
            workload, seconds / 2, first=len(plain.latencies), recorder=recorder
        )
    finally:
        installation.remove()
    recorder.merge_spool()
    overhead = (
        statistics.median(spanned.latencies) / statistics.median(plain.latencies) - 1.0
    )
    metrics = layers.layer_metrics(
        recorder, len(spanned.latencies), sum(spanned.latencies), overhead
    )
    layers.write_chrome_trace(recorder, trace_path)
    attempted = len(plain.latencies) + len(spanned.latencies)
    return metrics, attempted, plain.failed + spanned.failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no package source at {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload, setups = set_up(args.workload, args.seed, workdir, SETUP_REPEATS)
        if args.trace:
            trace_path = os.path.join(out_dir, f"trace-{args.workload}.json")
            metrics, attempted, failed = traced(
                workload, args.seconds, workdir, trace_path
            )
        else:
            metrics, attempted, failed = end_to_end(workload, args.seconds, setups)
        print(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "machine": machine_info(workdir),
            "setup_runs_s": setups,
            "error_rate": failed / attempted,
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        settle(out_dir)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
