"""Per-layer tracing from outside the program.

:func:`install` wraps public functions of each layer so that every call
records a span; :func:`remove` puts the originals back.  Self time is a
span's duration minus the time its child spans cover.  Pool workers are
forked after the wrappers are in place, so they trace too: each worker
appends its spans to a spool file when its top-level span ends, and the
parent merges the spool into one :class:`Recorder`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The benchmark's own span around each item.
ITEM_SPAN = "bench.item"

#: (span name, [(module, attribute path), ...], result hook).  Targets
#: that hold the same function object share one wrapper, which keeps
#: pool entry points picklable by reference.
_Hook = Optional[Callable[["Recorder", Any], None]]


def _hit_miss(prefix: str) -> Callable[["Recorder", Any], None]:
    def hook(rec: "Recorder", result: Any) -> None:
        rec.count(f"{prefix}.hits" if result is not None else f"{prefix}.misses")

    return hook


def _explored(rec: "Recorder", result: Any) -> None:
    rec.count("verify.schedules", result.schedules_explored)
    rec.count("verify.pruned", result.schedules_pruned)


_ENGINE_CACHE = "repro.analysis.engine.cache"
_IP_CACHE = "repro.analysis.ip.cache"

TARGETS: List[Tuple[str, List[Tuple[str, str]], _Hook]] = [
    # survey
    ("core.pipeline.shard_survey", [("repro.core.pipeline", "shard_survey")], None),
    ("core.pipeline.synthesize_batch",
     [("repro.core.pipeline", "synthesize_batch")], None),
    ("core.batch.from_batch", [("repro.core.batch", "SurveyAggregate.from_batch")], None),
    ("core.batch.merge", [("repro.core.batch", "SurveyAggregate.merge")], None),
    # pool worker entry points
    ("pool.worker", [("repro.core.pipeline", "_aggregate_chunk")], None),
    ("pool.worker", [("repro.analysis.engine.pool", "_analyze_chunk")], None),
    ("pool.worker", [("repro.analysis.ip.summaries", "summarize_chunk"),
                     ("repro.analysis.ip.engine", "summarize_chunk")], None),
    ("pool.worker", [("repro.verify.explorer", "_explore_subtree")], None),
    # analysis engine
    ("analysis.engine.load", [("repro.analysis.engine.passes", "AnalyzerPass.load")], None),
    ("analysis.engine.digest", [(_ENGINE_CACHE, "content_digest"),
                                ("repro.analysis.engine.core", "content_digest"),
                                ("repro.analysis.ip.engine", "content_digest")], None),
    ("analysis.engine.cache.get", [(_ENGINE_CACHE, "FindingsCache.get"),
                                   (_ENGINE_CACHE, "MemoryCache.get")],
     _hit_miss("analysis.engine.cache")),
    ("analysis.engine.cache.put", [(_ENGINE_CACHE, "FindingsCache.put"),
                                   (_ENGINE_CACHE, "MemoryCache.put")], None),
    ("analysis.engine.run_units", [("repro.analysis.engine.pool", "run_units")], None),
    ("analysis.engine.merge", [("repro.analysis.engine.core", "merge_outcomes")], None),
    ("analysis.engine.render", [("repro.analysis.engine.cli", "render_report")], None),
    ("analysis.lint.analyze", [("repro.analysis.engine.passes", "LintPass.analyze")], None),
    # whole-program phase
    ("analysis.ip.finalize", [("repro.analysis.ip.engine", "WholeProgramEngine.finalize")],
     None),
    ("analysis.ip.summarize", [("repro.analysis.ip.summaries", "summarize_module"),
                               ("repro.analysis.ip.engine", "summarize_module")], None),
    ("analysis.ip.summary_cache.get", [(_IP_CACHE, "SummaryCache.get_summary"),
                                       (_IP_CACHE, "MemorySummaryCache.get_summary")],
     _hit_miss("analysis.ip.summary_cache")),
    ("analysis.ip.summary_cache.put", [(_IP_CACHE, "SummaryCache.put_summary"),
                                       (_IP_CACHE, "MemorySummaryCache.put_summary")], None),
    ("analysis.ip.cone_cache.get", [(_IP_CACHE, "SummaryCache.get_cone"),
                                    (_IP_CACHE, "MemorySummaryCache.get_cone")],
     _hit_miss("analysis.ip.cone_cache")),
    ("analysis.ip.cone_cache.put", [(_IP_CACHE, "SummaryCache.put_cone"),
                                    (_IP_CACHE, "MemorySummaryCache.put_cone")], None),
    ("analysis.ip.link", [("repro.analysis.ip.engine", "ProgramIndex")], None),
    ("analysis.ip.cone", [("repro.analysis.ip.engine", "analyze_cone")], None),
    # grading and the dynamic rungs
    ("pedagogy.grade", [("repro.pedagogy.autograder", "Autograder.grade")], None),
    ("pedagogy.checker", [("repro.pedagogy.exercise", "Exercise.grade")], None),
    ("verify.explore", [("repro.verify.explorer", "explore_source")], _explored),
    ("sanitizers.run_source", [("repro.sanitizers.runner", "run_source"),
                               ("repro.verify.explorer", "run_source")], None),
    ("sanitizers.instrument", [("repro.sanitizers.runner", "instrument_source")], None),
]

#: ``AnalysisEngine.run`` spans are named after the pass they run.
_ENGINE_RUN = ("repro.analysis.engine.core", "AnalysisEngine.run")
#: Modules that name ``ProcessPoolExecutor``; the traced subclass times
#: each pool from construction to shutdown as ``pool.fanout``.
_POOL_SITES = [
    ("concurrent.futures", "ProcessPoolExecutor"),
    ("repro.core.pipeline", "ProcessPoolExecutor"),
    ("repro.verify.explorer", "ProcessPoolExecutor"),
]


class Recorder:
    """Span self times, call counts and counters for one traced phase."""

    def __init__(self, spool_dir: str, keep_events: bool = True) -> None:
        self.spool_dir = spool_dir
        self.keep_events = keep_events
        self.parent_pid = self.pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self._local = threading.local()
        #: name -> [self seconds, inclusive seconds, calls]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        #: Self seconds of layer spans recorded in the parent process.
        self.parent_self_s = 0.0
        #: Pool wall seconds times pool width.
        self.pool_capacity_s = 0.0
        #: (name, start, end, tid) for the Chrome trace.
        self.events: List[Tuple[str, float, float, str]] = []

    @property
    def in_worker(self) -> bool:
        return self.pid != self.parent_pid

    def _stack(self) -> List[List[Any]]:
        if os.getpid() != self.pid:  # a freshly forked pool worker
            self.pid = os.getpid()
            self._reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append([name, time.perf_counter(), 0.0])

    def exit(self, name: str) -> float:
        end = time.perf_counter()
        stack = self._stack()
        top, start, child = stack.pop()
        if top != name:
            raise RuntimeError(f"span {name!r} closed while {top!r} is open")
        duration = end - start
        if stack:
            stack[-1][2] += duration
        stat = self.spans.setdefault(name, [0.0, 0.0, 0])
        stat[0] += duration - child
        stat[1] += duration
        stat[2] += 1
        if not self.in_worker and name != ITEM_SPAN:
            self.parent_self_s += duration - child
        if self.keep_events:
            tid = f"worker-{self.pid}" if self.in_worker else "main"
            self.events.append((name, start, end, tid))
        if self.in_worker and not stack:
            self._flush()
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self._stack()
        self.counters[name] = self.counters.get(name, 0) + amount

    def _flush(self) -> None:
        record = {
            "spans": self.spans,
            "counters": self.counters,
            "events": self.events,
        }
        path = os.path.join(self.spool_dir, f"{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.counters, self.events = {}, {}, []

    def merge_spool(self) -> None:
        """Fold every worker's spooled spans into this recorder."""
        for fname in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, fname), encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    for name, (self_s, incl_s, calls) in record["spans"].items():
                        stat = self.spans.setdefault(name, [0.0, 0.0, 0])
                        stat[0] += self_s
                        stat[1] += incl_s
                        stat[2] += calls
                    for name, amount in record["counters"].items():
                        self.counters[name] = self.counters.get(name, 0) + amount
                    self.events.extend(tuple(e) for e in record["events"])


def _traced(rec: Recorder, fn: Callable, name: Any, hook: _Hook) -> Callable:
    """``fn`` wrapped in a span; ``name`` is a string or a function of
    the call's arguments."""

    @functools.wraps(fn, updated=())
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = name(args) if callable(name) else name
        rec.enter(span)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:  # before exit, which may flush a worker
                hook(rec, result)
        finally:
            rec.exit(span)
        return result

    return traced


def _traced_pool(rec: Recorder, base: type) -> type:
    class TracedPool(base):  # type: ignore[misc, valid-type]
        def __init__(self, max_workers: Optional[int] = None, *args: Any, **kwargs: Any):
            super().__init__(max_workers, *args, **kwargs)
            self._bench_width = max_workers or os.cpu_count() or 1
            self._bench_open = True
            rec.enter("pool.fanout")

        def shutdown(self, wait: bool = True, **kwargs: Any) -> None:
            super().shutdown(wait, **kwargs)
            if self._bench_open:
                self._bench_open = False
                rec.pool_capacity_s += rec.exit("pool.fanout") * self._bench_width

    TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
    return TracedPool


class Installation:
    """The wrappers currently in place, and the originals they replaced."""

    def __init__(self) -> None:
        #: (owner, attribute, original as stored in the owner's dict)
        self.replaced: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, new: Any) -> None:
        self.replaced.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced = []


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(rec: Recorder) -> Installation:
    """Wrap every layer target so its calls record into ``rec``."""
    inst = Installation()
    wrappers: Dict[int, Any] = {}
    for name, sites, hook in TARGETS:
        for module, path in sites:
            owner, attr = _resolve(module, path)
            stored = vars(owner)[attr]
            if id(stored) not in wrappers:
                if isinstance(stored, classmethod):
                    wrappers[id(stored)] = classmethod(
                        _traced(rec, stored.__func__, name, hook)
                    )
                else:
                    wrappers[id(stored)] = _traced(rec, stored, name, hook)
            inst._set(owner, attr, wrappers[id(stored)])
    owner, attr = _resolve(*_ENGINE_RUN)
    inst._set(
        owner,
        attr,
        _traced(
            rec,
            vars(owner)[attr],
            lambda args: f"analysis.engine.run.{args[0].pass_.kind}",
            None,
        ),
    )
    pools: Dict[int, type] = {}
    for module, attr in _POOL_SITES:
        owner, _ = _resolve(module, attr)
        base = getattr(owner, attr)  # concurrent.futures binds the name lazily
        if id(base) not in pools:
            pools[id(base)] = _traced_pool(rec, base)
        inst._set(owner, attr, pools[id(base)])
    return inst


# -- per-layer metrics -------------------------------------------------------

#: Metrics whose value is summed self time per item, in ms.
SELF_MS = [
    "core.pipeline.synthesize_batch",
    "core.batch.from_batch",
    "core.batch.merge",
    "core.pipeline.shard_survey",
    "pool.fanout",
    "analysis.lint.analyze",
    "analysis.ip.summarize",
    "analysis.engine.cache.put",
    "analysis.ip.summary_cache.put",
    "analysis.engine.run_units",
    "analysis.engine.render",
    "analysis.engine.load",
    "analysis.engine.digest",
    "analysis.engine.cache.get",
    "analysis.ip.summary_cache.get",
    "analysis.ip.link",
    "analysis.ip.cone",
    "analysis.engine.merge",
    "pedagogy.grade",
    "pedagogy.checker",
    "analysis.engine.run.lint",
    "analysis.engine.run.sanitize",
    "sanitizers.run_source",
    "sanitizers.instrument",
]
#: Metrics whose value is a call count per item.
CALLS = [
    "analysis.lint.analyze",
    "analysis.ip.summarize",
    "analysis.ip.cone",
    "sanitizers.run_source",
    "sanitizers.instrument",
]
#: Counters reported per item.
COUNTERS = [
    "analysis.engine.cache.hits",
    "analysis.engine.cache.misses",
    "analysis.ip.summary_cache.hits",
    "analysis.ip.cone_cache.hits",
    "verify.schedules",
    "verify.pruned",
]


def layer_metrics(
    rec: Recorder, items: int, item_wall_s: float, overhead_share: float
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``; layers the
    workload never reached read 0."""

    def stat(name: str, field: int) -> float:
        return rec.spans.get(name, [0.0, 0.0, 0])[field]

    per = 1.0 / max(items, 1)
    out: Dict[str, Tuple[float, str]] = {}
    for name in SELF_MS:
        out[f"{name}.ms"] = (stat(name, 0) * 1e3 * per, "ms")
    for name in CALLS:
        out[f"{name}.calls"] = (stat(name, 2) * per, "count")
    for name in COUNTERS:
        out[name] = (rec.counters.get(name, 0) * per, "count")
    busy = stat("pool.worker", 1)
    out["pool.worker_busy.ms"] = (busy * 1e3 * per, "ms")
    capacity = rec.pool_capacity_s
    out["pool.idle_share"] = (1.0 - busy / capacity if capacity else 0.0, "ratio")
    # verify.explore.ms is inclusive; self_ms excludes the schedules run.
    out["verify.explore.ms"] = (stat("verify.explore", 1) * 1e3 * per, "ms")
    out["verify.explore.self_ms"] = (stat("verify.explore", 0) * 1e3 * per, "ms")
    out["verify.explore.calls_per_item"] = (stat("verify.explore", 2) * per, "count")
    run_source = stat("sanitizers.run_source", 1)
    out["sanitizers.instrument.share"] = (
        stat("sanitizers.instrument", 1) / run_source if run_source else 0.0,
        "ratio",
    )
    out["trace.overhead_share"] = (overhead_share, "ratio")
    out["trace.self_coverage"] = (
        rec.parent_self_s / item_wall_s if item_wall_s else 0.0,
        "ratio",
    )
    return out


def write_chrome_trace(rec: Recorder, path: str) -> None:
    """Write the recorded spans as one Chrome trace via the runtime's
    :class:`~repro.runtime.Tracer`, each process on its own timeline."""
    from repro.runtime import Tracer

    tracer = Tracer()
    if not rec.events:
        tracer.write_chrome_trace(path)
        return
    epoch = min(start for _, start, _, _ in rec.events)

    def us(t: float) -> int:
        return int(round((t - epoch) * 1e6))

    by_tid: Dict[str, List[Tuple[str, float, float]]] = {}
    for name, start, end, tid in rec.events:
        by_tid.setdefault(tid, []).append((name, start, end))
    for tid, spans in sorted(by_tid.items()):
        open_spans: List[Tuple[str, float]] = []
        for name, start, end in sorted(spans, key=lambda s: (s[1], -s[2])):
            while open_spans and open_spans[-1][1] <= start:
                done, done_end = open_spans.pop()
                tracer.end(done, cat=done.split(".")[0], tid=tid, ts_us=us(done_end))
            tracer.begin(name, cat=name.split(".")[0], tid=tid, ts_us=us(start))
            open_spans.append((name, end))
        while open_spans:
            done, done_end = open_spans.pop()
            tracer.end(done, cat=done.split(".")[0], tid=tid, ts_us=us(done_end))
    tracer.write_chrome_trace(path)
