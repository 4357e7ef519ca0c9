"""The streaming survey pipeline: §III at any scale, flat memory.

The paper analyzes 20 programs; the ROADMAP's north star demands the
same analysis at 1M+.  This driver gets there by never holding more
than one chunk of programs in memory:

1. programs are *synthesized directly in columnar form*
   (:func:`synthesize_batch`), one fixed-size
   :class:`~repro.core.batch.ProgramBatch` at a time — the chunk's RNG
   is a :class:`~repro.runtime.rng.RngService` stream named by the
   chunk's span, so any sharding of the same chunk grid draws the same
   programs;
2. each chunk is reduced to a
   :class:`~repro.core.batch.SurveyAggregate` the moment it is built;
3. aggregates are merged associatively — sequentially by
   :func:`stream_survey`, or across a process pool / ``repro.mp``
   rank-threads by :func:`shard_survey`, always in chunk order, so
   sequential and sharded runs produce *identical* aggregates
   (test-enforced).

A :class:`~repro.runtime.RunContext` makes the run observable
(``survey.programs``, ``survey.chunks.merged``,
``survey.batch.peak_bytes``, ``survey.programs_per_sec`` metrics and
per-chunk tracer spans) and deterministic (virtual clock ⇒ stable trace
digests).
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.batch import ProgramBatch, SurveyAggregate, _CTYPE_POS, _TOPIC_POS
from repro.core.mapping import TABLE_I
from repro.core.survey import (
    _DEDICATED_TOPICS,
    _MARKED_P,
    _SKELETON,
    _UNMARKED_P,
)
from repro.core.taxonomy import CourseType, PdcTopic
from repro.runtime import RngService, RunContext
from repro.mp.runtime import run_spmd

__all__ = ["ChunkSpec", "synthesize_batch", "stream_survey", "shard_survey"]

_N_TOPICS = len(PdcTopic)
_N_SLOTS = len(_SKELETON)
_SLOT_TYPES = np.array(
    [_CTYPE_POS[ctype] for ctype, _, _, _, _ in _SKELETON], dtype=np.int16
)
_SLOT_CREDITS = np.array([credits for _, _, _, credits, _ in _SKELETON])
_INTRO_SLOTS = np.array(
    [
        i
        for i, (ctype, _, _, _, _) in enumerate(_SKELETON)
        if ctype is CourseType.INTRO_PROGRAMMING
    ]
)
_INTRO_TOPICS = {PdcTopic.THREADS, PdcTopic.CLIENT_SERVER}
#: Depth lookup for ``rng.integers(0, 5)`` draws; int8, so the depth
#: tensor is int8 while the draw itself keeps its int64 stream.
_DEPTH_CHOICES = np.array([1, 1, 2, 2, 3], dtype=np.int8)
_DEDICATED_TYPE = np.int16(_CTYPE_POS[CourseType.PARALLEL_PROGRAMMING])

#: P[s, t]: probability that skeleton slot ``s`` covers topic ``t`` —
#: the survey generator's Table-I-calibrated incidence model, columnar.
_P_MATRIX = np.zeros((_N_SLOTS, _N_TOPICS))
for _s, (_ctype, _, _, _, _) in enumerate(_SKELETON):
    for _topic, _pos in _TOPIC_POS.items():
        marked = _ctype in TABLE_I[_topic]
        p = _MARKED_P.get(_ctype, 0.6) if marked else _UNMARKED_P
        if _ctype is CourseType.INTRO_PROGRAMMING:
            # Intro courses only ever brush threads/client-server, and
            # only in half the programs (the coin the gate draw flips).
            p = p if _topic in _INTRO_TOPICS else 0.0
        _P_MATRIX[_s, _pos] = p

_DEDICATED_ROW = np.zeros(_N_TOPICS, dtype=np.int8)
for _topic in _DEDICATED_TOPICS:
    _DEDICATED_ROW[_TOPIC_POS[_topic]] = 3


@dataclasses.dataclass(frozen=True)
class ChunkSpec:
    """One chunk of the survey grid: programs ``[start, start+count)``
    of an ``n``-program survey with root ``seed``.  Picklable, so it is
    also the unit of work shipped to pool workers."""

    start: int
    count: int
    seed: int
    dedicated_index: int = 0

    @property
    def stream_name(self) -> str:
        """The chunk's RNG stream: a pure function of its span, so the
        same chunk grid draws the same programs under any sharding."""
        return f"survey.programs.{self.start}+{self.count}"


def chunk_grid(n: int, chunk_size: int, seed: int, dedicated_index: int = 0):
    """The fixed chunk partition of an ``n``-program survey."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if n and not 0 <= dedicated_index < n:
        raise ValueError("dedicated_index out of range")
    return [
        ChunkSpec(start, min(chunk_size, n - start), seed, dedicated_index)
        for start in range(0, n, chunk_size)
    ]


def synthesize_batch(spec: ChunkSpec) -> ProgramBatch:
    """Synthesize one chunk of survey programs directly as a
    :class:`ProgramBatch` — no Program/Course objects, all draws
    vectorized over (programs × course slots × topics)."""
    rng = RngService(spec.seed).fresh_stream(spec.stream_name)
    k = spec.count
    incidence = rng.random((k, _N_SLOTS, _N_TOPICS)) < _P_MATRIX
    gate = rng.random((k, len(_INTRO_SLOTS))) < 0.5
    incidence[:, _INTRO_SLOTS, :] &= gate[:, :, None]
    depth = _DEPTH_CHOICES[rng.integers(0, 5, size=(k, _N_SLOTS, _N_TOPICS))]
    depth *= incidence  # in place: uncovered (slot, topic) pairs drop to 0
    depth = depth.reshape(k * _N_SLOTS, _N_TOPICS)

    course_type = np.tile(_SLOT_TYPES, k)
    credits = np.tile(_SLOT_CREDITS, k)
    offsets = np.arange(0, k * _N_SLOTS + 1, _N_SLOTS, dtype=np.int64)

    d = spec.dedicated_index - spec.start
    if 0 <= d < k:
        # The survey's single dedicated PDC course, appended to its
        # program's rows (mirrors generate_survey's CS440).
        row = (d + 1) * _N_SLOTS
        depth = np.insert(depth, row, _DEDICATED_ROW, axis=0)
        course_type = np.insert(course_type, row, _DEDICATED_TYPE)
        credits = np.insert(credits, row, 3.0)
        offsets = offsets + (np.arange(k + 1) > d)
    return ProgramBatch(
        depth=depth,
        program_offsets=offsets,
        course_type=course_type,
        credits=credits,
        required=np.ones(len(depth), dtype=bool),
    )


def _aggregate_chunk(spec: ChunkSpec) -> Tuple[int, SurveyAggregate, int]:
    """Worker body: synthesize + reduce one chunk.  Returns the chunk's
    start (for deterministic merge ordering) and the batch's bytes (for
    the flat-memory meter)."""
    batch = synthesize_batch(spec)
    return spec.start, SurveyAggregate.from_batch(batch), batch.nbytes


class _Meter:
    """Shared metric/tracing bookkeeping for both drivers."""

    def __init__(self, context: Optional[RunContext], total: int) -> None:
        self.context = context
        self.total = total
        self.peak_bytes = 0
        self._t0 = context.clock.now() if context else perf_counter()

    def chunk_done(self, spec: ChunkSpec, nbytes: int) -> None:
        self.peak_bytes = max(self.peak_bytes, nbytes)
        if self.context is None:
            return
        reg = self.context.registry
        reg.counter("survey.programs").inc(spec.count)
        reg.counter("survey.chunks.merged").inc()
        reg.gauge("survey.batch.peak_bytes").set(self.peak_bytes)
        self.context.tracer.instant(
            "survey.chunk.merged",
            cat="survey",
            tid="survey.driver",
            args={"start": spec.start, "count": spec.count},
        )

    def finish(self) -> None:
        if self.context is None:
            return
        elapsed = (self.context.clock.now() if self.context else 0.0) - self._t0
        if elapsed > 0:
            self.context.registry.gauge("survey.programs_per_sec").set(
                self.total / elapsed
            )


def stream_survey(
    n: int,
    seed: int = 2021,
    chunk_size: int = 8192,
    dedicated_index: int = 0,
    context: Optional[RunContext] = None,
    on_chunk: Optional[Callable[[int, int], None]] = None,
) -> SurveyAggregate:
    """Sequentially generate + analyze an ``n``-program survey in
    fixed-size chunks.  Memory stays flat at any ``n``: at most one
    chunk's batch is alive.  ``on_chunk(done, total)`` reports progress.
    """
    specs = chunk_grid(n, chunk_size, seed, dedicated_index)
    meter = _Meter(context, n)
    tracer = context.tracer if context else None
    agg = SurveyAggregate.empty()
    done = 0
    if tracer:
        tracer.begin("survey.stream", cat="survey", tid="survey.driver",
                     args={"n": n, "chunk_size": chunk_size})
    for spec in specs:
        if tracer:
            tracer.begin("survey.chunk", cat="survey", tid="survey.driver",
                         args={"start": spec.start})
        batch = synthesize_batch(spec)
        agg = agg.merge(SurveyAggregate.from_batch(batch))
        if tracer:
            tracer.end("survey.chunk", cat="survey", tid="survey.driver")
        meter.chunk_done(spec, batch.nbytes)
        done += spec.count
        if on_chunk is not None:
            on_chunk(done, n)
    if tracer:
        tracer.end("survey.stream", cat="survey", tid="survey.driver")
    meter.finish()
    return agg


def _mp_rank_main(comm, specs: List[ChunkSpec]):
    """SPMD body: each rank reduces its stride of the chunk grid."""
    return [_aggregate_chunk(spec) for spec in specs[comm.rank :: comm.size]]


def shard_survey(
    n: int,
    seed: int = 2021,
    chunk_size: int = 8192,
    workers: int = 4,
    backend: str = "process",
    dedicated_index: int = 0,
    context: Optional[RunContext] = None,
    on_chunk: Optional[Callable[[int, int], None]] = None,
) -> SurveyAggregate:
    """Shard the same chunk grid across workers and merge in chunk
    order — identical aggregates to :func:`stream_survey` by
    construction (same grid ⇒ same per-chunk RNG streams; ordered merge
    ⇒ same combine sequence).

    ``backend="process"`` fans chunks out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`;
    ``backend="mp"`` dogfoods :func:`repro.mp.runtime.run_spmd`,
    giving each rank-thread a stride of the grid.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    specs = chunk_grid(n, chunk_size, seed, dedicated_index)
    meter = _Meter(context, n)
    tracer = context.tracer if context else None
    if tracer:
        tracer.begin("survey.shard", cat="survey", tid="survey.driver",
                     args={"n": n, "workers": workers, "backend": backend})
    if backend == "process":
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_aggregate_chunk, specs))
    elif backend == "mp":
        per_rank = run_spmd(workers, _mp_rank_main, specs, context=context)
        parts = [item for rank_items in per_rank for item in rank_items]
    else:
        raise ValueError(f"unknown backend {backend!r}")

    agg = SurveyAggregate.empty()
    done = 0
    by_start = {start: (part, nbytes) for start, part, nbytes in parts}
    for spec in specs:  # merge in grid order, not completion order
        part, nbytes = by_start[spec.start]
        agg = agg.merge(part)
        meter.chunk_done(spec, nbytes)
        done += spec.count
        if on_chunk is not None:
            on_chunk(done, n)
    if tracer:
        tracer.end("survey.shard", cat="survey", tid="survey.driver")
    if context is not None:
        context.registry.gauge("survey.workers").set(workers)
    meter.finish()
    return agg
