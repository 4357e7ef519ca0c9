"""Columnar program batches and mergeable survey aggregates.

The object API (:class:`~repro.core.coverage.CoverageMatrix` per program)
is the right unit for *one* accreditation audit; it is the wrong unit for
the ROADMAP's "survey at planetary scale".  This module is the columnar
half of the refactor:

- :class:`ProgramBatch` encodes *many* programs at once as flat NumPy
  arrays — one ``(courses × topics)`` int8 depth tensor plus CSR-style
  program offsets and per-course type/credit/required columns — so every
  §III statistic is a vectorized reduction instead of a Python loop.
- :class:`SurveyAggregate` holds the partial sums behind Fig. 2 (topic
  program counts, weighted topic sums) and Fig. 3 (PDC course counts by
  course type).  Aggregates obey a **merge law**: ``merge`` is
  associative and commutative with :meth:`SurveyAggregate.empty` as the
  identity, so a survey can be aggregated chunk by chunk (or shard by
  shard) and combined in any grouping — the property the streaming
  driver in :mod:`repro.core.pipeline` is built on.

The reduction works on the integer depths directly: per-program coverage
is one segmented OR (``np.logical_or.reduceat``) over the starts of the
non-empty programs, and weighted topic sums are integer sums cast to
float64 once, at the end.

Equivalence invariant (test-enforced): for any program list,
``SurveyAggregate.from_batch(ProgramBatch.from_programs(ps)).to_analysis()``
equals the legacy object-path :class:`~repro.core.survey.SurveyAnalysis`
— exactly, because every sum is over small integers: the weighted sums
are accumulated in int64 and stay integer-valued float64 after the cast,
so merging them in any order is exact too.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Sequence, TYPE_CHECKING

import numpy as np

from repro.core.program import Program
from repro.core.taxonomy import CourseType, PdcTopic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.survey import SurveyAnalysis

__all__ = ["ProgramBatch", "SurveyAggregate", "batch_programs"]

_TOPICS: List[PdcTopic] = list(PdcTopic)
_TOPIC_POS: Dict[PdcTopic, int] = {t: i for i, t in enumerate(_TOPICS)}
_CTYPES: List[CourseType] = list(CourseType)
_CTYPE_POS: Dict[CourseType, int] = {ct: i for i, ct in enumerate(_CTYPES)}
_DEDICATED_POS = _CTYPE_POS[CourseType.PARALLEL_PROGRAMMING]


@dataclasses.dataclass
class ProgramBatch:
    """A columnar encoding of ``P`` programs with ``C`` total courses.

    ``depth[c, t]`` is course ``c``'s depth weight on topic ``t`` (0 =
    untouched); ``program_offsets`` is the CSR row-pointer array mapping
    program ``p`` to its course rows ``offsets[p]:offsets[p+1]`` (empty
    programs are legal); ``course_type``, ``credits`` and ``required``
    are per-course columns.  Electives stay in the encoding with
    ``required=False`` — aggregation masks them out, mirroring the object
    path's "required courses are accreditation's unit of analysis".
    """

    depth: np.ndarray  # (C, len(PdcTopic)) int8, Depth values 0..3
    program_offsets: np.ndarray  # (P + 1,) int64
    course_type: np.ndarray  # (C,) int16, index into list(CourseType)
    credits: np.ndarray  # (C,) float64
    required: np.ndarray  # (C,) bool

    def __post_init__(self) -> None:
        if self.depth.shape[1] != len(_TOPICS):
            raise ValueError("depth must have one column per PdcTopic")
        if self.program_offsets[0] != 0 or self.program_offsets[-1] != len(
            self.depth
        ):
            raise ValueError("program_offsets must span all course rows")

    @property
    def num_programs(self) -> int:
        """``P``: programs encoded in this batch."""
        return len(self.program_offsets) - 1

    @property
    def num_courses(self) -> int:
        """``C``: total course rows across all programs."""
        return len(self.depth)

    @property
    def nbytes(self) -> int:
        """Bytes held by the batch's arrays (the flat-memory meter)."""
        return (
            self.depth.nbytes
            + self.program_offsets.nbytes
            + self.course_type.nbytes
            + self.credits.nbytes
            + self.required.nbytes
        )

    @classmethod
    def empty(cls) -> "ProgramBatch":
        """The zero-program batch."""
        return cls(
            depth=np.zeros((0, len(_TOPICS)), dtype=np.int8),
            program_offsets=np.zeros(1, dtype=np.int64),
            course_type=np.zeros(0, dtype=np.int16),
            credits=np.zeros(0),
            required=np.zeros(0, dtype=bool),
        )

    @classmethod
    def from_programs(cls, programs: Sequence[Program]) -> "ProgramBatch":
        """Encode object programs columnar — one pass, no per-statistic
        matrix rebuilds."""
        n_courses = sum(len(p.courses) for p in programs)
        depth = np.zeros((n_courses, len(_TOPICS)), dtype=np.int8)
        offsets = np.zeros(len(programs) + 1, dtype=np.int64)
        ctype = np.zeros(n_courses, dtype=np.int16)
        credits = np.zeros(n_courses)
        required = np.zeros(n_courses, dtype=bool)
        row = 0
        for p, program in enumerate(programs):
            for course in program.courses:
                ctype[row] = _CTYPE_POS[course.course_type]
                credits[row] = course.credits
                required[row] = course.required
                for cov in course.coverage:
                    depth[row, _TOPIC_POS[cov.topic]] = int(cov.depth)
                row += 1
            offsets[p + 1] = row
        return cls(depth, offsets, ctype, credits, required)


def batch_programs(
    programs: Sequence[Program], chunk_size: int
) -> Iterator[ProgramBatch]:
    """Encode ``programs`` as a stream of fixed-size columnar chunks."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    for start in range(0, len(programs), chunk_size):
        yield ProgramBatch.from_programs(programs[start : start + chunk_size])


def _course_type_percentages(counts: np.ndarray) -> Dict[CourseType, float]:
    """Fig. 3 percentages from per-type PDC course counts, reproducing
    the legacy ordering and float arithmetic bit for bit."""
    total = int(counts.sum())
    if total == 0:
        return {}
    present = [(ct, int(counts[i])) for i, ct in enumerate(_CTYPES) if counts[i]]
    return {
        ct: 100.0 * n / total
        for ct, n in sorted(present, key=lambda kv: (-kv[1], kv[0].value))
    }


@dataclasses.dataclass(eq=False)
class SurveyAggregate:
    """Associatively mergeable partial sums of the §III analysis.

    Every field is a plain sum over programs/courses, so
    ``merge(a, merge(b, c)) == merge(merge(a, b), c)`` and
    ``empty()`` is the identity — aggregation order (chunking,
    sharding) cannot change the result.
    """

    num_programs: int
    dedicated_programs: int
    topic_weights: np.ndarray  # (len(PdcTopic),) float64: §III weighted sums
    topic_counts: np.ndarray  # (len(PdcTopic),) int64: programs covering topic
    course_type_counts: np.ndarray  # (len(CourseType),) int64: PDC courses

    @classmethod
    def empty(cls) -> "SurveyAggregate":
        """The merge identity: zero programs, zero sums."""
        return cls(
            num_programs=0,
            dedicated_programs=0,
            topic_weights=np.zeros(len(_TOPICS)),
            topic_counts=np.zeros(len(_TOPICS), dtype=np.int64),
            course_type_counts=np.zeros(len(_CTYPES), dtype=np.int64),
        )

    @classmethod
    def from_batch(cls, batch: ProgramBatch) -> "SurveyAggregate":
        """Single-pass vectorized aggregation of one columnar batch."""
        depth, required = batch.depth, batch.required
        offsets = batch.program_offsets
        covered = depth > 0
        if not required.all():  # electives are masked out
            covered &= required[:, None]
            depth = depth[required]
        # Segments are contiguous, so an empty program is a zero-length
        # segment: dropping its start leaves every other segment intact
        # (reduceat would otherwise read one row of the next program).
        starts = offsets[:-1][offsets[1:] > offsets[:-1]]
        per_program = np.logical_or.reduceat(covered, starts, axis=0)
        # einsum runs these reductions over 14-wide rows about twice as
        # fast as ndarray.any/sum; over bools its sum is a logical OR.
        pdc_course = np.einsum("ct->c", covered)
        weights = np.einsum("ct->t", depth, dtype=np.int64)
        dedicated_rows = np.flatnonzero(
            required & (batch.course_type == _DEDICATED_POS)
        )
        owners = np.searchsorted(offsets, dedicated_rows, side="right")
        return cls(
            num_programs=batch.num_programs,
            dedicated_programs=len(np.unique(owners)),
            topic_weights=weights.astype(np.float64),
            topic_counts=per_program.sum(axis=0, dtype=np.int64),
            course_type_counts=np.bincount(
                batch.course_type[pdc_course], minlength=len(_CTYPES)
            ).astype(np.int64),
        )

    @classmethod
    def of_programs(cls, programs: Sequence[Program]) -> "SurveyAggregate":
        """Encode + aggregate in one call (the legacy-adapter entry)."""
        return cls.from_batch(ProgramBatch.from_programs(programs))

    def merge(self, other: "SurveyAggregate") -> "SurveyAggregate":
        """The associative combine: elementwise sums of all partials."""
        return SurveyAggregate(
            num_programs=self.num_programs + other.num_programs,
            dedicated_programs=self.dedicated_programs
            + other.dedicated_programs,
            topic_weights=self.topic_weights + other.topic_weights,
            topic_counts=self.topic_counts + other.topic_counts,
            course_type_counts=self.course_type_counts
            + other.course_type_counts,
        )

    __add__ = merge

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurveyAggregate):
            return NotImplemented
        return (
            self.num_programs == other.num_programs
            and self.dedicated_programs == other.dedicated_programs
            and np.array_equal(self.topic_weights, other.topic_weights)
            and np.array_equal(self.topic_counts, other.topic_counts)
            and np.array_equal(
                self.course_type_counts, other.course_type_counts
            )
        )

    def to_analysis(self) -> "SurveyAnalysis":
        """Materialize the §III :class:`SurveyAnalysis` view."""
        from repro.core.survey import SurveyAnalysis

        return SurveyAnalysis(
            num_programs=self.num_programs,
            dedicated_course_programs=self.dedicated_programs,
            topic_counts={
                t: int(self.topic_counts[i]) for i, t in enumerate(_TOPICS)
            },
            topic_weights={
                t: float(self.topic_weights[i]) for i, t in enumerate(_TOPICS)
            },
            course_percentages=_course_type_percentages(
                self.course_type_counts
            ),
        )
