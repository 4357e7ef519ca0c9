"""Coverage matrices and the §III weighted-sum analysis.

The paper's survey method: "The collected data was studied with a focus
on required courses that included PDC components … A weighted sum of all
courses that tackle specific components of the PDC knowledge area was
computed."  :class:`CoverageMatrix` builds the topics × courses incidence
matrix of one program (NumPy, so all aggregate statistics are one
vectorized reduction), and the module-level functions aggregate across
many programs — the computation behind Figs. 2 and 3.

Since the columnar refactor, the aggregate functions are thin adapters
over :mod:`repro.core.batch`: each encodes the program list **once** as
a :class:`~repro.core.batch.ProgramBatch` and reduces it in a single
vectorized pass (the old code rebuilt every program's matrix per
statistic).  The equivalence with the per-program object math is
test-enforced; :class:`CoverageMatrix` remains the object API for
single-program audits (compliance, advisor, examples).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

import numpy as np

from repro.core.batch import ProgramBatch, SurveyAggregate, _course_type_percentages
from repro.core.program import Program
from repro.core.taxonomy import CourseType, PdcTopic

__all__ = [
    "CoverageMatrix",
    "weighted_topic_scores",
    "topic_program_counts",
    "course_type_percentages",
]

_TOPICS = list(PdcTopic)
_TOPIC_POS = {t: i for i, t in enumerate(_TOPICS)}


@dataclasses.dataclass
class CoverageMatrix:
    """The (14 topics) × (n courses) depth matrix of one program.

    ``matrix[i, j]`` is the :class:`~repro.core.course.Depth` weight with
    which course ``j`` treats topic ``i`` (0 = untouched).  Only required
    courses enter the matrix — accreditation's unit of analysis.
    """

    program: Program
    matrix: np.ndarray
    course_codes: List[str]
    course_types: List[CourseType]

    @classmethod
    def of(cls, program: Program) -> "CoverageMatrix":
        """Build the matrix for ``program``'s required courses."""
        courses = program.required_courses()
        matrix = np.zeros((len(_TOPICS), len(courses)), dtype=float)
        for j, course in enumerate(courses):
            for topic, depth in course.coverage_map().items():
                matrix[_TOPIC_POS[topic], j] = float(int(depth))
        return cls(
            program=program,
            matrix=matrix,
            course_codes=[c.code for c in courses],
            course_types=[c.course_type for c in courses],
        )

    # -- per-program statistics (all vectorized) ---------------------------
    def topic_weights(self) -> Dict[PdcTopic, float]:
        """§III's weighted sum per topic: sum of depths across courses."""
        sums = self.matrix.sum(axis=1)
        return {t: float(sums[i]) for i, t in enumerate(_TOPICS)}

    def topic_course_counts(self) -> Dict[PdcTopic, int]:
        """Unweighted variant (the ablation): courses touching each topic."""
        counts = (self.matrix > 0).sum(axis=1)
        return {t: int(counts[i]) for i, t in enumerate(_TOPICS)}

    def covered_topics(self) -> List[PdcTopic]:
        """Topics with nonzero coverage."""
        mask = self.matrix.sum(axis=1) > 0
        return [t for i, t in enumerate(_TOPICS) if mask[i]]

    def pdc_courses(self) -> List[str]:
        """Codes of courses carrying any PDC coverage."""
        mask = self.matrix.sum(axis=0) > 0
        return [c for c, m in zip(self.course_codes, mask) if m]

    def total_weight(self) -> float:
        """The program's total PDC weight (its overall emphasis score)."""
        return float(self.matrix.sum())


def weighted_topic_scores(
    programs: Sequence[Program], weighted: bool = True
) -> Dict[PdcTopic, float]:
    """Aggregate topic scores across programs (the Fig. 2 computation).

    With ``weighted=True``, depth weights contribute (the paper's
    method); with ``False``, each covering course counts 1 (the
    ablation).  Scores are summed over programs — one columnar encode,
    one vectorized reduction.
    """
    batch = ProgramBatch.from_programs(programs)
    depth = batch.depth
    if not batch.required.all():  # electives are masked out
        depth = depth[batch.required]
    totals = (depth if weighted else depth > 0).sum(axis=0, dtype=np.int64)
    return {t: float(totals[i]) for i, t in enumerate(_TOPICS)}


def topic_program_counts(programs: Sequence[Program]) -> Dict[PdcTopic, int]:
    """How many programs cover each topic at all (Fig. 2's bar heights)."""
    counts = SurveyAggregate.of_programs(programs).topic_counts
    return {t: int(counts[i]) for i, t in enumerate(_TOPICS)}


def course_type_percentages(programs: Sequence[Program]) -> Dict[CourseType, float]:
    """Fig. 3's series: of all PDC-carrying required courses across the
    surveyed programs, what percentage is of each course type?"""
    return _course_type_percentages(
        SurveyAggregate.of_programs(programs).course_type_counts
    )
