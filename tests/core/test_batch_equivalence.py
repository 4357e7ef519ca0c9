"""The columnar refactor's equivalence invariant and merge law.

The legacy object path (per-program :class:`CoverageMatrix` loops) is
reimplemented here verbatim as the *reference*; the shipped
``analyze_survey`` now runs on :mod:`repro.core.batch` and must match it
exactly — counts are integers and the batch stores depth weights as int8
and sums them as integers, so equality is exact, not approximate.  A
generated-batch property test checks the columnar reduction against a
plain-Python per-program oracle on raw batches the survey generator
never makes (empty programs anywhere, electives, several dedicated rows).
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batch import ProgramBatch, SurveyAggregate, batch_programs
from repro.core.course import Course, Coverage, Depth
from repro.core.coverage import CoverageMatrix, weighted_topic_scores
from repro.core.program import Program
from repro.core.survey import SurveyAnalysis, analyze_survey, generate_survey
from repro.core.taxonomy import CourseType, PdcTopic
from repro.runtime import RunContext

_TOPICS = list(PdcTopic)
_CTYPES = list(CourseType)
_DEDICATED = _CTYPES.index(CourseType.PARALLEL_PROGRAMMING)


def reference_analysis(programs) -> SurveyAnalysis:
    """The pre-refactor object path, kept as the oracle."""
    totals = np.zeros(len(_TOPICS))
    counts = np.zeros(len(_TOPICS), dtype=int)
    for program in programs:
        cm = CoverageMatrix.of(program)
        totals += cm.matrix.sum(axis=1)
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
    percentages = (
        {}
        if total == 0
        else {
            ct: 100.0 * n / total
            for ct, n in sorted(
                type_counts.items(), key=lambda kv: (-kv[1], kv[0].value)
            )
        }
    )
    return SurveyAnalysis(
        num_programs=len(programs),
        dedicated_course_programs=sum(
            1 for p in programs if p.has_dedicated_pdc_course()
        ),
        topic_counts={t: int(counts[i]) for i, t in enumerate(_TOPICS)},
        topic_weights={t: float(totals[i]) for i, t in enumerate(_TOPICS)},
        course_percentages=percentages,
    )


def _mixed_program(name="Mixed"):
    return Program(
        name, name,
        courses=[
            Course("OS", "OS", CourseType.OPERATING_SYSTEMS,
                   coverage=[
                       Coverage(PdcTopic.THREADS, Depth.MASTERY),
                       Coverage(PdcTopic.IPC, Depth.EXPOSURE),
                   ]),
            Course("ARCH", "Arch", CourseType.ARCHITECTURE,
                   coverage=[Coverage(PdcTopic.THREADS, Depth.EXPOSURE)]),
            Course("MATH", "Math", CourseType.ALGORITHMS),
            Course("EL", "Elective", CourseType.NETWORKS, required=False,
                   coverage=[Coverage(PdcTopic.CLIENT_SERVER, Depth.MASTERY)]),
        ],
    )


class TestProgramBatchEncoding:
    def test_shapes_and_offsets(self):
        batch = ProgramBatch.from_programs([_mixed_program(), _mixed_program("B")])
        assert batch.num_programs == 2
        assert batch.num_courses == 8  # electives stay encoded, masked later
        assert list(batch.program_offsets) == [0, 4, 8]
        assert batch.nbytes > 0

    def test_elective_masked_out_of_aggregates(self):
        agg = SurveyAggregate.of_programs([_mixed_program()])
        pos = _TOPICS.index(PdcTopic.CLIENT_SERVER)
        assert agg.topic_weights[pos] == 0.0
        assert agg.topic_counts[pos] == 0

    def test_empty_program_and_empty_list(self):
        empty_prog = Program("E", "E", courses=[])
        agg = SurveyAggregate.of_programs([empty_prog, _mixed_program()])
        assert agg.num_programs == 2
        assert agg.topic_counts[_TOPICS.index(PdcTopic.THREADS)] == 1
        assert SurveyAggregate.of_programs([]) == SurveyAggregate.empty()

    def test_offsets_validated(self):
        with pytest.raises(ValueError):
            ProgramBatch(
                depth=np.zeros((2, len(_TOPICS))),
                program_offsets=np.array([0, 1], dtype=np.int64),
                course_type=np.zeros(2, dtype=np.int16),
                credits=np.zeros(2),
                required=np.ones(2, dtype=bool),
            )


class TestEquivalenceInvariant:
    @pytest.mark.parametrize("seed", [3, 7, 21, 99, 2021])
    @pytest.mark.parametrize("n", [1, 20, 257])
    def test_batch_equals_object_path(self, seed, n):
        """Property-style seed matrix: batch path == object path,
        exactly, for every survey size and seed."""
        programs = generate_survey(n=n, seed=seed, dedicated_index=0)
        assert analyze_survey(programs) == reference_analysis(programs)

    def test_seed_survey_exact(self):
        programs = generate_survey(seed=2021)
        assert analyze_survey(programs) == reference_analysis(programs)

    def test_case_studies_unchanged(self):
        from repro.core.casestudies import case_study_programs

        programs = case_study_programs()
        assert analyze_survey(programs) == reference_analysis(programs)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_weighted_topic_scores_match_object_path(self, weighted):
        """Fig. 2's scores, electives included, equal the sums of the
        per-program CoverageMatrix (required courses only)."""
        programs = generate_survey(n=20, seed=3, dedicated_index=0)
        programs += [_mixed_program(), Program("E", "E", courses=[])]
        totals = np.zeros(len(_TOPICS))
        for program in programs:
            matrix = CoverageMatrix.of(program).matrix
            totals += (matrix if weighted else matrix > 0).sum(axis=1)
        assert weighted_topic_scores(programs, weighted) == {
            t: float(totals[i]) for i, t in enumerate(_TOPICS)
        }


class TestMergeLaw:
    def test_identity(self):
        agg = SurveyAggregate.of_programs(generate_survey(n=5, seed=7,
                                                          dedicated_index=0))
        empty = SurveyAggregate.empty()
        assert empty.merge(agg) == agg
        assert agg.merge(empty) == agg

    def test_associativity_and_commutativity(self):
        chunks = [
            SurveyAggregate.of_programs(
                generate_survey(n=4, seed=s, dedicated_index=0)
            )
            for s in (1, 2, 3)
        ]
        a, b, c = chunks
        assert a.merge(b).merge(c) == a.merge(b.merge(c))
        assert a.merge(b) == b.merge(a)

    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 20, 64])
    def test_chunk_boundaries(self, chunk_size):
        """Aggregating chunk by chunk equals aggregating the whole list,
        at every chunk boundary including size-1 and oversize chunks."""
        programs = generate_survey(seed=2021)
        whole = SurveyAggregate.of_programs(programs)
        merged = SurveyAggregate.empty()
        for batch in batch_programs(programs, chunk_size):
            merged = merged.merge(SurveyAggregate.from_batch(batch))
        assert merged == whole
        assert merged.to_analysis() == whole.to_analysis()

    def test_empty_batch_merge(self):
        agg = SurveyAggregate.of_programs([_mixed_program()])
        assert agg.merge(SurveyAggregate.from_batch(ProgramBatch.empty())) == agg


# -- generated raw batches ---------------------------------------------------

#: One course row: (depth per topic, course-type index, required).
#: Dedicated-type rows are drawn often, so programs with several of them
#: and dedicated-type electives both come up.
_rows = st.tuples(
    st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]),
             min_size=len(_TOPICS), max_size=len(_TOPICS)),
    st.one_of(st.just(_DEDICATED), st.integers(0, len(_CTYPES) - 1)),
    st.booleans(),
)
#: A batch as a list of programs, each a (possibly empty) list of rows.
_programs = st.lists(st.lists(_rows, max_size=4), max_size=8)

_DED_REQ = ([3] * len(_TOPICS), _DEDICATED, True)
_DED_ELECTIVE = ([2] * len(_TOPICS), _DEDICATED, False)
_PLAIN = ([1] + [0] * (len(_TOPICS) - 1), 0, True)


def _raw_batch(programs) -> ProgramBatch:
    rows = [row for program in programs for row in program]
    return ProgramBatch(
        depth=np.array([r[0] for r in rows], dtype=np.int8).reshape(
            len(rows), len(_TOPICS)
        ),
        program_offsets=np.cumsum(
            [0] + [len(program) for program in programs], dtype=np.int64
        ),
        course_type=np.array([r[1] for r in rows], dtype=np.int16),
        credits=np.full(len(rows), 3.0),
        required=np.array([r[2] for r in rows], dtype=bool),
    )


def _oracle(programs) -> SurveyAggregate:
    """Per-program Python loops over the same rows, no NumPy reductions."""
    weights = [0] * len(_TOPICS)
    counts = [0] * len(_TOPICS)
    types = [0] * len(_CTYPES)
    dedicated = 0
    for program in programs:
        required = [(depth, ct) for depth, ct, req in program if req]
        dedicated += any(ct == _DEDICATED for _, ct in required)
        for t in range(len(_TOPICS)):
            weights[t] += sum(depth[t] for depth, _ in required)
            counts[t] += any(depth[t] > 0 for depth, _ in required)
        for depth, ct in required:
            types[ct] += any(d > 0 for d in depth)
    return SurveyAggregate(
        num_programs=len(programs),
        dedicated_programs=dedicated,
        topic_weights=np.array(weights, dtype=np.float64),
        topic_counts=np.array(counts, dtype=np.int64),
        course_type_counts=np.array(types, dtype=np.int64),
    )


class TestGeneratedBatches:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(programs=_programs)
    @example(programs=[])
    @example(programs=[[], [], [_PLAIN], [], [], [_PLAIN, _DED_REQ], [], []])
    @example(programs=[[_DED_REQ, _PLAIN, _DED_REQ], [_DED_ELECTIVE], []])
    @example(programs=[[_DED_ELECTIVE, _PLAIN], [], [_DED_REQ, _DED_REQ]])
    def test_from_batch_matches_oracle_at_every_split(self, programs):
        """from_batch equals the per-program oracle, and splitting the
        batch at any program boundary then merging changes nothing."""
        whole = SurveyAggregate.from_batch(_raw_batch(programs))
        assert whole == _oracle(programs)
        assert whole.topic_weights.dtype == np.float64
        for cut in range(len(programs) + 1):
            left = SurveyAggregate.from_batch(_raw_batch(programs[:cut]))
            right = SurveyAggregate.from_batch(_raw_batch(programs[cut:]))
            assert left.merge(right) == whole

    def test_constructors_agree_on_int8_depth(self):
        assert ProgramBatch.empty().depth.dtype == np.int8
        batch = ProgramBatch.from_programs([_mixed_program()])
        assert batch.depth.dtype == np.int8
        assert sorted(set(batch.depth.ravel())) == [0, 1, 3]


def _survey_digest(programs) -> str:
    blob = json.dumps(
        [
            [p.name, p.institution, p.discipline, p.accredited_since,
             [[c.code, c.title, c.course_type.value, c.credits, c.required,
               c.year,
               [[cv.topic.name, int(cv.depth)] for cv in c.coverage]]
              for c in p.courses]]
            for p in programs
        ],
        sort_keys=True,
    ).encode()
    return hashlib.sha256(blob).hexdigest()


class TestRngRouting:
    def test_seed_2021_byte_identical_golden(self):
        """The default survey must stay byte-identical across the RNG
        refactor (golden digest captured on the pre-refactor code)."""
        assert _survey_digest(generate_survey(seed=2021)) == (
            "9e83da4f541b33bd3466d3ddebfbb8c7bbb1a10b1b9e431318d6bf89c28481a9"
        )

    def test_second_seed_byte_identical_golden(self):
        assert _survey_digest(
            generate_survey(n=5, seed=7, dedicated_index=0)
        ) == (
            "c2d8e3e9694b7d31b09dbcde5c84c571cec5cf0ba7d0793ad0b66b7348ebe65b"
        )

    def test_context_stream_is_deterministic(self):
        a = generate_survey(n=5, dedicated_index=0, context=RunContext(seed=5))
        b = generate_survey(n=5, dedicated_index=0, context=RunContext(seed=5))
        assert _survey_digest(a) == _survey_digest(b)

    def test_context_root_seed_matters(self):
        a = generate_survey(n=5, dedicated_index=0, context=RunContext(seed=5))
        b = generate_survey(n=5, dedicated_index=0, context=RunContext(seed=6))
        assert _survey_digest(a) != _survey_digest(b)

    def test_draws_come_from_named_stream(self):
        """Generation really reads the ``survey.programs`` stream:
        advancing that stream beforehand changes the output."""
        ctx = RunContext(seed=5)
        ctx.rng.stream("survey.programs").random()
        shifted = generate_survey(n=5, dedicated_index=0, context=ctx)
        fresh = generate_survey(n=5, dedicated_index=0, context=RunContext(seed=5))
        assert _survey_digest(shifted) != _survey_digest(fresh)

    def test_other_streams_do_not_interfere(self):
        ctx = RunContext(seed=5)
        ctx.rng.stream("net.drops").random()
        a = generate_survey(n=5, dedicated_index=0, context=ctx)
        b = generate_survey(n=5, dedicated_index=0, context=RunContext(seed=5))
        assert _survey_digest(a) == _survey_digest(b)
