"""Metamorphic tests for the streaming survey pipeline.

The pipeline's determinism contract (module docstring of
:mod:`repro.core.pipeline`): the analysis is a pure function of the
chunk *grid*, not of how the grid is executed.  These tests state that
as metamorphic relations — transformations of the execution plan that
must leave ``SurveyAggregate.to_analysis()`` **bit-identical**:

- permuting the order chunk aggregates are merged in (each chunk sums
  its int8 depths as integers, so the float64 partial sums are
  integer-valued, floating-point addition of them is exact and the fold
  really is commutative *to the bit*, not just approximately);
- re-associating the fold (left fold vs pairwise tree);
- re-sharding the same grid across 1, 2, or 5 workers, on both the
  ``mp`` rank-thread backend and a real process pool, against the
  sequential driver as the baseline.

Bit-identity is asserted on a canonical byte encoding using
``float.hex()`` — equality of every bit of every float, not ``==`` with
tolerance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import SurveyAggregate
from repro.core.pipeline import (
    chunk_grid,
    shard_survey,
    stream_survey,
    synthesize_batch,
)
from repro.core.taxonomy import PdcTopic


def analysis_bytes(analysis) -> bytes:
    """A canonical byte encoding of a SurveyAnalysis: bit-exact floats."""
    blob = (
        analysis.num_programs,
        analysis.dedicated_course_programs,
        tuple((t.name, analysis.topic_counts[t]) for t in PdcTopic),
        tuple((t.name, float(analysis.topic_weights[t]).hex()) for t in PdcTopic),
        # items in the dict's own order: the Fig. 3 ranking is part of
        # the contract, so a reordering is a difference too
        tuple(
            (c.name, float(pct).hex())
            for c, pct in analysis.course_percentages.items()
        ),
    )
    return repr(blob).encode()


def _parts(n, chunk_size, seed=2021, dedicated_index=0):
    specs = chunk_grid(n, chunk_size, seed, dedicated_index)
    return [SurveyAggregate.from_batch(synthesize_batch(s)) for s in specs]


def _fold(parts):
    agg = SurveyAggregate.empty()
    for part in parts:
        agg = agg.merge(part)
    return agg


class TestMergeOrderMetamorphic:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_merge_permutation_is_bit_identical(self, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        chunk_size = data.draw(st.integers(min_value=1, max_value=17))
        dedicated = data.draw(st.integers(min_value=0, max_value=n - 1))
        parts = _parts(n, chunk_size, dedicated_index=dedicated)
        baseline = analysis_bytes(_fold(parts).to_analysis())
        order = data.draw(st.permutations(list(range(len(parts)))))
        permuted = _fold([parts[i] for i in order])
        assert analysis_bytes(permuted.to_analysis()) == baseline

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        chunk_size=st.integers(min_value=1, max_value=17),
    )
    def test_tree_fold_equals_left_fold(self, n, chunk_size):
        parts = _parts(n, chunk_size)
        left = _fold(parts)
        level = list(parts) or [SurveyAggregate.empty()]
        while len(level) > 1:  # pairwise reduction tree
            level = [
                _fold(level[i : i + 2]) for i in range(0, len(level), 2)
            ]
        assert analysis_bytes(level[0].to_analysis()) == analysis_bytes(
            left.to_analysis()
        )


class TestReshardingMetamorphic:
    def test_1_2_5_workers_bit_identical_to_stream(self):
        n, chunk_size, seed = 100, 16, 2021
        baseline = analysis_bytes(
            stream_survey(n, seed=seed, chunk_size=chunk_size).to_analysis()
        )
        for workers in (1, 2, 5):
            sharded = shard_survey(
                n, seed=seed, chunk_size=chunk_size,
                workers=workers, backend="mp",
            )
            assert analysis_bytes(sharded.to_analysis()) == baseline, workers

    def test_process_pool_bit_identical_to_stream(self):
        baseline = stream_survey(48, seed=7, chunk_size=8)
        pooled = shard_survey(
            48, seed=7, chunk_size=8, workers=2, backend="process"
        )
        assert analysis_bytes(pooled.to_analysis()) == analysis_bytes(
            baseline.to_analysis()
        )

    def test_dedicated_program_survives_resharding(self):
        # The one dedicated-course program must be counted exactly once
        # under any sharding — a classic double-count trap.
        for workers in (1, 2, 5):
            agg = shard_survey(
                40, seed=3, chunk_size=7, workers=workers,
                backend="mp", dedicated_index=23,
            )
            assert agg.dedicated_programs == 1
            assert agg.num_programs == 40
