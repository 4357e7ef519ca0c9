"""Hand-written expectations every benchmark item is checked against.

Nothing here is computed by the code under test at run time: the survey
digests were pinned once from a reference run, the lint expectations
come from the fixtures' own ground truth (``expect_rules`` and
``expect_ip_rules``), and the grading verdicts are written out per kind.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet

# -- survey ------------------------------------------------------------------

#: Programs per survey item.
SURVEY_N = 100_000
#: Chunk size of the survey grid (``shard_survey``'s default).
SURVEY_CHUNK = 8192

#: ``aggregate_digest`` of ``shard_survey(SURVEY_N, seed=s, chunk_size=
#: SURVEY_CHUNK)`` for each survey seed ``s`` an item may draw (equal to
#: the sequential ``stream_survey`` digest when pinned).
SURVEY_DIGESTS: Dict[int, str] = {
    0: "7eafb90fe2ee3997",
    1: "be7c70f2b71f1123",
    2: "af0b8a17a1c4ffdb",
    3: "77b2b4dcadf64043",
    4: "822312f1877b66c9",
    5: "698cd1c5d8940206",
    6: "e102c9e4890d3d29",
    7: "0e65fcb0d177555c",
}

# -- lint --------------------------------------------------------------------

#: Fixture sources, in chain order, of every generated project: module
#: ``k`` of a project imports module ``k - 1``.
CHAIN = (
    "abba_deadlock_twin",
    "bare_acquire",
    "blocking_call_under_lock",
    "double_checked_singleton",
    "forkjoin_handoff_twin",
    "join_under_lock",
    "lock_handoff_twin",
    "locked_counter_twin",
    "mutable_default_worker",
    "notify_outside_lock",
    "ordered_locks_twin",
    "peterson_literal_twin",
    "peterson_lock_twin",
    "racy_counter_twin",
    "relock_self_deadlock",
    "sleep_under_lock",
    "spin_wait_flag",
    "suppressed_racy_counter",
    "wallclock_in_clocked_code",
)
#: Projects of identical shape in the generated tree.
PROJECTS = 6
#: Chain position the lint_edit items edit.  An edit there changes the
#: cones of itself and of every module after it in the chain.
EDIT_POSITION = 9
CONES_PER_EDIT = len(CHAIN) - EDIT_POSITION
#: Cross-module fixture pairs added to the tree, and the module of each
#: that owns the shared global (where ``expect_ip_rules`` is reported).
PAIRS = ("crossmod_handoff_pair", "crossmod_racy_pair")
PAIR_RACE_MODULE = "shared_state.py"

# -- grade -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GradeExpectation:
    """What the autograder must say about one kind of submission."""

    fraction: float
    static_rules: FrozenSet[str]
    dynamic_rules: FrozenSet[str]
    verify_rules: FrozenSet[str]
    proved: bool


_RACY = GradeExpectation(
    fraction=0.0,
    static_rules=frozenset({"PDC101"}),
    dynamic_rules=frozenset({"PDC301"}),
    verify_rules=frozenset({"PDC301"}),
    proved=True,
)

GRADE_EXPECT: Dict[str, GradeExpectation] = {
    "fix": GradeExpectation(
        fraction=1.0,
        static_rules=frozenset(),
        dynamic_rules=frozenset(),
        verify_rules=frozenset(),
        proved=True,
    ),
    "racy": _RACY,
    "abba": GradeExpectation(
        fraction=0.0,
        static_rules=frozenset({"PDC102"}),
        dynamic_rules=frozenset({"PDC302"}),
        verify_rules=frozenset({"PDC302"}),
        proved=True,
    ),
    "starter": _RACY,
}

#: One block of the grading mix; every block is a seeded shuffle of it.
#: The proportions keep the median inside the abba group and the 90th
#: percentile inside the racy/starter group, away from group boundaries.
GRADE_BLOCK = ("fix",) * 3 + ("abba",) * 3 + ("racy",) * 2 + ("starter",) * 2
