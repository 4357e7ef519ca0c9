"""PDC-Verify: stateless model checking over the sanitizer runner.

The ladder's last rung.  PDC-Lint reads a program (one abstraction of
every run), PDC-San executes it once (one schedule, really observed),
and this package executes it *under every relevant schedule*: a
cooperative scheduler turns each hook event of the deterministic runner
into a decision point, a depth-first explorer replays schedule prefixes
statelessly, and dynamic partial-order reduction (backtrack sets from
the FastTrack happens-before clocks, plus sleep sets) prunes the
interleavings that only differ in independent steps.

Any failing interleaving serializes to a one-line token
(:mod:`.token`) that replays byte-identically, the checker is the top
column of the ladder's one fixture × rung cross-validation matrix
(:mod:`.crossval`), and disjoint schedule subtrees fan out across a
process pool (:func:`.explorer.explore_fixture` with ``split``).
"""

from repro.verify.explorer import (
    ExploreBudget,
    VerifyResult,
    explore_fixture,
    explore_source,
    replay_fixture,
    replay_source,
)
from repro.verify.scheduler import ReplayScheduler, ScheduleTrace
from repro.verify.token import decode_token, encode_token

__all__ = [
    "ExploreBudget",
    "ReplayScheduler",
    "ScheduleTrace",
    "VerifyResult",
    "decode_token",
    "encode_token",
    "explore_fixture",
    "explore_source",
    "replay_fixture",
    "replay_source",
]
