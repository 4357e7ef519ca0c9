"""The explorer's verdict memo: a hit is the exploration it stands for.

``explore_source``/``explore_fixture`` drain each ``(target, mode,
budget)`` schedule tree once per process and answer repeats from a
bounded memo.  These tests pin the two ways that could go wrong: a hit
that differs from a fresh exploration, and a caller's edit to its
result leaking into the next caller's.
"""

import pytest

from repro.smp.fixtures import all_fixtures
from repro.verify import explorer
from repro.verify.explorer import (
    ExploreBudget,
    _explore,
    _fixture_target,
    explore_fixture,
    explore_source,
    fixture_budget,
)

RUNNABLE = [
    fix for fix in all_fixtures() if fix.dynamic_entry or fix.entrypoints
]


def verdict(result):
    """Everything a caller can observe about an exploration."""
    return (
        result.target,
        result.mode,
        [
            (f.rule, f.path, f.line, f.col, f.symbol, f.message)
            for f in result.findings
        ],
        list(result.errors),
        dict(result.tokens),
        result.schedules_explored,
        result.schedules_pruned,
        result.truncated_runs,
        result.complete,
        result.proved,
    )


@pytest.mark.parametrize("fix", RUNNABLE, ids=lambda fix: fix.name)
def test_memo_hit_equals_an_uncached_exploration(fix):
    explore_fixture(fix, mode="dpor")  # fills the memo (or already hit)
    hits = explorer._explore_memo.cache_info().hits
    memoized = explore_fixture(fix, mode="dpor")
    assert explorer._explore_memo.cache_info().hits == hits + 1
    fresh = _explore(_fixture_target(fix), "dpor", fixture_budget(fix))
    assert verdict(memoized) == verdict(fresh)


def test_runnable_corpus_is_not_empty():
    assert len(RUNNABLE) >= 10


class TestResultIsolation:
    SOURCE = (
        "# verdict-isolation probe\n"
        "import threading\n\n"
        "counter = 0\n\n\n"
        "def bump():\n"
        "    global counter\n"
        "    counter += 1\n\n\n"
        "def main():\n"
        "    first = threading.Thread(target=bump)\n"
        "    second = threading.Thread(target=bump)\n"
        "    first.start(); second.start()\n"
        "    first.join(); second.join()\n"
    )
    BUDGET = ExploreBudget(max_schedules=100, max_steps_per_task=100)

    def explore(self):
        return explore_source(
            self.SOURCE, path="<isolation>", budget=self.BUDGET
        )

    def test_mutating_a_result_does_not_reach_the_next_call(self):
        first = self.explore()
        before = verdict(first)
        assert first.findings and first.tokens
        first.findings.clear()
        first.errors.append("tampered")
        first.tokens["PDC301"] = "v1:tampered"
        first.tokens["PDC999"] = "v1:0"
        second = self.explore()
        assert verdict(second) == before
        assert second.findings is not first.findings
        assert second.errors is not first.errors
        assert second.tokens is not first.tokens

    def test_split_path_bypasses_the_memo(self):
        hits = explorer._explore_memo.cache_info().hits
        split = explore_source(
            self.SOURCE, path="<isolation>", budget=self.BUDGET, split=2
        )
        assert explorer._explore_memo.cache_info().hits == hits
        assert split.rules == self.explore().rules == {"PDC301"}

    def test_unknown_mode_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                explore_source(self.SOURCE, mode="bogus", budget=self.BUDGET)
