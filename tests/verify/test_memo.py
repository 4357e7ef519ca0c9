"""Verdicts through the grading cache: a hit is the exploration it stands for.

The explorer keeps no memo of its own.  Grading sends every verify
request through the one per-process engine cache
(:func:`repro.pedagogy.autograder.grading_cache`), whose
:class:`~repro.analysis.engine.VerifyPass` entries carry the findings,
errors and receipts of one exploration.  These tests pin the two ways
that could go wrong: a hit that differs from a fresh exploration, and a
caller's edit to its verdict leaking into the next caller's.
"""

import pytest

from repro.analysis.engine import AnalysisEngine, VerifyPass, WorkUnit
from repro.pedagogy import Autograder, Exercise
from repro.pedagogy.autograder import grading_cache, run_stage, verify_submission
from repro.smp.fixtures import all_fixtures
from repro.verify.explorer import (
    ExploreBudget,
    _explore,
    _fixture_target,
    explore_source,
    fixture_budget,
)

RUNNABLE = [
    fix for fix in all_fixtures() if fix.dynamic_entry or fix.entrypoints
]


def verdict(findings, errors, stats):
    """Everything a grader can observe about an exploration."""
    return (
        [
            (f.rule, f.path, f.line, f.col, f.symbol, f.message)
            for f in findings
        ],
        list(errors),
        dict(stats["tokens"]),
        stats["schedules_explored"],
        stats["schedules_pruned"],
        stats["truncated_runs"],
        stats["proved"],
    )


def report_verdict(report):
    return verdict(report.findings, report.errors, report.outcomes[0].stats)


@pytest.mark.parametrize("fix", RUNNABLE, ids=lambda fix: fix.name)
def test_memo_hit_equals_an_uncached_exploration(fix):
    engine = AnalysisEngine(VerifyPass(), cache=grading_cache())
    unit = WorkUnit.fixture(fix.name)
    engine.run([unit])  # fills the grading cache
    hit = engine.run([unit])
    assert engine.stats()["engine.cache.hits"] == 1
    assert hit.outcomes[0].cached
    fresh = _explore(_fixture_target(fix), "dpor", fixture_budget(fix))
    assert report_verdict(hit) == verdict(
        fresh.findings,
        fresh.errors,
        {
            "tokens": fresh.tokens,
            "schedules_explored": fresh.schedules_explored,
            "schedules_pruned": fresh.schedules_pruned,
            "truncated_runs": fresh.truncated_runs,
            "proved": fresh.proved,
        },
    )


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

    def test_mutating_a_result_does_not_reach_the_next_call(self):
        first = verify_submission("isolation", self.SOURCE)
        before = report_verdict(first)
        assert first.findings and before[2]
        # The miss hands back the fresh outcome, every later call a hit.
        for report in (first, verify_submission("isolation", self.SOURCE)):
            outcome = report.outcomes[0]
            report.findings.clear()
            outcome.findings.clear()
            outcome.errors.append("tampered")
            outcome.stats["tokens"]["PDC301"] = "v1:tampered"
            outcome.stats["tokens"]["PDC999"] = "v1:0"
            outcome.stats["proved"] = not outcome.stats["proved"]
            again = verify_submission("isolation", self.SOURCE)
            assert again.outcomes[0].cached
            assert report_verdict(again) == before

    def test_editing_a_grade_report_does_not_reach_the_next_report(self):
        exercise = Exercise("isolation", "p", lambda src: 1.0, points=10)
        grader = Autograder([exercise], verify=True)
        first = grader.grade("ada", {"isolation": self.SOURCE})
        before = (
            [f.message for f in first.verify_findings["isolation"]],
            dict(first.verify_stats["isolation"]["tokens"]),
        )
        first.verify_findings["isolation"].clear()
        first.verify_stats["isolation"]["tokens"].clear()
        second = grader.grade("bob", {"isolation": self.SOURCE})
        assert (
            [f.message for f in second.verify_findings["isolation"]],
            dict(second.verify_stats["isolation"]["tokens"]),
        ) == before

    def test_split_path_reports_the_serial_rules(self):
        split = explore_source(
            self.SOURCE, path="<isolation>", budget=self.BUDGET, split=2
        )
        serial = explore_source(
            self.SOURCE, path="<isolation>", budget=self.BUDGET
        )
        assert split.rules == serial.rules == {"PDC301"}

    def test_unknown_mode_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                explore_source(self.SOURCE, mode="bogus", budget=self.BUDGET)
            with pytest.raises(ValueError):
                run_stage(
                    "verify", VerifyPass(mode="bogus"), "isolation", self.SOURCE
                )
