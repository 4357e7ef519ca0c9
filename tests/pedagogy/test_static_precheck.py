"""The autograder's PDC-Lint pre-check stage (and report lookups)."""

import pytest

from repro.pedagogy import Autograder, Exercise
from repro.smp.fixtures import fixture

RACY = fixture("racy_counter_twin").source
LOCKED = fixture("locked_counter_twin").source
SUPPRESSED = fixture("suppressed_racy_counter").source


def _source_exercise():
    """An exercise whose submission is source text; the checker accepts it."""
    return Exercise(
        "counter", "ship a thread-safe counter module",
        lambda src: 1.0 if "counter" in src else 0.0,
        points=10,
    )


class TestPrecheckFindings:
    def test_off_by_default(self):
        grader = Autograder([_source_exercise()])
        report = grader.grade("ada", {"counter": RACY})
        assert report.static_findings == {}
        assert report.result_for("counter").fraction == 1.0

    def test_findings_attached_without_gating(self):
        grader = Autograder([_source_exercise()], static_precheck=True)
        report = grader.grade("ada", {"counter": RACY})
        assert {f.rule for f in report.static_findings["counter"]} == {
            "PDC101"
        }
        # Advisory mode: flagged, but still graded on behavior.
        assert report.result_for("counter").fraction == 1.0

    def test_clean_submission_attaches_nothing(self):
        grader = Autograder([_source_exercise()], static_precheck=True)
        report = grader.grade("ada", {"counter": LOCKED})
        assert report.static_findings == {}

    def test_precheck_select_narrows_rules(self):
        grader = Autograder(
            [_source_exercise()],
            static_precheck=True,
            precheck_select=["PDC2"],
        )
        report = grader.grade("ada", {"counter": RACY})
        assert report.static_findings == {}  # PDC101 not selected

    def test_callable_submissions_are_inspected(self):
        def racy_increment(state={}):  # noqa: B006 - the defect under test
            state["n"] = state.get("n", 0) + 1

        ex = Exercise("inc", "p", lambda fn: 1.0, points=10)
        grader = Autograder([ex], static_precheck=True)
        report = grader.grade("ada", {"inc": racy_increment})
        # inspect.getsource recovered the def; no thread spawn in sight, so
        # no findings — the point is that source recovery did not blow up.
        assert report.result_for("inc").fraction == 1.0

    def test_sourceless_submissions_skip_the_precheck(self):
        ex = Exercise("b", "p", lambda fn: 1.0 if fn(1) else 0.0, points=10)
        grader = Autograder([ex], static_precheck=True, precheck_gate=True)
        report = grader.grade("ada", {"b": bool})  # a builtin: no source
        assert report.static_findings == {}
        assert report.result_for("b").fraction == 1.0


class TestPrecheckGate:
    def test_gate_zero_scores_flagged_submissions(self):
        grader = Autograder([_source_exercise()], precheck_gate=True)
        report = grader.grade("ada", {"counter": RACY})
        result = report.result_for("counter")
        assert result.fraction == 0.0
        assert "PDC101" in result.error
        assert "suppress" in result.error

    def test_gate_implies_precheck(self):
        grader = Autograder([_source_exercise()], precheck_gate=True)
        assert grader.static_precheck

    def test_justified_suppression_passes_the_gate(self):
        grader = Autograder([_source_exercise()], precheck_gate=True)
        report = grader.grade("ada", {"counter": SUPPRESSED})
        assert report.result_for("counter").fraction == 1.0
        assert report.static_findings == {}

    def test_unparsable_source_falls_through_to_the_checker(self):
        ex = Exercise("counter", "p", lambda src: 1.0, points=10)
        grader = Autograder([ex], precheck_gate=True)
        report = grader.grade("ada", {"counter": "def f(:\n"})
        # The pre-check cannot parse it, so the checker decides (here: 1.0).
        assert report.result_for("counter").fraction == 1.0


class TestResultLookup:
    def test_result_for_unknown_id_raises_helpfully(self):
        grader = Autograder([_source_exercise()])
        report = grader.grade("ada", {"counter": LOCKED})
        with pytest.raises(KeyError) as exc:
            report.result_for("countr")
        message = str(exc.value)
        assert "countr" in message
        assert "counter" in message  # the ids that do exist are named
        assert "ada" in message

    def test_result_for_empty_report_says_none(self):
        grader = Autograder([])
        report = grader.grade("ada", {})
        with pytest.raises(KeyError, match="none"):
            report.result_for("anything")


class TestSessionCacheBound:
    def test_cohort_past_the_bound_keeps_the_starter_cached(
        self, monkeypatch
    ):
        from repro.analysis.engine import cache as engine_cache
        from repro.pedagogy.autograder import grading_cache
        from repro.runtime import RunContext

        # Each submission leaves one entry per stage: lint, sanitize and
        # verify share the one grading cache and its one bound.
        bound = 6
        monkeypatch.setattr(engine_cache, "MEMORY_CACHE_ENTRIES", bound)
        context = RunContext()
        grader = Autograder(
            [_source_exercise()],
            static_precheck=True,
            sanitize=True,
            verify=True,
            context=context,
        )
        starter = grader.grade("starter", {"counter": RACY})
        stages = ("static", "dynamic", "verify")

        def hits():
            metrics = context.snapshot("grader")
            return tuple(metrics[f"grader.{s}.cache.hits"] for s in stages)

        for i in range(bound + 10):
            grader.grade(f"s{i}", {"counter": f"{RACY}\n# student {i}\n"})
            before = hits()
            again = grader.grade(f"r{i}", {"counter": RACY})
            assert hits() == tuple(n + 1 for n in before)
            assert again.static_findings == starter.static_findings
            assert again.dynamic_findings == starter.dynamic_findings
            assert again.verify_findings == starter.verify_findings
            assert again.verify_stats == starter.verify_stats
        entries = grading_cache()._entries
        assert len(entries) == bound
        # Two submissions' worth: one scope per pass, two digests each.
        assert len({key.split("/")[0] for key in entries}) == len(stages)
        assert len({key.split("/")[1] for key in entries}) == 2
