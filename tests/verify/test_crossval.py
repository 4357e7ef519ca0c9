"""Checker vs sanitizer cross-validation: the three-tool invariants.

Over the runnable twin corpus:

- **reachability**: every PDC301/PDC302 the sanitizer observed on its
  single schedule must be reachable by the checker (it explores a
  superset of schedules, so missing one would be a checker bug);
- **exoneration**: a known-false-positive lockset PDC101 that the
  checker *exhausts* without reproducing is machine-confirmed static
  noise — both twins built for this purpose must come out exonerated;
- **completeness**: fixtures annotated ``verify_complete=True`` must be
  drained within budget; busy-wait fixtures annotated
  ``verify_complete=False`` are allowed their CHESS-style bound.
"""

import json

import pytest

from repro.verify.crossval import (
    cross_validate_checker,
    render_verify_crossval_text,
    run_verify_crossval_cli,
)


@pytest.fixture(scope="module")
def report():
    """One cross-validation run, shared: every test below only reads it."""
    return cross_validate_checker(mode="dpor")


class TestCrossValidation:
    def test_every_invariant_holds(self, report):
        assert report.all_ok, render_verify_crossval_text(report)

    def test_every_single_run_finding_is_checker_reachable(self, report):
        assert report.unreachable == []
        for verdict in report.verdicts:
            assert verdict.reachable_ok, verdict.name

    def test_both_twin_false_positives_are_exonerated(self, report):
        assert report.exonerated == [
            "forkjoin_handoff_twin",
            "lock_handoff_twin",
        ]

    def test_exoneration_requires_exhaustion(self, report):
        # An exonerated fixture's verdict really was proved (or carries
        # the machine-readable bound annotation) — never a lucky miss.
        by_name = {v.name: v for v in report.verdicts}
        assert by_name["forkjoin_handoff_twin"].complete
        assert "PDC301" not in by_name["forkjoin_handoff_twin"].checker_rules
        assert "PDC101" in by_name["forkjoin_handoff_twin"].static_rules

    def test_stats_are_recorded_per_fixture(self, report):
        assert report.total_explored > 0
        assert report.total_pruned > 0
        for verdict in report.verdicts:
            assert verdict.schedules_explored >= 1, verdict.name

    def test_report_serializes(self, report):
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["all_ok"] is True
        assert len(parsed["fixtures"]) == len(report.verdicts)


class TestCrossvalCli:
    def test_stats_artifact_written(self, tmp_path, capsys):
        stats = tmp_path / "verify-stats.json"
        code = run_verify_crossval_cli(
            "text", mode="dpor", stats_path=str(stats)
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(stats.read_text())
        assert payload["all_ok"] is True
        assert payload["exonerated"] == [
            "forkjoin_handoff_twin",
            "lock_handoff_twin",
        ]
