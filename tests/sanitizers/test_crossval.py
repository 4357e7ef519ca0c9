"""The static-vs-dynamic columns of the cross-validation matrix.

The measurement claim, pinned as a snapshot over the twin rows: the
lockset analysis (lint's PDC101) over-approximates, FastTrack (the
sanitize rung's PDC301) exonerates the known false positives, and both
agree with the corpus ground truth on every fixture.
"""

import pytest

from repro.verify.crossval import (
    ConfusionMatrix,
    build_matrix,
    render_matrix_text,
)


@pytest.fixture(scope="module")
def matrix(crossval_matrix):
    return crossval_matrix


def _twins(matrix):
    return [row for row in matrix.rows if not row.multifile]


class TestGroundTruthAgreement:
    def test_every_fixture_matches_expectations(self, matrix):
        bad = [
            row.name
            for row in _twins(matrix)
            if not (row.checks["lint"] and row.checks.get("sanitize", True))
        ]
        assert bad == []
        assert matrix.all_ok

    def test_unexecuted_fixtures_pass_vacuously(self, matrix):
        not_run = [r for r in _twins(matrix) if r.cells["sanitize"] is None]
        assert not_run  # the corpus does contain non-runnable fixtures
        for row in not_run:
            assert "sanitize" not in row.checks and row.ok, row.name
            assert row.cells["verify"] is None, row.name


class TestExoneration:
    def test_fasttrack_clears_the_lockset_false_positives(self, matrix):
        assert "forkjoin_handoff_twin" in matrix.exonerated["sanitize"]
        assert "lock_handoff_twin" in matrix.exonerated["sanitize"]

    def test_exonerated_fixtures_were_statically_flagged(self, matrix):
        by_name = {row.name: row for row in matrix.rows}
        for name in matrix.exonerated["sanitize"]:
            row = by_name[name]
            assert "PDC101" in row.static_rules
            assert row.known_false_positive
            assert "PDC301" not in row.cells["sanitize"]


class TestConfusionMatrices:
    def test_static_matrix_snapshot(self, matrix):
        m = matrix.static_races
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 3, 0, 15)
        assert m.recall == 1.0
        assert m.precision == pytest.approx(0.25)

    def test_dynamic_matrix_snapshot(self, matrix):
        m = matrix.dynamic_races
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 2, 0, 7)
        assert m.recall == 1.0

    def test_fasttrack_is_more_precise_than_the_lockset(self, matrix):
        assert (
            matrix.dynamic_races.precision > matrix.static_races.precision
        )

    def test_empty_matrix_degenerates_to_perfect_scores(self):
        m = ConfusionMatrix(tp=0, fp=0, fn=0, tn=4)
        assert m.precision == 1.0 and m.recall == 1.0


class TestDeterminismAndRendering:
    def test_cross_validation_is_reproducible(self, matrix):
        assert build_matrix().to_dict() == matrix.to_dict()

    def test_text_table_shows_the_verdict_columns(self, matrix):
        text = render_matrix_text(matrix)
        assert "fixture" in text and "lint" in text and "sanitize" in text
        assert "EXONERATED" in text
        assert "FAIL" not in text
        assert "precision=" in text and "recall=" in text

    def test_json_payload_is_self_describing(self, matrix):
        payload = matrix.to_dict()
        assert payload["all_ok"] is True
        assert set(payload["exonerated"]["sanitize"]) >= {
            "forkjoin_handoff_twin", "lock_handoff_twin",
        }
        names = {row["name"] for row in payload["rows"]}
        assert "racy_counter_twin" in names
