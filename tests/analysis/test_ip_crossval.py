"""The whole-program column of the cross-validation matrix.

The multi-file twin corpus carries three machine-checkable ground
truths per fixture (per-file lint, whole-program lint, one sanitizer
run); these tests pin the corpus-level claims: the racy pair's
cross-module PDC101 is confirmed dynamically, the handoff pair's is
exonerated by fork/join happens-before, and per-file mode provably
misses both.
"""

import json

import pytest

from repro.smp.fixtures import all_multifile_fixtures
from repro.verify.crossval import render_matrix_text, run_crossval_cli


@pytest.fixture(scope="module")
def programs(crossval_matrix):
    """The matrix's multi-file rows."""
    return [row for row in crossval_matrix.rows if row.multifile]


class TestCorpus:
    def test_every_fixture_carries_full_ground_truth(self):
        fixtures = all_multifile_fixtures()
        assert len(fixtures) >= 2
        for fix in fixtures:
            assert len(fix.files) >= 2, fix.name
            assert fix.entry_module in fix.modules(), fix.name

    def test_all_three_analyses_match_ground_truth(self, programs):
        assert [row.name for row in programs] == [
            fix.name for fix in all_multifile_fixtures()
        ]
        for row in programs:
            assert set(row.checks) == {"lint", "whole_program", "sanitize"}
            assert row.ok, json.dumps(row.to_dict(), indent=2)

    def test_racy_pair_is_dynamically_confirmed(self, crossval_matrix):
        assert "crossmod_racy_pair" in crossval_matrix.confirmed

    def test_handoff_pair_is_dynamically_exonerated(self, crossval_matrix):
        assert "crossmod_handoff_pair" in crossval_matrix.exonerated["sanitize"]

    def test_single_file_mode_misses_the_lift(self, programs):
        # The load-bearing claim: no fixture's bug is visible per-file.
        for row in programs:
            lift = row.expect["whole_program"] - row.cells["lint"]
            assert lift, row.name
            assert "PDC101" not in row.cells["lint"], row.name
            assert "PDC101" in row.cells["whole_program"], row.name


class TestRendering:
    def test_text_table_names_the_verdicts(self, crossval_matrix):
        lines = render_matrix_text(crossval_matrix).splitlines()
        verdicts = {line.split()[0]: line for line in lines if line}
        assert verdicts["crossmod_racy_pair"].endswith("ok CONFIRMED")
        assert verdicts["crossmod_handoff_pair"].endswith(
            "ok EXONERATED:sanitize"
        )
        assert "all ok: True" in lines

    def test_cli_exit_codes_and_json(self, capsys):
        assert run_crossval_cli("json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_ok"] is True
        assert payload["confirmed"] == ["crossmod_racy_pair"]
        multifile = {row["name"] for row in payload["rows"] if row["multifile"]}
        assert [
            name for name in payload["exonerated"]["sanitize"]
            if name in multifile
        ] == ["crossmod_handoff_pair"]
