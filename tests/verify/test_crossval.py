"""The verify column of the cross-validation matrix, and the matrix itself.

Over the runnable twin rows:

- **reachability**: every PDC301/PDC302 the sanitizer observed on its
  single schedule must be reachable by the checker (it explores a
  superset of schedules, so missing one would be a checker bug);
- **exoneration**: a known-false-positive lockset PDC101 that the
  checker *exhausts* without reproducing is machine-confirmed static
  noise — both twins built for this purpose must come out exonerated;
- **completeness**: fixtures annotated ``verify_complete=True`` must be
  drained within budget; busy-wait fixtures annotated
  ``verify_complete=False`` are allowed their CHESS-style bound.

The matrix-wide tests pin that each rung runs once per row, that the
renderer sizes its columns to their content, and that every tool's
``--crossval`` prints the same matrix.
"""

import dataclasses
import json

import pytest

from repro.analysis.__main__ import main as lint_main
from repro.smp.fixtures import all_fixtures, all_multifile_fixtures
from repro.verify import crossval
from repro.verify.crossval import (
    build_matrix,
    render_matrix_text,
    run_crossval_cli,
)


@pytest.fixture(scope="module")
def report(crossval_matrix):
    """One cross-validation run, shared: every test below only reads it."""
    return crossval_matrix


def _searched(report):
    return [row for row in report.rows if row.search is not None]


class TestCrossValidation:
    def test_every_invariant_holds(self, report):
        assert report.all_ok, render_matrix_text(report)

    def test_every_single_run_finding_is_checker_reachable(self, report):
        assert report.unreachable == []
        for row in _searched(report):
            assert row.checks["reach"], row.name

    def test_both_twin_false_positives_are_exonerated(self, report):
        assert report.exonerated["verify"] == [
            "forkjoin_handoff_twin",
            "lock_handoff_twin",
        ]

    def test_exoneration_requires_exhaustion(self, report):
        # An exonerated fixture's verdict really was proved (or carries
        # the machine-readable bound annotation) — never a lucky miss.
        by_name = {row.name: row for row in report.rows}
        forkjoin = by_name["forkjoin_handoff_twin"]
        assert forkjoin.search.complete
        assert "PDC301" not in forkjoin.cells["verify"]
        assert "PDC101" in forkjoin.cells["lint"]

    def test_stats_are_recorded_per_fixture(self, report):
        assert report.total_explored > 0
        assert report.total_pruned > 0
        for row in _searched(report):
            assert row.search.schedules_explored >= 1, row.name

    def test_report_serializes(self, report):
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["all_ok"] is True
        assert len(parsed["rows"]) == len(report.rows)


class TestCrossvalCli:
    def test_stats_artifact_written(self, tmp_path, capsys):
        stats = tmp_path / "verify-stats.json"
        code = run_crossval_cli("text", mode="dpor", stats_path=str(stats))
        assert code == 0
        capsys.readouterr()
        payload = json.loads(stats.read_text())
        assert payload["all_ok"] is True
        assert payload["exonerated"]["verify"] == [
            "forkjoin_handoff_twin",
            "lock_handoff_twin",
        ]

    def test_lint_prints_the_same_matrix(self, report, capsys):
        argv = ["--whole-program", "--crossval", "--format", "json"]
        assert lint_main(argv) == 0
        assert json.loads(capsys.readouterr().out) == report.to_dict()

    @pytest.mark.parametrize("argv", [
        ["--crossval"],
        ["--whole-program", "--crossval", "--format", "sarif"],
    ])
    def test_lint_argument_errors_are_kept(self, argv):
        with pytest.raises(SystemExit) as exc:
            lint_main(argv)
        assert exc.value.code == 2


class TestOneMatrix:
    def test_each_rung_runs_once_per_row(self, monkeypatch):
        calls = {}

        def count(name):
            real = getattr(crossval, name)

            def wrapper(*args, **kwargs):
                calls.setdefault(name, []).append(args[0])
                return real(*args, **kwargs)

            monkeypatch.setattr(crossval, name, wrapper)

        for name in ("run_fixture", "explore_fixture", "run_program"):
            count(name)
        matrix = build_matrix()
        runnable = [
            f.name for f in all_fixtures() if f.dynamic_entry or f.entrypoints
        ]
        assert len(runnable) == 10
        assert [f.name for f in calls["run_fixture"]] == runnable
        assert [f.name for f in calls["explore_fixture"]] == runnable
        assert calls["run_program"] == [
            f.modules() for f in all_multifile_fixtures()
        ]
        assert [r.name for r in matrix.rows if r.search] == runnable


class TestRendering:
    def test_long_fixture_names_keep_columns_aligned(self, report):
        long_name = "a_fixture_name_well_past_twenty_four_characters"
        rows = list(report.rows)
        rows[0] = dataclasses.replace(rows[0], name=long_name)
        text = render_matrix_text(dataclasses.replace(report, rows=rows))
        lines = text.splitlines()
        assert all(line == line.rstrip() for line in lines)
        header, rule = lines[0], lines[1]
        table = lines[: 2 + len(rows)]
        # Each column's dash run starts where that column starts.
        starts = [
            i for i, ch in enumerate(rule)
            if ch == "-" and (i == 0 or rule[i - 1] == " ")
        ]
        assert len(starts) == len(header.split())
        assert starts[1] > len(long_name)
        for line in table:
            for start in starts[1:]:
                assert line[start - 2:start] == "  ", line
                assert line[start] != " ", line
        assert table[2].startswith(long_name + "  ")

    def test_one_cell_vocabulary(self, report):
        by_name = {
            line.split()[0]: line.split()
            for line in render_matrix_text(report).splitlines()[2:]
            if line
        }
        # lint, whole-program, sanitize, verify, explored, pruned
        assert by_name["bare_acquire"][1:7] == [
            "PDC201", "—", "—", "—", "—", "—",
        ]
        assert by_name["locked_counter_twin"][1:5] == [
            "clean", "—", "clean", "clean",
        ]
        assert by_name["crossmod_handoff_pair"][1:5] == [
            "clean", "PDC101", "clean", "—",
        ]
