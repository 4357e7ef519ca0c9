"""One cross-validation matrix: every corpus fixture × every ladder rung.

The ladder judges a program four ways — per-file lint reads each module,
whole-program lint links them, PDC-San runs one schedule, PDC-Verify
explores every relevant schedule — and the corpus carries ground truth
for each.  This module lays the verdicts out as one table.  The rows
are the twin fixtures (:func:`repro.smp.fixtures.all_fixtures`) and the
multi-file fixtures (:func:`repro.smp.fixtures.all_multifile_fixtures`);
the columns are the rungs in :data:`RUNGS`.  A cell is the rule set that
rung reported on that row, or ``None`` where the rung does not run:

- ``lint`` runs on every row;
- ``whole_program`` runs on multi-file rows;
- ``sanitize`` runs on runnable rows (one inline execution);
- ``verify`` runs on runnable single-file rows.

Each cell is computed once, and every check is stated once per row:
lint, whole-program and sanitize must match the corpus exactly; the
checker must reach everything one run observed (**reachability**: a
single execution is one path through the schedule tree) and every rule
the fixture's ``checker_expect`` names, as exhaustively as its
``verify_complete`` annotation promises, without explorer errors.

Across rows the matrix derives the lecture's comparison: race confusion
matrices for the lockset analysis (PDC101) and for FastTrack (PDC301);
the **exonerations**, known lockset false positives that the sanitizer's
happens-before edges (one schedule) or the checker's drained schedule
tree (every schedule) clear; and the whole-program races a sanitizer
run **confirms**.  The JSON form carries per-row schedules explored and
pruned, the CI stats artifact that shows what the reduction bought.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from typing import Dict, FrozenSet, List, Optional

from repro.analysis import analyze_source
from repro.analysis.engine.core import expand_paths
from repro.analysis.engine.passes import LintPass
from repro.analysis.ip.engine import WholeProgramEngine
from repro.sanitizers.runner import run_fixture, run_program
from repro.smp.fixtures import (
    FixtureProgram,
    MultiFileFixture,
    all_fixtures,
    all_multifile_fixtures,
)
from repro.verify.explorer import VerifyResult, explore_fixture

__all__ = [
    "RUNGS",
    "Row",
    "ConfusionMatrix",
    "Matrix",
    "build_matrix",
    "render_matrix_text",
    "run_crossval_cli",
]

#: The matrix columns, bottom rung first.
RUNGS = ("lint", "whole_program", "sanitize", "verify")

#: Rungs that can clear a lockset false positive by running the program.
_EXONERATING = ("sanitize", "verify")

#: Dynamic rules subject to the reachability invariant.
_REACHABLE_RULES = frozenset({"PDC301", "PDC302"})

#: A rung's rule set on one row; ``None`` when the rung does not run there.
Cell = Optional[FrozenSet[str]]


@dataclasses.dataclass(frozen=True)
class Row:
    """One fixture across the ladder, next to its ground truth."""

    name: str
    multifile: bool
    known_false_positive: bool
    #: Per rung: what the corpus expects.  Exact for lint, whole_program
    #: and sanitize; for verify, the rules the checker must reach.
    expect: Dict[str, Cell]
    #: Per rung: what the rung reported.
    cells: Dict[str, Cell]
    #: True when the fixture annotation promises untruncated exhaustion.
    expect_complete: bool
    #: The checker's run; ``None`` when verify does not run on this row.
    search: Optional[VerifyResult]

    @property
    def proved(self) -> bool:
        return self.search is not None and self.search.proved

    @property
    def checks(self) -> Dict[str, bool]:
        """Every check that applies to this row, by name."""
        out: Dict[str, bool] = {}
        for rung in ("lint", "whole_program", "sanitize"):
            if self.cells[rung] is not None:
                out[rung] = self.cells[rung] == self.expect[rung]
        if self.search is not None:
            found = self.cells["verify"]
            # Everything one schedule showed, search must reach.
            out["reach"] = self.cells["sanitize"] & _REACHABLE_RULES <= found
            out["verify"] = self.expect["verify"] <= found
            # verify_complete=False fixtures have infinite schedule trees:
            # the step caps and budget are the CHESS-style bound there.
            out["complete"] = self.proved or not self.expect_complete
            out["errors"] = not self.search.errors
        return out

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def static_rules(self) -> FrozenSet[str]:
        """The static verdict: whole-program where it ran, else per-file."""
        whole = self.cells["whole_program"]
        return whole if whole is not None else self.cells["lint"]

    @property
    def truly_racy(self) -> bool:
        """Race ground truth: PDC101 expected and not a known false positive."""
        return "PDC101" in self.expect["lint"] and not self.known_false_positive

    def exonerated(self, rung: str) -> bool:
        """A known lockset false positive ``rung`` ran without reproducing
        as a race: the sanitizer on its one schedule, the checker over a
        drained schedule tree."""
        cell = self.cells[rung]
        if rung == "verify" and not (self.search and self.search.complete):
            return False
        return (
            self.known_false_positive
            and "PDC101" in self.static_rules
            and cell is not None
            and "PDC301" not in cell
        )

    @property
    def confirmed(self) -> bool:
        """A whole-program race that the sanitizer run observed."""
        return (
            not self.known_false_positive
            and "PDC101" in (self.cells["whole_program"] or ())
            and "PDC301" in (self.cells["sanitize"] or ())
        )

    def to_dict(self) -> Dict[str, object]:
        search = None
        if self.search is not None:
            search = {
                "schedules_explored": self.search.schedules_explored,
                "schedules_pruned": self.search.schedules_pruned,
                "truncated_runs": self.search.truncated_runs,
                "complete": self.search.complete,
                "proved": self.proved,
                "tokens": dict(sorted(self.search.tokens.items())),
                "errors": list(self.search.errors),
            }
        return {
            "name": self.name,
            "multifile": self.multifile,
            "known_false_positive": self.known_false_positive,
            "cells": {rung: _sorted(self.cells[rung]) for rung in RUNGS},
            "expect": {rung: _sorted(self.expect[rung]) for rung in RUNGS},
            "checks": self.checks,
            "search": search,
            "exonerated": [r for r in _EXONERATING if self.exonerated(r)],
            "confirmed": self.confirmed,
            "ok": self.ok,
        }


def _sorted(cell: Cell) -> Optional[List[str]]:
    return None if cell is None else sorted(cell)


@dataclasses.dataclass(frozen=True)
class ConfusionMatrix:
    """One analyzer's race verdicts against the corpus ground truth."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        flagged = self.tp + self.fp
        return self.tp / flagged if flagged else 1.0

    @property
    def recall(self) -> float:
        racy = self.tp + self.fn
        return self.tp / racy if racy else 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
            "precision": round(self.precision, 3),
            "recall": round(self.recall, 3),
        }


def _race_matrix(rows: List[Row], rung: str, rule: str) -> ConfusionMatrix:
    """Race-dimension confusion counts for one rung over the twin rows
    it ran on — an analyzer has no verdict on a program it never ran,
    which is itself the coverage limit the table is meant to teach."""
    tp = fp = fn = tn = 0
    for row in rows:
        if row.multifile or row.cells[rung] is None:
            continue
        flagged = rule in row.cells[rung]
        if row.truly_racy:
            tp += flagged
            fn += not flagged
        else:
            fp += flagged
            tn += not flagged
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclasses.dataclass(frozen=True)
class Matrix:
    """The whole fixture × rung table and what it derives."""

    rows: List[Row]
    mode: str

    @property
    def static_races(self) -> ConfusionMatrix:
        return _race_matrix(self.rows, "lint", "PDC101")

    @property
    def dynamic_races(self) -> ConfusionMatrix:
        return _race_matrix(self.rows, "sanitize", "PDC301")

    @property
    def exonerated(self) -> Dict[str, List[str]]:
        """Per rung, the rows whose lockset false positive it cleared."""
        return {
            rung: [row.name for row in self.rows if row.exonerated(rung)]
            for rung in _EXONERATING
        }

    @property
    def confirmed(self) -> List[str]:
        return [row.name for row in self.rows if row.confirmed]

    @property
    def unreachable(self) -> List[str]:
        """Rows with a sanitizer-observed rule the search missed — each
        one is a checker bug."""
        return [
            row.name for row in self.rows if not row.checks.get("reach", True)
        ]

    @property
    def total_explored(self) -> int:
        return sum(r.search.schedules_explored for r in self.rows if r.search)

    @property
    def total_pruned(self) -> int:
        return sum(r.search.schedules_pruned for r in self.rows if r.search)

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "rungs": list(RUNGS),
            "rows": [row.to_dict() for row in self.rows],
            "static_races": self.static_races.to_dict(),
            "dynamic_races": self.dynamic_races.to_dict(),
            "exonerated": self.exonerated,
            "confirmed": self.confirmed,
            "unreachable": self.unreachable,
            "total_explored": self.total_explored,
            "total_pruned": self.total_pruned,
            "all_ok": self.all_ok,
        }


def _rules(findings) -> FrozenSet[str]:
    return frozenset(f.rule for f in findings)


def _twin_row(fix: FixtureProgram, mode: str) -> Row:
    lint = _rules(analyze_source(fix.source, f"<fixture:{fix.name}>"))
    sanitize: Cell = None
    search: Optional[VerifyResult] = None
    if fix.dynamic_entry or fix.entrypoints:
        sanitize = frozenset(run_fixture(fix).rules)
        search = explore_fixture(fix, mode=mode)
    return Row(
        name=fix.name,
        multifile=False,
        known_false_positive=fix.known_false_positive,
        expect={
            "lint": fix.expect_rules,
            "whole_program": None,
            "sanitize": fix.expect_dynamic,
            "verify": fix.checker_expect,
        },
        cells={
            "lint": lint,
            "whole_program": None,
            "sanitize": sanitize,
            "verify": frozenset(search.rules) if search else None,
        },
        expect_complete=fix.verify_complete,
        search=search,
    )


def _multifile_row(fix: MultiFileFixture) -> Row:
    with tempfile.TemporaryDirectory(prefix="pdc-crossval-") as td:
        for filename, source in fix.files:
            with open(os.path.join(td, filename), "w", encoding="utf-8") as fh:
                fh.write(source)
        units, pre_errors = expand_paths([td])
        engine = WholeProgramEngine(LintPass())
        # Phase 1 *is* per-file lint; the whole-program phase folds its
        # findings into the same report.
        per_file = engine.engine.run(units, pre_errors)
        whole = engine.finalize(units, per_file)
    run = run_program(fix.modules(), fix.entry_module, entry=fix.dynamic_entry)
    return Row(
        name=fix.name,
        multifile=True,
        known_false_positive=fix.known_false_positive,
        expect={
            "lint": fix.expect_single_file,
            "whole_program": fix.expect_single_file | fix.expect_ip_rules,
            "sanitize": fix.expect_dynamic,
            "verify": None,
        },
        cells={
            "lint": _rules(per_file.findings),
            "whole_program": _rules(whole.findings),
            "sanitize": frozenset(run.rules),
            "verify": None,
        },
        expect_complete=False,
        search=None,
    )


def build_matrix(mode: str = "dpor") -> Matrix:
    """Run every rung once on every row it applies to."""
    rows = [_twin_row(fix, mode) for fix in all_fixtures()]
    rows += [_multifile_row(fix) for fix in all_multifile_fixtures()]
    return Matrix(rows=rows, mode=mode)


def _cell(cell: Cell) -> str:
    """``—``: the rung did not run; ``clean``: it ran and found nothing."""
    if cell is None:
        return "—"
    return ",".join(sorted(cell)) or "clean"


def _verdict(row: Row) -> str:
    failed = [name for name, passed in row.checks.items() if not passed]
    marks = ["FAIL:" + ",".join(failed)] if failed else ["ok"]
    if row.search is not None:
        if row.proved:
            marks.append("proved")
        elif row.search.complete:
            marks.append("bounded")
        else:
            marks.append("BUDGET-CAPPED")
    if row.confirmed:
        marks.append("CONFIRMED")
    cleared = [r for r in _EXONERATING if row.exonerated(r)]
    if cleared:
        marks.append("EXONERATED:" + ",".join(cleared))
    return " ".join(marks)


def render_matrix_text(matrix: Matrix) -> str:
    """The matrix as fixed-width text, columns sized to their content."""
    headers = ("fixture",) + tuple(r.replace("_", "-") for r in RUNGS) + (
        "explored", "pruned", "verdict",
    )
    table = [headers]
    for row in matrix.rows:
        search = row.search
        table.append(
            (row.name,)
            + tuple(_cell(row.cells[rung]) for rung in RUNGS)
            + (
                str(search.schedules_explored) if search else "—",
                str(search.schedules_pruned) if search else "—",
                _verdict(row),
            )
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    table.insert(1, tuple("-" * w for w in widths))
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in table
    ]
    sm, dm = matrix.static_races, matrix.dynamic_races
    exonerated = matrix.exonerated
    lines += [
        "",
        f"race dimension — lint     (PDC101): tp={sm.tp} fp={sm.fp} "
        f"fn={sm.fn} tn={sm.tn} precision={sm.precision:.2f} "
        f"recall={sm.recall:.2f} (twin fixtures)",
        f"race dimension — sanitize (PDC301): tp={dm.tp} fp={dm.fp} "
        f"fn={dm.fn} tn={dm.tn} precision={dm.precision:.2f} "
        f"recall={dm.recall:.2f} (executed twin fixtures only)",
        f"schedules: {matrix.total_explored} explored, "
        f"{matrix.total_pruned} pruned ({matrix.mode})",
        "exonerated by happens-before (sanitize): "
        + (", ".join(exonerated["sanitize"]) or "none"),
        "exonerated by exhaustive search (verify): "
        + (", ".join(exonerated["verify"]) or "none"),
        "confirmed by a sanitizer run (whole-program): "
        + (", ".join(matrix.confirmed) or "none"),
    ]
    if matrix.unreachable:
        lines.append(
            "UNREACHABLE (search bug): " + ", ".join(matrix.unreachable)
        )
    lines.append(f"all ok: {matrix.all_ok}")
    return "\n".join(lines)


def run_crossval_cli(
    fmt: str, mode: str = "dpor", stats_path: Optional[str] = None
) -> int:
    """``pdc-san``/``pdc-verify``/``pdc-lint --whole-program`` with
    ``--crossval``: print the matrix, optionally write it as the JSON
    stats artifact, exit 0 iff every check holds."""
    matrix = build_matrix(mode=mode)
    payload = matrix.to_dict()
    if stats_path:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(render_matrix_text(matrix))
    return 0 if matrix.all_ok else 1
