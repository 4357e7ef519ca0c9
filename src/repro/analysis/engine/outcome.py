"""Work units, per-unit outcomes, and the deterministic merge.

The engine's planning vocabulary is deliberately tiny.  A
:class:`WorkUnit` names one thing to analyze — a file on disk, a corpus
fixture, or an in-memory source string — and a :class:`FileOutcome` is
everything analyzing one unit produced.  Merging outcomes back into one
:class:`EngineReport` is pure data plumbing with a hard rule: the merge
is a function of the *planned unit order* (paths sorted at walk time),
never of completion order, so a parallel run and a sequential run are
indistinguishable from their output.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.report import Finding

__all__ = ["WorkUnit", "FileOutcome", "EngineReport", "merge_outcomes"]


@dataclasses.dataclass(frozen=True)
class WorkUnit:
    """One thing to analyze: a file, a fixture, or inline source.

    ``key`` is the display path (what findings and errors cite).  For
    ``kind="source"`` the content rides along in ``data`` — the
    autograder analyzes submission strings that exist nowhere on disk.
    """

    kind: str  # "file" | "fixture" | "source"
    key: str
    data: Optional[bytes] = None

    @classmethod
    def file(cls, path: str) -> "WorkUnit":
        """A unit backed by a file on disk."""
        return cls(kind="file", key=path)

    @classmethod
    def fixture(cls, name: str) -> "WorkUnit":
        """A unit backed by a twin-corpus fixture."""
        return cls(kind="fixture", key=name)

    @classmethod
    def source(cls, path: str, source: str) -> "WorkUnit":
        """A unit carrying its own source (no filesystem involved)."""
        return cls(kind="source", key=path, data=source.encode("utf-8"))


@dataclasses.dataclass
class FileOutcome:
    """Everything analyzing one unit produced.

    ``readable`` distinguishes "the analyzer ran and reported errors"
    (syntax error: still a planned, analyzed file) from "the unit could
    not even be loaded" (missing file) — the two count differently in
    the per-tool ``files`` summary.
    """

    findings: List[Finding] = dataclasses.field(default_factory=list)
    suppressed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    readable: bool = True
    #: True when this outcome came out of the incremental cache.
    cached: bool = False
    #: Pass-specific receipts beside the findings (the verify pass puts
    #: its schedule counts, proof flag and replay tokens here).
    stats: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_wire(self) -> Dict[str, object]:
        """JSON/pickle-friendly form (cache entries, worker results).

        ``stats`` is written only when non-empty, so passes without
        receipts keep their entry bytes.
        """
        payload: Dict[str, object] = {
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "errors": list(self.errors),
            "readable": self.readable,
        }
        if self.stats:
            payload["stats"] = copy.deepcopy(self.stats)
        return payload

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "FileOutcome":
        """Inverse of :meth:`to_wire`."""
        return cls(
            findings=[Finding.from_dict(d) for d in payload["findings"]],  # type: ignore[union-attr]
            suppressed=int(payload["suppressed"]),  # type: ignore[arg-type]
            errors=[str(e) for e in payload["errors"]],  # type: ignore[union-attr]
            readable=bool(payload.get("readable", True)),
            stats=copy.deepcopy(payload.get("stats", {})),  # type: ignore[arg-type]
        )


@dataclasses.dataclass
class EngineReport:
    """One engine run, merged: what the renderers and exit code consume."""

    findings: List[Finding]
    files: int
    suppressed: int
    errors: List[str]
    #: Per-unit outcomes in planned order (the watcher reuses them).
    outcomes: List[FileOutcome] = dataclasses.field(default_factory=list)
    units: List[WorkUnit] = dataclasses.field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 clean · 1 findings · 2 unreadable/unrunnable input."""
        if self.errors:
            return 2
        return 1 if self.findings else 0


def merge_outcomes(
    units: Sequence[WorkUnit],
    outcomes: Sequence[FileOutcome],
    pre_errors: Sequence[str] = (),
    count_unreadable: bool = True,
) -> EngineReport:
    """Fold per-unit outcomes into one report, deterministically.

    ``pre_errors`` are planning-time errors (a path that matched
    nothing); they precede every per-unit error.  ``count_unreadable``
    is the per-tool ``files`` convention: pdc-lint counts every planned
    file (unreadable ones included), pdc-san counts executions that
    actually happened.
    """
    findings: List[Finding] = []
    errors: List[str] = list(pre_errors)
    suppressed = 0
    files = 0
    for outcome in outcomes:
        findings.extend(outcome.findings)
        errors.extend(outcome.errors)
        suppressed += outcome.suppressed
        if count_unreadable or outcome.readable:
            files += 1
    return EngineReport(
        findings=sorted(findings),
        files=files,
        suppressed=suppressed,
        errors=errors,
        outcomes=list(outcomes),
        units=list(units),
    )
