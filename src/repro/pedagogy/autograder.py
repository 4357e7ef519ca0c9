"""The autograder: submissions × exercises → grade reports.

Besides running each exercise's checker, the autograder can run PDC-Lint
(:mod:`repro.analysis`) as an optional **static pre-check stage**: when a
submission carries source (a string, or a callable whose source
``inspect`` can recover), the analyzer's findings are attached to the
grade report — and, with ``precheck_gate=True``, a flagged submission
scores zero before its code ever runs, mirroring how Bloom/ABET-mapped
assessment grades understanding before outcomes.

A second, **dynamic** stage (``sanitize=True``) runs the same source
under PDC-San (:mod:`repro.sanitizers`): one deterministic instrumented
execution, whose PDC3xx findings (races FastTrack actually observed,
lock-order cycles actually taken) land in the report next to the static
ones — and, with ``sanitize_gate=True``, also score the submission zero.
The pairing is the pedagogy: a static flag says "this *could* race", a
sanitizer flag says "this *did*".

The third, **exhaustive** stage (``verify=True``) model-checks the
source with PDC-Verify (:mod:`repro.verify`): every relevant
interleaving, not just the one the sanitizer ran.  With
``verify_gate=True`` a submission passes only when the checker *proves*
the fix — drains the whole schedule tree without finding a PDC3xx —
and any failure comes with a one-line schedule token the student can
replay to watch their bug happen, deterministically, every time.
"""

from __future__ import annotations

import dataclasses
import inspect
import textwrap
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.pedagogy.exercise import Exercise, ExerciseResult
from repro.runtime import RunContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis import Finding
    from repro.analysis.engine import AnalyzerPass, EngineReport, MemoryCache
    from repro.runtime.metrics import MetricRegistry

__all__ = ["GradeReport", "Autograder", "grading_cache", "verify_submission"]

#: The grading verify budget: big enough to drain every lab-scale
#: schedule tree, small enough that a spinning submission fails fast
#: (with "could not prove", which is the right verdict).
VERIFY_BUDGET = {"max_schedules": 500, "max_steps": 200}

_grading_cache: Optional["MemoryCache"] = None


def grading_cache() -> "MemoryCache":
    """The one engine cache every grading stage in this process shares.

    Created on first use: one bounded LRU for the lint, sanitize and
    verify passes of every grader.  Its keys hold each pass's version
    and configuration as well as the content, so graders with different
    settings share it safely.  It is per process rather than per grader
    so that a new grader over byte-identical code (a starter file, a
    re-run session) replays verdicts instead of re-exploring them.
    """
    global _grading_cache
    if _grading_cache is None:
        from repro.analysis.engine import MemoryCache

        _grading_cache = MemoryCache()
    return _grading_cache


def run_stage(
    stage: str,
    pass_: "AnalyzerPass",
    exercise_id: str,
    source: str,
    registry: Optional["MetricRegistry"] = None,
) -> "EngineReport":
    """Run one analyzer pass over one submission via the grading cache.

    The submission is the unit ``<submission:exercise_id>``.  With a
    ``registry`` the engine records its telemetry (submissions analyzed,
    cache hits, findings by rule) under ``grader.<stage>`` — grading
    dogfoods the same observability substrate the graded labs use.
    """
    from repro.analysis.engine import AnalysisEngine, WorkUnit

    engine = AnalysisEngine(
        pass_,
        cache=grading_cache(),
        registry=registry,
        metrics_prefix=f"grader.{stage}",
    )
    return engine.run([WorkUnit.source(f"<submission:{exercise_id}>", source)])


def verify_submission(
    exercise_id: str,
    source: str,
    entry: str = "main",
    registry: Optional["MetricRegistry"] = None,
) -> "EngineReport":
    """Model-check one submission at :data:`VERIFY_BUDGET`.

    The verify stage and the model-checking lab's checker both call
    this for ``<submission:exercise_id>``, so a submission's schedule
    tree is explored once and the second call is a cache hit.  The
    report's one outcome carries the receipts in ``stats``
    (:class:`~repro.analysis.engine.VerifyPass`).
    """
    from repro.analysis.engine import VerifyPass

    pass_ = VerifyPass(entry=entry, mode="dpor", **VERIFY_BUDGET)
    return run_stage("verify", pass_, exercise_id, source, registry)


def _sites(findings: Sequence["Finding"]) -> str:
    """``RULE@LINE`` for each distinct finding site, sorted."""
    return ", ".join(sorted({f"{f.rule}@{f.line}" for f in findings}))


@dataclasses.dataclass
class GradeReport:
    """One student's results over a lab's exercises."""

    student: str
    results: List[ExerciseResult]
    #: PDC-Lint findings per exercise id (only when the static pre-check
    #: stage ran and the submission exposed source).
    static_findings: Dict[str, List["Finding"]] = dataclasses.field(
        default_factory=dict
    )
    #: PDC-San findings per exercise id (only when the sanitizer stage
    #: ran and the submission exposed source).
    dynamic_findings: Dict[str, List["Finding"]] = dataclasses.field(
        default_factory=dict
    )
    #: PDC-Verify findings per exercise id (only when the verify stage
    #: ran and the submission exposed source).
    verify_findings: Dict[str, List["Finding"]] = dataclasses.field(
        default_factory=dict
    )
    #: Per-exercise checker receipts: schedules explored/pruned, whether
    #: the clean verdict is a proof, and replay tokens for failures.
    verify_stats: Dict[str, Dict[str, Any]] = dataclasses.field(
        default_factory=dict
    )

    @property
    def points_earned(self) -> float:
        """Total points earned."""
        return sum(r.points_earned for r in self.results)

    @property
    def points_possible(self) -> float:
        """Total points available."""
        return sum(r.points_possible for r in self.results)

    @property
    def percentage(self) -> float:
        """Overall score in [0, 100]."""
        if self.points_possible == 0:
            return 0.0
        return 100.0 * self.points_earned / self.points_possible

    @property
    def letter(self) -> str:
        """A coarse letter grade (the usual 90/80/70/60 cut-offs)."""
        pct = self.percentage
        for cut, letter in ((90, "A"), (80, "B"), (70, "C"), (60, "D")):
            if pct >= cut:
                return letter
        return "F"

    def result_for(self, exercise_id: str) -> ExerciseResult:
        """Look up one exercise's result.

        Raises ``KeyError`` (never a silent ``None``) for an unknown id,
        naming the ids that do exist — the typo is usually obvious.
        """
        for r in self.results:
            if r.exercise_id == exercise_id:
                return r
        known = ", ".join(sorted(r.exercise_id for r in self.results)) or "none"
        raise KeyError(
            f"no result for exercise {exercise_id!r} in {self.student!r}'s "
            f"report; graded exercises: {known}"
        )


class Autograder:
    """Grades submissions against a fixed exercise list.

    A submission maps exercise ids to whatever each exercise's checker
    expects; missing entries score zero (with an explanatory error).

    Parameters
    ----------
    static_precheck:
        Run PDC-Lint over each submission that exposes source (a string
        or an inspectable callable) and attach the findings to the report.
    precheck_select:
        Rule ids/prefixes to run (e.g. ``["PDC101", "PDC2"]``); default all.
    precheck_gate:
        With the pre-check on, a submission with findings scores zero
        *without running*: the checker never executes statically-racy code.
        Suppressions (``# pdc-lint: disable=... -- why``) pass the gate, so
        a student can ship a justified exception — and defend it in review.
    sanitize:
        Run PDC-San over each submission that exposes source: one
        deterministic instrumented execution whose PDC3xx findings are
        attached to the report (``dynamic_findings``).
    sanitize_gate:
        With the sanitizer on, a submission whose instrumented run
        observes a race / deadlock scores zero.  The same suppression
        comments apply (but note: ``disable=PDC101`` does *not* silence
        an observed PDC301 — the dynamic verdict must be answered on its
        own terms).
    verify:
        Model-check each submission that exposes source with PDC-Verify:
        exhaustive schedule exploration (DPOR-pruned), findings and
        explored/pruned/proved receipts attached to the report.
    verify_gate:
        The proof gate: a submission passes only when the checker drains
        the schedule tree — no truncation, within budget — and finds no
        PDC3xx on *any* interleaving.  "The sanitizer didn't see it" is
        no longer enough; "no schedule can produce it" is the bar, which
        is what distinguishes a fixed program from a lucky run.
    context:
        A :class:`~repro.runtime.RunContext` to instrument grading with:
        each exercise check runs inside a ``lab.<exercise-id>`` trace span
        and records its score under ``lab.<exercise-id>.fraction`` in the
        run's metric registry, so one lab session exports one coherent
        trace + metrics dump (``context.save(dir)``).
    """

    def __init__(
        self,
        exercises: Sequence[Exercise],
        static_precheck: bool = False,
        precheck_select: Optional[Sequence[str]] = None,
        precheck_gate: bool = False,
        sanitize: bool = False,
        sanitize_gate: bool = False,
        verify: bool = False,
        verify_gate: bool = False,
        context: Optional["RunContext"] = None,
    ) -> None:
        ids = [e.exercise_id for e in exercises]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate exercise ids")
        self.exercises = list(exercises)
        self.static_precheck = static_precheck or precheck_gate
        self.precheck_select = (
            list(precheck_select) if precheck_select is not None else None
        )
        self.precheck_gate = precheck_gate
        self.sanitize = sanitize or sanitize_gate
        self.sanitize_gate = sanitize_gate
        self.verify = verify or verify_gate
        self.verify_gate = verify_gate
        self.context = context

    def _submission_source(self, submitted: Any) -> Optional[str]:
        """The analyzable source of a submission, if it has any."""
        if isinstance(submitted, str):
            return submitted
        try:
            return textwrap.dedent(inspect.getsource(submitted))
        except (OSError, TypeError):
            return None  # built-ins, REPL lambdas, plain values: no source

    def _run_stages(
        self, exercise_id: str, submitted: Any, report: GradeReport
    ) -> Optional[str]:
        """Run the enabled analysis stages over one submission.

        Findings and verify receipts go into ``report``; the return
        value is the error text of the first gate that fails (``None``
        when the checker should run).  A sourceless submission skips
        every stage.
        """
        if not (self.static_precheck or self.sanitize or self.verify):
            return None
        source = self._submission_source(submitted)
        if source is None:
            return None
        # Deferred import: pedagogy stays importable without the analyzers.
        from repro.analysis.engine import LintPass, SanitizePass

        registry = self.context.registry if self.context is not None else None
        entry = (
            getattr(submitted, "__name__", "main")
            if callable(submitted)
            else "main"
        )
        if self.static_precheck:
            # Unparsable source yields engine errors, not findings: the
            # submission then fails in the checker, on record.
            found = run_stage(
                "static", LintPass(select=self.precheck_select),
                exercise_id, source, registry,
            ).findings
            if found:
                report.static_findings[exercise_id] = found
                if self.precheck_gate:
                    return (
                        f"static pre-check failed ({_sites(found)}); fix the "
                        "findings or suppress them with a justified "
                        "`# pdc-lint: disable=...` comment"
                    )
        if self.sanitize:
            observed = run_stage(
                "dynamic", SanitizePass(entry=entry),
                exercise_id, source, registry,
            ).findings
            if observed:
                report.dynamic_findings[exercise_id] = observed
                if self.sanitize_gate:
                    return (
                        f"sanitizer check failed ({_sites(observed)}): the "
                        "instrumented run observed these; fix the "
                        "synchronization (a static suppression does "
                        "not answer an observed race)"
                    )
        if self.verify:
            checked = verify_submission(exercise_id, source, entry, registry)
            stats = checked.outcomes[0].stats
            if checked.findings:
                report.verify_findings[exercise_id] = checked.findings
            report.verify_stats[exercise_id] = {
                "schedules_explored": stats["schedules_explored"],
                "schedules_pruned": stats["schedules_pruned"],
                "proved": stats["proved"],
                "tokens": stats["tokens"],
            }
            if self.verify_gate and checked.findings:
                rules = ", ".join(
                    f"{rule} [replay {token}]"
                    for rule, token in sorted(stats["tokens"].items())
                ) or ", ".join(sorted({f.rule for f in checked.findings}))
                return (
                    f"model checker found a reachable failure ({rules}): "
                    "some interleaving of your code still breaks — replay "
                    "the schedule token to watch it happen"
                )
            if self.verify_gate and not stats["proved"]:
                return (
                    "model checker could not prove the fix: exploration "
                    f"was bounded (explored {stats['schedules_explored']} "
                    f"schedules, {stats['truncated_runs']} truncated). "
                    "Replace busy-waiting with blocking synchronization "
                    "so the schedule tree is finite"
                )
        return None

    def grade(self, student: str, submission: Mapping[str, Any]) -> GradeReport:
        """Grade one student."""
        report = GradeReport(student=student, results=[])
        for exercise in self.exercises:
            eid = exercise.exercise_id
            if eid not in submission:
                failed: Optional[str] = "not submitted"
            else:
                failed = self._run_stages(eid, submission[eid], report)
            if failed is not None:
                report.results.append(
                    ExerciseResult(
                        exercise_id=eid,
                        fraction=0.0,
                        points_earned=0.0,
                        points_possible=exercise.points,
                        error=failed,
                    )
                )
                continue
            submitted = submission[eid]
            if self.context is not None:
                with self.context.tracer.span(
                    f"lab.{eid}", cat="pedagogy", tid="autograder",
                    args={"student": student},
                ):
                    result = exercise.grade(submitted)
                self.context.registry.gauge(f"lab.{eid}.fraction").set(
                    result.fraction
                )
                self.context.registry.counter("lab.graded").inc()
            else:
                result = exercise.grade(submitted)
            report.results.append(result)
        return report

    def grade_cohort(
        self, submissions: Mapping[str, Mapping[str, Any]]
    ) -> Dict[str, GradeReport]:
        """Grade every student; keyed by student name."""
        return {s: self.grade(s, sub) for s, sub in submissions.items()}

    def sanity_check(self) -> List[str]:
        """Grade each exercise's reference submission; full credit expected.

        Returns the ids of exercises whose reference does *not* earn full
        credit — the instructor's pre-release checklist (empty == good).
        """
        bad: List[str] = []
        for exercise in self.exercises:
            if exercise.reference is None:
                continue
            if exercise.grade(exercise.reference).fraction < 1.0:
                bad.append(exercise.exercise_id)
        return bad
