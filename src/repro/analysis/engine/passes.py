"""Analyzer passes: the pluggable "what happens to one unit" layer.

An :class:`AnalyzerPass` is everything the engine needs to know about
one analyzer: how to load a unit's content (for hashing), how to
analyze it, what version/configuration it runs under (the cache key),
and how its findings render (tool name, SARIF rule table).  PDC-Lint
and PDC-San each ship one pass; a third analyzer plugs in by
subclassing and registering a factory — the engine, cache, pool, watch
loop, and CLI plumbing are all shared.

Passes cross process boundaries as a ``(kind, params)`` spec so the
worker pool can rebuild them without pickling analyzer internals.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine.outcome import FileOutcome, WorkUnit
from repro.analysis.report import apply_suppressions

__all__ = [
    "AnalyzerPass",
    "LintPass",
    "SanitizePass",
    "VerifyPass",
    "build_pass",
    "register_pass",
]

#: Bumped when an analyzer's semantics change; part of every cache key,
#: so stale entries from an older analyzer can never be replayed.
LINT_VERSION = "3"
SAN_VERSION = "2"
VERIFY_VERSION = "2"


class AnalyzerPass(abc.ABC):
    """One analyzer, as the engine sees it."""

    #: Tool name for renderers ("pdc-lint", "pdc-san").
    tool: str = ""
    #: Spec kind for :func:`build_pass` (worker-side reconstruction).
    kind: str = ""
    #: Analyzer version; changing it invalidates every cache entry.
    version: str = "0"
    #: Whether unreadable units still count in the ``files`` summary
    #: (pdc-lint's convention) or not (pdc-san counts actual runs).
    count_unreadable: bool = True

    @abc.abstractmethod
    def config_key(self) -> str:
        """Canonical string for the run configuration (cache scope)."""

    @abc.abstractmethod
    def params(self) -> Dict[str, object]:
        """Constructor kwargs for worker-side reconstruction."""

    @abc.abstractmethod
    def analyze(self, unit: WorkUnit, data: bytes) -> FileOutcome:
        """Analyze one loaded unit."""

    @abc.abstractmethod
    def sarif_rules(self) -> List[Tuple[str, str, str]]:
        """``(id, name, summary)`` driver metadata for SARIF logs."""

    @abc.abstractmethod
    def rule_table(self) -> str:
        """The human ``--list-rules`` table."""

    def load(self, unit: WorkUnit) -> bytes:
        """The unit's content bytes (hashed for the incremental cache)."""
        if unit.data is not None:
            return unit.data
        if unit.kind == "fixture":
            from repro.smp.fixtures import fixture

            return fixture(unit.key).source.encode("utf-8")
        with open(unit.key, "rb") as fh:
            return fh.read()

    def content_salt(self, unit: WorkUnit) -> str:
        """Extra per-unit material folded into the content digest."""
        return ""

    def spec(self) -> Tuple[str, Dict[str, object]]:
        """The picklable ``(kind, params)`` form of this pass."""
        return self.kind, self.params()


class LintPass(AnalyzerPass):
    """PDC-Lint: the static rules of :mod:`repro.analysis.rules`."""

    tool = "pdc-lint"
    kind = "lint"
    version = LINT_VERSION
    count_unreadable = True

    def __init__(self, select: Optional[Sequence[str]] = None) -> None:
        self.select = [str(s) for s in select] if select else None

    def config_key(self) -> str:
        from repro.analysis.rules import default_registry

        # The registered rule set is part of the configuration: adding a
        # rule (or narrowing --select) must invalidate cached findings.
        active = ",".join(r.id for r in default_registry().selected(self.select))
        chosen = ",".join(self.select) if self.select else "all"
        return f"select={chosen};rules={active}"

    def params(self) -> Dict[str, object]:
        return {"select": self.select}

    def analyze(self, unit: WorkUnit, data: bytes) -> FileOutcome:
        from repro.analysis.analyzer import ModuleContext
        from repro.analysis.rules import default_registry

        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            return FileOutcome(errors=[f"{unit.key}: {exc}"])
        try:
            ctx = ModuleContext.build(unit.key, source)
        except SyntaxError as exc:
            return FileOutcome(
                errors=[
                    f"{unit.key}: syntax error: {exc.msg} (line {exc.lineno})"
                ]
            )
        findings = []
        for rule in default_registry().selected(self.select):
            findings.extend(rule.check(ctx))
        kept, dropped = apply_suppressions(findings, source)
        return FileOutcome(findings=sorted(kept), suppressed=len(dropped))

    def sarif_rules(self) -> List[Tuple[str, str, str]]:
        from repro.analysis.rules import default_registry

        return [(r.id, r.name, r.summary) for r in default_registry().rules()]

    def rule_table(self) -> str:
        from repro.analysis.rules import default_registry

        return "\n".join(
            f"{r.id}  {r.name:<24} [{r.severity.value}] {r.summary}"
            for r in default_registry().rules()
        )


class SanitizePass(AnalyzerPass):
    """PDC-San: one deterministic instrumented execution per unit.

    Caching an *execution* is sound only because the runner is
    deterministic by construction (inline logical threads, seeded
    schedules): same source in, same findings out, every run.
    """

    tool = "pdc-san"
    kind = "sanitize"
    version = SAN_VERSION
    count_unreadable = False

    def __init__(self, entry: str = "main") -> None:
        self.entry = entry

    def config_key(self) -> str:
        return f"entry={self.entry}"

    def params(self) -> Dict[str, object]:
        return {"entry": self.entry}

    def content_salt(self, unit: WorkUnit) -> str:
        if unit.kind == "fixture":
            # A fixture's entry functions are part of what runs, so they
            # are part of the digest (its name alone is not content).
            from repro.smp.fixtures import fixture

            fix = fixture(unit.key)
            return f"{fix.dynamic_entry}|{','.join(fix.entrypoints)}"
        return ""

    def analyze(self, unit: WorkUnit, data: bytes) -> FileOutcome:
        from repro.sanitizers.runner import run_fixture, run_source

        if unit.kind == "fixture":
            from repro.smp.fixtures import fixture

            run = run_fixture(fixture(unit.key))
        else:
            run = run_source(
                data.decode("utf-8"), path=unit.key, entry=self.entry
            )
        return FileOutcome(
            findings=list(run.findings),
            suppressed=len(run.suppressed),
            errors=list(run.errors),
        )

    def sarif_rules(self) -> List[Tuple[str, str, str]]:
        from repro.sanitizers.findings import DYNAMIC_RULES

        return [
            (rid, name, summary)
            for rid, (name, _sev, summary) in sorted(DYNAMIC_RULES.items())
        ]

    def rule_table(self) -> str:
        from repro.sanitizers.findings import DYNAMIC_RULES

        return "\n".join(
            f"{rid}  {name:<24} [{severity.value}] {summary}"
            for rid, (name, severity, summary) in sorted(DYNAMIC_RULES.items())
        )


class VerifyPass(AnalyzerPass):
    """PDC-Verify: exhaustive schedule exploration per unit.

    Caching a *model-checking verdict* is sound for the same reason
    caching a sanitizer run is — the exploration is a deterministic
    function of the source, the mode, and the budget, all of which are
    in the cache key.  The outcome's ``stats`` carry the receipts a
    grader reports beside the findings: ``schedules_explored``,
    ``schedules_pruned``, ``truncated_runs``, ``proved`` and the replay
    ``tokens`` per rule, so a cache hit answers everything a fresh
    exploration would.
    """

    tool = "pdc-verify"
    kind = "verify"
    version = VERIFY_VERSION
    count_unreadable = False

    def __init__(
        self,
        entry: str = "main",
        mode: str = "dpor",
        max_schedules: Optional[int] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        self.entry = entry
        self.mode = mode
        self.max_schedules = max_schedules
        self.max_steps = max_steps

    def config_key(self) -> str:
        return (
            f"entry={self.entry};mode={self.mode};"
            f"schedules={self.max_schedules};steps={self.max_steps}"
        )

    def params(self) -> Dict[str, object]:
        return {
            "entry": self.entry,
            "mode": self.mode,
            "max_schedules": self.max_schedules,
            "max_steps": self.max_steps,
        }

    def content_salt(self, unit: WorkUnit) -> str:
        if unit.kind == "fixture":
            # Entry functions and exploration bounds are part of what
            # gets checked, so they are part of the digest.
            from repro.smp.fixtures import fixture

            fix = fixture(unit.key)
            return (
                f"{fix.dynamic_entry}|{','.join(fix.entrypoints)}"
                f"|{fix.verify_budget}|{fix.verify_max_steps}"
            )
        return ""

    def _budget(self, fix=None):
        from repro.verify.explorer import ExploreBudget, fixture_budget

        if self.max_schedules is None and self.max_steps is None:
            return fixture_budget(fix) if fix is not None else ExploreBudget()
        base = fixture_budget(fix) if fix is not None else ExploreBudget()
        return ExploreBudget(
            max_schedules=self.max_schedules or base.max_schedules,
            max_steps_per_task=self.max_steps or base.max_steps_per_task,
        )

    def analyze(self, unit: WorkUnit, data: bytes) -> FileOutcome:
        from repro.verify.explorer import explore_fixture, explore_source

        if unit.kind == "fixture":
            from repro.smp.fixtures import fixture

            fix = fixture(unit.key)
            result = explore_fixture(
                fix, mode=self.mode, budget=self._budget(fix)
            )
        else:
            result = explore_source(
                data.decode("utf-8"),
                path=unit.key,
                entry=self.entry,
                mode=self.mode,
                budget=self._budget(),
            )
        return FileOutcome(
            findings=list(result.findings),
            errors=list(result.errors),
            stats={
                "schedules_explored": result.schedules_explored,
                "schedules_pruned": result.schedules_pruned,
                "truncated_runs": result.truncated_runs,
                "proved": result.proved,
                "tokens": dict(result.tokens),
            },
        )

    def sarif_rules(self) -> List[Tuple[str, str, str]]:
        from repro.sanitizers.findings import DYNAMIC_RULES

        return [
            (rid, name, summary)
            for rid, (name, _sev, summary) in sorted(DYNAMIC_RULES.items())
        ]

    def rule_table(self) -> str:
        from repro.sanitizers.findings import DYNAMIC_RULES

        return "\n".join(
            f"{rid}  {name:<24} [{severity.value}] {summary}"
            for rid, (name, severity, summary) in sorted(DYNAMIC_RULES.items())
        )


_PASS_FACTORIES: Dict[str, Callable[..., AnalyzerPass]] = {}


def register_pass(kind: str, factory: Callable[..., AnalyzerPass]) -> None:
    """Register a pass factory under ``kind`` (third analyzers hook in)."""
    if kind in _PASS_FACTORIES:
        raise ValueError(f"duplicate pass kind {kind!r}")
    _PASS_FACTORIES[kind] = factory


register_pass("lint", LintPass)
register_pass("sanitize", SanitizePass)
register_pass("verify", VerifyPass)


def build_pass(kind: str, params: Dict[str, object]) -> AnalyzerPass:
    """Rebuild a pass from its spec (the worker side of :meth:`spec`)."""
    try:
        factory = _PASS_FACTORIES[kind]
    except KeyError:
        raise ValueError(f"unknown analyzer pass kind {kind!r}") from None
    return factory(**params)
