"""Stateless DFS schedule exploration with dynamic partial-order reduction.

The explorer re-executes a program from scratch under successive choice
prefixes (stateless model checking: no state snapshots, the scheduled
runner *is* the state).  Two modes:

``dfs``
    Naive depth-first enumeration of every schedule: at each decision
    node, try every enabled task.  The ground truth the reduction is
    measured against.

``dpor``
    Dynamic partial-order reduction in the Flanagan–Godefroid style.
    Each executed event carries the running task's FastTrack vector
    clock (captured *before* the operation), so two events of different
    tasks are provably ordered exactly when the later one's clock has
    caught up with the earlier task's own entry.  For every pair of
    *conflicting, concurrent* events the explorer plants a backtrack
    point before the earlier one; only backtrack choices are expanded.
    Sleep sets kill the remaining sibling redundancy: a choice fully
    explored at a node stays asleep in later sibling subtrees until a
    dependent operation executes.

Both modes count what they did: ``schedules_explored`` is the number of
complete executions, ``schedules_pruned`` is the number of enabled
branches never expanded — the receipts behind the "DPOR explores N×
fewer schedules at identical verdicts" claim, asserted in the tests and
published by the CI stats artifact.

Disjoint subtrees fan out across a process pool (``split=N``): the
first branching decision of the schedule tree partitions it into one
frozen-prefix subtree per enabled choice (every decision above the
first branch is forced, so no backtrack point can escape the
partition), workers explore independently, and verdicts merge
deterministically in branch order.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import Finding
from repro.sanitizers.runner import RunResult, run_source
from repro.verify.scheduler import ReplayScheduler, ScheduleEvent, SchedulerError
from repro.verify.token import decode_token, encode_token

__all__ = [
    "ExploreBudget",
    "VerifyResult",
    "explore_fixture",
    "explore_source",
    "replay_fixture",
    "replay_source",
]

DEFAULT_MAX_SCHEDULES = 2000
DEFAULT_MAX_STEPS = 400


@dataclasses.dataclass(frozen=True)
class ExploreBudget:
    """Bounds on one exploration (spin loops admit infinite schedules)."""

    #: Stop after this many complete executions.
    max_schedules: int = DEFAULT_MAX_SCHEDULES
    #: Per-task step cap within one execution (busy-wait bound).
    max_steps_per_task: int = DEFAULT_MAX_STEPS


@dataclasses.dataclass
class VerifyResult:
    """The checker's verdict over every schedule it explored."""

    target: str
    mode: str
    schedules_explored: int
    schedules_pruned: int
    #: Executions cut short by the per-task step cap (spin loops).
    truncated_runs: int
    #: True when the schedule tree was drained within budget — with
    #: ``truncated_runs == 0`` this is a *proof* over all interleavings,
    #: otherwise a bounded (CHESS-style) exploration.
    complete: bool
    findings: List[Finding]
    errors: List[str]
    #: First schedule token that produced each finding rule — replay it
    #: with :func:`replay_fixture` for the byte-identical execution.
    tokens: Dict[str, str]

    @property
    def rules(self) -> Set[str]:
        return {f.rule for f in self.findings}

    @property
    def proved(self) -> bool:
        """Exhaustive and untruncated: verdicts hold for *every* schedule."""
        return self.complete and self.truncated_runs == 0

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


@dataclasses.dataclass(frozen=True)
class _Target:
    """A runnable program, picklable for the process-pool workers."""

    source: str
    path: str
    entry: Optional[str]
    entrypoints: Tuple[str, ...]

    def run(self, scheduler: ReplayScheduler) -> RunResult:
        return run_source(
            self.source,
            path=self.path,
            entry=self.entry,
            entrypoints=self.entrypoints,
            scheduler=scheduler,
        )


class _Node:
    """One decision point on the current DFS path."""

    __slots__ = ("enabled", "pending", "chosen", "done", "backtrack", "sleep")

    def __init__(self, event: ScheduleEvent, sleep: Set[int]) -> None:
        self.enabled: Tuple[int, ...] = event.enabled
        self.pending: Dict[int, Tuple[str, str]] = dict(event.pending)
        self.chosen: int = event.task
        self.done: Set[int] = set()
        self.backtrack: Set[int] = {event.task}
        self.sleep: Set[int] = set(sleep)


def _dependent(op_a: Tuple[str, str], op_b: Tuple[str, str]) -> bool:
    """Two operations conflict when they touch the same object and are
    not both reads — the only case where order is observable."""
    if op_a[1] != op_b[1]:
        return False
    return not (op_a[0] == "rd" and op_b[0] == "rd")


def _happens_before(earlier: ScheduleEvent, later: ScheduleEvent) -> bool:
    """Vector-clock test: has ``later``'s task seen ``earlier``'s tick?"""
    if earlier.task == later.task:
        return True
    own = earlier.clock.get(earlier.det, 0)
    return later.clock.get(earlier.det, 0) >= own


def _plant_backtracks(
    nodes: List[_Node], events: List[ScheduleEvent]
) -> None:
    """For every conflicting concurrent pair, request the later task be
    tried before the earlier event — the DPOR backtrack points."""
    for j, later in enumerate(events):
        for i in range(j):
            earlier = events[i]
            if earlier.task == later.task:
                continue
            if not _dependent(
                (earlier.kind, earlier.obj), (later.kind, later.obj)
            ):
                continue
            if _happens_before(earlier, later):
                continue
            node = nodes[i]
            if later.task in node.enabled:
                node.backtrack.add(later.task)
            else:
                node.backtrack.update(node.enabled)


def _absorb_trace(
    nodes: List[_Node], events: List[ScheduleEvent]
) -> None:
    """Fold one executed trace into the node path: reuse the replayed
    prefix, append fresh nodes past it, and recompute sleep sets along
    the way (a sleeping choice wakes when a dependent op executes)."""
    sleep: Set[int] = set()
    for depth, event in enumerate(events):
        if depth < len(nodes):
            node = nodes[depth]
            if node.chosen != event.task:
                raise SchedulerError(
                    f"replay diverged at depth {depth}: expected task "
                    f"{node.chosen}, ran {event.task}"
                )
            node.sleep = set(sleep)
        else:
            node = _Node(event, sleep)
            nodes.append(node)
        chosen_op = node.pending.get(event.task, (event.kind, event.obj))
        sleep = {
            q
            for q in (node.sleep | node.done)
            if q != event.task
            and q in node.pending
            and not _dependent(node.pending[q], chosen_op)
        }
    del nodes[len(events):]


def _explore(
    target: _Target,
    mode: str,
    budget: ExploreBudget,
    pin: Sequence[int] = (),
) -> VerifyResult:
    """Drain the schedule tree below the pinned prefix.

    ``pin`` freezes the first ``len(pin)`` choices: the frontier
    splitter uses it to hand each worker a disjoint subtree (nodes at
    pinned depths are never backtracked).
    """
    if mode not in ("dfs", "dpor"):
        raise ValueError(f"unknown exploration mode {mode!r}")
    nodes: List[_Node] = []
    prefix: List[int] = list(pin)
    explored = 0
    pruned = 0
    truncated = 0
    complete = True
    findings: Dict[Tuple, Finding] = {}
    tokens: Dict[str, str] = {}
    errors: List[str] = []
    while True:
        if explored >= budget.max_schedules:
            complete = False
            break
        scheduler = ReplayScheduler(
            prefix=prefix, max_steps_per_task=budget.max_steps_per_task
        )
        try:
            result = target.run(scheduler)
        except SchedulerError as exc:
            errors.append(f"scheduler error: {exc}")
            complete = False
            break
        explored += 1
        trace = scheduler.trace
        if trace.truncated:
            truncated += 1
        token = result.schedule or encode_token(trace.choices)
        for finding in result.findings:
            key = (
                finding.rule, finding.path, finding.line, finding.col,
                finding.symbol, finding.message,
            )
            if key not in findings:
                findings[key] = finding
            tokens.setdefault(finding.rule, token)
        for error in result.errors:
            if error not in errors:
                errors.append(error)
        _absorb_trace(nodes, trace.events)
        if mode == "dpor":
            _plant_backtracks(nodes, trace.events)
        # Backtrack: pop exhausted nodes, then take the deepest pending
        # choice.  Deepest-first is what makes "pop ⇒ subtree done" true.
        depth = len(nodes) - 1
        descend: Optional[Tuple[int, int]] = None
        while depth >= len(pin):
            node = nodes[depth]
            node.done.add(node.chosen)
            if mode == "dpor":
                candidates = node.backtrack - node.done - node.sleep
            else:
                candidates = set(node.enabled) - node.done
            if candidates:
                descend = (depth, min(candidates))
                break
            pruned += len(node.enabled) - len(node.done)
            del nodes[depth]
            depth -= 1
        if descend is None:
            break
        depth, choice = descend
        node = nodes[depth]
        node.chosen = choice
        del nodes[depth + 1:]
        prefix = [nodes[k].chosen for k in range(depth + 1)]
    return VerifyResult(
        target=target.path,
        mode=mode,
        schedules_explored=explored,
        schedules_pruned=pruned,
        truncated_runs=truncated,
        complete=complete,
        findings=sorted(findings.values()),
        errors=errors,
        tokens=tokens,
    )


def _explore_subtree(
    target: _Target,
    mode: str,
    budget: ExploreBudget,
    pin: Tuple[int, ...],
) -> VerifyResult:
    """Process-pool entry point: one frozen-prefix subtree."""
    return _explore(target, mode, budget, pin=pin)


def _explore_split(
    target: _Target, mode: str, budget: ExploreBudget, split: int
) -> VerifyResult:
    """Partition the tree at its first branching decision and explore
    each branch in its own process; merge verdicts in branch order.

    Sound because every decision above the first branch has exactly one
    enabled task — no backtrack point can land outside the partition —
    and the partition expands *all* enabled choices at the branch node,
    a superset of any backtrack set DPOR could request there.
    """
    probe = ReplayScheduler(max_steps_per_task=budget.max_steps_per_task)
    target.run(probe)
    branch_depth = None
    for event in probe.trace.events:
        if len(event.enabled) > 1:
            branch_depth = event.index
            break
    if branch_depth is None:  # a single-schedule program
        return _explore(target, mode, budget)
    frozen = tuple(probe.trace.choices[:branch_depth])
    branches = sorted(probe.trace.events[branch_depth].enabled)
    share = ExploreBudget(
        max_schedules=max(1, budget.max_schedules // len(branches)),
        max_steps_per_task=budget.max_steps_per_task,
    )
    with ProcessPoolExecutor(max_workers=split) as pool:
        futures = [
            pool.submit(
                _explore_subtree, target, mode, share, frozen + (choice,)
            )
            for choice in branches
        ]
        parts = [future.result() for future in futures]
    findings: Dict[Tuple, Finding] = {}
    tokens: Dict[str, str] = {}
    errors: List[str] = []
    for part in parts:  # branch order: the merge is deterministic
        for finding in part.findings:
            key = (
                finding.rule, finding.path, finding.line, finding.col,
                finding.symbol, finding.message,
            )
            findings.setdefault(key, finding)
        for rule, token in sorted(part.tokens.items()):
            tokens.setdefault(rule, token)
        for error in part.errors:
            if error not in errors:
                errors.append(error)
    return VerifyResult(
        target=target.path,
        mode=mode,
        schedules_explored=sum(p.schedules_explored for p in parts),
        schedules_pruned=sum(p.schedules_pruned for p in parts),
        truncated_runs=sum(p.truncated_runs for p in parts),
        complete=all(p.complete for p in parts),
        findings=sorted(findings.values()),
        errors=errors,
        tokens=tokens,
    )


def explore_source(
    source: str,
    path: str = "<module>",
    entry: Optional[str] = "main",
    entrypoints: Sequence[str] = (),
    mode: str = "dpor",
    budget: Optional[ExploreBudget] = None,
    split: int = 0,
) -> VerifyResult:
    """Model-check ``source`` over every relevant interleaving."""
    budget = budget if budget is not None else ExploreBudget()
    target = _Target(source, path, entry, tuple(entrypoints))
    if split and split > 1:
        return _explore_split(target, mode, budget, split)
    return _explore(target, mode, budget)


def _fixture_of(fix):
    if isinstance(fix, str):
        from repro.smp.fixtures import fixture

        return fixture(fix)
    return fix


def _fixture_target(fix) -> _Target:
    entry = getattr(fix, "dynamic_entry", None)
    entrypoints = tuple(fix.entrypoints) if not entry else ()
    if entry is None and not entrypoints:
        raise ValueError(
            f"fixture {fix.name!r} is not dynamically runnable "
            "(no dynamic_entry or entrypoints)"
        )
    return _Target(fix.source, f"<fixture:{fix.name}>", entry, entrypoints)


def fixture_budget(fix) -> ExploreBudget:
    """The fixture's annotated exploration bounds (defaults otherwise)."""
    return ExploreBudget(
        max_schedules=getattr(fix, "verify_budget", None)
        or DEFAULT_MAX_SCHEDULES,
        max_steps_per_task=getattr(fix, "verify_max_steps", None)
        or DEFAULT_MAX_STEPS,
    )


def explore_fixture(
    fix,
    mode: str = "dpor",
    budget: Optional[ExploreBudget] = None,
    split: int = 0,
) -> VerifyResult:
    """Model-check a twin-corpus fixture (by name or object), honoring
    its machine-readable ``verify_*`` annotations for bounds."""
    fix = _fixture_of(fix)
    target = _fixture_target(fix)
    budget = budget if budget is not None else fixture_budget(fix)
    if split and split > 1:
        return _explore_split(target, mode, budget, split)
    return _explore(target, mode, budget)


def replay_source(
    source: str,
    token: str,
    path: str = "<module>",
    entry: Optional[str] = "main",
    entrypoints: Sequence[str] = (),
) -> RunResult:
    """Re-execute exactly the interleaving ``token`` encodes.

    Strict replay: the program must still accept the schedule (same
    source ⇒ same decisions ⇒ byte-identical findings); a divergence
    raises :class:`repro.verify.scheduler.SchedulerError`.
    """
    scheduler = ReplayScheduler(prefix=decode_token(token), strict=True)
    return run_source(
        source,
        path=path,
        entry=entry,
        entrypoints=entrypoints,
        scheduler=scheduler,
    )


def replay_fixture(fix, token: str) -> RunResult:
    """Replay one schedule of a fixture, byte-identically."""
    fix = _fixture_of(fix)
    target = _fixture_target(fix)
    return replay_source(
        target.source,
        token,
        path=target.path,
        entry=target.entry,
        entrypoints=target.entrypoints,
    )
