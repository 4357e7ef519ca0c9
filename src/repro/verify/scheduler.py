"""The cooperative replay scheduler: one runnable thread at a time.

The sanitizer runner's inline mode executes each logical thread to
completion — exactly one schedule.  In *scheduled* mode every hook
event becomes a **decision point**, and there is no driver thread: the
task that reaches one publishes the operation it is about to perform
and, under the scheduler's one lock, makes the next choice itself —
from a replayed prefix first, then a fixed default policy.  If it
picks itself it simply continues; otherwise it hands the baton to
exactly the chosen task and parks.  A finishing task makes the choice
for its successor the same way.  Exactly one task ever runs between
decisions, so the execution is a pure function of the choice sequence:
the property that makes stateless model checking (re-execute from
scratch under a different prefix) and token replay (same prefix ⇒
byte-identical findings) both work.  The thread that called
:meth:`ReplayScheduler.run` only starts the root task and waits for
whichever task ends the run.

Blocking is real here, unlike in the inline runner: a lock acquire on
a held lock, a join on an unfinished task, a wait on an unset event, a
semaphore at zero, a non-final barrier arrival — all *disable* the
task until the state changes.  When every live task is disabled the
program has genuinely deadlocked, and the choosing task reports the
wait-for cycle instead of hanging.  Per-task step caps bound busy-wait
loops (the schedules a spin admits are infinite; the checker explores
them up to the bound and counts the truncation honestly).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.sanitizers.sites import AccessSite, call_site

__all__ = [
    "DeadlockReached",
    "ReplayScheduler",
    "ScheduleEvent",
    "ScheduleTrace",
    "SchedulerError",
]

#: Operation kinds that never block (always enabled once published).
_NONBLOCKING = frozenset({
    "begin", "rd", "wr", "spawn", "release", "sem_post", "evt_set",
    "resume", "cond_wait",
})

#: Seconds without a recorded choice before a run is declared stuck: a
#: task that never reaches a decision point is a checker bug, not a hang.
_WAIT_TIMEOUT = 30.0


class SchedulerError(RuntimeError):
    """The scheduler lost a task or was given an unusable schedule."""


class DeadlockReached(Exception):
    """Internal marker: every live task is blocked."""


class _AbortRun(BaseException):
    """Raised inside a parked task to unwind it after the run is over.

    Derives from ``BaseException`` so user-level ``except Exception``
    blocks in fixture code cannot swallow the unwind.
    """


@dataclasses.dataclass(frozen=True)
class ScheduleEvent:
    """One executed decision: who ran, what they did, under which clock."""

    index: int
    task: int
    kind: str
    obj: str
    #: The task's FastTrack vector clock *before* the operation ran —
    #: the happens-before material DPOR computes backtrack points from.
    clock: Dict[int, int]
    #: Task indices that were enabled when this choice was made.
    enabled: Tuple[int, ...]
    #: The chosen task's detector tid (the key of its own clock entry).
    det: int = 0
    #: Pending ``(kind, obj)`` of *every* enabled task at this decision —
    #: what sleep sets need to judge independence of the roads not taken.
    pending: Dict[int, Tuple[str, str]] = dataclasses.field(
        default_factory=dict
    )


@dataclasses.dataclass
class ScheduleTrace:
    """Everything one scheduled execution produced, scheduler-side."""

    choices: List[int]
    events: List[ScheduleEvent]
    #: ``(cycle, site)`` when the run reached a real deadlock.
    deadlock: Optional[Tuple[List[str], AccessSite]] = None
    #: True when a per-task step cap cut the run short (spin loops).
    truncated: bool = False
    #: ``(task name, exception)`` for every task body that raised.
    crashes: List[Tuple[str, BaseException]] = dataclasses.field(
        default_factory=list
    )


class _Task:
    """One logical thread under the scheduler's control."""

    __slots__ = (
        "index", "name", "fn", "det_tid", "thread", "sem", "state",
        "pending", "site", "abort", "steps",
    )

    def __init__(self, index: int, name: str, fn: Callable[[], None]) -> None:
        self.index = index
        self.name = name
        self.fn = fn
        self.det_tid: Optional[int] = None
        self.thread: Optional[threading.Thread] = None
        self.sem = threading.Semaphore(0)
        self.state = "new"  # new | parked | running | done
        self.pending: Tuple[str, str] = ("begin", name)
        self.site: Optional[AccessSite] = None
        self.abort = False
        self.steps = 0


class ReplayScheduler:
    """Drive a scheduled sanitizer run along a (partial) choice sequence.

    ``prefix`` is replayed verbatim; past its end, ``strict=False`` runs
    the deterministic default policy (lowest enabled task index) to
    completion, while ``strict=True`` treats exhausting the prefix with
    live tasks as an error — the token-replay contract.
    """

    def __init__(
        self,
        prefix: Sequence[int] = (),
        max_steps_per_task: int = 400,
        strict: bool = False,
    ) -> None:
        self.prefix = list(prefix)
        self.max_steps_per_task = max_steps_per_task
        self.strict = strict
        self.trace = ScheduleTrace(choices=[], events=[])
        self.detector: Any = None  # FastTrackDetector, set by the runner
        self._tasks: List[_Task] = []
        self._local = threading.local()
        #: Guards every piece of shared state below: whichever task makes
        #: a choice holds it for the whole decision.
        self._lock = threading.Lock()
        #: Released once, by the task that ends the run.
        self._done = threading.Semaphore(0)
        self._over = False
        #: An exception raised while choosing, re-raised by :meth:`run`.
        self._error: Optional[Exception] = None
        self._lock_owner: Dict[str, Optional[int]] = {}
        self._sem_count: Dict[str, int] = {}
        self._evt_set: Set[str] = set()
        self._barrier_parties: Dict[str, int] = {}
        self._obj_keys: Dict[int, str] = {}
        self._obj_count = 0
        self._running = False

    # -- object identity ---------------------------------------------------
    def _key(self, kind: str, obj: object) -> str:
        """A stable per-run key for a synchronization object: first-seen
        order, which deterministic execution keeps identical across
        replays of the same program."""
        if isinstance(obj, str):
            return obj
        ident = id(obj)
        key = self._obj_keys.get(ident)
        if key is None:
            name = getattr(obj, "name", None)
            key = name if isinstance(name, str) else f"{kind}#{self._obj_count}"
            self._obj_count += 1
            self._obj_keys[ident] = key
        return key

    # -- the runner-facing surface ----------------------------------------
    def current_task(self) -> _Task:
        task = getattr(self._local, "task", None)
        if task is None:
            raise SchedulerError(
                "scheduler operation from a thread it does not own"
            )
        return task

    def spawn(self, name: str, fn: Callable[[], None], det_tid: int) -> _Task:
        """Register a new logical thread (it runs only when chosen)."""
        with self._lock:
            task = _Task(len(self._tasks), name, fn)
            task.det_tid = det_tid
            self._tasks.append(task)
        task.thread = threading.Thread(
            target=self._task_body, args=(task,), name=name, daemon=True
        )
        task.thread.start()
        return task

    def op(self, kind: str, obj: object) -> None:
        """A non-blocking decision point (reads, writes, releases...)."""
        self._decision(kind, self._key(kind, obj))

    def lock_acquire(self, lock: object) -> None:
        key = self._key("lock", lock)
        self._decision("acquire", key)

    def lock_release(self, lock: object) -> None:
        self._decision("release", self._key("lock", lock))

    def sem_init(self, sem: object, value: int) -> None:
        key = self._key("sem", sem)
        with self._lock:
            self._sem_count[key] = value

    def sem_wait(self, sem: object) -> None:
        self._decision("sem_wait", self._key("sem", sem))

    def sem_post(self, sem: object) -> None:
        self._decision("sem_post", self._key("sem", sem))

    def event_set(self, event: object) -> None:
        self._decision("evt_set", self._key("evt", event))

    def event_wait(self, event: object) -> None:
        self._decision("evt_wait", self._key("evt", event))

    def barrier_wait(self, barrier: object, parties: int) -> None:
        key = self._key("barrier", barrier)
        with self._lock:
            self._barrier_parties[key] = parties
        self._decision("barrier", key)

    def join(self, target: "_Task") -> None:
        self._decision("join", f"task:{target.index}")

    # -- task side ---------------------------------------------------------
    def _task_body(self, task: _Task) -> None:
        task.sem.acquire()  # run() starts the root; a chosen "begin" the rest
        if task.abort:
            return
        if self.detector is not None and task.det_tid is not None:
            self.detector.bind(task.det_tid)
        self._local.task = task
        try:
            task.fn()
        except _AbortRun:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported in the trace
            with self._lock:
                self.trace.crashes.append((task.name, exc))
        finally:
            # The finishing task chooses its successor.
            chosen = self._hand_off(task, "done")
            if chosen is not None:
                chosen.sem.release()

    def _decision(self, kind: str, key: str) -> None:
        task = self.current_task()
        if task.abort:
            # The run is over and this task is unwinding; a decision hit
            # inside a ``finally`` must not park again (nobody resumes).
            raise _AbortRun()
        # Only a blocked task's site is ever read (deadlock reports), and
        # a blocked task's last decision is always a blocking one.
        site = None if kind in _NONBLOCKING else call_site(task.name)
        chosen = self._hand_off(task, "parked", (kind, key), site)
        if chosen is task:
            return
        if chosen is not None:
            chosen.sem.release()
            task.sem.acquire()
        if chosen is None or task.abort:
            raise _AbortRun()

    def _hand_off(
        self,
        task: _Task,
        state: str,
        pending: Optional[Tuple[str, str]] = None,
        site: Optional[AccessSite] = None,
    ) -> Optional[_Task]:
        """Publish ``task``'s new state and make the next choice on the
        calling thread.  Returns the task to run next (already marked
        running), or ``None`` once the run is over."""
        with self._lock:
            task.state = state
            if pending is not None:
                task.pending = pending
            if site is not None:
                task.site = site
            if self._over:
                return None
            try:
                chosen = self._choose()
            except Exception as exc:  # noqa: BLE001 - re-raised by run()
                self._error = exc
                chosen = None
            if chosen is None:
                self._over = True
                self._done.release()
            return chosen

    # -- enabledness -------------------------------------------------------
    def _enabled(self, task: _Task) -> bool:
        kind, key = task.pending
        if kind in _NONBLOCKING:
            return True
        if kind == "acquire":
            owner = self._lock_owner.get(key)
            return owner is None or owner == task.index
        if kind == "sem_wait":
            return self._sem_count.get(key, 0) > 0
        if kind == "evt_wait":
            return key in self._evt_set
        if kind == "join":
            target = self._tasks[int(key.split(":", 1)[1])]
            return target.state == "done"
        if kind == "barrier":
            waiting = sum(
                1 for t in self._tasks
                if t.state == "parked" and t.pending == ("barrier", key)
            )
            return waiting >= self._barrier_parties.get(key, 1)
        return True

    def _apply(self, task: _Task) -> None:
        """State updates that happen the instant a choice is made."""
        kind, key = task.pending
        if kind == "acquire":
            self._lock_owner[key] = task.index
        elif kind == "release":
            self._lock_owner[key] = None
        elif kind == "sem_post":
            self._sem_count[key] = self._sem_count.get(key, 0) + 1
        elif kind == "evt_set":
            self._evt_set.add(key)
        elif kind == "sem_wait":
            self._sem_count[key] = self._sem_count.get(key, 0) - 1
        elif kind == "barrier":
            # The chosen arriver completes the generation: every other
            # waiter is released (each still needs its own resume choice,
            # so the departure order stays part of the schedule).
            for t in self._tasks:
                if (
                    t is not task and t.state == "parked"
                    and t.pending == ("barrier", key)
                ):
                    t.pending = ("resume", key)

    # -- deadlock reporting ------------------------------------------------
    def _wait_cycle(self, blocked: List[_Task]) -> List[str]:
        """The wait-for cycle among blocked tasks (canonical rotation),
        or every blocked task's name when no single cycle explains it."""
        waits_on: Dict[int, int] = {}
        for t in blocked:
            kind, key = t.pending
            holder: Optional[int] = None
            if kind == "acquire":
                holder = self._lock_owner.get(key)
            elif kind == "join":
                target = self._tasks[int(key.split(":", 1)[1])]
                if target.state != "done":
                    holder = target.index
            if holder is not None and holder != t.index:
                waits_on[t.index] = holder
        for start in sorted(waits_on):
            seen: List[int] = []
            node = start
            while node in waits_on and node not in seen:
                seen.append(node)
                node = waits_on[node]
            if node in seen:
                cycle = seen[seen.index(node):]
                pivot = min(range(len(cycle)), key=cycle.__getitem__)
                cycle = cycle[pivot:] + cycle[:pivot]
                return [self._tasks[i].name for i in cycle]
        return sorted(t.name for t in blocked)

    # -- choosing ----------------------------------------------------------
    def run(self, root_fn: Callable[[], None], root_name: str = "main") -> ScheduleTrace:
        """Execute ``root_fn`` (and every task it spawns) to completion,
        scheduling one task per decision.  Returns the trace."""
        if self._running:
            raise SchedulerError("a ReplayScheduler drives exactly one run")
        self._running = True
        root_tid = None
        if self.detector is not None:
            root_tid = self.detector.fork_child(name=root_name)
        root = _Task(0, root_name, root_fn)
        root.det_tid = root_tid
        root.state = "running"
        with self._lock:
            self._tasks.append(root)
        root.thread = threading.Thread(
            target=self._task_body, args=(root,), name=root_name, daemon=True
        )
        root.thread.start()
        try:
            root.sem.release()
            self._await_end()
        finally:
            self._abort_all()
        with self._lock:
            error = self._error
        if error is not None:
            raise error
        return self.trace

    def _await_end(self) -> None:
        """Block until some task ends the run; raise if no choice is
        recorded during a whole ``_WAIT_TIMEOUT`` window."""
        seen = 0
        while not self._done.acquire(timeout=_WAIT_TIMEOUT):
            with self._lock:
                made = len(self.trace.choices)
                running = [t.name for t in self._tasks if t.state == "running"]
            if made == seen:
                raise SchedulerError(
                    f"task {running[0] if running else '?'} stopped "
                    "responding (missed decision point?)"
                )
            seen = made

    def _choose(self) -> Optional[_Task]:
        """One decision (caller holds ``self._lock``): the chosen task,
        or ``None`` when the run ends here."""
        # The chooser has just parked or finished, so every live task is
        # parked or "new" (spawned, never yet chosen: it waits inside its
        # OS thread for a first resume and is schedulable like a parked
        # one).
        live = [t for t in self._tasks if t.state != "done"]
        if not live:
            return None
        enabled = [t for t in live if self._enabled(t)]
        if not enabled:
            cycle = self._wait_cycle(live)
            # Report the site of a task *in* the cycle (their frames
            # point at fixture lines; the root task's join frame would
            # point into the runner plumbing).
            in_cycle = set(cycle)
            site = min(
                (
                    t.site for t in live
                    if t.site is not None and t.name in in_cycle
                ),
                default=AccessSite("<scheduler>", 0),
            )
            self.trace.deadlock = (cycle, site)
            return None
        chosen = self._pick(enabled)
        if chosen is None:  # strict replay ran out of schedule
            return None
        if chosen.steps >= self.max_steps_per_task:
            self.trace.truncated = True
            return None
        chosen.steps += 1
        self._record(chosen, enabled)
        self._apply(chosen)
        chosen.state = "running"
        return chosen

    def _pick(self, enabled: List[_Task]) -> Optional[_Task]:
        index = len(self.trace.choices)
        if index < len(self.prefix):
            want = self.prefix[index]
            for t in enabled:
                if t.index == want:
                    return t
            raise SchedulerError(
                f"schedule step {index}: task {want} is not enabled "
                f"(enabled: {[t.index for t in enabled]})"
            )
        if self.strict:
            return None
        return min(enabled, key=lambda t: t.index)

    def _record(self, chosen: _Task, enabled: List[_Task]) -> None:
        clock: Dict[int, int] = {}
        if self.detector is not None and chosen.det_tid is not None:
            clock = self.detector.clock_of(chosen.det_tid)
        kind, key = chosen.pending
        self.trace.events.append(ScheduleEvent(
            index=len(self.trace.choices),
            task=chosen.index,
            kind=kind,
            obj=key,
            clock=clock,
            enabled=tuple(sorted(t.index for t in enabled)),
            det=chosen.det_tid if chosen.det_tid is not None else 0,
            pending={t.index: t.pending for t in enabled},
        ))
        self.trace.choices.append(chosen.index)

    def _abort_all(self) -> None:
        with self._lock:
            self._over = True
            tasks = list(self._tasks)
            stopped = [t for t in tasks if t.state != "done"]
            for task in stopped:
                task.abort = True
        for task in stopped:
            task.sem.release()
        for task in tasks:
            if task.thread is not None:
                task.thread.join(timeout=_WAIT_TIMEOUT)
