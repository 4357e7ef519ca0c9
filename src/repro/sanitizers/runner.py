"""Run a module under PDC-San instrumentation, deterministically.

The runner executes rewritten source (:mod:`repro.sanitizers.rewrite`)
in a namespace whose ``threading`` module is replaced by sanitized
stand-ins.  The crucial choice is that spawned threads are **logical**:
``Thread.start()`` runs the target *inline, to completion*, on the
calling OS thread, while the FastTrack detector tracks it as a separate
thread via a logical-tid stack.  Sequential execution changes nothing
about the happens-before analysis — the fork edge still orders parent
before child, two children are still mutually unordered — but it makes
the verdict **schedule-independent**: same source in, same findings
out, every run, which is what lets CI assert on sanitizer output and
lets the same-seed determinism criterion hold trivially.

(The trade-off, stated honestly: programs whose *liveness* depends on
real concurrency — a spin loop waiting for another thread, a barrier
with blocking semantics — cannot be replayed inline.  Those are
exercised with real threads in the unit tests instead; the corpus marks
which fixtures are runnable via ``dynamic_entry``/``entrypoints``.)

Lock nesting is simultaneously fed to a lock-order audit, so an ABBA
pattern surfaces as a PDC302 finding even though the sequential replay
can never actually deadlock — the same trick
:func:`repro.smp.fixtures.replay_lock_trace` plays, now unified into
the findings pipeline.
"""

from __future__ import annotations

import builtins
import dataclasses
import functools
import threading
import types
from typing import Any, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.analysis.report import Finding, apply_suppressions
from repro.sanitizers.fasttrack import FastTrackDetector
from repro.sanitizers.findings import deadlock_finding, lock_order_finding
from repro.sanitizers.rewrite import EventApi, instrument_source
from repro.sanitizers.sanitizer import Sanitizer
from repro.sanitizers.sites import AccessSite, call_site

__all__ = ["RunResult", "run_source", "run_fixture", "run_program"]

#: Distinct ``(source, path)`` pairs whose compiled code is kept.
COMPILE_MEMO_SIZE = 64


@functools.lru_cache(maxsize=COMPILE_MEMO_SIZE)
def _compiled(
    source: str, path: str
) -> Tuple[types.CodeType, Tuple[str, ...]]:
    """Instrument and compile ``source`` once per ``(source, path)``.

    Sound because instrumentation is a pure function of the text and
    the path (which becomes ``co_filename``, so findings keep their
    path), and code objects are immutable: every run still executes in
    a fresh namespace with its own runtime and event API.  A
    ``SyntaxError`` propagates uncached.
    """
    tree, shared = instrument_source(source, filename=path)
    return compile(tree, path, "exec"), tuple(sorted(shared))


@dataclasses.dataclass
class RunResult:
    """Everything one sanitized execution produced."""

    path: str
    findings: List[Finding]
    suppressed: List[Finding]
    errors: List[str]
    #: Return value of the entry function (``None`` without one).
    value: Any
    #: Module-global names that were instrumented.
    shared: Tuple[str, ...]
    sanitizer: Sanitizer
    #: The schedule token of the executed interleaving (scheduled runs
    #: only; ``None`` for the classic inline execution).
    schedule: Optional[str] = None

    @property
    def rules(self) -> set:
        """The distinct rule ids among the kept findings."""
        return {f.rule for f in self.findings}

    @property
    def exit_code(self) -> int:
        """Mirror of pdc-lint's convention: 0 clean, 1 findings, 2 errors."""
        if self.errors:
            return 2
        return 1 if self.findings else 0


class _SanLock:
    """A lock stand-in: happens-before edges plus lock-order auditing."""

    kind = "lock"

    def __init__(self, runtime: "_SanRuntime") -> None:
        self._runtime = runtime
        self.name = f"lock{runtime.new_lock_index()}"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        sched = self._runtime.scheduler
        if sched is not None:
            sched.lock_acquire(self)  # decision point; blocks while held
        self._runtime.lock_acquired(self)
        return True

    def release(self) -> None:
        sched = self._runtime.scheduler
        if sched is not None:
            sched.lock_release(self)
        self._runtime.lock_released(self)

    def locked(self) -> bool:
        return self in self._runtime.held

    def __enter__(self) -> "_SanLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return self.name


class _SanCondition(_SanLock):
    """Condition stand-in: ``wait`` republishes-then-resubscribes (the
    release/acquire pair buried inside a real ``Condition.wait``)."""

    kind = "condition"

    def wait(self, timeout: Optional[float] = None) -> bool:
        sched = self._runtime.scheduler
        if sched is not None:
            sched.op("cond_wait", self)
        detector = self._runtime.detector
        detector.release(self)
        detector.acquire(self)
        return True

    def wait_for(self, predicate, timeout: Optional[float] = None) -> bool:
        self.wait(timeout)
        return bool(predicate())

    def notify(self, n: int = 1) -> None:
        return None  # the surrounding release publishes the clock

    def notify_all(self) -> None:
        return None


class _SanSemaphore:
    """Semaphore stand-in: post merges, wait subscribes."""

    def __init__(self, runtime: "_SanRuntime", value: int = 1) -> None:
        self._runtime = runtime
        self._value = value
        if runtime.scheduler is not None:
            runtime.scheduler.sem_init(self, value)

    def acquire(self, blocking: bool = True, timeout: Optional[float] = None) -> bool:
        sched = self._runtime.scheduler
        if sched is not None:
            sched.sem_wait(self)  # blocks while the count is zero
        self._runtime.detector.sem_wait(self)
        self._value -= 1
        return True

    def release(self, n: int = 1) -> None:
        sched = self._runtime.scheduler
        if sched is not None:
            for _ in range(n):
                sched.sem_post(self)
        self._value += n
        self._runtime.detector.sem_post(self)

    def __enter__(self) -> "_SanSemaphore":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class _SanEvent:
    """Event stand-in: ``set`` publishes, ``wait`` subscribes."""

    def __init__(self, runtime: "_SanRuntime") -> None:
        self._runtime = runtime
        self._set = False

    def set(self) -> None:
        sched = self._runtime.scheduler
        if sched is not None:
            sched.event_set(self)
        self._set = True
        self._runtime.detector.sem_post(self)

    def clear(self) -> None:
        self._set = False

    def is_set(self) -> bool:
        return self._set

    def wait(self, timeout: Optional[float] = None) -> bool:
        sched = self._runtime.scheduler
        if sched is not None:
            sched.event_wait(self)  # blocks until some task set() it
        self._runtime.detector.sem_wait(self)
        return self._set


class _SanBarrier:
    """Barrier stand-in (inline: arrive and depart in one step)."""

    def __init__(self, runtime: "_SanRuntime", parties: int, action=None) -> None:
        self._runtime = runtime
        self.parties = parties
        self._action = action

    def wait(self, timeout: Optional[float] = None) -> int:
        detector = self._runtime.detector
        sched = self._runtime.scheduler
        # Publish the arrival clock *before* blocking: every party has
        # merged into the barrier clock by the time any of them departs,
        # which is what makes the all-to-all edge hold under scheduling.
        detector.barrier_arrive(self)
        if sched is not None:
            sched.barrier_wait(self, self.parties)
        if self._action is not None:
            self._action()
        detector.barrier_depart(self)
        return 0


class _LogicalThread:
    """``threading.Thread`` stand-in that runs its target inline under a
    forked logical thread id — sequential execution, concurrent clocks."""

    def __init__(
        self,
        runtime: "_SanRuntime",
        group=None,
        target=None,
        name: Optional[str] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        daemon: Optional[bool] = None,
    ) -> None:
        self._runtime = runtime
        self._target = target
        self._args = args
        self._kwargs = kwargs or {}
        self.name = name or f"Thread-{runtime.new_thread_index()}"
        self.daemon = bool(daemon)
        self._tid: Optional[int] = None
        self._task: Optional[Any] = None
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("threads can only be started once")
        self._started = True
        detector = self._runtime.detector
        sched = self._runtime.scheduler
        if sched is not None:
            # Scheduled mode: the child becomes a real schedulable task;
            # it runs only when the scheduler picks it, preemptible at
            # every hook event.  Exceptions its body raises are captured
            # by the scheduler and surfaced by run_source as runner
            # errors with the schedule token attached.
            sched.op("spawn", f"spawn:{self.name}")
            self._tid = detector.fork_child(name=self.name)
            target, args, kwargs = self._target, self._args, self._kwargs

            def body() -> None:
                if target is not None:
                    target(*args, **kwargs)

            self._task = sched.spawn(self.name, body, det_tid=self._tid)
            return
        self._tid = detector.fork_child(name=self.name)
        detector.push_logical(self._tid)
        try:
            if self._target is not None:
                self._target(*self._args, **self._kwargs)
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            self._runtime.errors.append(
                f"{self.name} raised {type(exc).__name__}: {exc}"
            )
        finally:
            detector.pop_logical()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._tid is None:
            return
        sched = self._runtime.scheduler
        if sched is not None and self._task is not None:
            sched.join(self._task)  # blocks until the task completes
        self._runtime.detector.join_child(self._tid)

    def is_alive(self) -> bool:
        if self._task is not None:
            return self._task.state != "done"
        return False

    def run(self) -> None:  # pragma: no cover - parity with threading API
        if self._target is not None:
            self._target(*self._args, **self._kwargs)


class _SanRuntime:
    """Shared state behind the stand-in ``threading`` module."""

    def __init__(
        self, detector: FastTrackDetector, scheduler: Optional[Any] = None
    ) -> None:
        self.detector = detector
        #: A :class:`repro.verify.scheduler.ReplayScheduler` (or anything
        #: with its surface) makes every hook event a decision point;
        #: ``None`` keeps the classic inline one-schedule execution.
        self.scheduler = scheduler
        self.errors: List[str] = []
        self.held: List[_SanLock] = []
        #: first-seen site per acquired-while-holding edge (name pairs).
        self.lock_edges: Dict[Tuple[str, str], AccessSite] = {}
        self._lock_count = 0
        self._thread_count = 0

    def new_lock_index(self) -> int:
        index = self._lock_count
        self._lock_count += 1
        return index

    def new_thread_index(self) -> int:
        self._thread_count += 1
        return self._thread_count

    def lock_acquired(self, lock: _SanLock) -> None:
        site = call_site(self.detector.thread_name())
        for outer in self.held:
            edge = (outer.name, lock.name)
            if outer is not lock and edge not in self.lock_edges:
                self.lock_edges[edge] = site
        self.held.append(lock)
        self.detector.acquire(lock)

    def lock_released(self, lock: _SanLock) -> None:
        if lock in self.held:
            self.held.remove(lock)
        self.detector.release(lock)

    def order_findings(self) -> List[Finding]:
        """PDC302 findings for cycles in the observed lock order.

        ``nx.simple_cycles`` yields each cycle in an arbitrary rotation
        (and order) that varies with the per-process hash seed; cycles
        are canonicalized — rotated to start at their smallest lock,
        then sorted — so the same run always reports the same finding.
        """
        graph = nx.DiGraph()
        graph.add_edges_from(self.lock_edges)
        cycles = []
        for cycle in nx.simple_cycles(graph):
            pivot = min(range(len(cycle)), key=cycle.__getitem__)
            cycles.append(cycle[pivot:] + cycle[:pivot])
        findings = []
        for cycle in sorted(cycles):
            edge = (cycle[0], cycle[1 % len(cycle)])
            site = self.lock_edges.get(
                edge, next(iter(self.lock_edges.values()))
            )
            findings.append(lock_order_finding(cycle, site))
        return findings


class _SanThreading:
    """The ``threading`` module, as instrumented code sees it."""

    def __init__(self, runtime: _SanRuntime) -> None:
        self._runtime = runtime
        self.TIMEOUT_MAX = threading.TIMEOUT_MAX

    def Thread(self, *args: Any, **kwargs: Any) -> _LogicalThread:  # noqa: N802
        return _LogicalThread(self._runtime, *args, **kwargs)

    def Lock(self) -> _SanLock:  # noqa: N802 - mirrors the threading API
        return _SanLock(self._runtime)

    RLock = Lock

    def Condition(self, lock: Optional[_SanLock] = None) -> _SanCondition:  # noqa: N802
        return _SanCondition(self._runtime)

    def Semaphore(self, value: int = 1) -> _SanSemaphore:  # noqa: N802
        return _SanSemaphore(self._runtime, value)

    BoundedSemaphore = Semaphore

    def Event(self) -> _SanEvent:  # noqa: N802
        return _SanEvent(self._runtime)

    def Barrier(self, parties: int, action=None, timeout=None) -> _SanBarrier:  # noqa: N802
        return _SanBarrier(self._runtime, parties, action)

    def local(self) -> Any:
        return threading.local()

    def current_thread(self) -> Any:
        return threading.current_thread()

    def get_ident(self) -> int:
        return threading.get_ident()


def run_source(
    source: str,
    path: str = "<module>",
    entry: Optional[str] = "main",
    entrypoints: Sequence[str] = (),
    sanitizer: Optional[Sanitizer] = None,
    scheduler: Optional[Any] = None,
) -> RunResult:
    """Execute ``source`` under full PDC-San instrumentation.

    The module body runs first (on the root logical thread).  Then
    either ``entry`` is called if the module defines it (the common
    "call ``main()``" shape; pass ``entry=None`` to skip), or each name
    in ``entrypoints`` runs as its *own* logical thread — mutually
    concurrent, all joined at the end — which models "these functions
    are the thread bodies" for fixtures without a driver.

    With a ``scheduler`` (:class:`repro.verify.ReplayScheduler`), the
    execution is *scheduled* instead of inline: every hook event is a
    decision point, spawned threads are genuinely preemptible, blocking
    blocks, and the whole run is a pure function of the scheduler's
    choice sequence — the substrate the model checker replays.
    """
    san = sanitizer if sanitizer is not None else Sanitizer()
    detector = san.fasttrack
    runtime = _SanRuntime(detector, scheduler=scheduler)
    errors = runtime.errors
    value: Any = None
    try:
        code, shared = _compiled(source, path)
    except SyntaxError as exc:
        return RunResult(
            path=path, findings=[], suppressed=[],
            errors=[f"syntax error: {exc}"], value=None, shared=(),
            sanitizer=san,
        )
    traced = _SanThreading(runtime)
    real_import = builtins.__import__

    def import_sanitized(name: str, *args: object, **kwargs: object):
        if name == "threading":
            return traced
        return real_import(name, *args, **kwargs)

    namespace: Dict[str, object] = {
        "__name__": "__pdcsan_target__",
        "__builtins__": {**vars(builtins), "__import__": import_sanitized},
        "__pdcsan__": EventApi(detector, scheduler=scheduler),
    }
    schedule: Optional[str] = None
    extra_findings: List[Finding] = []

    def _call_entries() -> None:
        """Module body, then the entry/entrypoints protocol."""
        nonlocal value
        exec(code, namespace)
        if entrypoints:
            workers: List[_LogicalThread] = []
            for name in entrypoints:
                fn = namespace.get(name)
                if not callable(fn):
                    errors.append(f"entry point {name!r} is not callable")
                    continue
                workers.append(
                    _LogicalThread(runtime, target=fn, name=name)
                )
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        elif entry is not None:
            fn = namespace.get(entry)
            if callable(fn):
                value = fn()

    with san.activate():
        if scheduler is not None:
            from repro.verify.token import encode_token  # local: no cycle

            scheduler.detector = detector
            trace = scheduler.run(_call_entries)
            schedule = encode_token(trace.choices)
            for name, exc in trace.crashes:
                errors.append(
                    f"{name} raised {type(exc).__name__}: {exc} "
                    f"[schedule {schedule}]"
                )
            if trace.deadlock is not None:
                cycle, site = trace.deadlock
                extra_findings.append(deadlock_finding(cycle, site))
        else:
            # Inline mode: logical threads run to completion on this OS
            # thread; entrypoints become sibling logical threads via the
            # fork/push protocol (no real concurrency, concurrent clocks).
            try:
                exec(code, namespace)
                if entrypoints:
                    tids = []
                    for name in entrypoints:
                        fn = namespace.get(name)
                        if not callable(fn):
                            errors.append(
                                f"entry point {name!r} is not callable"
                            )
                            continue
                        tid = detector.fork_child(name=name)
                        detector.push_logical(tid)
                        try:
                            fn()
                        except Exception as exc:  # noqa: BLE001 - recorded
                            errors.append(
                                f"{name} raised {type(exc).__name__}: {exc}"
                            )
                        finally:
                            detector.pop_logical()
                        tids.append(tid)
                    for tid in tids:
                        detector.join_child(tid)
                elif entry is not None:
                    fn = namespace.get(entry)
                    if callable(fn):
                        value = fn()
            except Exception as exc:  # noqa: BLE001 - surfaced in the result
                errors.append(f"execution failed: {type(exc).__name__}: {exc}")
    findings = san.findings() + runtime.order_findings() + extra_findings
    kept, suppressed = apply_suppressions(sorted(findings), source)
    return RunResult(
        path=path, findings=kept, suppressed=suppressed, errors=errors,
        value=value, shared=shared, sanitizer=san, schedule=schedule,
    )


class _ModuleEventApi(EventApi):
    """An :class:`EventApi` that namespaces events per module, so
    ``counter`` in ``shared_state`` and ``counter`` in ``worker`` are
    distinct detector variables in one multi-module program."""

    __slots__ = ("_prefix",)

    def __init__(self, detector, prefix: str, scheduler=None) -> None:
        super().__init__(detector, scheduler=scheduler)
        self._prefix = prefix

    def rd(self, name: str) -> None:
        super().rd(f"{self._prefix}.{name}")

    def wr(self, name: str) -> None:
        super().wr(f"{self._prefix}.{name}")


def run_program(
    modules: Dict[str, str],
    entry_module: str,
    entry: Optional[str] = "main",
    sanitizer: Optional[Sanitizer] = None,
) -> RunResult:
    """Execute a multi-module program under PDC-San instrumentation.

    ``modules`` maps module name -> source.  Every module is rewritten
    and compiled up front (through the same per-source memo as
    :func:`run_source`); an ``__import__`` hook hands instrumented
    sibling modules (and the sanitized ``threading``) to whichever
    module asks, all sharing one detector, one runtime, and one
    happens-before history — so a thread spawned in ``main`` racing a
    write in ``shared_state`` is one race, not two programs.  Inline
    (logical-thread) execution only; findings carry the per-module
    ``<name>.py`` path and honor that module's own suppression comments.
    """
    san = sanitizer if sanitizer is not None else Sanitizer()
    detector = san.fasttrack
    runtime = _SanRuntime(detector)
    errors = runtime.errors
    value: Any = None
    codes: Dict[str, Any] = {}
    shared_all: List[str] = []
    sources: Dict[str, str] = {}
    for name in sorted(modules):
        path = f"{name}.py"
        sources[path] = modules[name]
        try:
            codes[name], shared = _compiled(modules[name], path)
        except SyntaxError as exc:
            return RunResult(
                path=path, findings=[], suppressed=[],
                errors=[f"syntax error: {exc}"], value=None, shared=(),
                sanitizer=san,
            )
        shared_all.extend(f"{name}.{s}" for s in shared)
    if entry_module not in codes:
        raise ValueError(f"entry module {entry_module!r} not in program")

    traced = _SanThreading(runtime)
    real_import = builtins.__import__
    mods: Dict[str, types.ModuleType] = {}

    def import_sanitized(name: str, *args: object, **kwargs: object):
        if name == "threading":
            return traced
        if name in codes:
            return load_module(name)
        return real_import(name, *args, **kwargs)

    builtins_map = {**vars(builtins), "__import__": import_sanitized}

    def load_module(name: str) -> types.ModuleType:
        if name in mods:
            return mods[name]
        mod = types.ModuleType(name)
        mod.__dict__["__builtins__"] = builtins_map
        mod.__dict__["__pdcsan__"] = _ModuleEventApi(detector, name)
        mods[name] = mod  # registered before exec: import cycles resolve
        exec(codes[name], mod.__dict__)
        return mod

    with san.activate():
        try:
            entry_mod = load_module(entry_module)
            if entry is not None:
                fn = entry_mod.__dict__.get(entry)
                if callable(fn):
                    value = fn()
        except Exception as exc:  # noqa: BLE001 - surfaced in the result
            errors.append(f"execution failed: {type(exc).__name__}: {exc}")

    findings = sorted(san.findings() + runtime.order_findings())
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for path in sorted({f.path for f in findings}):
        group = [f for f in findings if f.path == path]
        if path in sources:
            k, s = apply_suppressions(group, sources[path])
            kept.extend(k)
            suppressed.extend(s)
        else:
            kept.extend(group)
    return RunResult(
        path=f"<program:{entry_module}>",
        findings=sorted(kept),
        suppressed=sorted(suppressed),
        errors=errors,
        value=value,
        shared=tuple(shared_all),
        sanitizer=san,
    )


def run_fixture(
    fix,
    sanitizer: Optional[Sanitizer] = None,
    scheduler: Optional[Any] = None,
) -> RunResult:
    """Run one twin-corpus fixture under PDC-San.

    Uses the fixture's ``dynamic_entry`` (a driver to call) or, failing
    that, its ``entrypoints`` (functions run as concurrent logical
    threads).  Raises ``ValueError`` for fixtures marked non-runnable.
    """
    entry = getattr(fix, "dynamic_entry", None)
    entrypoints = fix.entrypoints if not entry else ()
    if entry is None and not entrypoints:
        raise ValueError(
            f"fixture {fix.name!r} is not dynamically runnable "
            "(no dynamic_entry or entrypoints)"
        )
    return run_source(
        fix.source,
        path=f"<fixture:{fix.name}>",
        entry=entry,
        entrypoints=entrypoints,
        sanitizer=sanitizer,
        scheduler=scheduler,
    )
