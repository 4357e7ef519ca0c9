"""The replay scheduler: determinism, blocking semantics, deadlocks.

The substrate the whole checker rests on: execution under a schedule
prefix must be a *pure function* of the choice sequence.  Everything
here drives real fixture sources through
:func:`repro.sanitizers.runner.run_source` with a scheduler attached.
"""

import sys
import textwrap
import threading

import pytest

from repro.sanitizers.runner import run_source
from repro.smp.fixtures import fixture
from repro.verify.scheduler import ReplayScheduler, SchedulerError


def _run_scheduled(source, prefix=(), entry="main", entrypoints=(), **kw):
    scheduler = ReplayScheduler(prefix=list(prefix), **kw)
    result = run_source(
        source, entry=entry, entrypoints=entrypoints, scheduler=scheduler
    )
    return result, scheduler.trace


class TestDeterminism:
    def test_same_prefix_same_trace(self):
        fix = fixture("racy_counter_twin")
        first, trace_a = _run_scheduled(fix.source, entry=fix.dynamic_entry)
        second, trace_b = _run_scheduled(fix.source, entry=fix.dynamic_entry)
        assert trace_a.choices == trace_b.choices
        assert first.schedule == second.schedule
        assert [
            (f.rule, f.line, f.message) for f in first.findings
        ] == [(f.rule, f.line, f.message) for f in second.findings]

    def test_replaying_a_full_trace_reproduces_it(self):
        fix = fixture("racy_counter_twin")
        _, trace = _run_scheduled(fix.source, entry=fix.dynamic_entry)
        _, replayed = _run_scheduled(
            fix.source, prefix=trace.choices, entry=fix.dynamic_entry,
            strict=True,
        )
        assert replayed.choices == trace.choices
        assert [e.kind for e in replayed.events] == [
            e.kind for e in trace.events
        ]


BLOCKING = textwrap.dedent(
    '''
    """Lock handoff: the scheduler must model real blocking."""
    import threading

    lock = threading.Lock()
    order = []


    def first():
        with lock:
            order.append("first")


    def second():
        with lock:
            order.append("second")


    def main():
        a = threading.Thread(target=first)
        b = threading.Thread(target=second)
        a.start(); b.start()
        a.join(); b.join()
        return tuple(order)
    '''
).lstrip()


class TestBlockingSemantics:
    def test_lock_owner_blocks_contenders(self):
        # Whatever the schedule, both critical sections run and never
        # interleave — the run completes with both entries present.
        result, trace = _run_scheduled(BLOCKING)
        assert result.value == ("first", "second") or result.value == (
            "second", "first",
        )
        assert not trace.deadlock
        assert not result.errors

    def test_events_record_enabled_sets(self):
        _, trace = _run_scheduled(BLOCKING)
        assert trace.events, "scheduler recorded no decision points"
        for event in trace.events:
            assert event.task in event.enabled
            assert event.task in event.pending


class TestDeadlock:
    def test_abba_deadlock_is_reachable_and_reported(self):
        # The fixture's two transfer entrypoints acquire (a, b) and
        # (b, a); some interleaving must reach the circular wait — not
        # just the lock-order *observation*, the actual runtime deadlock,
        # with the wait-for cycle naming the two tasks.
        from repro.verify import explore_fixture, replay_fixture

        fix = fixture("abba_deadlock_twin")
        explored = explore_fixture(fix, mode="dpor")
        deadlocks = [
            f for f in explored.findings
            if f.rule == "PDC302" and "wait-for cycle" in f.message
        ]
        assert deadlocks, [f.message for f in explored.findings]
        assert any(
            "transfer_ab" in f.message and "transfer_ba" in f.message
            for f in deadlocks
        )
        # And the recorded PDC302 token replays to a PDC302 verdict.
        replayed = replay_fixture(fix, explored.tokens["PDC302"])
        assert "PDC302" in {f.rule for f in replayed.findings}


class TestStepCap:
    def test_runaway_task_is_truncated_not_hung(self):
        spin = textwrap.dedent(
            """
            import threading

            flag = False

            def waiter():
                while not flag:
                    pass

            def main():
                t = threading.Thread(target=waiter)
                t.start()
            """
        ).lstrip()
        _, trace = _run_scheduled(spin, max_steps_per_task=25)
        assert trace.truncated


class TestStrictMode:
    def test_divergent_prefix_raises(self):
        fix = fixture("racy_counter_twin")
        with pytest.raises(SchedulerError):
            _run_scheduled(
                fix.source, prefix=[99, 99], entry=fix.dynamic_entry,
                strict=True,
            )


# -- paths no twin fixture reaches ------------------------------------------
# Semaphore, event and barrier decisions, a semaphore deadlock and a
# crashing task.  The literals below were recorded from the scheduler
# and pin its choices, per-decision ``(kind, obj, enabled)`` events,
# endings and DPOR schedule counts exactly.

SEM_HANDOFF = textwrap.dedent(
    '''
    import threading

    ready = threading.Semaphore(0)
    box = 0


    def producer():
        global box
        box = 1
        ready.release()


    def consumer():
        ready.acquire()
        return box


    def main():
        c = threading.Thread(target=consumer)
        p = threading.Thread(target=producer)
        c.start(); p.start()
        c.join(); p.join()
        return box
    '''
).lstrip()

EVENT_SETWAIT = textwrap.dedent(
    '''
    import threading

    go = threading.Event()
    data = 0


    def setter():
        global data
        data = 7
        go.set()


    def waiter():
        go.wait()
        return data


    def main():
        w = threading.Thread(target=waiter)
        s = threading.Thread(target=setter)
        w.start(); s.start()
        w.join(); s.join()
        return data
    '''
).lstrip()

BARRIER3 = textwrap.dedent(
    '''
    import threading

    gate = threading.Barrier(3)
    departed = []


    def worker(name):
        gate.wait()
        departed.append(name)


    def main():
        ts = [threading.Thread(target=worker, args=(n,)) for n in "abc"]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        return "".join(departed)
    '''
).lstrip()

SEM_DEADLOCK = textwrap.dedent(
    '''
    import threading

    left = threading.Semaphore(0)
    right = threading.Semaphore(0)


    def lefty():
        left.acquire()
        right.release()


    def righty():
        right.acquire()
        left.release()


    def main():
        a = threading.Thread(target=lefty)
        b = threading.Thread(target=righty)
        a.start(); b.start()
        a.join(); b.join()
    '''
).lstrip()

RAISER = textwrap.dedent(
    '''
    import threading

    count = 0


    def boom():
        global count
        count += 1
        raise ValueError("boom")


    def main():
        t = threading.Thread(target=boom)
        t.start()
        t.join()
        return count
    '''
).lstrip()

SPIN = textwrap.dedent(
    """
    import threading

    flag = False

    def waiter():
        while not flag:
            pass

    def main():
        t = threading.Thread(target=waiter)
        t.start()
    """
).lstrip()

# The two-worker hand-offs share one shape: main spawns both workers,
# the consumer parks on the primitive, the producer posts, both join.
_HANDOFF_CHOICES = [0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 1, 1, 0, 0, 0]


def _handoff_events(prim, post, wait, value):
    return [
        ("wr", prim, (0,)), ("wr", value, (0,)),
        ("spawn", "spawn:Thread-1", (0,)),
        ("spawn", "spawn:Thread-2", (0, 1)),
        ("begin", "Thread-1", (1, 2)), ("rd", prim, (1, 2)),
        ("begin", "Thread-2", (2,)), ("wr", value, (2,)),
        ("rd", prim, (2,)), (post, wait[1], (2,)),
        (wait[0], wait[1], (1,)), ("rd", value, (1,)),
        ("join", "task:1", (0,)), ("join", "task:2", (0,)),
        ("rd", value, (0,)),
    ]


_BARRIER_HEAD = [0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3]
_BARRIER_HEAD_EVENTS = [
    ("wr", "gate", (0,)), ("wr", "departed", (0,)),
    ("spawn", "spawn:Thread-1", (0,)),
    ("spawn", "spawn:Thread-2", (0, 1)),
    ("spawn", "spawn:Thread-3", (0, 1, 2)),
    ("begin", "Thread-1", (1, 2, 3)), ("rd", "gate", (1, 2, 3)),
    ("begin", "Thread-2", (2, 3)), ("rd", "gate", (2, 3)),
    ("begin", "Thread-3", (3,)), ("rd", "gate", (3,)),
]


def _events(trace):
    return [(e.kind, e.obj, e.enabled) for e in trace.events]


def _crashes(trace):
    return [(name, type(exc).__name__, str(exc)) for name, exc in trace.crashes]


class TestPinnedPrimitives:
    def test_semaphore_handoff(self):
        result, trace = _run_scheduled(SEM_HANDOFF)
        assert result.value == 1
        assert trace.choices == _HANDOFF_CHOICES
        assert _events(trace) == _handoff_events(
            "ready", "sem_post", ("sem_wait", "sem#0"), "box"
        )
        assert trace.deadlock is None and not trace.crashes
        assert not trace.truncated and not result.errors

    def test_event_set_wait(self):
        result, trace = _run_scheduled(EVENT_SETWAIT)
        assert result.value == 7
        assert trace.choices == _HANDOFF_CHOICES
        assert _events(trace) == _handoff_events(
            "go", "evt_set", ("evt_wait", "evt#0"), "data"
        )
        assert trace.deadlock is None and not trace.crashes

    def test_barrier_default_departure_order(self):
        result, trace = _run_scheduled(BARRIER3)
        assert result.value == "abc"
        assert trace.choices == _BARRIER_HEAD + [
            1, 1, 0, 2, 2, 0, 3, 3, 0, 0,
        ]
        assert _events(trace) == _BARRIER_HEAD_EVENTS + [
            ("barrier", "barrier#0", (1, 2, 3)),
            ("rd", "departed", (1, 2, 3)),
            ("join", "task:1", (0, 2, 3)),
            ("resume", "barrier#0", (2, 3)),
            ("rd", "departed", (2, 3)),
            ("join", "task:2", (0, 3)),
            ("resume", "barrier#0", (3,)),
            ("rd", "departed", (3,)),
            ("join", "task:3", (0,)),
            ("rd", "departed", (0,)),
        ]
        assert trace.deadlock is None and not trace.crashes

    @pytest.mark.parametrize("first, second, order", [
        (3, 2, "cba"),
        (2, 3, "bca"),
    ])
    def test_barrier_departure_order_follows_the_schedule(
        self, first, second, order
    ):
        # Whoever is chosen at the completing arrival departs first; the
        # released waiters then depart in the order their resume
        # decisions are chosen.
        prefix = _BARRIER_HEAD + [first, first, second, second]
        result, trace = _run_scheduled(BARRIER3, prefix=prefix)
        assert result.value == order
        assert trace.choices == prefix + [1, 1, 0, 0, 0, 0]
        rest = sorted({1, 2, 3} - {first, second})
        assert _events(trace)[len(_BARRIER_HEAD):] == [
            ("barrier", "barrier#0", (1, 2, 3)),
            ("rd", "departed", (1, 2, 3)),
            ("resume", "barrier#0", tuple(sorted(rest + [second]))),
            ("rd", "departed", tuple(sorted(rest + [second]))),
            ("resume", "barrier#0", tuple(rest)),
            ("rd", "departed", tuple(rest)),
            ("join", "task:1", (0,)),
            ("join", "task:2", (0,)),
            ("join", "task:3", (0,)),
            ("rd", "departed", (0,)),
        ]

    def test_semaphore_deadlock(self):
        result, trace = _run_scheduled(SEM_DEADLOCK)
        assert trace.choices == [0, 0, 0, 0, 1, 1, 2, 2]
        assert _events(trace) == [
            ("wr", "left", (0,)), ("wr", "right", (0,)),
            ("spawn", "spawn:Thread-1", (0,)),
            ("spawn", "spawn:Thread-2", (0, 1)),
            ("begin", "Thread-1", (1, 2)), ("rd", "left", (1, 2)),
            ("begin", "Thread-2", (2,)), ("rd", "right", (2,)),
        ]
        # Semaphore waits have no holder, so no single wait-for cycle
        # explains the state: every blocked task is named.
        cycle, site = trace.deadlock
        assert cycle == ["Thread-1", "Thread-2", "main"]
        assert site.line == 8  # lefty's ``left.acquire()``
        assert {f.rule for f in result.findings} == {"PDC302"}
        assert not trace.crashes and not trace.truncated

    def test_raising_task(self):
        result, trace = _run_scheduled(RAISER)
        assert result.value == 1
        assert trace.choices == [0, 0, 1, 1, 1, 0, 0]
        assert _events(trace) == [
            ("wr", "count", (0,)), ("spawn", "spawn:Thread-1", (0,)),
            ("begin", "Thread-1", (1,)), ("rd", "count", (1,)),
            ("wr", "count", (1,)), ("join", "task:1", (0,)),
            ("rd", "count", (0,)),
        ]
        assert _crashes(trace) == [("Thread-1", "ValueError", "boom")]
        assert result.errors == [
            "Thread-1 raised ValueError: boom [schedule v1:0x2,1x3,0x2]"
        ]
        assert trace.deadlock is None

    @pytest.mark.parametrize("source, explored, pruned, rules", [
        (SEM_HANDOFF, 1, 3, set()),
        (EVENT_SETWAIT, 1, 3, set()),
        (BARRIER3, 6, 49, set()),
        (SEM_DEADLOCK, 1, 3, {"PDC302"}),
        (RAISER, 1, 0, set()),
    ], ids=["sem_handoff", "event", "barrier3", "sem_deadlock", "raiser"])
    def test_dpor_schedule_counts(self, source, explored, pruned, rules):
        from repro.verify import explore_source

        result = explore_source(source, mode="dpor")
        assert (result.schedules_explored, result.schedules_pruned) == (
            explored, pruned,
        )
        assert result.complete and result.rules == rules

    def test_semaphore_deadlock_token_and_dfs_count(self):
        from repro.verify import explore_source

        dpor = explore_source(SEM_DEADLOCK, mode="dpor")
        assert dpor.tokens == {"PDC302": "v1:0x4,1x2,2x2"}
        dfs = explore_source(SEM_DEADLOCK, mode="dfs")
        assert (dfs.schedules_explored, dfs.complete) == (10, True)
        assert dfs.rules == {"PDC302"}


# -- thread lifecycle ---------------------------------------------------------

def _run_owned(source, **kw):
    """Run ``source`` scheduled; return ``(trace, error, leftover)`` where
    ``leftover`` lists threads alive after the run that were not alive
    before it."""
    before = set(threading.enumerate())
    scheduler = ReplayScheduler(**kw)
    error = None
    try:
        run_source(source, scheduler=scheduler)
    except SchedulerError as exc:
        error = exc
    leftover = [t for t in threading.enumerate() if t not in before]
    return scheduler.trace, error, leftover


class TestLifecycle:
    def test_normal_end(self):
        trace, error, leftover = _run_owned(SEM_HANDOFF)
        assert error is None and leftover == []
        assert trace.choices == _HANDOFF_CHOICES
        assert trace.deadlock is None and not trace.truncated

    def test_deadlock_end(self):
        trace, error, leftover = _run_owned(SEM_DEADLOCK)
        assert error is None and leftover == []
        assert trace.deadlock[0] == ["Thread-1", "Thread-2", "main"]

    def test_truncated_end(self):
        trace, error, leftover = _run_owned(SPIN, max_steps_per_task=25)
        assert error is None and leftover == []
        assert trace.truncated and trace.deadlock is None
        # The spinner is cut at its 26th decision: its 25 steps are the
        # last choices recorded.
        assert trace.choices[-25:] == [1] * 25

    def test_strict_prefix_exhausted_end(self):
        trace, error, leftover = _run_owned(
            SEM_HANDOFF, prefix=[0, 0, 0], strict=True
        )
        assert error is None and leftover == []
        assert trace.choices == [0, 0, 0]
        assert trace.deadlock is None and not trace.truncated

    def test_divergent_prefix_on_child_thread(self):
        # Step 7 is decided when Thread-2 parks, not on the root task.
        trace, error, leftover = _run_owned(
            SEM_HANDOFF, prefix=[0, 0, 0, 0, 1, 1, 2, 1], strict=True
        )
        assert leftover == []
        assert str(error) == (
            "schedule step 7: task 1 is not enabled (enabled: [2])"
        )
        assert trace.choices == [0, 0, 0, 0, 1, 1, 2]

    def test_divergent_prefix_on_root_thread(self):
        trace, error, leftover = _run_owned(
            SEM_HANDOFF, prefix=[99], strict=True
        )
        assert leftover == []
        assert str(error) == (
            "schedule step 0: task 99 is not enabled (enabled: [0])"
        )
        assert trace.choices == []

    def test_stuck_task_raises_after_a_silent_window(self, monkeypatch):
        # A task that makes no decision for a whole window (here: real
        # sleep, which the sanitizer does not instrument) is reported.
        from repro.verify import scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "_WAIT_TIMEOUT", 0.2)
        stuck = "import time\n\ndef main():\n    time.sleep(1.0)\n"
        trace, error, _ = _run_owned(stuck)
        assert str(error) == (
            "task main stopped responding (missed decision point?)"
        )
        assert trace.choices == []

    def test_slow_run_that_keeps_choosing_is_not_stuck(self, monkeypatch):
        # Each window sees a new choice, so a run longer than one window
        # still completes.
        from repro.verify import scheduler as scheduler_module

        monkeypatch.setattr(scheduler_module, "_WAIT_TIMEOUT", 0.2)
        slow = textwrap.dedent(
            """
            import time

            ticks = 0

            def main():
                global ticks
                for _ in range(4):
                    time.sleep(0.12)
                    ticks += 1
                return ticks
            """
        ).lstrip()
        trace, error, leftover = _run_owned(slow)
        assert error is None and leftover == []
        # The module-level write, 4 x (rd, wr), then the returned read.
        assert len(trace.choices) == 10


LOCKED_COUNTER = textwrap.dedent(
    '''
    import threading

    lock = threading.Lock()
    total = 0


    def worker():
        global total
        for _ in range(3):
            with lock:
                total += 1


    def main():
        ts = [threading.Thread(target=worker) for _ in range(6)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        return total
    '''
).lstrip()


class TestStress:
    def test_hand_offs_under_a_short_switch_interval(self):
        # Six tasks on a small machine, with the interpreter switching
        # threads as often as it can: every branch of the default
        # schedule still counts all 18 locked increments (a lost update
        # or a second running task would drop one), and replaying each
        # run's choices strictly reproduces them.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result, trace = _run_scheduled(LOCKED_COUNTER)
            assert result.value == 18
            branches = [e for e in trace.events if len(e.enabled) > 1]
            for event in branches[:24]:
                other = max(t for t in event.enabled if t != event.task)
                prefix = trace.choices[:event.index] + [other]
                run, ran = _run_scheduled(LOCKED_COUNTER, prefix=prefix)
                assert run.value == 18 and not run.errors
                assert ran.deadlock is None and not ran.truncated
                _, again = _run_scheduled(
                    LOCKED_COUNTER, prefix=ran.choices, strict=True
                )
                assert again.choices == ran.choices
        finally:
            sys.setswitchinterval(interval)
