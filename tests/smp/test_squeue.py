"""Tests for repro.smp.squeue (incl. hypothesis FIFO property)."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smp.squeue import QueueClosed, QueueTimeout, SynchronizedQueue


class TestBasics:
    def test_fifo(self):
        q = SynchronizedQueue()
        for i in range(10):
            q.put(i)
        assert [q.get() for _ in range(10)] == list(range(10))

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SynchronizedQueue(0)

    def test_len(self):
        q = SynchronizedQueue()
        q.put("a")
        q.put("b")
        assert len(q) == 2

    def test_peek_does_not_remove(self):
        q = SynchronizedQueue()
        q.put(1)
        assert q.peek() == 1
        assert len(q) == 1

    def test_try_get_empty_returns_none(self):
        q = SynchronizedQueue()
        assert q.try_get() is None

    def test_get_timeout(self):
        q = SynchronizedQueue()
        with pytest.raises(QueueTimeout):
            q.get(timeout=0.05)

    def test_put_timeout_when_full(self):
        q = SynchronizedQueue(capacity=1)
        q.put(1)
        with pytest.raises(QueueTimeout):
            q.put(2, timeout=0.05)

    def test_max_depth_tracked(self):
        q = SynchronizedQueue()
        for i in range(7):
            q.put(i)
        q.get()
        assert q.max_depth == 7


class TestClose:
    def test_put_after_close_raises(self):
        q = SynchronizedQueue()
        q.close()
        with pytest.raises(QueueClosed):
            q.put(1)

    def test_drain_then_fail(self):
        q = SynchronizedQueue()
        q.put(1)
        q.put(2)
        q.close()
        assert q.get() == 1
        assert q.get() == 2
        with pytest.raises(QueueClosed):
            q.get()

    def test_close_wakes_blocked_getter(self):
        q = SynchronizedQueue()
        raised = threading.Event()

        def getter():
            try:
                q.get()
            except QueueClosed:
                raised.set()

        t = threading.Thread(target=getter)
        t.start()
        import time

        time.sleep(0.05)
        q.close()
        assert raised.wait(5)
        t.join()

    def test_close_wakes_blocked_putter(self):
        q = SynchronizedQueue(capacity=1)
        q.put(1)
        raised = threading.Event()

        def putter():
            try:
                q.put(2)
            except QueueClosed:
                raised.set()

        t = threading.Thread(target=putter)
        t.start()
        import time

        time.sleep(0.05)
        q.close()
        assert raised.wait(5)
        t.join()

    def test_iteration_ends_at_close(self):
        q = SynchronizedQueue()
        for i in range(3):
            q.put(i)
        q.close()
        assert list(q) == [0, 1, 2]


class TestConcurrency:
    def test_bounded_producer_consumer_conserves_items(self):
        q = SynchronizedQueue(capacity=3)
        n, producers = 100, 4
        consumed = []
        lock = threading.Lock()

        def produce(base):
            for i in range(n):
                q.put(base * n + i)

        def consume():
            for _ in range(n):
                item = q.get()
                with lock:
                    consumed.append(item)

        ts = [threading.Thread(target=produce, args=(b,)) for b in range(producers)]
        ts += [threading.Thread(target=consume) for _ in range(producers)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(20)
        assert sorted(consumed) == list(range(n * producers))
        assert q.max_depth <= 3

    def test_single_producer_order_preserved(self):
        q = SynchronizedQueue(capacity=2)
        out = []

        def consume():
            for _ in range(50):
                out.append(q.get())

        t = threading.Thread(target=consume)
        t.start()
        for i in range(50):
            q.put(i)
        t.join(10)
        assert out == list(range(50))

    def test_capacity_one_mixed_waiters_make_progress(self):
        # Two producers and two consumers on one slot: with a single
        # notify() per state change a wakeup can reach a waiter of the
        # wrong kind and be lost, and all four threads sleep.  Daemon
        # threads with bounded joins keep a regression from hanging.
        for _ in range(5):
            q = SynchronizedQueue(capacity=1)
            n = 200
            got = []

            def produce(base):
                for i in range(n):
                    q.put(base * n + i)

            def consume():
                for _ in range(n):
                    got.append(q.get())

            ts = [
                threading.Thread(target=produce, args=(b,), daemon=True)
                for b in range(2)
            ]
            ts += [threading.Thread(target=consume, daemon=True) for _ in range(2)]
            for t in ts:
                t.start()
            for t in ts:
                t.join(5)
            assert sorted(got) == list(range(2 * n))


@given(st.lists(st.integers(), max_size=64))
@settings(max_examples=100, deadline=None)
def test_property_queue_is_fifo(items):
    q = SynchronizedQueue()
    for item in items:
        q.put(item)
    assert [q.get() for _ in items] == items
    assert q.total_put == q.total_got == len(items)
