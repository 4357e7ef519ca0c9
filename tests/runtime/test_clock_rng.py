"""Clock abstraction and the named-stream RNG service."""

import threading
import time

import numpy as np
import pytest

from repro.runtime import MonotonicClock, RngService, VirtualClock


class TestMonotonicClock:
    def test_now_advances(self):
        clock = MonotonicClock()
        a = clock.now()
        time.sleep(0.01)
        assert clock.now() > a

    def test_wait_on_notified(self):
        clock = MonotonicClock()
        cond = threading.Condition()

        def notifier():
            with cond:
                cond.notify_all()

        with cond:
            threading.Timer(0.02, notifier).start()
            assert clock.wait_on(cond, timeout=5.0) is True


class TestVirtualClock:
    def test_starts_where_told_and_only_moves_on_advance(self):
        clock = VirtualClock(start=10.0)
        assert clock.now() == 10.0
        time.sleep(0.01)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5

    def test_sleep_advances_instantly(self):
        clock = VirtualClock()
        start = time.monotonic()  # pdc-lint: disable=PDC210 -- measuring that VirtualClock does NOT consume wall time
        clock.sleep(1000.0)
        assert time.monotonic() - start < 1.0  # no real kilosecond  # pdc-lint: disable=PDC210 -- same wall-time measurement
        assert clock.now() == 1000.0

    def test_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.sleep(-1)

    def test_wait_on_times_out_in_virtual_time(self):
        clock = VirtualClock()
        cond = threading.Condition()

        def advancer():
            clock.advance(10.0)

        with cond:
            threading.Timer(0.05, advancer).start()
            # Virtual deadline is 5s; the advancer jumps past it.
            assert clock.wait_on(cond, timeout=5.0) is False

    def test_wait_on_wakes_on_notify(self):
        clock = VirtualClock()
        cond = threading.Condition()

        def notifier():
            with cond:
                cond.notify_all()

        with cond:
            threading.Timer(0.02, notifier).start()
            assert clock.wait_on(cond, timeout=60.0) is True

    def test_wait_on_survives_a_swallowed_notify(self):
        # CPython's timed ``Condition.wait`` can consume a notify that
        # lands as it times out and still return False.  This stand-in
        # loses every notify that way; with virtual time frozen the wait
        # must still end, as a wakeup the caller re-checks.
        class SwallowingCondition:
            waits = 0

            def wait(self, timeout=None):
                self.waits += 1
                return False

        clock = VirtualClock()
        cond = SwallowingCondition()
        assert clock.wait_on(cond, timeout=60.0) is True
        assert cond.waits == VirtualClock._IDLE_SLICES
        assert clock.now() == 0.0


class TestRngService:
    def test_same_name_same_stream_instance(self):
        rng = RngService(seed=1)
        assert rng.stream("net.drops") is rng.stream("net.drops")

    def test_streams_reproducible_across_services(self):
        a = RngService(seed=7).stream("net.drops")
        b = RngService(seed=7).stream("net.drops")
        assert list(a.random(5)) == list(b.random(5))

    def test_streams_independent_by_name(self):
        svc = RngService(seed=7)
        a = svc.stream("net.drops").random(5)
        b = svc.stream("dist.loadbalance").random(5)
        assert list(a) != list(b)

    def test_seed_changes_streams(self):
        a = RngService(seed=1).stream("s").random(3)
        b = RngService(seed=2).stream("s").random(3)
        assert list(a) != list(b)

    def test_fresh_stream_restarts(self):
        svc = RngService(seed=3)
        first = svc.fresh_stream("x").random(4)
        again = svc.fresh_stream("x").random(4)
        assert list(first) == list(again)

    def test_seed_for_is_stable(self):
        assert RngService(5).seed_for("a") == RngService(5).seed_for("a")
        assert RngService(5).seed_for("a") != RngService(5).seed_for("b")

    def test_child_service_derives(self):
        child = RngService(5).child("lab1")
        other = RngService(5).child("lab2")
        assert child.root_seed != other.root_seed
        assert isinstance(child.stream("s"), np.random.Generator)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngService(0).stream("")
