"""Time as an injected dependency: wall clocks and virtual clocks.

Simulation code that calls ``time.monotonic()`` / ``time.sleep()``
directly is untestable at speed and nondeterministic under load.  A
:class:`Clock` makes time a constructor argument: production paths get
:class:`MonotonicClock` (real time), tests and deterministic lab runs get
:class:`VirtualClock`, where ``sleep`` *advances* time instantly and
``now`` moves only when somebody advances it.

``wait_on`` is the piece that lets blocking code be clock-agnostic: it
waits on a ``threading.Condition`` with a timeout measured in *this
clock's* time, so a deadline under :class:`VirtualClock` is controlled by
the test, not by the wall.
"""

from __future__ import annotations

import abc
import threading
import time
from typing import Optional

__all__ = ["Clock", "MonotonicClock", "VirtualClock"]


class Clock(abc.ABC):
    """The time source interface every subsystem should depend on."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (monotonic within one clock)."""

    @abc.abstractmethod
    def sleep(self, seconds: float) -> None:
        """Pause the caller for ``seconds`` of this clock's time."""

    def wait_on(
        self, condition: threading.Condition, timeout: Optional[float]
    ) -> bool:
        """Wait on an already-held ``condition`` up to ``timeout`` seconds.

        Returns ``False`` on timeout and ``True`` otherwise — the
        ``Condition.wait`` contract, but with the timeout interpreted in
        this clock's time.  As with ``Condition.wait``, ``True`` may be a
        spurious wakeup: callers re-check the predicate they wait for.
        """
        return condition.wait(timeout)


class MonotonicClock(Clock):
    """Real time: ``time.monotonic`` / ``time.sleep``."""

    def now(self) -> float:
        return time.monotonic()  # pdc-lint: disable=PDC210 -- this IS the injected clock's wall-time implementation

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MonotonicClock()"


class VirtualClock(Clock):
    """Simulated time that moves only when advanced.

    ``sleep(s)`` advances the clock by ``s`` immediately (and yields the
    GIL so sibling threads make progress), which turns wall-clock-shaped
    code into a deterministic discrete-event step.  ``advance`` is the
    test's throttle.  ``wait_on`` polls the condition in short *real* time
    slices while watching the *virtual* deadline, so "timed out" is a
    property of simulated time — two runs see identical timeout behaviour
    regardless of machine load.  After a real second of idle slices it
    reports a wakeup, so a notify lost to a timed-out slice costs that
    second rather than a hang.
    """

    #: Real-time slice used to poll conditions while virtual time is frozen.
    _POLL_SLICE = 0.02
    #: Timed-out slices (one real second) after which ``wait_on`` reports
    #: a wakeup even though none was seen.
    _IDLE_SLICES = 50

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new now."""
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        with self._lock:
            self._now += seconds
            return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.advance(seconds)
        time.sleep(0)  # yield the GIL so other threads run

    def wait_on(
        self, condition: threading.Condition, timeout: Optional[float]
    ) -> bool:
        if timeout is None:
            return condition.wait(None)
        deadline = self.now() + timeout
        for _ in range(self._IDLE_SLICES):
            if condition.wait(self._POLL_SLICE):
                return True
            if self.now() >= deadline:
                return False
        # A timed ``Condition.wait`` can consume a ``notify`` that lands
        # just as it times out and still report a timeout; with virtual
        # time frozen, nothing else would end this wait.  Report a
        # (possibly spurious) wakeup instead: callers re-check their
        # predicate, as they must after any ``Condition.wait``.
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self.now()})"
