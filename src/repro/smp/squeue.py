"""Properly synchronized queues — a CC2020-named PDC topic.

CC2020's draft PDC competencies (paper §II-A) call out "properly synchronized
queues" explicitly.  :class:`SynchronizedQueue` is a bounded MPSC/MPMC queue
with close semantics, built on a monitor; it is also the channel type used by
:mod:`repro.mp`'s in-process MPI runtime and :mod:`repro.net`'s simulated
sockets, so its correctness is load-bearing for the whole substrate.
"""

from __future__ import annotations

import collections
import threading
from typing import Deque, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")

__all__ = ["SynchronizedQueue", "QueueClosed", "QueueTimeout"]


class QueueClosed(RuntimeError):
    """Raised by :meth:`SynchronizedQueue.get` once a closed queue drains."""


class QueueTimeout(TimeoutError):
    """Raised when a blocking queue operation exceeds its timeout."""


class SynchronizedQueue(Generic[T]):
    """A bounded, closeable FIFO queue safe for many producers and consumers.

    Semantics chosen for teachability and for use as a message channel:

    - ``put`` blocks while full; raises :class:`QueueClosed` if closed.
    - ``get`` blocks while empty; after :meth:`close`, remaining items are
      still delivered ("drain then fail"), then :class:`QueueClosed` is
      raised — the same shape as Go channels, which makes pipeline labs
      natural to write.
    - Unbounded if ``capacity`` is ``None``.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        self._items: Deque[T] = collections.deque()
        # Producers (waiting for room) and consumers (waiting for an
        # item) share this one condition, so every state change must
        # notify_all: a single notify() can wake a waiter of the wrong
        # kind, which re-waits and swallows the wakeup — two producers
        # and two consumers on a capacity-1 queue then all sleep.
        self._cond = threading.Condition()
        self._closed = False
        self.total_put = 0
        self.total_got = 0
        self.max_depth = 0

    def put(self, item: T, timeout: Optional[float] = None) -> None:
        """Enqueue ``item``; blocks while the queue is at capacity."""
        with self._cond:
            if self._closed:
                raise QueueClosed("put on closed queue")
            if self.capacity is not None:
                ok = self._cond.wait_for(
                    lambda: len(self._items) < self.capacity or self._closed,
                    timeout,
                )
                if not ok:
                    raise QueueTimeout("put timed out")
                if self._closed:
                    raise QueueClosed("queue closed while blocked in put")
            self._items.append(item)
            self.total_put += 1
            if len(self._items) > self.max_depth:
                self.max_depth = len(self._items)
            self._cond.notify_all()

    def get(self, timeout: Optional[float] = None) -> T:
        """Dequeue the oldest item; blocks while empty.

        Raises :class:`QueueClosed` once the queue is closed *and* empty.
        """
        with self._cond:
            ok = self._cond.wait_for(
                lambda: len(self._items) > 0 or self._closed, timeout
            )
            if not ok:
                raise QueueTimeout("get timed out")
            if not self._items:
                raise QueueClosed("queue closed and drained")
            item = self._items.popleft()
            self.total_got += 1
            self._cond.notify_all()
            return item

    def try_get(self) -> Optional[T]:
        """Non-blocking dequeue; ``None`` when empty (even if closed)."""
        with self._cond:
            if not self._items:
                return None
            item = self._items.popleft()
            self.total_got += 1
            self._cond.notify_all()
            return item

    def peek(self) -> Optional[T]:
        """Return the oldest item without removing it, or ``None``."""
        with self._cond:
            return self._items[0] if self._items else None

    def close(self) -> None:
        """Close the queue: future puts fail; gets drain remaining items."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._cond:
            return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def __iter__(self) -> Iterator[T]:
        """Iterate, blocking for items, until the queue closes and drains."""
        while True:
            try:
                yield self.get()
            except QueueClosed:
                return
