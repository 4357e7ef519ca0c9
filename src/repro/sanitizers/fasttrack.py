"""The FastTrack dynamic data-race detector (Flanagan & Freund, 2009).

Where PDC-Lint's PDC101 reasons about *locksets* ("was there a common
lock?"), FastTrack reasons about *happens-before* ("was there any
ordering at all?").  Every thread carries a vector clock; every
synchronization operation transfers clocks:

========================  ============================================
lock release → acquire    ``L := C_t`` on release, ``C_t ⊔= L`` on
                          acquire (the release *publishes*, the acquire
                          *subscribes*)
semaphore post → wait     ``L ⊔= C_t`` on post (merge — several posters
                          may publish), ``C_t ⊔= L`` on wait
barrier                   all-to-all: arrivals merge into the barrier
                          clock, departures merge it back out
thread fork               child ⊒ parent (the child sees everything the
                          parent did before ``start()``)
thread join               parent ⊔= child (join makes the child's work
                          visible)
========================  ============================================

Two accesses to the same variable race iff neither is ordered before
the other by that relation and at least one is a write.  FastTrack's
contribution is the **epoch**: because non-racy writes are totally
ordered, the full prior-writes clock collapses to a single ``(tid,
clock)`` pair, making the common case O(1).  Reads stay an epoch until
two threads read concurrently, when the read state **promotes** to a
full vector clock (the "read-shared" state) — and a write demotes it
back.

The payoff over lockset analysis is *precision*: a program ordered by
fork/join handoff or by passing data through different locks over time
is provably race-free here, while Eraser-style analysis flags it.  The
twin corpus pins both sides of that comparison (see the
cross-validation matrix, :mod:`repro.verify.crossval`).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.sanitizers.sites import AccessSite, call_site
from repro.sanitizers.vc import (
    VC,
    Epoch,
    epoch_leq,
    vc_leq,
    vc_merge,
)

__all__ = ["DynamicRace", "FastTrackDetector"]


@dataclasses.dataclass(frozen=True)
class DynamicRace:
    """One detected race: two unordered accesses, at least one a write."""

    variable: str
    #: ``write-write``, ``write-read`` (prior write, racing read) or
    #: ``read-write`` (prior read, racing write).
    kind: str
    prior: AccessSite
    current: AccessSite

    @property
    def message(self) -> str:
        """The human-facing one-liner, both sites included."""
        return (
            f"data race on `{self.variable}` ({self.kind}): "
            f"{self.current.thread or 'a thread'} at {self.current} is "
            f"unordered with the {self.kind.split('-')[0]} by "
            f"{self.prior.thread or 'another thread'} at {self.prior}"
        )


class _VarState:
    """FastTrack per-variable metadata: a write epoch plus read state
    that is an epoch until promoted to a clock by concurrent readers."""

    __slots__ = (
        "write_epoch", "write_site", "read_epoch", "read_site",
        "read_vc", "read_sites",
    )

    def __init__(self) -> None:
        self.write_epoch: Optional[Epoch] = None
        self.write_site: Optional[AccessSite] = None
        self.read_epoch: Optional[Epoch] = None
        self.read_site: Optional[AccessSite] = None
        #: Populated only in the read-shared state.
        self.read_vc: Optional[VC] = None
        self.read_sites: Dict[int, AccessSite] = {}

    @property
    def shared(self) -> bool:
        return self.read_vc is not None


class FastTrackDetector:
    """Vector-clock race detection over named shared variables.

    Threads are *logical*: real OS threads register lazily by ident, and
    the deterministic fixture runner multiplexes many logical threads
    onto one OS thread via :meth:`push_logical`/:meth:`pop_logical` (so
    verdicts do not depend on the scheduler).  Synchronization objects
    are identified by the object itself (identity hashing) or any
    hashable key.
    """

    def __init__(
        self, on_race: Optional[Callable[[DynamicRace], None]] = None
    ) -> None:
        self._lock = threading.Lock()
        self._clocks: Dict[int, VC] = {}
        self._names: Dict[int, str] = {}
        self._sync: Dict[Any, VC] = {}
        self._vars: Dict[str, _VarState] = {}
        self._os_tids: Dict[int, int] = {}
        self._logical: Dict[int, List[int]] = {}
        self._next_tid = 0
        self._seen: Set[Tuple[str, str, str, int, str, int]] = set()
        self.races: List[DynamicRace] = []
        self._on_race = on_race

    # -- thread identity ---------------------------------------------------
    def _new_tid(self, name: Optional[str]) -> int:
        tid = self._next_tid
        self._next_tid += 1
        self._clocks[tid] = {tid: 1}
        self._names[tid] = name if name else f"T{tid}"
        return tid

    def _current_tid(self) -> int:
        ident = threading.get_ident()
        stack = self._logical.get(ident)
        if stack:
            return stack[-1]
        tid = self._os_tids.get(ident)
        if tid is None:
            tid = self._new_tid(threading.current_thread().name)
            self._os_tids[ident] = tid
        return tid

    def thread_name(self, tid: Optional[int] = None) -> str:
        """Display name of ``tid`` (default: the calling thread's)."""
        with self._lock:
            if tid is None:
                tid = self._current_tid()
            return self._names.get(tid, f"T{tid}")

    # -- fork / join -------------------------------------------------------
    def fork_child(self, name: Optional[str] = None) -> int:
        """Create a child thread id inheriting the caller's clock.

        The fork edge: the child starts at ``C_child ⊒ C_parent``, and
        the parent ticks so its *subsequent* work is unordered with the
        child's — two children forked in a row are concurrent with each
        other, which is exactly why sibling writes still race.
        """
        with self._lock:
            parent = self._current_tid()
            tid = self._new_tid(name)
            child_vc = dict(self._clocks[parent])
            child_vc[tid] = 1
            self._clocks[tid] = child_vc
            self._clocks[parent][parent] += 1
            return tid

    def join_child(self, tid: int) -> None:
        """The join edge: everything ``tid`` did is now visible here."""
        with self._lock:
            parent = self._current_tid()
            vc_merge(self._clocks[parent], self._clocks.get(tid))

    def push_logical(self, tid: int) -> None:
        """Run the calling OS thread *as* logical thread ``tid``."""
        with self._lock:
            self._logical.setdefault(threading.get_ident(), []).append(tid)

    def pop_logical(self) -> None:
        """Undo the innermost :meth:`push_logical`."""
        with self._lock:
            stack = self._logical.get(threading.get_ident())
            if stack:
                stack.pop()

    def bind(self, tid: int) -> None:
        """Identify the calling OS thread with logical thread ``tid``
        (used by :meth:`Sanitizer.thread` for real ``threading`` runs)."""
        with self._lock:
            self._os_tids[threading.get_ident()] = tid

    # -- synchronization edges --------------------------------------------
    def acquire(self, key: Any) -> None:
        """Subscribe: ``C_t ⊔= L``."""
        with self._lock:
            tid = self._current_tid()
            vc_merge(self._clocks[tid], self._sync.get(key))

    def release(self, key: Any, exclusive: bool = True) -> None:
        """Publish: ``L := C_t`` (exclusive) or ``L ⊔= C_t`` (shared
        holders — reader-side releases — must not erase each other)."""
        with self._lock:
            tid = self._current_tid()
            clock = self._clocks[tid]
            if exclusive:
                self._sync[key] = dict(clock)
            else:
                vc_merge(self._sync.setdefault(key, {}), clock)
            clock[tid] = clock.get(tid, 0) + 1

    def sem_wait(self, key: Any) -> None:
        """P: subscribe to every prior post."""
        with self._lock:
            tid = self._current_tid()
            vc_merge(self._clocks[tid], self._sync.get(key))

    def sem_post(self, key: Any) -> None:
        """V: merge-publish (several posters may feed one waiter)."""
        with self._lock:
            tid = self._current_tid()
            clock = self._clocks[tid]
            vc_merge(self._sync.setdefault(key, {}), clock)
            clock[tid] = clock.get(tid, 0) + 1

    def barrier_arrive(self, key: Any) -> None:
        """Merge into the barrier clock; every arrival publishes."""
        with self._lock:
            tid = self._current_tid()
            clock = self._clocks[tid]
            vc_merge(self._sync.setdefault(key, {}), clock)
            clock[tid] = clock.get(tid, 0) + 1

    def barrier_depart(self, key: Any) -> None:
        """Leave with the merged clock: all arrivals precede all
        departures of one generation, the all-to-all barrier edge."""
        with self._lock:
            tid = self._current_tid()
            vc_merge(self._clocks[tid], self._sync.get(key))

    # -- instrumented accesses --------------------------------------------
    def _report(
        self,
        var: str,
        kind: str,
        prior: Optional[AccessSite],
        current: AccessSite,
    ) -> None:
        prior = prior if prior is not None else AccessSite("<unknown>", 0)
        key = (var, kind, prior.path, prior.line, current.path, current.line)
        if key in self._seen:
            return
        self._seen.add(key)
        race = DynamicRace(variable=var, kind=kind, prior=prior, current=current)
        self.races.append(race)
        if self._on_race is not None:
            self._on_race(race)

    def read(self, var: str, site: Optional[AccessSite] = None) -> None:
        """Record one read of ``var`` by the calling (logical) thread."""
        with self._lock:
            tid = self._current_tid()
            clock = self._clocks[tid]
            epoch: Epoch = (tid, clock.get(tid, 0))
            state = self._vars.setdefault(var, _VarState())
            if state.read_epoch == epoch:
                return  # same-epoch fast path
            if state.shared and state.read_vc.get(tid, 0) == epoch[1]:
                return
            here = site if site is not None else call_site(self._names[tid])
            if not epoch_leq(state.write_epoch, clock):
                self._report(var, "write-read", state.write_site, here)
            if state.shared:
                assert state.read_vc is not None
                state.read_vc[tid] = epoch[1]
                state.read_sites[tid] = here
            elif state.read_epoch is None or epoch_leq(state.read_epoch, clock):
                state.read_epoch = epoch  # still one reader at a time
                state.read_site = here
            else:
                # Read-shared promotion: two concurrent readers force the
                # epoch up to a full clock (FastTrack's one slow path).
                prev_tid, prev_clock = state.read_epoch
                state.read_vc = {prev_tid: prev_clock, tid: epoch[1]}
                if state.read_site is not None:
                    state.read_sites[prev_tid] = state.read_site
                state.read_sites[tid] = here
                state.read_epoch = None
                state.read_site = None

    def write(self, var: str, site: Optional[AccessSite] = None) -> None:
        """Record one write of ``var`` by the calling (logical) thread."""
        with self._lock:
            tid = self._current_tid()
            clock = self._clocks[tid]
            epoch: Epoch = (tid, clock.get(tid, 0))
            state = self._vars.setdefault(var, _VarState())
            if state.write_epoch == epoch:
                return  # same-epoch fast path
            here = site if site is not None else call_site(self._names[tid])
            if not epoch_leq(state.write_epoch, clock):
                self._report(var, "write-write", state.write_site, here)
            if state.shared:
                assert state.read_vc is not None
                if not vc_leq(state.read_vc, clock):
                    for r_tid, r_clock in state.read_vc.items():
                        if r_clock > clock.get(r_tid, 0):
                            self._report(
                                var, "read-write",
                                state.read_sites.get(r_tid), here,
                            )
            elif not epoch_leq(state.read_epoch, clock):
                self._report(var, "read-write", state.read_site, here)
            # The write supersedes all read state (FastTrack demotes the
            # variable back to exclusive).
            state.write_epoch = epoch
            state.write_site = here
            state.read_epoch = None
            state.read_site = None
            state.read_vc = None
            state.read_sites = {}

    # -- introspection -----------------------------------------------------
    def clock_of(self, tid: Optional[int] = None) -> VC:
        """A copy of a thread's vector clock (default: the caller's)."""
        with self._lock:
            if tid is None:
                tid = self._current_tid()
            return dict(self._clocks.get(tid, {}))

    def read_state_of(self, var: str) -> Tuple[Optional[Epoch], Optional[VC]]:
        """``(read_epoch, read_vc)`` — exactly one is non-``None`` after a
        read; exposed so tests can pin the epoch→shared promotion."""
        with self._lock:
            state = self._vars.get(var)
            if state is None:
                return None, None
            vc = dict(state.read_vc) if state.read_vc is not None else None
            return state.read_epoch, vc

    @property
    def racy_variables(self) -> Set[str]:
        """Names of variables with at least one reported race."""
        return {r.variable for r in self.races}
