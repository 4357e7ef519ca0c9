"""Seeded randomness as a service: one root seed, named child streams.

The substrate's stochastic pieces (datagram loss, load-balancer probes,
migration workloads …) each used to call ``np.random.default_rng(seed)``
with their own ad-hoc seed, so "reproduce this whole lab run" meant
hunting down every seed argument.  :class:`RngService` derives a child
generator *by name* from one root seed: ``rng.stream("net.drops")`` is a
pure function of ``(root_seed, "net.drops")`` — stable across processes,
platforms, and the order streams are requested in.

Derivation uses ``np.random.SeedSequence`` with the stream name's bytes
as the spawn key, the documented mechanism for independent child streams.
numpy is imported on first use, so a :class:`~repro.runtime.RunContext`
that never draws a number, like the analysis engine's, never loads it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RngService"]


class RngService:
    """Hands out named, independently-seeded ``np.random.Generator`` s."""

    def __init__(self, seed: int = 0) -> None:
        self.root_seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._lock = threading.Lock()

    def _sequence(self, name: str) -> np.random.SeedSequence:
        import numpy as np

        return np.random.SeedSequence(
            self.root_seed, spawn_key=tuple(name.encode("utf-8"))
        )

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (one instance per name, cached).

        Repeated calls return the *same* generator, so a subsystem that
        draws incrementally keeps its position in the stream.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        with self._lock:
            gen = self._streams.get(name)
            if gen is None:
                gen = self.fresh_stream(name)
                self._streams[name] = gen
            return gen

    def fresh_stream(self, name: str) -> np.random.Generator:
        """A new generator at the start of ``name``'s stream (not cached)."""
        import numpy as np

        return np.random.default_rng(self._sequence(name))

    def seed_for(self, name: str) -> int:
        """A derived integer seed for APIs that only accept an int."""
        return int(self._sequence(name).generate_state(1, "uint32")[0])

    def child(self, name: str) -> "RngService":
        """A nested service whose root derives from ``name``."""
        return RngService(self.seed_for(name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngService(seed={self.root_seed}, streams={len(self._streams)})"
