"""PDC-San: runtime concurrency sanitizers for the teaching substrate.

PR 1 shipped the *static* half of the sanitizer story (PDC-Lint's
Eraser-style lockset and lock-order analyses).  This package is the
*dynamic* half — the TSan/FastTrack side of the classic comparison an
instructor actually teaches:

- :mod:`.fasttrack` — a FastTrack (Flanagan & Freund, PLDI 2009)
  vector-clock data-race detector: epoch-optimized read/write metadata,
  read-shared promotion, and happens-before edges from lock
  acquire/release, semaphore post/wait, barriers, and thread fork/join.
  Races are reported with *both* access sites (PDC301).
- :mod:`.deadlock` — surfaces :class:`repro.smp.deadlock.WaitForGraph`
  cycles and observed lock-order cycles as findings (PDC302) instead of
  only raising.
- :mod:`.msgrace` — tags ``dist`` RPC / ``net`` datagram deliveries with
  vector clocks and flags concurrent conflicting deliveries to one
  endpoint as nondeterminism candidates (PDC303).

All dynamic findings flow through the *same*
:class:`repro.analysis.report.Finding` model and renderers as the static
PDC1xx/2xx findings — one pipeline, two analyses, directly comparable.
The ``pdc-san`` CLI (:mod:`.__main__`) runs a target module or the twin
corpus under instrumentation; its ``--crossval`` prints the ladder's one
fixture × rung matrix (:mod:`repro.verify.crossval`), whose
static-vs-dynamic precision/recall rows show FastTrack exonerating
Eraser's lockset false positives.

This ``__init__`` stays import-light on purpose: the ``smp``/``net``
primitives import :mod:`.hooks` at module load, and eagerly importing
the detector stack here would create a cycle back through ``smp``.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sanitizers.fasttrack import DynamicRace, FastTrackDetector
    from repro.sanitizers.runner import RunResult, run_fixture, run_source
    from repro.sanitizers.sanitizer import Sanitizer

__all__ = [
    "Sanitizer",
    "FastTrackDetector",
    "DynamicRace",
    "run_source",
    "run_fixture",
    "RunResult",
]

_LAZY = {
    "Sanitizer": "repro.sanitizers.sanitizer",
    "FastTrackDetector": "repro.sanitizers.fasttrack",
    "DynamicRace": "repro.sanitizers.fasttrack",
    "run_source": "repro.sanitizers.runner",
    "run_fixture": "repro.sanitizers.runner",
    "RunResult": "repro.sanitizers.runner",
}


def __getattr__(name: str):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.sanitizers' has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)
