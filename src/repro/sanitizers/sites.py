"""Access-site capture: where in user code did an event happen?

A race report with both access sites is what separates a sanitizer from
an assertion.  The instrumented primitives all live in known files, so
the site of an event is the innermost stack frame *outside* those files
— the same skip-the-runtime frame walk TSan's symbolizer performs.
"""

from __future__ import annotations

import dataclasses
import os
import sys

__all__ = ["AccessSite", "call_site"]

#: Path suffixes (normalized to ``os.sep``) whose frames are runtime
#: machinery, never the user-code site of an event.
_SKIP_SUFFIXES = tuple(
    suffix.replace("/", os.sep)
    for suffix in (
        "repro/sanitizers/hooks.py",
        "repro/sanitizers/sites.py",
        "repro/sanitizers/vc.py",
        "repro/sanitizers/fasttrack.py",
        "repro/sanitizers/sanitizer.py",
        "repro/sanitizers/deadlock.py",
        "repro/sanitizers/msgrace.py",
        "repro/sanitizers/rewrite.py",
        "repro/sanitizers/runner.py",
        "repro/verify/scheduler.py",
        "repro/verify/explorer.py",
        "repro/smp/locks.py",
        "repro/smp/barrier.py",
        "repro/smp/racedetect.py",
        "repro/smp/deadlock.py",
        "repro/net/simnet.py",
        "repro/net/sockets.py",
        "repro/dist/middleware.py",
    )
)


@dataclasses.dataclass(frozen=True, order=True)
class AccessSite:
    """One source location: ``path:line`` (and the thread that was there)."""

    path: str
    line: int
    thread: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}"


def _is_runtime_frame(filename: str) -> bool:
    return filename.endswith(_SKIP_SUFFIXES)


def call_site(thread: str = "") -> AccessSite:
    """The innermost non-runtime frame of the current stack."""
    frame = sys._getframe(1)
    while frame is not None and _is_runtime_frame(frame.f_code.co_filename):
        frame = frame.f_back
    if frame is None:  # pragma: no cover - only if called from runtime top
        return AccessSite("<unknown>", 0, thread)
    return AccessSite(frame.f_code.co_filename, frame.f_lineno, thread)
