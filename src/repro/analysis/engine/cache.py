"""The incremental findings cache: content-addressed, version-scoped.

Layout on disk::

    <root>/<tool>/<scope>/meta.json            # version + config, human-readable
    <root>/<tool>/<scope>/<content-digest>.json  # one analyzed unit

``scope`` hashes the analyzer version and its rule configuration, so a
version bump or a ``--select`` change can never replay stale findings —
the lookup simply lands in a different directory.  Old-version scope
directories are explicitly invalidated (deleted) by :meth:`prune_stale`
at engine startup.  ``content-digest`` hashes the unit's *bytes* (plus
any per-unit salt), which makes entries path-independent: two paths
with identical content share one entry, and :func:`rebase_entry`
rewrites the stored path into the queried one on the way out.

Writes are atomic (temp file + ``os.replace``) so a crashed or
concurrent run can never leave a half-written entry; a corrupted or
unreadable entry degrades to a cache miss, never to an error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from collections import OrderedDict
from typing import Dict, Optional

from repro.analysis.engine.outcome import FileOutcome
from repro.analysis.engine.passes import AnalyzerPass

__all__ = [
    "content_digest",
    "scope_id",
    "rebase_entry",
    "FindingsCache",
    "MemoryCache",
]

#: Entries a :class:`MemoryCache` keeps before it evicts the least
#: recently used one: far above one whole-program lint's units, and a
#: bound on a grading session's memory however many students submit.
MEMORY_CACHE_ENTRIES = 1024

#: Schema version of the entry JSON itself (not the analyzer's).
_ENTRY_SCHEMA = 1


def content_digest(data: bytes, salt: str = "") -> str:
    """sha256 of a unit's content bytes (plus per-unit salt)."""
    h = hashlib.sha256(data)
    if salt:
        h.update(b"\x00")
        h.update(salt.encode("utf-8"))
    return h.hexdigest()


def scope_id(pass_: AnalyzerPass) -> str:
    """The cache scope for one analyzer version + configuration."""
    material = f"{pass_.tool}\x00{pass_.version}\x00{pass_.config_key()}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def rebase_entry(entry: Dict[str, object], path: str) -> FileOutcome:
    """Deserialize a cache entry, rewriting its stored path to ``path``.

    Entries are stored under a content digest, so the same entry serves
    every path whose bytes match; findings and error strings cite the
    path they were produced at, which must be rewritten for the hit to
    be indistinguishable from a fresh analysis.
    """
    outcome = FileOutcome.from_wire(entry["outcome"])  # type: ignore[arg-type]
    old = str(entry.get("path", ""))
    if old and old != path:
        outcome.findings = [
            dataclasses.replace(f, path=path) if f.path == old else f
            for f in outcome.findings
        ]
        outcome.errors = [
            path + e[len(old):] if e.startswith(old + ":") else e
            for e in outcome.errors
        ]
    outcome.cached = True
    return outcome


class FindingsCache:
    """The on-disk cache.  All I/O failures degrade to misses."""

    def __init__(self, root: str) -> None:
        self.root = root

    # -- paths -------------------------------------------------------------
    def _scope_dir(self, pass_: AnalyzerPass) -> str:
        return os.path.join(self.root, pass_.tool, scope_id(pass_))

    def _entry_path(self, pass_: AnalyzerPass, digest: str) -> str:
        return os.path.join(self._scope_dir(pass_), f"{digest}.json")

    # -- lifecycle ---------------------------------------------------------
    def open_scope(self, pass_: AnalyzerPass) -> None:
        """Create the scope directory and its ``meta.json`` descriptor."""
        scope = self._scope_dir(pass_)
        try:
            os.makedirs(scope, exist_ok=True)
            meta = os.path.join(scope, "meta.json")
            if not os.path.exists(meta):
                self._atomic_write(
                    meta,
                    json.dumps(
                        {
                            "tool": pass_.tool,
                            "version": pass_.version,
                            "config": pass_.config_key(),
                            "schema": _ENTRY_SCHEMA,
                        },
                        indent=2,
                    ),
                )
        except OSError:
            pass  # a cache that cannot be created is just a miss machine

    def prune_stale(self, pass_: AnalyzerPass) -> int:
        """Delete sibling scopes written by *older analyzer versions*.

        Scopes for the current version but a different configuration
        (another ``--select``) are left alone — they are still valid.
        Returns the number of scope directories removed.
        """
        tool_dir = os.path.join(self.root, pass_.tool)
        removed = 0
        try:
            names = os.listdir(tool_dir)
        except OSError:
            return 0
        for name in names:
            scope = os.path.join(tool_dir, name)
            try:
                with open(
                    os.path.join(scope, "meta.json"), "r", encoding="utf-8"
                ) as fh:
                    meta = json.load(fh)
                stale = (
                    meta.get("version") != pass_.version
                    or meta.get("schema") != _ENTRY_SCHEMA
                )
            except (OSError, ValueError):
                stale = True  # unreadable scope: nothing in it is trustworthy
            if stale:
                shutil.rmtree(scope, ignore_errors=True)
                removed += 1
        return removed

    # -- entries -----------------------------------------------------------
    def get(
        self, pass_: AnalyzerPass, digest: str, path: str
    ) -> Optional[FileOutcome]:
        """The cached outcome for ``digest``, rebased to ``path``."""
        try:
            with open(
                self._entry_path(pass_, digest), "r", encoding="utf-8"
            ) as fh:
                entry = json.load(fh)
            if entry.get("schema") != _ENTRY_SCHEMA:
                return None
            return rebase_entry(entry, path)
        except (OSError, ValueError, KeyError, TypeError):
            return None  # missing, corrupted, or wrong-shaped: a miss

    def put(
        self, pass_: AnalyzerPass, digest: str, path: str, outcome: FileOutcome
    ) -> None:
        """Store one outcome atomically (failures are silent)."""
        entry = {
            "schema": _ENTRY_SCHEMA,
            "digest": digest,
            "path": path,
            "outcome": outcome.to_wire(),
        }
        try:
            self._atomic_write(
                self._entry_path(pass_, digest), json.dumps(entry)
            )
        except OSError:
            pass

    def _atomic_write(self, path: str, text: str) -> None:
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)


class MemoryCache:
    """A per-process cache with the same surface as :class:`FindingsCache`.

    The autograder uses one per grading session: a cohort where many
    students submit byte-identical starter code is analyzed once.  At
    most :data:`MEMORY_CACHE_ENTRIES` entries are kept, least recently
    used (read or written) first out, so a much-resubmitted starter
    stays cached.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[str, Dict[str, object]] = OrderedDict()

    def open_scope(self, pass_: AnalyzerPass) -> None:
        pass

    def prune_stale(self, pass_: AnalyzerPass) -> int:
        return 0

    def get(
        self, pass_: AnalyzerPass, digest: str, path: str
    ) -> Optional[FileOutcome]:
        key = f"{scope_id(pass_)}/{digest}"
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return rebase_entry(entry, path)

    def put(
        self, pass_: AnalyzerPass, digest: str, path: str, outcome: FileOutcome
    ) -> None:
        key = f"{scope_id(pass_)}/{digest}"
        self._entries[key] = {"path": path, "outcome": outcome.to_wire()}
        self._entries.move_to_end(key)
        if len(self._entries) > MEMORY_CACHE_ENTRIES:
            self._entries.popitem(last=False)
