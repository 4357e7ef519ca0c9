"""Cone analysis: the entry-lockset fixpoint and the whole-program rules.

One :func:`analyze_cone` call judges a single SCC's cone — the SCC plus
every module it transitively imports — using nothing but the member
summaries in the :class:`~repro.analysis.ip.callgraph.ProgramIndex`.
That purity is what makes cone results cacheable under the cone digest.

The fixpoint is context-insensitive: for every function we compute the
set of locks *certainly* held on entry as the intersection, over all
call sites that reach it, of (caller's entry set ∪ locks held around
the call).  Spawn targets and uncalled roots start with the empty set;
entries only shrink, so the iteration converges.  A site's *effective*
lockset is then its local lockset ∪ the enclosing function's entry set
— the quantity the lifted rules reason with:

- **PDC101** cross-module races: accesses to one module's global (or one
  class's attribute) gathered across the cone, judged Eraser-style with
  effective locksets, emitted only when the evidence spans ≥ 2 modules
  (single-module races are the per-file analyzer's findings).
- **PDC102** cross-module lock-order cycles: nesting edges from every
  acquisition's effective held-before set; cycles visible to some
  single file on its own are skipped.
- **PDC206/PDC209** transitively-blocking calls: a bottom-up "does this
  function eventually block/join" fixpoint, then a finding at every
  call edge whose effective lockset is non-empty.

Every finding carries a :class:`~repro.analysis.report.TraceStep` chain
(spawn site, call chain, access sites) and honors inline suppressions
at *either* endpoint — the anchor line or any traced line.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.ip.callgraph import ProgramIndex
from repro.analysis.lockorder import lock_cycles
from repro.analysis.report import Finding, Severity, TraceStep

__all__ = ["IP_VERSION", "ConeEntry", "ConeResult", "analyze_cone"]

#: Bumped when linking or rule semantics change; part of the cache scope.
IP_VERSION = "1"

#: A function's identity inside one cone: (module path, function name).
FuncId = Tuple[str, str]

#: Evidence chains longer than this are truncated (SARIF stays readable).
_MAX_TRACE = 8


@dataclasses.dataclass(frozen=True)
class ConeEntry:
    """One whole-program finding plus its global-dedup key."""

    key: Tuple[str, ...]
    finding: Finding
    suppressed: bool


@dataclasses.dataclass
class ConeResult:
    """Everything one cone's analysis produced (the cache payload)."""

    entries: List[ConeEntry]
    version: str = IP_VERSION

    def to_wire(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "entries": [
                {
                    "key": list(e.key),
                    "finding": e.finding.as_dict(),
                    "suppressed": e.suppressed,
                }
                for e in self.entries
            ],
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "ConeResult":
        return cls(
            version=str(payload.get("version", IP_VERSION)),
            entries=[
                ConeEntry(
                    key=tuple(row["key"]),  # type: ignore[index]
                    finding=Finding.from_dict(row["finding"]),  # type: ignore[index,arg-type]
                    suppressed=bool(row["suppressed"]),  # type: ignore[index]
                )
                for row in payload.get("entries", ())  # type: ignore[union-attr]
            ],
        )


def _locks_text(locks: FrozenSet[str]) -> str:
    return "{" + ", ".join(sorted(locks)) + "}" if locks else "no lock"


class _ConeAnalysis:
    """Working state for one cone.  Deterministic by construction: every
    iteration is over sorted paths/names, so two runs over the same
    summaries produce byte-identical results."""

    def __init__(self, index: ProgramIndex, scc_index: int) -> None:
        self.index = index
        self.paths: Tuple[str, ...] = index.cone(scc_index)
        self.cone: Set[str] = set(self.paths)
        self.mod: Dict[str, str] = {
            p: index.module_name[p] for p in self.paths
        }
        self._build_functions()
        self._build_edges()
        self._resolve_spawns()
        self._entry_fixpoint()
        self._concurrency_closure()

    # -- linking -----------------------------------------------------------
    def _build_functions(self) -> None:
        self.funcs: Dict[FuncId, object] = {}
        for p in self.paths:
            for f in self.index.summaries[p].functions:
                self.funcs.setdefault((p, f.name), f)

    def canon_lock(self, p: str, raw: str) -> Optional[str]:
        """One program-wide name per lock, or ``None`` for a *candidate*
        that linking proved is not a lock.  Unresolvable names are kept
        verbatim — both sides of an external lock spell it identically
        after import resolution, so intersections still work."""
        summary = self.index.summaries[p]
        if raw in summary.locks:
            return f"{self.mod[p]}.{raw}"
        if "." in raw:
            if raw.startswith("self."):
                return f"{self.mod[p]}.{raw}"
            hit = self.index.resolve_prefix(raw)
            if hit is not None and hit[0] in self.cone:
                target, rest = hit
                if (
                    len(rest) == 1
                    and rest[0] in self.index.summaries[target].locks
                ):
                    return f"{self.mod[target]}.{rest[0]}"
                return None
            return raw
        return f"{self.mod[p]}.{raw}"

    def _canon_set(self, p: str, raw: Sequence[str]) -> FrozenSet[str]:
        out = {self.canon_lock(p, name) for name in raw}
        out.discard(None)
        return frozenset(out)  # type: ignore[arg-type]

    def _resolve_func(self, p: str, name: str) -> Optional[FuncId]:
        """The function a call/spawn target names, if it is in the cone."""
        if name.startswith("self."):
            name = name[len("self.") :]
        if "." not in name:
            return (p, name) if (p, name) in self.funcs else None
        hit = self.index.resolve_prefix(name)
        if hit is None or hit[0] not in self.cone or len(hit[1]) != 1:
            return None
        fid = (hit[0], hit[1][0])
        return fid if fid in self.funcs else None

    def _build_edges(self) -> None:
        #: (caller, callee, site path, site line, site lockset)
        self.edges: List[
            Tuple[FuncId, FuncId, str, int, FrozenSet[str]]
        ] = []
        self.callers: Dict[
            FuncId, List[Tuple[FuncId, FrozenSet[str]]]
        ] = {}
        for p in self.paths:
            for site in self.index.summaries[p].calls:
                caller = (p, site.func)
                if caller not in self.funcs:
                    continue
                callee = self._resolve_func(p, site.callee)
                if callee is None or callee == caller:
                    continue
                lockset = self._canon_set(p, site.lockset)
                self.edges.append(
                    (caller, callee, p, site.lineno, lockset)
                )
                self.callers.setdefault(callee, []).append(
                    (caller, lockset)
                )

    def _resolve_spawns(self) -> None:
        #: target fid -> spawn site records (path, line, func, in_loop)
        self.spawns: Dict[FuncId, List[Tuple[str, int, str, bool]]] = {}
        for p in self.paths:
            for s in self.index.summaries[p].spawns:
                fid = self._resolve_func(p, s.target)
                if fid is None:
                    continue
                self.spawns.setdefault(fid, []).append(
                    (p, s.lineno, s.func, s.in_loop)
                )

    # -- entry-lockset fixpoint --------------------------------------------
    def _entry_fixpoint(self) -> None:
        roots = set(self.spawns)
        roots.update(f for f in self.funcs if f not in self.callers)
        entry: Dict[FuncId, Optional[FrozenSet[str]]] = {
            f: (frozenset() if f in roots else None) for f in self.funcs
        }
        ordered = sorted(self.funcs)
        changed = True
        while changed:
            changed = False
            for fid in ordered:
                if fid in roots:
                    continue
                new: Optional[FrozenSet[str]] = None
                for caller, lockset in self.callers.get(fid, ()):
                    held = entry[caller]
                    if held is None:
                        continue  # ⊤ is the meet identity
                    contrib = held | lockset
                    new = contrib if new is None else (new & contrib)
                if new is not None and new != entry[fid]:
                    entry[fid] = new
                    changed = True
        #: locks certainly held on entry; unreachable functions get ∅,
        #: matching the per-file analyzer's assumption.
        self.entry: Dict[FuncId, FrozenSet[str]] = {
            f: (held if held is not None else frozenset())
            for f, held in entry.items()
        }

    def effective(
        self, p: str, fid: FuncId, lockset: Sequence[str]
    ) -> FrozenSet[str]:
        """Site lockset ∪ the enclosing function's entry lockset."""
        return self._canon_set(p, lockset) | self.entry.get(
            fid, frozenset()
        )

    # -- concurrency closure -----------------------------------------------
    def _concurrency_closure(self) -> None:
        succs: Dict[FuncId, List[FuncId]] = {}
        for caller, callee, _, _, _ in self.edges:
            succs.setdefault(caller, []).append(callee)
        #: fid -> module paths of the spawn sites that make it concurrent.
        self.conc_modules: Dict[FuncId, Set[str]] = {}
        #: fid -> the first (sorted) spawn site proving concurrency.
        self.conc_step: Dict[FuncId, Tuple[str, int, str]] = {}
        self.multi: Dict[FuncId, bool] = {}
        worklist: List[FuncId] = []
        for fid in sorted(self.spawns):
            sites = sorted(self.spawns[fid])
            multi = len(sites) > 1 or any(s[3] for s in sites)
            p, line, _, _ = sites[0]
            self._absorb(
                fid, {s[0] for s in sites}, (p, line, fid[1]), multi
            )
            worklist.append(fid)
        while worklist:
            fid = worklist.pop()
            for succ in sorted(set(succs.get(fid, ()))):
                if self._absorb(
                    succ,
                    self.conc_modules[fid],
                    self.conc_step[fid],
                    self.multi[fid],
                ):
                    worklist.append(succ)

    def _absorb(
        self,
        fid: FuncId,
        modules: Set[str],
        step: Tuple[str, int, str],
        multi: bool,
    ) -> bool:
        changed = fid not in self.conc_modules
        if changed:
            self.conc_modules[fid] = set(modules)
            self.conc_step[fid] = step
            self.multi[fid] = multi
            return True
        if not modules <= self.conc_modules[fid]:
            self.conc_modules[fid] |= modules
            changed = True
        if step < self.conc_step[fid]:
            self.conc_step[fid] = step
            changed = True
        if multi and not self.multi[fid]:
            self.multi[fid] = True
            changed = True
        return changed

    # -- suppression endpoints ---------------------------------------------
    def suppressed_at(self, path: str, line: int, rule: str) -> bool:
        summary = self.index.summaries.get(path)
        if summary is None or line not in summary.suppressions:
            return False
        rules = summary.suppressions[line]
        return rules is None or rule in rules

    def _is_suppressed(self, finding: Finding) -> bool:
        """A suppression comment at *any* endpoint silences the finding:
        the anchor line or any line on the evidence chain."""
        if self.suppressed_at(finding.path, finding.line, finding.rule):
            return True
        return any(
            self.suppressed_at(step.path, step.line, finding.rule)
            for step in finding.trace
        )

    # -- PDC101: cross-module races ----------------------------------------
    def _race_entries(self) -> List[ConeEntry]:
        Rec = Tuple[str, str, bool, int, FrozenSet[str], bool, FuncId]
        groups: Dict[Tuple[str, ...], List[Rec]] = {}
        decl: Dict[Tuple[str, ...], Tuple[str, int]] = {}
        for p in self.paths:
            summary = self.index.summaries[p]
            for a in summary.accesses:
                if a.kind == "global":
                    target, var = p, a.parts[0]
                elif a.kind == "modattr":
                    hit = self.index.resolve_prefix(".".join(a.parts))
                    if (
                        hit is None
                        or hit[0] not in self.cone
                        or len(hit[1]) != 1
                    ):
                        continue
                    target, var = hit[0], hit[1][0]
                elif a.kind == "attr":
                    cls, attr = a.parts
                    key = ("attr", self.mod[p], cls, attr)
                    fid = (p, a.func)
                    groups.setdefault(key, []).append(
                        (
                            p,
                            a.func,
                            a.write,
                            a.lineno,
                            self.effective(p, fid, a.lockset),
                            a.in_init,
                            fid,
                        )
                    )
                    continue
                else:
                    continue
                owner = self.index.summaries[target]
                if (
                    var not in owner.module_globals
                    or var in owner.locks
                ):
                    continue
                key = ("global", self.mod[target], var)
                decl.setdefault(
                    key, (target, owner.global_lines.get(var, 1))
                )
                fid = (p, a.func)
                groups.setdefault(key, []).append(
                    (
                        p,
                        a.func,
                        a.write,
                        a.lineno,
                        self.effective(p, fid, a.lockset),
                        a.in_init,
                        fid,
                    )
                )

        entries: List[ConeEntry] = []
        for key in sorted(groups):
            recs = groups[key]
            live = [
                r
                for r in recs
                if not r[5] and r[6] in self.conc_modules
            ]
            if not live or not any(r[2] for r in live):
                continue
            fids = sorted({r[6] for r in live})
            if len(fids) < 2 and not any(
                self.multi.get(f, False) for f in fids
            ):
                continue
            held = live[0][4]
            for r in live[1:]:
                held &= r[4]
            if held:
                continue
            evidence = {r[0] for r in live}
            for f in fids:
                evidence |= self.conc_modules[f]
            if key[0] == "global":
                evidence.add(decl[key][0])
            if len(evidence) < 2:
                continue
            display = (
                f"{key[1]}.{key[2]}"
                if key[0] == "global"
                else f"{key[1]}.{key[2]}.{key[3]}"
            )
            entries.append(
                self._race_entry(
                    key, display, live, fids, decl.get(key), len(evidence)
                )
            )
        return entries

    def _race_entry(
        self,
        key: Tuple[str, ...],
        display: str,
        live: List[Tuple],
        fids: List[FuncId],
        decl: Optional[Tuple[str, int]],
        modules: int,
    ) -> ConeEntry:
        ordered = sorted(live, key=lambda r: (r[0], r[3], not r[2]))
        writes = [r for r in ordered if r[2]]
        anchor = writes[0] if writes else ordered[0]
        steps: List[TraceStep] = []
        if decl is not None:
            steps.append(
                TraceStep(
                    path=decl[0],
                    line=decl[1],
                    note=f"`{display}` defined here",
                )
            )
        spawn_steps = sorted(
            {self.conc_step[f] for f in fids if f in self.conc_step}
        )
        for p, line, name in spawn_steps[:2]:
            steps.append(
                TraceStep(
                    path=p,
                    line=line,
                    note=f"`{name}` spawned as a thread here",
                )
            )
        for r in ordered:
            if len(steps) >= _MAX_TRACE:
                break
            verb = "write" if r[2] else "read"
            steps.append(
                TraceStep(
                    path=r[0],
                    line=r[3],
                    note=(
                        f"{verb} in `{self.mod[r[0]]}.{r[1]}` under "
                        f"{_locks_text(r[4])}"
                    ),
                )
            )
        funcs = ", ".join(
            sorted({f"{self.mod[f[0]]}.{f[1]}" for f in fids})
        )
        finding = Finding(
            path=anchor[0],
            line=anchor[3],
            col=0,
            rule="PDC101",
            message=(
                f"potential cross-module data race on `{display}`: "
                f"written from concurrent code with an empty common "
                f"lockset, evidence spanning {modules} modules "
                f"(accessed in: {funcs}); hold one common lock at every "
                "access"
            ),
            severity=Severity.ERROR,
            symbol=display,
            trace=tuple(steps),
        )
        return ConeEntry(
            key=("PDC101",) + key,
            finding=finding,
            suppressed=self._is_suppressed(finding),
        )

    # -- PDC102: cross-module lock-order cycles ----------------------------
    def _lockorder_entries(self) -> List[ConeEntry]:
        Site = Tuple[str, int, str, bool]  # path, line, func, local
        sites: Dict[Tuple[str, str], List[Site]] = {}
        for p in self.paths:
            # Locks this module *defines*, canonically: the only names
            # the per-file lock model can witness an order edge over.
            own = {
                f"{self.mod[p]}.{raw}"
                for raw in self.index.summaries[p].locks
            }
            for acq in self.index.summaries[p].acquisitions:
                inner = self.canon_lock(p, acq.lock)
                if inner is None:
                    continue
                local = self._canon_set(p, acq.held_before)
                held = local | self.entry.get(
                    (p, acq.func), frozenset()
                )
                for outer in sorted(held):
                    if outer == inner:
                        continue
                    sites.setdefault((outer, inner), []).append(
                        (
                            p,
                            acq.lineno,
                            acq.func,
                            outer in local
                            and outer in own
                            and inner in own,
                        )
                    )
        entries: List[ConeEntry] = []
        for cycle in sorted(
            lock_cycles(sites), key=lambda c: (len(c), sorted(c))
        ):
            canon = tuple(cycle)
            edge_sites = [
                sorted(sites[(canon[i], canon[(i + 1) % len(canon)])])[0]
                for i in range(len(canon))
            ]
            # A file that locally witnesses *every* edge would report
            # this cycle in per-file mode: leave it to PDC102 there.
            local_witness: Optional[Set[str]] = None
            for i in range(len(canon)):
                pair = (canon[i], canon[(i + 1) % len(canon)])
                witnesses = {s[0] for s in sites[pair] if s[3]}
                local_witness = (
                    witnesses
                    if local_witness is None
                    else local_witness & witnesses
                )
            if local_witness:
                continue
            anchor = min(edge_sites, key=lambda s: (s[0], s[1]))
            order = " -> ".join(canon + (canon[0],))
            steps = tuple(
                TraceStep(
                    path=s[0],
                    line=s[1],
                    note=(
                        f"`{self.mod[s[0]]}.{s[2]}` acquires "
                        f"`{canon[(i + 1) % len(canon)]}` while holding "
                        f"`{canon[i]}`"
                    ),
                )
                for i, s in enumerate(edge_sites)
            )
            finding = Finding(
                path=anchor[0],
                line=anchor[1],
                col=0,
                rule="PDC102",
                message=(
                    f"cross-module lock-order cycle {order}: some "
                    "interleaving of the nesting sites deadlocks; "
                    "acquire these locks in one global order everywhere"
                ),
                severity=Severity.ERROR,
                symbol=order,
                trace=steps,
            )
            entries.append(
                ConeEntry(
                    key=("PDC102",) + canon,
                    finding=finding,
                    suppressed=self._is_suppressed(finding),
                )
            )
        return entries

    # -- PDC206/PDC209: transitively-blocking calls ------------------------
    def _blocking_entries(self) -> List[ConeEntry]:
        # binfo[f]: (depth, kind, leaf path, leaf line, label, next hop)
        Info = Tuple[
            int, str, str, int, str, Optional[Tuple[FuncId, str, int]]
        ]
        binfo: Dict[FuncId, Info] = {}
        for p in self.paths:
            for b in self.index.summaries[p].blocking:
                fid = (p, b.func)
                if fid not in self.funcs:
                    continue
                cand: Info = (0, b.kind, p, b.lineno, b.label, None)
                if fid not in binfo or cand < binfo[fid]:
                    binfo[fid] = cand
        ordered_edges = sorted(
            self.edges, key=lambda e: (e[0], e[2], e[3], e[1])
        )
        changed = True
        while changed:
            changed = False
            for caller, callee, p, line, _ in ordered_edges:
                info = binfo.get(callee)
                if info is None:
                    continue
                cand = (
                    info[0] + 1,
                    info[1],
                    info[2],
                    info[3],
                    info[4],
                    (callee, p, line),
                )
                if caller not in binfo or cand < binfo[caller]:
                    binfo[caller] = cand
                    changed = True

        entries: List[ConeEntry] = []
        for caller, callee, p, line, lockset in ordered_edges:
            info = binfo.get(callee)
            if info is None:
                continue
            held = self.effective(p, caller, ()) | lockset
            if not held:
                continue
            depth, kind, leaf_path, leaf_line, label, _ = info
            rule = "PDC206" if kind == "join" else "PDC209"
            callee_name = f"{self.mod[callee[0]]}.{callee[1]}"
            steps: List[TraceStep] = [
                TraceStep(
                    path=p,
                    line=line,
                    note=(
                        f"`{self.mod[p]}.{caller[1]}` calls "
                        f"`{callee_name}` holding {_locks_text(held)}"
                    ),
                )
            ]
            hop = callee
            hop_info: Optional[Info] = info
            while (
                hop_info is not None
                and hop_info[5] is not None
                and len(steps) < _MAX_TRACE - 1
            ):
                nxt, via_path, via_line = hop_info[5]
                steps.append(
                    TraceStep(
                        path=via_path,
                        line=via_line,
                        note=(
                            f"`{self.mod[hop[0]]}.{hop[1]}` calls "
                            f"`{self.mod[nxt[0]]}.{nxt[1]}` here"
                        ),
                    )
                )
                hop, hop_info = nxt, binfo.get(nxt)
            steps.append(
                TraceStep(
                    path=leaf_path,
                    line=leaf_line,
                    note=(
                        "joins a thread here"
                        if kind == "join"
                        else f"blocking call {label} here"
                    ),
                )
            )
            what = (
                "joins a thread"
                if kind == "join"
                else f"makes a blocking call ({label})"
            )
            finding = Finding(
                path=p,
                line=line,
                col=0,
                rule=rule,
                message=(
                    f"`{callee_name}` transitively {what} while "
                    f"{_locks_text(held)} is held; move the blocking "
                    "work outside the critical section"
                ),
                severity=Severity.WARNING,
                symbol=callee_name,
                trace=tuple(steps),
            )
            entries.append(
                ConeEntry(
                    key=(rule, p, str(line), callee_name),
                    finding=finding,
                    suppressed=self._is_suppressed(finding),
                )
            )
        return entries

    def run(self) -> ConeResult:
        entries = (
            self._race_entries()
            + self._lockorder_entries()
            + self._blocking_entries()
        )
        entries.sort(
            key=lambda e: (
                e.finding.path,
                e.finding.line,
                e.finding.rule,
                e.key,
            )
        )
        return ConeResult(entries=entries)


def analyze_cone(index: ProgramIndex, scc_index: int) -> ConeResult:
    """Judge one SCC's cone.  Pure in the member summaries: same
    summaries in, byte-identical :class:`ConeResult` out."""
    return _ConeAnalysis(index, scc_index).run()
