"""Static lock-order graph: ABBA deadlock potential (PDC102).

Every acquisition site whose entry lockset is non-empty contributes
``held -> acquired`` edges, as :class:`repro.smp.deadlock.LockGraph`
records them at run time.  A cycle means two call paths take the same
locks in opposite orders — the classic ABBA hang.  :func:`lock_cycles`
enumerates the cycles for every lock-order finding (per-file and
whole-program PDC102, the sanitizer's PDC302), each in one canonical
rotation whatever the hash seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.analysis.analyzer import ModuleContext
from repro.analysis.report import Finding, Severity
from repro.analysis.rules import Rule, rule

__all__ = ["LockOrderRule", "build_lock_order_graph", "lock_cycles"]


def build_lock_order_graph(
    ctx: ModuleContext,
) -> Dict[Tuple[str, str], List[Tuple[str, int]]]:
    """``(held, acquired)`` edges over the module's discovered locks, each
    mapped to the ``(function, lineno)`` sites of the nested acquisition."""
    graph: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
    for info in ctx.functions:
        for acq in ctx.lockmodel.acquisitions(info.node):
            for outer in acq.held_before:
                if outer != acq.lock:  # re-entry is PDC208's finding
                    graph.setdefault((outer, acq.lock), []).append(
                        (info.name, acq.lineno)
                    )
    return graph


def lock_cycles(edges: Iterable[Tuple[str, str]]) -> List[List[str]]:
    """Every elementary cycle of the directed graph ``edges``, rotated to
    start at its smallest node, in sorted order.

    Each cycle is found once, from its smallest node, by a depth-first
    walk confined (as in Johnson's algorithm) to that node's strongly
    connected component among the nodes not smaller than it, so an
    acyclic graph costs one step per edge, not one per path.
    """
    succ: Dict[str, List[str]] = {}
    pred: Dict[str, List[str]] = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
        pred.setdefault(dst, []).append(src)
    cycles: List[List[str]] = []
    for start in succ:
        component, todo = {start}, [start]
        while todo:
            for src in pred.get(todo.pop(), ()):
                if src > start and src not in component:
                    component.add(src)
                    todo.append(src)
        paths = [[start]]
        while paths:
            path = paths.pop()
            for nxt in succ[path[-1]]:
                if nxt == start:
                    cycles.append(path)
                elif nxt in component and nxt not in path:
                    paths.append(path + [nxt])
    return sorted(cycles)


@rule
class LockOrderRule(Rule):
    """PDC102: a cycle in the static lock-order graph."""

    id = "PDC102"
    name = "lock-order-cycle"
    summary = (
        "nested acquisitions take locks in conflicting orders (ABBA "
        "deadlock potential); impose one global order"
    )
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        graph = build_lock_order_graph(ctx)
        for cycle in sorted(lock_cycles(graph), key=len):
            sites = [
                site
                for edge in zip(cycle, cycle[1:] + cycle[:1])
                for site in graph[edge]
            ]
            order = " -> ".join(cycle + cycle[:1])
            where = ", ".join(sorted({f"{f}():{ln}" for f, ln in sites}))
            yield Finding(
                path=ctx.path,
                line=min(ln for _, ln in sites),
                col=0,
                rule=self.id,
                message=(
                    f"lock-order cycle {order}: some interleaving of the "
                    f"nesting sites ({where}) deadlocks; acquire these "
                    "locks in one global order everywhere"
                ),
                severity=self.severity,
                symbol=order,
            )
