"""PDC3xx: dynamic findings in the static pipeline's Finding model.

The unification is the point — a race found by running the program and a
race found by reading it print identically, suppress identically, and
render to the same JSON/SARIF, so students compare *analyses*, not
report formats:

========  ===========================================================
PDC301    data race observed by FastTrack happens-before analysis
PDC302    deadlock: wait-for cycle hit, or lock-order cycle observed
PDC303    message race: concurrent conflicting deliveries (dist/net)
========  ===========================================================

These ids deliberately do *not* register on the static
:class:`repro.analysis.rules.RuleRegistry`: static rules promise a
seeded source example per rule, while dynamic rules fire from execution.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.report import Finding, Severity
from repro.sanitizers.fasttrack import DynamicRace
from repro.sanitizers.sites import AccessSite

__all__ = [
    "PDC301",
    "PDC302",
    "PDC303",
    "DYNAMIC_RULES",
    "race_finding",
    "deadlock_finding",
    "lock_order_finding",
    "message_finding",
]

PDC301 = "PDC301"
PDC302 = "PDC302"
PDC303 = "PDC303"

#: id -> (name, severity, summary) — the dynamic side of the rule table.
DYNAMIC_RULES: Dict[str, tuple] = {
    PDC301: (
        "dynamic-data-race",
        Severity.ERROR,
        "two unordered accesses to one variable, at least one a write "
        "(FastTrack happens-before)",
    ),
    PDC302: (
        "dynamic-deadlock",
        Severity.ERROR,
        "a wait-for cycle was reached, or the observed lock order admits "
        "an ABBA deadlock",
    ),
    PDC303: (
        "message-race",
        Severity.WARNING,
        "concurrent deliveries to one endpoint: arrival order is a "
        "nondeterminism candidate",
    ),
}


def race_finding(race: DynamicRace) -> Finding:
    """A PDC301 finding anchored at the *racing* (second) access."""
    return Finding(
        path=race.current.path,
        line=race.current.line,
        col=0,
        rule=PDC301,
        message=race.message,
        severity=Severity.ERROR,
        symbol=race.variable,
    )


def deadlock_finding(cycle: Sequence[object], site: AccessSite) -> Finding:
    """A PDC302 finding for a wait-for cycle hit at runtime."""
    chain = " -> ".join(str(a) for a in cycle)
    return Finding(
        path=site.path,
        line=site.line,
        col=0,
        rule=PDC302,
        message=(
            f"deadlock: wait-for cycle {chain} reached at runtime "
            "(circular wait among these agents)"
        ),
        severity=Severity.ERROR,
        symbol=chain,
    )


def lock_order_finding(cycle: Sequence[object], site: AccessSite) -> Finding:
    """A PDC302 finding for an *observed* lock-order cycle — no thread
    deadlocked on this run, but some interleaving can."""
    chain = " -> ".join(str(lock) for lock in cycle)
    return Finding(
        path=site.path,
        line=site.line,
        col=0,
        rule=PDC302,
        message=(
            f"lock-order cycle observed: {chain} -> back; two threads "
            "taking these locks in opposite orders can deadlock even "
            "though this run did not"
        ),
        severity=Severity.ERROR,
        symbol=chain,
    )


def message_finding(
    dest: str, sources: Sequence[str], kind: str, site: AccessSite
) -> Finding:
    """A PDC303 finding: deliveries to ``dest`` with no mutual ordering."""
    who = " and ".join(sources)
    return Finding(
        path=site.path,
        line=site.line,
        col=0,
        rule=PDC303,
        message=(
            f"message race at {dest}: {kind} deliveries from {who} are "
            "causally concurrent — arrival order can differ between "
            "runs (nondeterminism candidate)"
        ),
        severity=Severity.WARNING,
        symbol=dest,
    )
