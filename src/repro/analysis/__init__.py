"""PDC-Lint: static concurrency analysis for Python teaching code.

The repo teaches races, deadlock, and synchronization *dynamically*
(:mod:`repro.smp.racedetect` is an Eraser lockset detector,
:mod:`repro.smp.deadlock` audits lock orders at runtime,
:mod:`repro.smp.interleave` enumerates every schedule) — but all of those
need the program to *run*.  This package closes the loop the paper's
case-study courses (LAU §IV-A, AUC §IV-B) leave open: feedback on
concurrent code **before** execution, from the AST alone.

Layers
------
- :mod:`repro.analysis.cfg` — per-function control-flow graphs over ``ast``
  plus a generic forward dataflow solver.
- :mod:`repro.analysis.lockmodel` — recognizes ``threading`` lock creation
  and acquisition idioms and computes the lockset held at every statement.
- :mod:`repro.analysis.races` — a *static* Eraser: shared-state candidates
  whose write sites share no common lock are potential data races (PDC101).
- :mod:`repro.analysis.lockorder` — static lock-order graph; cycles are
  ABBA deadlock potential (PDC102), cross-validated against the dynamic
  :class:`repro.smp.deadlock.LockGraph`.  Its ``lock_cycles`` enumerates
  the cycles for every lock-order rule, PDC302 included.
- :mod:`repro.analysis.rules` — the pluggable rule engine and eight
  syntactic concurrency-hygiene rules (PDC201–PDC208).
- :mod:`repro.analysis.report` — findings, per-line suppressions
  (``# pdc-lint: disable=PDC101 -- why``), and text/JSON renderers.
- :mod:`repro.analysis.analyzer` — the driver gluing it all together.

Run it as ``python -m repro.analysis <path>`` or via the ``pdc-lint``
console script; the autograder (:mod:`repro.pedagogy.autograder`) can run
it as an optional static pre-check stage on submissions.
"""

from repro.analysis.analyzer import (
    AnalysisResult,
    ModuleContext,
    analyze_file,
    analyze_paths,
    analyze_source,
)
from repro.analysis.report import (
    Finding,
    Severity,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.rules import Rule, RuleRegistry, default_registry

__all__ = [
    "AnalysisResult",
    "ModuleContext",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "Finding",
    "Severity",
    "render_json",
    "render_sarif",
    "render_text",
    "Rule",
    "RuleRegistry",
    "default_registry",
]
