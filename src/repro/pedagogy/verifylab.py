"""The model-checking lab: a fix must be *proved*, not just re-run.

The pedagogy gap this lab closes (and the syllabi surveys in PAPERS.md
measure): students learn to write concurrent code, rarely to reason
about *all* of its interleavings.  A test that passes shows one lucky
schedule; the distinction between "my test passed" and "no schedule can
fail" is the competency.

The exercise hands the student a racy bank-transfer module as *source
text* and asks for a repaired module (also source text).  The checker
(:mod:`repro.verify`) grades it on three rungs:

- zero: some interleaving still loses an update or deadlocks — the
  grade report carries the failing schedule token, and
  ``pdc-verify --replay TOKEN`` shows the student their bug happening,
  deterministically, every time;
- half credit: no failure was found but the schedule tree could not be
  drained (busy-wait loops make it infinite) — the fix merely survived
  a bounded search;
- full credit: the checker *proved* the fix — every interleaving
  explored, none fails.

Used with ``Autograder(verify_gate=True)`` the same bar applies
lab-wide: the gate scores a submission zero until the proof goes
through.  The checker asks for its verdict the way the grader's verify
stage does (:func:`~repro.pedagogy.autograder.verify_submission`, same
budget, same ``<submission:verify-proved-fix>`` unit), so behind a
verify stage it reads the stage's cached verdict and a submission is
explored once.  Kept out of :func:`~repro.pedagogy.labs.standard_labs`
(its ten-lab contract is load-bearing); courses append it explicitly.
"""

from __future__ import annotations

import textwrap

from repro.core.taxonomy import PdcTopic
from repro.pedagogy.exercise import Exercise

__all__ = ["model_checking_lab", "RACY_TRANSFER_SOURCE"]

_EXERCISE_ID = "verify-proved-fix"

#: The handed-out buggy module: two unlocked read-modify-write updates.
RACY_TRANSFER_SOURCE = textwrap.dedent('''
    """Transfer between two accounts — loses updates under contention."""
    import threading

    balance_a = 100
    balance_b = 100


    def move_ab() -> None:
        global balance_a, balance_b
        balance_a -= 10
        balance_b += 10


    def move_ba() -> None:
        global balance_a, balance_b
        balance_b -= 10
        balance_a += 10


    def main() -> int:
        first = threading.Thread(target=move_ab)
        second = threading.Thread(target=move_ba)
        first.start(); second.start()
        first.join(); second.join()
        return balance_a + balance_b
''').lstrip()

_REFERENCE_FIX = textwrap.dedent('''
    """Transfer between two accounts — one lock orders every update."""
    import threading

    balance_a = 100
    balance_b = 100
    ledger_lock = threading.Lock()


    def move_ab() -> None:
        global balance_a, balance_b
        with ledger_lock:
            balance_a -= 10
            balance_b += 10


    def move_ba() -> None:
        global balance_a, balance_b
        with ledger_lock:
            balance_b -= 10
            balance_a += 10


    def main() -> int:
        first = threading.Thread(target=move_ab)
        second = threading.Thread(target=move_ba)
        first.start(); second.start()
        first.join(); second.join()
        return balance_a + balance_b
''').lstrip()


def _check_proved_fix(source: str) -> float:
    """Submission: the repaired module, as source text."""
    from repro.pedagogy.autograder import verify_submission

    checked = verify_submission(_EXERCISE_ID, str(source))
    if checked.findings or checked.errors:
        return 0.0
    if not checked.outcomes[0].stats["proved"]:
        return 0.5  # clean so far, but that is a bounded search, not a proof
    return 1.0


def model_checking_lab() -> Exercise:
    """The twelfth lab: repair the racy transfer module so the model
    checker can prove no interleaving loses an update or deadlocks."""
    return Exercise(
        _EXERCISE_ID,
        "The module in RACY_TRANSFER_SOURCE loses updates: both transfer "
        "functions read-modify-write the balances with no ordering. "
        "Submit a repaired module (source text) with the same entry "
        "points. Full credit only when pdc-verify proves the fix — "
        "every interleaving explored, none races or deadlocks. A fix "
        "that survives a bounded search (e.g. because it busy-waits) "
        "earns half credit; a reachable failure earns zero and a "
        "schedule token that replays it.",
        _check_proved_fix,
        points=15,
        topics=[PdcTopic.ATOMICITY, PdcTopic.SHARED_MEMORY_PROGRAMMING],
        outcome_numbers=(1, 2),
        reference=_REFERENCE_FIX,
        modules=("repro.verify.explorer", "repro.verify.scheduler"),
    )
