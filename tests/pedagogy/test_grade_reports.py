"""Pinned grade reports for the model-checking lab.

Five submission kinds — the reference fix, the racy handout with a
student's comment, an ABBA two-lock "fix", the byte-identical starter
and a busy-waiting fix — graded under four stage configurations.  Every
field a student or instructor reads is pinned in
``grade_reports.json``: the score, the error text, each stage's
findings (path, line, column, rule, message) and the verify receipts
(explored, pruned, proved, replay tokens).  Each kind is graded twice,
each time by a new grader, so the second report comes out of the
grading cache and must read the same.
"""

import json
import os

import pytest

from repro.pedagogy import Autograder, model_checking_lab
from repro.pedagogy.verifylab import RACY_TRANSFER_SOURCE

#: Each transfer takes both locks, in opposite orders.
ABBA_SOURCE = '''"""Transfer between two accounts — one lock per account."""
import threading

balance_a = 100
balance_b = 100
lock_a = threading.Lock()
lock_b = threading.Lock()


def move_ab() -> None:
    global balance_a, balance_b
    with lock_a:
        with lock_b:
            balance_a -= 10
            balance_b += 10


def move_ba() -> None:
    global balance_a, balance_b
    with lock_b:
        with lock_a:
            balance_b -= 10
            balance_a += 10


def main() -> int:
    first = threading.Thread(target=move_ab)
    second = threading.Thread(target=move_ba)
    first.start(); second.start()
    first.join(); second.join()
    return balance_a + balance_b
'''

#: Race-free, but the second transfer polls a flag: no proof, half credit.
SPIN_SOURCE = '''"""Transfer between two accounts — the second waits for the first."""
import threading

balance_a = 100
balance_b = 100
turn_lock = threading.Lock()
first_done = False


def move_ab() -> None:
    global balance_a, balance_b, first_done
    with turn_lock:
        balance_a -= 10
        balance_b += 10
        first_done = True


def move_ba() -> None:
    global balance_a, balance_b
    waiting = True
    while waiting:
        with turn_lock:
            if first_done:
                waiting = False
    with turn_lock:
        balance_b -= 10
        balance_a += 10


def main() -> int:
    first = threading.Thread(target=move_ab)
    second = threading.Thread(target=move_ba)
    first.start(); second.start()
    first.join(); second.join()
    return balance_a + balance_b
'''

KINDS = ("fix", "racy", "abba", "starter", "spin")

CONFIGS = {
    "advisory": dict(static_precheck=True, sanitize=True, verify=True),
    "verify_gate": dict(static_precheck=True, sanitize=True, verify_gate=True),
    "dynamic_gates": dict(sanitize_gate=True, verify_gate=True),
    "all_gates": dict(
        precheck_gate=True, sanitize_gate=True, verify_gate=True
    ),
}

PINNED = os.path.join(os.path.dirname(__file__), "grade_reports.json")


def submission(kind):
    """The source of one kind; all but the starter carry a comment."""
    if kind == "starter":
        return RACY_TRANSFER_SOURCE
    source = {
        "fix": model_checking_lab().reference,
        "racy": RACY_TRANSFER_SOURCE,
        "abba": ABBA_SOURCE,
        "spin": SPIN_SOURCE,
    }[kind]
    return "# submitted by student 1-0\n" + source


def pinned(report, eid):
    """The report's pinned fields, in ``grade_reports.json``'s shape."""

    def sites(per_exercise):
        return [
            [f.path, f.line, f.col, f.rule, f.message]
            for f in per_exercise.get(eid, [])
        ]

    result = report.result_for(eid)
    return {
        "fraction": result.fraction,
        "points": result.points_earned,
        "error": result.error,
        "static": sites(report.static_findings),
        "dynamic": sites(report.dynamic_findings),
        "verify": sites(report.verify_findings),
        "verify_stats": report.verify_stats.get(eid),
    }


@pytest.mark.parametrize("kind", KINDS)
def test_grade_report_matches_the_pinned_one(kind):
    with open(PINNED, encoding="utf-8") as fh:
        want = json.load(fh)[kind]
    lab = model_checking_lab()
    source = submission(kind)
    for name, options in CONFIGS.items():
        for attempt in ("fresh", "cached"):
            report = Autograder([lab], **options).grade(
                "student", {lab.exercise_id: source}
            )
            assert pinned(report, lab.exercise_id) == want[name], (
                name, attempt,
            )
