"""The runner's compile memo: instrument each ``(source, path)`` once.

Every sanitized or scheduled run of the same text reuses one compiled
code object.  These tests pin what must not leak through the memo (the
path a run reports, a syntax error) and that one graded submission is
instrumented once and explored once across the sanitize stage, the
verify stage and the lab checker.
"""

import uuid
from unittest import mock

from repro.pedagogy import Autograder, model_checking_lab
from repro.pedagogy.verifylab import _REFERENCE_FIX
from repro.sanitizers import runner
from repro.sanitizers.runner import run_program, run_source
from repro.verify import explorer

RACY_THEN_CRASH = (
    "import sys\n"
    "import threading\n\n"
    "counter = 0\n\n\n"
    "def bump():\n"
    "    global counter\n"
    "    counter += 1\n\n\n"
    "def main():\n"
    "    first = threading.Thread(target=bump)\n"
    "    second = threading.Thread(target=bump)\n"
    "    first.start(); second.start()\n"
    "    first.join(); second.join()\n"
    "    raise RuntimeError(sys._getframe().f_code.co_filename)\n"
)


class TestPathsStayApart:
    def test_same_source_under_two_paths_keeps_each_path(self):
        for path in ("alpha.py", "beta.py", "alpha.py"):
            run = run_source(RACY_THEN_CRASH, path=path)
            assert "PDC301" in run.rules
            assert {f.path for f in run.findings} == {path}
            assert run.errors == [
                f"execution failed: RuntimeError: {path}"
            ]

    def test_run_program_modules_keep_their_own_paths(self):
        program = {"one": RACY_THEN_CRASH, "two": RACY_THEN_CRASH}
        for entry in ("one", "two"):
            run = run_program(program, entry)
            assert {f.path for f in run.findings} == {f"{entry}.py"}
            assert run.errors == [
                f"execution failed: RuntimeError: {entry}.py"
            ]


class TestSyntaxErrorsAreNotCached:
    def test_syntax_error_reported_on_every_call(self, monkeypatch):
        counter = mock.Mock(wraps=runner.instrument_source)
        monkeypatch.setattr(runner, "instrument_source", counter)
        for _ in range(3):
            run = run_source("def broken(:\n", path="bad_memo.py")
            assert len(run.errors) == 1
            assert run.errors[0].startswith("syntax error:")
            assert run.exit_code == 2
        assert counter.call_count == 3


class TestGradeRunsEachStepOnce:
    def test_one_submission_instruments_once_and_explores_once(
        self, monkeypatch
    ):
        instrument = mock.Mock(wraps=runner.instrument_source)
        explore = mock.Mock(wraps=explorer._explore)
        monkeypatch.setattr(runner, "instrument_source", instrument)
        monkeypatch.setattr(explorer, "_explore", explore)
        lab = model_checking_lab()
        grader = Autograder([lab], sanitize=True, verify=True)
        # A source no earlier test has compiled or explored.
        fresh = f"# submission {uuid.uuid4().hex}\n{_REFERENCE_FIX}"
        report = grader.grade("student", {lab.exercise_id: fresh})
        assert report.results[0].fraction == 1.0
        assert instrument.call_count == 1
        assert explore.call_count == 1
