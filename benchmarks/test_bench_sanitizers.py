"""Supporting bench: cost of the sanitizer layer.

Two claims the design makes, measured:

- *No sanitizer, no cost*: the hook bus the ``smp`` primitives call on
  every acquire/release is a truthiness test when nothing is installed —
  the reason the hooks can stay in the production primitives (the TSan
  ship-it-in-the-compiler argument, in miniature).
- Instrumented whole-program runs are cheap enough for an autograder
  loop: one corpus twin executes and reports in one benchmark round.
  Instrumentation is memoized per ``(source, path)``, so only the first
  round rewrites and compiles the twin; the rest measure execution and
  detection.
"""

from repro.sanitizers import Sanitizer, run_fixture
from repro.smp.fixtures import fixture
from repro.smp.locks import InstrumentedLock
from repro.smp.racedetect import LocksetRaceDetector, SharedVariable

_ROUNDS = 200


def _lock_burst():
    lock = InstrumentedLock("bench")
    for _ in range(_ROUNDS):
        lock.acquire()
        lock.release()
    return lock.acquisitions


def test_bench_lock_loop_hooks_inactive(benchmark):
    # Baseline: the hook bus is installed-empty — each event is a loop
    # over zero runtimes.
    assert benchmark(_lock_burst) == _ROUNDS


def test_bench_lock_loop_under_fasttrack(benchmark):
    san = Sanitizer()
    with san.activate():
        assert benchmark(_lock_burst) == _ROUNDS
    assert san.findings() == []


def test_bench_shared_variable_under_fasttrack(benchmark):
    san = Sanitizer()

    def burst():
        detector = LocksetRaceDetector()
        cell = SharedVariable("cell", 0, detector)
        for _ in range(_ROUNDS):
            cell.write(cell.read() + 1)
        return cell.read()

    with san.activate():
        assert benchmark(burst) == _ROUNDS
    # Single-threaded: every access is the same-epoch O(1) fast path.
    assert san.findings() == []


def test_bench_corpus_twin_end_to_end(benchmark):
    fix = fixture("racy_counter_twin")
    run = benchmark(lambda: run_fixture(fix))
    assert "PDC301" in run.rules
