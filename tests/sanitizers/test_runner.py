"""Whole-program sanitizing: run_source / run_fixture verdicts."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sanitizers.findings import lock_order_finding
from repro.sanitizers.runner import _SanRuntime, run_fixture, run_source
from repro.sanitizers.sites import AccessSite
from repro.smp.fixtures import fixture

RACY = """\
import threading

counter = 0

def worker():
    global counter
    for _ in range(3):
        counter += 1

def main():
    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return counter
"""

LOCKED = RACY.replace(
    "counter = 0",
    "counter = 0\nmutex = threading.Lock()",
).replace(
    "        counter += 1",
    "        with mutex:\n            counter += 1",
)


class TestRaceVerdicts:
    def test_racy_program_yields_pdc301(self):
        run = run_source(RACY, path="racy.py")
        assert "PDC301" in run.rules
        assert run.exit_code == 1

    def test_locked_twin_is_clean(self):
        run = run_source(LOCKED, path="locked.py")
        assert run.findings == []
        assert run.exit_code == 0

    def test_inline_execution_preserves_semantics(self):
        assert run_source(RACY).value == 6
        assert run_source(LOCKED).value == 6

    def test_shared_names_are_reported(self):
        run = run_source(RACY)
        assert "counter" in run.shared

    def test_finding_anchors_to_the_racing_line(self):
        run = run_source(RACY, path="racy.py")
        race = next(f for f in run.findings if f.rule == "PDC301")
        assert race.path == "racy.py"
        assert RACY.splitlines()[race.line - 1].strip() == "counter += 1"


class TestDeterminism:
    def test_same_source_same_findings(self):
        def snapshot():
            run = run_source(RACY, path="racy.py")
            return [
                (f.rule, f.path, f.line, f.message) for f in run.findings
            ]

        assert snapshot() == snapshot()

    def test_corpus_runs_are_deterministic(self):
        fix = fixture("racy_counter_twin")
        first = [(f.rule, f.line, f.message) for f in run_fixture(fix).findings]
        second = [(f.rule, f.line, f.message) for f in run_fixture(fix).findings]
        assert first == second and first  # identical and non-empty


class TestLockOrder:
    def test_inverted_acquisition_order_yields_pdc302(self):
        source = (
            "import threading\n"
            "a = threading.Lock()\n"
            "b = threading.Lock()\n"
            "def main():\n"
            "    with a:\n"
            "        with b:\n"
            "            pass\n"
            "    with b:\n"
            "        with a:\n"
            "            pass\n"
        )
        run = run_source(source, path="abba.py")
        assert "PDC302" in run.rules
        assert any("lock-order" in f.message for f in run.findings)

    def test_consistent_order_is_clean(self):
        source = (
            "import threading\n"
            "a = threading.Lock()\n"
            "b = threading.Lock()\n"
            "def main():\n"
            "    for _ in range(2):\n"
            "        with a:\n"
            "            with b:\n"
            "                pass\n"
        )
        assert run_source(source).findings == []


def _networkx_order_findings(lock_edges):
    """The reference: networkx's elementary cycles, canonically rotated
    to start at their smallest lock, then sorted."""
    graph = nx.DiGraph()
    graph.add_edges_from(lock_edges)
    cycles = []
    for cycle in nx.simple_cycles(graph):
        pivot = min(range(len(cycle)), key=cycle.__getitem__)
        cycles.append(cycle[pivot:] + cycle[:pivot])
    findings = []
    for cycle in sorted(cycles):
        edge = (cycle[0], cycle[1 % len(cycle)])
        site = lock_edges.get(edge, next(iter(lock_edges.values())))
        findings.append(lock_order_finding(cycle, site))
    return findings


_LOCKS = st.sampled_from([f"lock{i}" for i in range(6)])


class TestLockCycleEnumeration:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_LOCKS, _LOCKS), max_size=14, unique=True))
    def test_matches_networkx_simple_cycles(self, edges):
        # Self-loops included; the first-seen site of each edge differs
        # so a wrong edge-to-site lookup shows in the findings.
        lock_edges = {
            edge: AccessSite("orders.py", line, "main")
            for line, edge in enumerate(edges, start=1)
        }
        runtime = _SanRuntime(detector=None)
        runtime.lock_edges = lock_edges
        assert runtime.order_findings() == _networkx_order_findings(
            lock_edges
        )


class TestSuppressions:
    def test_disable_pdc301_suppresses_the_observed_race(self):
        suppressed = RACY.replace(
            "        counter += 1",
            "        counter += 1  # pdc-lint: disable=PDC301 -- demo race",
        )
        run = run_source(suppressed, path="sup.py")
        assert "PDC301" not in run.rules
        assert any(f.rule == "PDC301" for f in run.suppressed)

    def test_disable_pdc101_does_not_silence_pdc301(self):
        # The static suppression does not answer the dynamic verdict.
        suppressed = RACY.replace(
            "        counter += 1",
            "        counter += 1  # pdc-lint: disable=PDC101 -- static only",
        )
        run = run_source(suppressed, path="sup.py")
        assert "PDC301" in run.rules


class TestEdgeCases:
    def test_syntax_error_is_an_error_not_a_crash(self):
        run = run_source("def broken(:\n", path="bad.py")
        assert run.errors
        assert run.exit_code == 2

    def test_missing_entry_runs_module_only(self):
        run = run_source("x = 1\n", entry="nonexistent")
        assert run.findings == []
        assert run.value is None

    def test_target_exceptions_are_collected_not_raised(self):
        source = (
            "def main():\n"
            "    raise ValueError('boom')\n"
        )
        run = run_source(source)
        assert any("boom" in e for e in run.errors)


class TestFixtureRuns:
    def test_racy_twin_flags_and_locked_twin_does_not(self):
        assert "PDC301" in run_fixture(fixture("racy_counter_twin")).rules
        assert run_fixture(fixture("locked_counter_twin")).findings == []

    def test_entrypoints_fixture_detects_the_abba_deadlock(self):
        run = run_fixture(fixture("abba_deadlock_twin"))
        assert "PDC302" in run.rules

    def test_fixture_without_entry_is_rejected(self):
        with pytest.raises(ValueError):
            run_fixture(fixture("bare_acquire"))


class TestRunProgram:
    """Multi-module execution under one shared detector."""

    def _fixture(self, name):
        from repro.smp.fixtures import multifile_fixture

        return multifile_fixture(name)

    def test_cross_module_race_is_observed(self):
        from repro.sanitizers.runner import run_program

        fix = self._fixture("crossmod_racy_pair")
        run = run_program(fix.modules(), fix.entry_module)
        assert "PDC301" in run.rules
        assert run.errors == []
        # Variables are module-qualified so twins in different modules
        # never alias in the detector.
        assert any("shared_state." in s for s in run.shared)

    def test_fork_join_handoff_is_exonerated(self):
        from repro.sanitizers.runner import run_program

        fix = self._fixture("crossmod_handoff_pair")
        run = run_program(fix.modules(), fix.entry_module)
        assert "PDC301" not in run.rules
        assert run.errors == []

    def test_import_cycles_do_not_recurse(self):
        from repro.sanitizers.runner import run_program

        run = run_program(
            {
                "alpha": "import beta\n\n\ndef main():\n    return beta.X\n",
                "beta": "import alpha\n\nX = 1\n",
            },
            "alpha",
        )
        assert run.errors == []
        assert "PDC301" not in run.rules

    def test_syntax_error_is_reported_not_raised(self):
        from repro.sanitizers.runner import run_program

        run = run_program({"broken": "def oops(:\n"}, "broken")
        assert run.errors
        assert run.findings == []

    def test_suppressions_apply_per_module(self):
        from repro.sanitizers.runner import run_program

        fix = self._fixture("crossmod_racy_pair")
        modules = {
            name: src.replace(
                "counter += 1",
                "counter += 1  # pdc-san: disable=PDC301 -- test corpus",
            )
            for name, src in fix.modules().items()
        }
        run = run_program(modules, fix.entry_module)
        assert "PDC301" not in run.rules
        assert len(run.suppressed) >= 1
