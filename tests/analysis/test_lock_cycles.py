"""The one lock-order cycle enumerator behind PDC102 and PDC302."""

import json
import textwrap
import time

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.__main__ import main as lint_main
from repro.analysis.lockorder import lock_cycles
from repro.sanitizers.runner import run_source

#: Far above what either regression program costs with the component
#: restriction, far below what the unrestricted walk takes.
_BOUND_S = 5.0


def _networkx_cycles(edges):
    """The reference: networkx's elementary cycles, each rotated to start
    at its smallest node, then sorted."""
    cycles = []
    for cycle in nx.simple_cycles(nx.DiGraph(edges)):
        pivot = cycle.index(min(cycle))
        cycles.append(cycle[pivot:] + cycle[:pivot])
    return sorted(cycles)


#: Dotted names, as whole-program lint canonicalizes locks.
_LOCKS = st.sampled_from([f"mod.lock{i}" for i in range(10)])


class TestAgainstNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_LOCKS, _LOCKS), max_size=24, unique=True))
    def test_matches_simple_cycles(self, edges):
        # Self-loops included: a self-loop is the one-node cycle.
        assert lock_cycles(edges) == _networkx_cycles(edges)

    def test_dense_graph(self):
        # Every ordered pair of 6 locks, self-loops included: 415
        # elementary cycles through overlapping components.
        locks = [f"l{i}" for i in range(6)]
        edges = [(a, b) for a in locks for b in locks]
        cycles = lock_cycles(edges)
        assert len(cycles) == 415
        assert cycles == _networkx_cycles(edges)


class TestOneGlobalOrderIsCheap:
    """Acquiring many locks in one global order makes a dense acyclic
    graph: a walk over every path from each lock is exponential in the
    lock count, a walk confined to each lock's component is not."""

    def test_forty_lock_acquisition_loop_through_run_source(self):
        source = (
            "import threading\n"
            "locks = [threading.Lock() for _ in range(40)]\n"
            "def main():\n"
            "    for _ in range(2):\n"
            "        for lock in locks:\n"
            "            lock.acquire()\n"
            "        for lock in reversed(locks):\n"
            "            lock.release()\n"
        )
        start = time.perf_counter()
        run = run_source(source, path="ordered.py")
        elapsed = time.perf_counter() - start
        assert run.errors == []
        assert run.findings == []
        assert elapsed < _BOUND_S
        # One inverted pair on top: exactly its ABBA cycle is reported.
        inverted = source + (
            "    with locks[1]:\n"
            "        with locks[0]:\n"
            "            pass\n"
        )
        run = run_source(inverted, path="ordered.py")
        assert [f.rule for f in run.findings] == ["PDC302"]
        assert "lock0 -> lock1 -> back" in run.findings[0].message

    def test_twenty_deep_nested_with_through_lint(self, tmp_path, capsys):
        # Two 20-deep nests sharing l19 take 39 locks in one order.
        lines = ["import threading"]
        lines += [f"l{i:02d} = threading.Lock()" for i in range(39)]
        for name, first in (("low", 0), ("high", 19)):
            lines.append(f"def {name}():")
            for depth in range(20):
                indent = "    " * (depth + 1)
                lines.append(f"{indent}with l{first + depth:02d}:")
            lines.append("    " * 21 + "pass")
        module = tmp_path / "nested.py"
        module.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        assert lint_main([str(module), "--no-cache"]) == 0
        assert time.perf_counter() - start < _BOUND_S
        # One inverted pair on top: exactly its ABBA cycle is reported.
        module.write_text(
            "\n".join(lines)
            + "\n"
            + textwrap.dedent(
                """
                def back():
                    with l01:
                        with l00:
                            pass
                """
            )
        )
        capsys.readouterr()
        assert lint_main([str(module), "--no-cache", "--format", "json"]) == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert [f["symbol"] for f in findings] == ["l00 -> l01 -> l00"]
