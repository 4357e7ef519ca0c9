"""Unit tests for the static Eraser (PDC101) and lock-order pass (PDC102)."""

import textwrap

import networkx as nx

from repro.analysis import analyze_source
from repro.analysis.analyzer import ModuleContext
from repro.analysis.lockorder import build_lock_order_graph
from repro.analysis.races import collect_accesses


def _ctx(src: str) -> ModuleContext:
    return ModuleContext.build("<test>", textwrap.dedent(src))


def _rules(src: str):
    return {f.rule for f in analyze_source(textwrap.dedent(src))}


class TestAccessCollection:
    SRC = """
        import threading

        counter = 0

        def worker():
            global counter
            counter += 1

        def main():
            threading.Thread(target=worker).start()
    """

    def test_global_write_is_recorded(self):
        table = collect_accesses(_ctx(self.SRC))
        accesses = table[("global", "counter")]
        assert any(a.write and a.func == "worker" for a in accesses)

    def test_locks_are_not_data(self):
        src = """
            import threading
            m = threading.Lock()

            def worker():
                with m:
                    pass

            def main():
                threading.Thread(target=worker).start()
        """
        table = collect_accesses(_ctx(src))
        assert ("global", "m") not in table

    def test_self_attributes_are_keyed_by_class(self):
        src = """
            import threading

            class Box:
                def __init__(self):
                    self.n = 0

                def bump(self):
                    self.n += 1
        """
        table = collect_accesses(_ctx(src))
        accesses = table[("attr", "Box", "n")]
        init = [a for a in accesses if a.func == "__init__"]
        assert init and all(a.in_init for a in init)


class TestStaticRace:
    def test_no_threads_means_no_race(self):
        """Sequential code writing globals is not concurrent code."""
        assert "PDC101" not in _rules(
            """
            total = 0

            def add(x):
                global total
                total += x
            """
        )

    def test_single_spawn_single_writer_is_not_shared(self):
        assert "PDC101" not in _rules(
            """
            import threading

            state = 0

            def worker():
                global state
                state = 1

            def main():
                t = threading.Thread(target=worker)
                t.start()
                t.join()
            """
        )

    def test_loop_spawned_worker_races_with_itself(self):
        assert "PDC101" in _rules(
            """
            import threading

            state = 0

            def worker():
                global state
                state += 1

            def main():
                for _ in range(4):
                    threading.Thread(target=worker).start()
            """
        )

    def test_distinct_locks_do_not_protect(self):
        """Empty intersection even though every access holds *a* lock."""
        assert "PDC101" in _rules(
            """
            import threading

            a = threading.Lock()
            b = threading.Lock()
            state = 0

            def writer_a():
                global state
                with a:
                    state += 1

            def writer_b():
                global state
                with b:
                    state += 1

            def main():
                threading.Thread(target=writer_a).start()
                threading.Thread(target=writer_b).start()
            """
        )

    def test_common_lock_protects(self):
        assert "PDC101" not in _rules(
            """
            import threading

            m = threading.Lock()
            state = 0

            def writer_1():
                global state
                with m:
                    state += 1

            def writer_2():
                global state
                with m:
                    state += 1

            def main():
                threading.Thread(target=writer_1).start()
                threading.Thread(target=writer_2).start()
            """
        )

    def test_race_reaches_through_helper_calls(self):
        """The concurrent set is the call-graph closure of the targets."""
        assert "PDC101" in _rules(
            """
            import threading

            state = 0

            def bump():
                global state
                state += 1

            def worker():
                bump()

            def main():
                for _ in range(2):
                    threading.Thread(target=worker).start()
            """
        )


class TestLockOrder:
    ABBA = """
        import threading

        a = threading.Lock()
        b = threading.Lock()

        def fwd():
            with a:
                with b:
                    pass

        def rev():
            with b:
                with a:
                    pass
    """

    def test_graph_edges_carry_sites(self):
        graph = build_lock_order_graph(_ctx(self.ABBA))
        assert set(graph) == {("a", "b"), ("b", "a")}
        assert all(graph.values())

    def test_abba_is_a_cycle(self):
        graph = build_lock_order_graph(_ctx(self.ABBA))
        assert not nx.is_directed_acyclic_graph(nx.DiGraph(list(graph)))
        assert "PDC102" in _rules(self.ABBA)

    def test_consistent_order_is_acyclic(self):
        src = self.ABBA.replace(
            "with b:\n                with a:",
            "with a:\n                with b:",
        )
        graph = build_lock_order_graph(_ctx(src))
        assert graph
        assert nx.is_directed_acyclic_graph(nx.DiGraph(list(graph)))
        assert "PDC102" not in _rules(src)

    def test_three_lock_cycle(self):
        assert "PDC102" in _rules(
            """
            import threading

            a = threading.Lock()
            b = threading.Lock()
            c = threading.Lock()

            def f():
                with a:
                    with b:
                        pass

            def g():
                with b:
                    with c:
                        pass

            def h():
                with c:
                    with a:
                        pass
            """
        )
