"""The repo whole-program-lints itself: the lift finds nothing to flag.

Same contract as :mod:`tests.analysis.test_selflint`, one rung up the
ladder: linking all of ``src/repro`` into one program and running the
summary/fixpoint phase must come back clean — any cross-module finding
in the substrate is a real bug to fix, not an accepted cost.
"""

import os

import pytest

from repro.analysis.engine.passes import LintPass
from repro.analysis.ip.engine import WholeProgramEngine

SRC = os.path.normpath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
)


@pytest.fixture(scope="module")
def linked():
    """One whole-program lint of the tree: ``(engine, report)``."""
    engine = WholeProgramEngine(LintPass())
    return engine, engine.run_paths([SRC])


class TestWholeProgramSelfLint:
    def test_src_repro_is_clean_at_whole_program_scope(self, linked):
        _, report = linked
        assert report.errors == []
        assert report.findings == [], "\n".join(
            f"{f.location()}: {f.rule} {f.message}" for f in report.findings
        )

    def test_the_link_actually_spanned_the_tree(self, linked):
        engine, _ = linked
        stats = engine.stats()
        assert stats["analysis.ip.modules"] > 50
        assert stats["analysis.ip.scc.count"] > 10
