"""The repo lints itself: ``pdc-lint src/repro`` must come back clean.

This is the issue's acceptance gate (and CI runs the same check): any
finding in the substrate is either a real concurrency bug to fix or a
documented limitation to suppress inline — never left dangling.
"""

import os

import pytest

from repro.analysis import analyze_paths
from repro.analysis.report import parse_suppressions

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")


@pytest.fixture(scope="module")
def result():
    """One lint of the tree, read by both tests below."""
    return analyze_paths([os.path.normpath(SRC)])


class TestSelfLint:
    def test_src_repro_is_clean(self, result):
        assert result.errors == []
        assert result.findings == [], "\n".join(
            f"{f.location()}: {f.rule} {f.message}" for f in result.findings
        )
        assert result.exit_code == 0

    def test_the_walk_actually_found_the_tree(self, result):
        """Guard against a path typo making the clean run vacuous."""
        assert result.files > 50

    def test_suppressions_are_justified(self):
        """Every inline suppression in the tree carries a `--` reason."""
        bad = []
        for root, dirs, names in os.walk(os.path.normpath(SRC)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in names:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, "r", encoding="utf-8") as fh:
                    source = fh.read()
                lines = source.splitlines()
                for lineno in parse_suppressions(source):
                    if "--" not in lines[lineno - 1]:
                        bad.append(f"{path}:{lineno}")
        assert bad == []
