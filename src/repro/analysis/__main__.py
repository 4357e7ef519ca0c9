"""The ``pdc-lint`` CLI: ``python -m repro.analysis <paths>``.

A thin argument-parsing shell over :mod:`repro.analysis.engine` — the
engine owns caching, parallelism, watch mode, rendering, and stats.
Exit codes: 0 clean, 1 findings, 2 unreadable or unparsable input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.engine import cli as engine_cli

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdc-lint",
        description=(
            "Static concurrency analysis for Python teaching code: data-race "
            "candidates (PDC101), lock-order cycles (PDC102), and locking "
            "hygiene (PDC2xx). Suppress a finding on its line with "
            "`# pdc-lint: disable=PDC101 -- justification`."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories (recurses into *.py)"
    )
    parser.add_argument(
        "--select",
        default=None,
        help=(
            "comma-separated rule ids or prefixes to run "
            "(e.g. PDC101,PDC2 — default: all rules)"
        ),
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help=(
            "link modules across files and lift PDC101/PDC102/PDC206/"
            "PDC209 to whole-program scope (summaries + call-graph "
            "fixpoint; incremental per edited file)"
        ),
    )
    parser.add_argument(
        "--crossval",
        action="store_true",
        help=(
            "print the fixture x rung cross-validation matrix (every "
            "corpus fixture against lint, whole-program, sanitizer and "
            "checker; requires --whole-program)"
        ),
    )
    engine_cli.add_engine_args(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = _build_parser()
    return engine_cli.run_lint(parser, parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
