"""The ``pdc-san`` CLI: a thin shell over :mod:`repro.analysis.engine`.

The dynamic counterpart of ``pdc-lint``: instead of reading modules it
*runs* them — instrumented, deterministically — and reports PDC3xx
findings in the same formats.  Exit codes: 0 clean, 1 findings (or a
``--crossval`` mismatch), 2 unrunnable input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.engine import cli as engine_cli

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdc-san",
        description=(
            "Runtime concurrency sanitizers for Python teaching code: "
            "FastTrack data races (PDC301), deadlock / lock-order cycles "
            "(PDC302), and message races (PDC303).  Programs run "
            "deterministically under an inline scheduler; findings share "
            "pdc-lint's formats and suppression comments."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="Python files to instrument and run")
    parser.add_argument(
        "--entry", default="main",
        help="zero-argument entry function for path runs (default: main)")
    parser.add_argument(
        "--fixture", action="append", default=[], metavar="NAME",
        help="run one corpus fixture by name (repeatable)")
    parser.add_argument(
        "--corpus", action="store_true",
        help="run every runnable fixture in the twin corpus")
    parser.add_argument(
        "--crossval", action="store_true",
        help="fixture x rung cross-validation matrix over the corpus",
    )
    engine_cli.add_engine_args(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the sanitizers; returns the process exit code."""
    parser = _build_parser()
    return engine_cli.run_san(parser, parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
