"""The ``pdc-verify`` CLI: a thin shell over :mod:`repro.analysis.engine`.

The exhaustive rung of the ladder: where ``pdc-san`` runs a program
once, ``pdc-verify`` model-checks it — every relevant interleaving,
DPOR-pruned — and reports PDC3xx findings in the same formats, with a
replayable schedule token behind every failure.  Exit codes: 0 clean
(over *all* explored schedules), 1 findings (or a ``--crossval``
invariant violation), 2 unrunnable input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.engine import cli as engine_cli

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdc-verify",
        description=(
            "Stateless model checker for Python teaching code: drives the "
            "PDC-San runner through every relevant thread interleaving "
            "(DFS schedule replay with dynamic partial-order reduction) "
            "and reports any PDC3xx finding reachable on any schedule, "
            "each with a one-line token that replays it byte-identically."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="Python files to model-check")
    parser.add_argument(
        "--entry", default="main",
        help="zero-argument entry function for path runs (default: main)")
    parser.add_argument(
        "--fixture", action="append", default=[], metavar="NAME",
        help="check one corpus fixture by name (repeatable)")
    parser.add_argument(
        "--corpus", action="store_true",
        help="check every runnable fixture in the twin corpus")
    parser.add_argument(
        "--mode", choices=("dpor", "dfs"), default="dpor",
        help="exploration mode: DPOR (default) or naive DFS ground truth")
    parser.add_argument(
        "--max-schedules", type=int, default=None, metavar="N",
        help="schedule budget per unit (default: fixture annotation/2000)")
    parser.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="per-task step cap within one schedule (spin-loop bound)")
    parser.add_argument(
        "--replay", default=None, metavar="TOKEN",
        help="replay one schedule token against a --fixture or path "
             "and print its findings")
    parser.add_argument(
        "--crossval", action="store_true",
        help="fixture x rung cross-validation matrix over the corpus: "
             "reachability of every single-run finding, machine-checked "
             "exonerations, per-fixture explored/pruned stats",
    )
    engine_cli.add_engine_args(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the model checker; returns the process exit code."""
    parser = _build_parser()
    return engine_cli.run_verify(parser, parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
