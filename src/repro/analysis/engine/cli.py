"""Shared CLI plumbing: one flag set, one driver, two tools.

``pdc-lint`` and ``pdc-san`` used to each own a copy of the
format-selection / render / exit-code dance; both are now <60-line
argument-parsing shells that call :func:`run_lint` / :func:`run_san`.
Everything engine-shaped — cache wiring, parallel jobs, watch mode,
``--stats`` telemetry — is defined once here and behaves identically
in both tools.

Stats go to *stderr* (or a ``--stats-json`` file): stdout carries the
findings report and nothing else, which is what lets CI diff cold and
warm runs byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.engine.cache import FindingsCache
from repro.analysis.engine.core import AnalysisEngine, expand_paths
from repro.analysis.engine.outcome import EngineReport, WorkUnit
from repro.analysis.engine.passes import (
    AnalyzerPass,
    LintPass,
    SanitizePass,
    VerifyPass,
)
from repro.analysis.engine.watch import Watcher
from repro.analysis.report import render_json, render_sarif, render_text

__all__ = [
    "add_engine_args",
    "apply_baseline",
    "run_lint",
    "run_san",
    "run_verify",
]


def add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The engine flags every analyzer CLI shares."""
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text; sarif for CI code scanning)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="analyze files across N worker processes (default: 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental findings cache for this run",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default: $PDC_CACHE_DIR or ~/.cache/pdc-analysis)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="stay warm: poll for changes and re-analyze only changed files",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SEC",
        help="--watch poll interval in seconds (default: 0.5)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print run telemetry (files, cache hits, wall clock) to stderr",
    )
    parser.add_argument(
        "--stats-json",
        default=None,
        metavar="FILE",
        help="write the run's metric registry snapshot to FILE as JSON",
    )
    parser.add_argument(
        "--baseline",
        nargs=2,
        default=None,
        metavar=("MODE", "FILE"),
        help=(
            "baseline findings: 'write FILE' captures the current run, "
            "'check FILE' suppresses exact matches recorded in FILE"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )


def default_cache_dir() -> str:
    """``$PDC_CACHE_DIR``, else the XDG cache home, else ``~/.cache``."""
    explicit = os.environ.get("PDC_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "pdc-analysis")


def render_report(
    pass_: AnalyzerPass, fmt: str, report: EngineReport
) -> str:
    """One report in the requested format, byte-compatible with the
    classic sequential CLIs."""
    if fmt == "sarif":
        return render_sarif(
            report.findings,
            files=report.files,
            suppressed=report.suppressed,
            errors=report.errors,
            tool=pass_.tool,
            rules=pass_.sarif_rules(),
        )
    if fmt == "json":
        return render_json(
            report.findings,
            files=report.files,
            suppressed=report.suppressed,
            errors=report.errors,
            tool=pass_.tool,
        )
    return render_text(
        report.findings,
        files=report.files,
        suppressed=report.suppressed,
        errors=report.errors,
    )


def _print_report(text: str) -> None:
    try:
        print(text)
    except BrokenPipeError:
        # `pdc-lint ... | head` closed the pipe; the verdict still stands.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_stats(engine: object, args: argparse.Namespace) -> None:
    snapshot = engine.stats()
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.stats:
        # A WholeProgramEngine wraps the per-file engine; stats lines
        # cite the inner engine's prefix/pass either way.
        inner = getattr(engine, "engine", engine)
        prefix = inner.prefix
        wall = snapshot.get(f"{prefix}.wall_seconds", {})
        by_rule = {
            name.split(".rule.", 1)[1]: value
            for name, value in snapshot.items()
            if f"{prefix}.rule." in name
        }
        lines = [
            f"files: {snapshot.get(f'{prefix}.files.planned', 0)} planned, "
            f"{snapshot.get(f'{prefix}.files.analyzed', 0)} analyzed",
            f"cache: {snapshot.get(f'{prefix}.cache.hits', 0)} hits, "
            f"{snapshot.get(f'{prefix}.cache.misses', 0)} misses",
            f"wall clock: {wall.get('sum', 0.0):.3f}s "
            f"over {int(wall.get('count', 0))} run(s), jobs="
            f"{int(snapshot.get(f'{prefix}.jobs', 1))}",
            "findings by rule: "
            + (
                ", ".join(f"{r}={c}" for r, c in sorted(by_rule.items()))
                or "none"
            ),
        ]
        if any(name.startswith("analysis.ip.") for name in snapshot):
            lines += [
                "whole-program: "
                f"{int(snapshot.get('analysis.ip.modules', 0))} modules, "
                f"{int(snapshot.get('analysis.ip.scc.count', 0))} SCCs",
                "summaries: "
                f"{snapshot.get('analysis.ip.summary.hits', 0)} hits, "
                f"{snapshot.get('analysis.ip.summary.misses', 0)} misses",
                "cones: "
                f"{snapshot.get('analysis.ip.scc.hits', 0)} replayed, "
                f"{snapshot.get('analysis.ip.scc.analyzed', 0)} analyzed",
                "whole-program findings: "
                f"{snapshot.get('analysis.ip.findings', 0)} "
                f"({snapshot.get('analysis.ip.suppressed', 0)} suppressed)",
            ]
        print("\n".join(f"[{inner.pass_.tool} stats] {ln}" for ln in lines),
              file=sys.stderr)


def _baseline_key(payload: dict) -> tuple:
    return (
        payload.get("path"),
        payload.get("line"),
        payload.get("col"),
        payload.get("rule"),
        payload.get("symbol", ""),
        payload.get("message", ""),
    )


def apply_baseline(
    report: EngineReport, mode: str, path: str
) -> EngineReport:
    """``write``: capture the report's findings to ``path``.  ``check``:
    drop findings exactly matching the capture (counted as suppressed).
    """
    if mode == "write":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"findings": [f.as_dict() for f in report.findings]},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        return report
    with open(path, "r", encoding="utf-8") as fh:
        known = {_baseline_key(d) for d in json.load(fh)["findings"]}
    kept = [
        f for f in report.findings if _baseline_key(f.as_dict()) not in known
    ]
    return EngineReport(
        findings=kept,
        files=report.files,
        suppressed=report.suppressed + (len(report.findings) - len(kept)),
        errors=report.errors,
        outcomes=report.outcomes,
        units=report.units,
    )


def _drive(
    args: argparse.Namespace,
    pass_: AnalyzerPass,
    units: List[WorkUnit],
    pre_errors: List[str],
    watch_paths: Optional[List[str]] = None,
    whole_program: bool = False,
) -> int:
    baseline = getattr(args, "baseline", None)
    if baseline is not None and baseline[0] not in ("write", "check"):
        raise SystemExit(
            f"--baseline mode must be 'write' or 'check', got {baseline[0]!r}"
        )
    cache = None
    if not args.no_cache:
        cache = FindingsCache(args.cache_dir or default_cache_dir())

    def _finish(report: EngineReport) -> EngineReport:
        if baseline is not None:
            report = apply_baseline(report, baseline[0], baseline[1])
        return report

    if whole_program:
        from repro.analysis.ip.analyzer import IP_VERSION
        from repro.analysis.ip.cache import SummaryCache
        from repro.analysis.ip.engine import WholeProgramEngine

        summary_cache = None
        if not args.no_cache:
            summary_cache = SummaryCache(
                args.cache_dir or default_cache_dir(), IP_VERSION
            )
        engine = WholeProgramEngine(
            pass_,
            cache=cache,
            summary_cache=summary_cache,
            jobs=args.jobs,
        )
        inner, post = engine.engine, engine.finalize
    else:
        engine = AnalysisEngine(pass_, cache=cache, jobs=args.jobs)
        inner, post = engine, None

    if args.watch and watch_paths:
        watcher = Watcher(
            inner,
            watch_paths,
            on_report=lambda r: _print_report(
                render_report(pass_, args.format, _finish(r))
            ),
            post=post,
        )
        try:
            watcher.run_forever(interval=args.interval)
        except KeyboardInterrupt:
            pass
        _emit_stats(engine, args)
        return 0
    report = _finish(engine.run(units, pre_errors))
    _print_report(render_report(pass_, args.format, report))
    _emit_stats(engine, args)
    if baseline is not None and baseline[0] == "write":
        # Capturing a baseline is bookkeeping, not a gate: exit clean
        # unless the inputs themselves were unreadable.
        return 2 if report.errors else 0
    return report.exit_code


def _crossval(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    mode: str = "dpor",
    stats_path: Optional[str] = None,
) -> int:
    """Every tool's ``--crossval``: the one fixture × rung matrix."""
    if args.format == "sarif":
        parser.error("--crossval supports text and json only")
    from repro.verify.crossval import run_crossval_cli

    return run_crossval_cli(args.format, mode=mode, stats_path=stats_path)


def run_lint(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    """Everything ``pdc-lint`` does after argument parsing."""
    pass_ = LintPass(
        select=[s for s in (args.select or "").split(",") if s.strip()] or None
    )
    if args.list_rules:
        _print_report(pass_.rule_table())
        return 0
    whole_program = bool(getattr(args, "whole_program", False))
    if getattr(args, "crossval", False):
        if not whole_program:
            parser.error("--crossval requires --whole-program")
        return _crossval(parser, args)
    if not args.paths:
        parser.error("no paths given (or use --list-rules)")
    units, pre_errors = expand_paths(args.paths)
    return _drive(
        args,
        pass_,
        units,
        pre_errors,
        watch_paths=args.paths,
        whole_program=whole_program,
    )


def run_san(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    """Everything ``pdc-san`` does after argument parsing."""
    pass_ = SanitizePass(entry=args.entry)
    if args.list_rules:
        _print_report(pass_.rule_table())
        return 0
    if args.crossval:
        return _crossval(parser, args)
    if not (args.paths or args.fixture or args.corpus):
        parser.error(
            "nothing to run (give paths, --fixture, --corpus, or --crossval)"
        )
    names = list(args.fixture)
    if args.corpus:
        from repro.smp.fixtures import all_fixtures

        names.extend(
            f.name
            for f in all_fixtures()
            if (f.dynamic_entry or f.entrypoints) and f.name not in names
        )
    units = [WorkUnit.fixture(n) for n in names]
    units.extend(WorkUnit.file(p) for p in args.paths)
    return _drive(
        args, pass_, units, [], watch_paths=args.paths if args.paths else None
    )


def run_verify(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    """Everything ``pdc-verify`` does after argument parsing."""
    pass_ = VerifyPass(
        entry=args.entry,
        mode=args.mode,
        max_schedules=args.max_schedules,
        max_steps=args.max_steps,
    )
    if args.list_rules:
        _print_report(pass_.rule_table())
        return 0
    if args.replay:
        from repro.verify.explorer import replay_fixture, replay_source

        if args.fixture:
            run = replay_fixture(args.fixture[0], args.replay)
        elif args.paths:
            with open(args.paths[0], "r", encoding="utf-8") as fh:
                run = replay_source(
                    fh.read(), args.replay,
                    path=args.paths[0], entry=args.entry,
                )
        else:
            parser.error("--replay needs a --fixture or one path")
        for finding in run.findings:
            print(finding)
        for error in run.errors:
            print(f"error: {error}", file=sys.stderr)
        print(f"schedule: {run.schedule}")
        return run.exit_code
    if args.crossval:
        return _crossval(
            parser, args, mode=args.mode, stats_path=args.stats_json
        )
    if not (args.paths or args.fixture or args.corpus):
        parser.error(
            "nothing to check (give paths, --fixture, --corpus, or --crossval)"
        )
    names = list(args.fixture)
    if args.corpus:
        from repro.smp.fixtures import all_fixtures

        names.extend(
            f.name
            for f in all_fixtures()
            if (f.dynamic_entry or f.entrypoints) and f.name not in names
        )
    units = [WorkUnit.fixture(n) for n in names]
    units.extend(WorkUnit.file(p) for p in args.paths)
    return _drive(
        args, pass_, units, [], watch_paths=args.paths if args.paths else None
    )
