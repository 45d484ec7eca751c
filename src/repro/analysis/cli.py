"""The ``python -m repro lint`` subcommand.

Exit codes follow the usual linter convention:

* 0 — no findings,
* 1 — findings were reported,
* 2 — usage error (unknown rule id, missing path, unreadable file,
  ``--changed`` outside a git repository).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, TextIO

from ..errors import AnalysisError
from .changed import changed_python_files
from .engine import lint_paths
from .reporter import render_json, render_text
from .rules import all_rules
from .sarif import render_sarif


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULES",
        help="comma-separated rule ids or family prefixes to run "
             "(e.g. RPR1,RPR2; repeatable; default: all)")
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="RULES",
        help="comma-separated rule ids or family prefixes to skip "
             "(repeatable)")
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the per-file stage (default: 1)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental lint cache")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="lint cache location (default: $REPRO_LINT_CACHE_DIR or "
             "~/.cache/repro-heb-lint)")
    parser.add_argument(
        "--changed", action="store_true",
        help="lint only files modified vs git merge-base HEAD "
             "origin/main (falls back to main)")
    parser.add_argument(
        "--stats", action="store_true",
        help="append per-pass wall-time and per-family finding-count "
             "stats to text/json reports (ignored for sarif)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit")


def _split_ids(groups: Optional[List[str]]) -> Optional[List[str]]:
    if groups is None:
        return None
    return [part for group in groups for part in group.split(",") if part]


def _list_rules(stream: TextIO) -> int:
    for rule_id, rule_class in all_rules().items():
        marker = "*" if rule_class.whole_program else " "
        stream.write(f"{rule_id} {marker} {rule_class.summary()}\n")
    stream.write("(* = whole-program pass)\n")
    return 0


def run_lint(args: argparse.Namespace,
             stdout: Optional[TextIO] = None,
             stderr: Optional[TextIO] = None) -> int:
    """Execute a parsed ``lint`` invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    if args.list_rules:
        return _list_rules(out)
    try:
        paths = list(args.paths)
        if getattr(args, "changed", False):
            paths = changed_python_files(paths)
            if not paths:
                out.write("clean: no changed Python files\n")
                return 0
        report = lint_paths(
            paths,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
            jobs=getattr(args, "jobs", 1) or 1,
            use_cache=not getattr(args, "no_cache", False),
            cache_dir=getattr(args, "cache_dir", None),
        )
    except AnalysisError as error:
        err.write(f"lint: error: {error}\n")
        return 2
    want_stats = getattr(args, "stats", False)
    if args.format == "sarif":
        rendered = render_sarif(report)
    elif args.format == "json":
        rendered = render_json(report, stats=want_stats)
    else:
        rendered = render_text(report, stats=want_stats)
    out.write(rendered)
    out.write("\n")
    return 0 if report.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Static analysis for the HEB reproduction: unit "
                    "discipline, determinism, exception hygiene, plus "
                    "whole-program dimensional-dataflow and "
                    "cache-purity passes.")
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
