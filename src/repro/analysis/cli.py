"""Command-line front end for the static-analysis suite.

Two equivalent entry points share this module: ``repro lint`` (the
subcommand registered in :mod:`repro.cli`) and ``python -m
repro.analysis``.  Exit codes follow the lint convention the telemetry
hygiene tool established: 0 clean, 1 findings, 2 usage error (unknown
rule id, missing target path).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.engine import run_analysis
from repro.analysis.rules import ALL_RULES, DEFAULT_CONFIG, get_rules
from repro.errors import StaticAnalysisError
from repro.obs import emit

__all__ = ["add_lint_arguments", "build_parser", "main", "run_lint"]

#: Scanned when no paths are given (missing ones silently skipped, so
#: the command works from the repo root of a source checkout).
DEFAULT_TARGETS = ("src", "benchmarks")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options (shared with the ``repro lint`` subcommand)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src benchmarks)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE_ID",
        help="run only this rule (repeatable); default is every rule",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule ids and descriptions, then exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static-analysis suite for the repro codebase.",
    )
    add_lint_arguments(parser)
    return parser


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the exit code."""
    if args.list_rules:
        for rule in ALL_RULES:
            emit(f"{rule.id:20s} {rule.description}")
        return 0
    rules = get_rules(args.rules)
    paths = list(args.paths)
    if not paths:
        paths = [target for target in DEFAULT_TARGETS if Path(target).exists()]
        if not paths:
            raise StaticAnalysisError(
                "no lint targets: neither src/ nor benchmarks/ exists"
                " here and no paths were given"
            )
    report = run_analysis(
        paths,
        rules,
        config=DEFAULT_CONFIG,
        known_rule_ids=[rule.id for rule in ALL_RULES],
    )
    if args.format == "json":
        emit(json.dumps(report.as_dict(), indent=2))
    else:
        for line in report.render_text():
            emit(line, error=True)
        if report.ok:
            emit(
                f"repro lint: {report.files} file(s) clean"
                f" ({len(report.rule_ids)} rule(s))"
            )
        else:
            emit(f"{len(report.findings)} finding(s)", error=True)
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        return run_lint(args)
    except StaticAnalysisError as error:
        emit(f"repro lint: {error}", error=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
