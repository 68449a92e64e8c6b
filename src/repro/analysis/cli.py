"""Command line for the analyzer.

``python -m repro.analysis [paths]`` and ``python -m repro lint
[paths]`` are the same :func:`main` (the ``repro`` CLI hands everything
after the verb over unparsed, so the two surfaces cannot drift).  Exit
codes: 0 clean, 1 findings, 2 usage error — so CI can gate on it
directly.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import analyze_paths
from .rules import REGISTRY

DEFAULT_PATHS = ["src", "benchmarks"]


def _render_catalog() -> str:
    lines = ["available rules:"]
    for rule_id in sorted(REGISTRY):
        rule = REGISTRY[rule_id]
        scope = "all units" if rule.units is None else ", ".join(sorted(rule.units))
        if rule.exempt:
            scope += f" (except {', '.join(sorted(rule.exempt))})"
        lines.append(f"  {rule_id}  {rule.title}")
        lines.append(f"         scope: {scope}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, run the analyzer, print the findings; returns the
    exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="Static analysis enforcing the reproduction's soundness "
        f"and layering invariants (rules {min(REGISTRY)}-{max(REGISTRY)}).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=DEFAULT_PATHS,
        help=f"files or directories to analyze (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json: one machine-readable object)",
    )
    parser.add_argument(
        "--select", help="comma-separated rule ids to run (default: all)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_render_catalog())
        return 0
    select = None
    if args.select:
        select = [part.strip().upper() for part in args.select.split(",") if part.strip()]
        unknown = sorted(set(select) - set(REGISTRY))
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
    try:
        findings = analyze_paths(args.paths, select)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "paths": list(args.paths),
            "findings": [finding.to_dict() for finding in findings],
            "summary": {"total": len(findings)},
        }
        print(json.dumps(payload, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(
            f"found {len(findings)} violation(s)" if findings else "no violations found"
        )
    return 1 if findings else 0
