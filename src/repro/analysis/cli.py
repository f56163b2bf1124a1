"""``nrmi-lint`` — the rmic/serialver analogue for this middleware.

Usage::

    nrmi-lint src examples            # lint trees, human output
    nrmi-lint --json src              # stable machine-readable output
    nrmi-lint --format sarif src      # SARIF 2.1.0 for CI annotation
    nrmi-lint --select NRMI031 src    # run one rule
    nrmi-lint --list-rules            # print the rule catalogue

Exit codes: 0 — no error-severity findings (warnings may exist);
1 — at least one error-severity finding; 2 — usage error (bad path,
unknown rule code).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.engine import analyze_paths
from repro.analysis.reporting import render_json, render_sarif, render_text
from repro.analysis.rulebase import ALL_RULES

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrmi-lint",
        description="Static checker for NRMI remote contracts, "
        "serializability, copy-restore hazards, and thread-safety hazards.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directory trees to lint (e.g. src examples)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the stable JSON schema (alias for --format json)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default=None,
        help="output format (default text; sarif emits SARIF 2.1.0)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by # nrmi: disable comments",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def _render_catalogue() -> str:
    lines = ["code     severity  family           rule"]
    for descriptor in sorted(ALL_RULES, key=lambda r: r.code):
        lines.append(
            f"{descriptor.code}  {descriptor.severity.label:<8}  "
            f"{descriptor.family:<15}  {descriptor.name}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(_render_catalogue())
        return 0
    if not options.paths:
        parser.print_usage(sys.stderr)
        print("nrmi-lint: error: no paths given", file=sys.stderr)
        return USAGE_ERROR
    output_format = options.format or ("json" if options.json else "text")
    if options.json and options.format not in (None, "json"):
        print(
            "nrmi-lint: error: --json conflicts with "
            f"--format {options.format}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    try:
        result = analyze_paths(
            options.paths,
            select=_split_codes(options.select),
            ignore=_split_codes(options.ignore),
        )
    except FileNotFoundError as exc:
        print(f"nrmi-lint: error: no such path: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyError as exc:
        print(f"nrmi-lint: error: {exc.args[0]}", file=sys.stderr)
        return USAGE_ERROR
    if output_format == "json":
        print(render_json(result))
    elif output_format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, verbose_suppressed=options.show_suppressed))
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
