"""CLI: ``python -m repro.analysis [options] [target ...]``.

Exit codes (CI semantics):

* ``0`` — nothing at or above the gate severity (``error`` by default,
  ``warning`` with ``--strict``).
* ``1`` — findings at the gate.
* ``2`` — usage error / unresolvable target.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import (
    Severity,
    analyze_targets,
    codes_table,
    default_targets,
)
from repro.analysis.scmd import DEFAULT_ALLOWLIST
from repro.errors import AnalysisError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically validate CCA assemblies and components "
                    "without executing them: wiring, port lifecycle, "
                    "SCMD shared state and races, and parameter "
                    "contracts, all in one run.")
    parser.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="rc-script file, .py file, directory, importable package, "
             "or assembly name (ignition0d, reaction_diffusion, "
             "shock_interface).  Default: "
             + " ".join(default_targets()) + " + IGNITION0D_SCRIPT")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--strict", action="store_true",
        help="fail (exit 1) on warnings too, not only errors")
    parser.add_argument(
        "--min-severity", choices=("info", "warning", "error"),
        default="info",
        help="lowest severity shown in text output (default: info)")
    parser.add_argument(
        "--allow", action="append", default=[], metavar="NAME",
        help="extra allowlisted shared-singleton name for the SCMD "
             "pass (repeatable)")
    parser.add_argument(
        "--codes", action="store_true",
        help="print the finding-code table and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.codes:
        print(codes_table())
        return 0
    allowlist = DEFAULT_ALLOWLIST | frozenset(args.allow)
    try:
        report = analyze_targets(args.targets or None, allowlist=allowlist)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text(Severity.parse(args.min_severity)))
    gate = Severity.WARNING if args.strict else Severity.ERROR
    return report.exit_code(gate)


if __name__ == "__main__":
    sys.exit(main())
