"""The ``repro audit`` CLI: independently verify a solve's proof log.

Imports only :mod:`repro.ilp.certify.records` and
:mod:`repro.ilp.certify.checker` — by design there is no path from
here to an LP backend, numpy, or the solver that wrote the log.

Exit status: 0 CERTIFIED, 1 CERTIFIED-WITH-FORFEITURES, 2 REFUTED,
3 no verdict reached: the log could not be read at all, or it is in a
retired schema (UNSUPPORTED; v2 logs carried root cut records).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.ilp.certify.checker import (
    VERDICT_UNSUPPORTED,
    AuditReport,
    audit_proof,
)


def build_audit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tps audit",
        description="Replay a repro.bnb_proof/v1 branch-and-bound proof "
        "log with exact rational arithmetic (no LP solver) and report "
        "CERTIFIED / CERTIFIED-WITH-FORFEITURES / REFUTED.  Exit "
        "status: 0 certified, 1 certified with forfeited subtrees, "
        "2 refuted, 3 no verdict reached: the log is unreadable, or "
        "UNSUPPORTED (a retired schema such as repro.bnb_proof/v2, "
        "whose cut records are no longer verified).",
    )
    parser.add_argument("proof", help="path to the proof log (JSONL)")
    parser.add_argument(
        "--expect-fingerprint",
        metavar="HEX",
        default=None,
        help="additionally require the log's formulation fingerprint "
        "to equal this SHA-256 hex digest",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the full audit report as JSON instead of text",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print nothing; communicate through the exit status only",
    )
    return parser


def _print_report(report: AuditReport) -> None:
    print(f"verdict: {report.verdict}")
    if report.reason is not None:
        where = f" (line {report.line})" if report.line is not None else ""
        label = (
            "not verified"
            if report.verdict == VERDICT_UNSUPPORTED
            else "first failing record"
        )
        print(f"  {label}{where}: {report.reason}")
    if report.claimed_status is not None:
        objective = (
            "-"
            if report.claimed_objective is None
            else f"{report.claimed_objective:g}"
        )
        print(f"  claimed: {report.claimed_status} objective={objective}")
    if report.certified_objective is not None:
        print(f"  certified incumbent: {report.certified_objective:g}")
    if report.counts:
        summary = ", ".join(
            f"{kind}={count}" for kind, count in sorted(report.counts.items())
        )
        print(f"  records: {summary}")
    if report.torn_tail:
        print("  note: torn final line dropped (interrupted write)")
    for forfeit in report.forfeits:
        print(f"  forfeited subtree {forfeit.node}: {forfeit.cause}")


def audit_main(argv: "Optional[List[str]]" = None) -> int:
    args = build_audit_parser().parse_args(argv)
    try:
        report = audit_proof(
            args.proof, expected_fingerprint=args.expect_fingerprint
        )
    except OSError as exc:
        if not args.quiet:
            print(f"cannot read proof log {args.proof!r}: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        if args.as_json:
            print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        else:
            _print_report(report)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(audit_main())
