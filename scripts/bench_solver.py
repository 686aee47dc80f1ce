#!/usr/bin/env python
"""Solver performance benchmark: nodes/sec and LP-ms/node per table row.

Runs the paper's Table 1-4 experiment rows through the branch and bound
(every node LP on the persistent warm-starting ``incremental`` kernel)
and reports, per row:

* deterministic solve signature — status, objective, nodes explored,
  LP solves (must match the committed baseline exactly; any drift
  means the search changed, not just the clock);
* throughput — nodes/sec and LP milliseconds per node (compared
  against the baseline within a tolerance, 30% by default: generous
  enough for shared CI runners, tight enough to catch a real
  regression like an accidental per-node model rebuild).

Usage::

    python scripts/bench_solver.py --quick            # t3 family, CI smoke
    python scripts/bench_solver.py                    # all tables
    python scripts/bench_solver.py --quick --update-baseline
    python scripts/bench_solver.py --json out.json
    python scripts/bench_solver.py --quick --audit                # certify rows
    python scripts/bench_solver.py --tables t3,t4 --ablation      # heuristics gate

Exit status is non-zero when any deterministic field drifts or any
row's nodes/sec regresses more than ``--tolerance`` below the
committed ``BENCH_solver.json`` baseline.  A row that misses the
nodes/sec tolerance is re-timed up to ``RETIMES`` times and keeps its
best nodes/sec, so one noisy run on a shared host does not fail the
gate; every re-run's deterministic fields are still compared.
Regenerate the baseline with ``--update-baseline`` after an
intentional perf or search change (on the same class of machine the
comparison will run on).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.artifacts import read_snapshot, write_snapshot  # noqa: E402
from repro.errors import ArtifactError  # noqa: E402
from repro.reporting.experiments import run_row, table_rows  # noqa: E402

BASELINE_SCHEMA = "repro.bench_solver/v1"
DEFAULT_BASELINE = REPO_ROOT / "BENCH_solver.json"


def load_baseline(path: Path) -> "dict | None":
    """Read a digest-verified baseline; None (with a message) on damage.

    Goes through the durable-artifact layer so a bit-rotted or torn
    baseline is reported as exactly that, instead of producing a
    phantom perf regression.
    """
    try:
        baseline = read_snapshot(path)
    except ArtifactError as exc:
        print(f"baseline {path} unreadable ({exc.cause}): {exc}",
              file=sys.stderr)
        return None
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(f"baseline schema mismatch in {path}", file=sys.stderr)
        return None
    return baseline

#: Fields that must match the baseline bit-for-bit: any drift means
#: the *search* changed (different tree, different answer), which a
#: perf PR must never silently do.
DETERMINISTIC_FIELDS = ("status", "objective", "nodes_explored", "lp_solves")

#: Extra timings a row gets when its nodes/sec falls past the tolerance.
RETIMES = 2


def bench_row(
    row,
    time_limit_s: float,
    heuristics: bool = False,
) -> dict:
    """One row -> measured record."""
    start = time.perf_counter()
    result = run_row(
        row,
        time_limit_s=time_limit_s,
        heuristics=heuristics,
    )
    elapsed = time.perf_counter() - start
    solve = (result.get("telemetry") or {}).get("solve") or {}
    nodes = int(solve.get("nodes_explored") or 0)
    lp_solves = int(solve.get("lp_calls") or 0)
    lp_time_s = float(solve.get("lp_time_s") or 0.0)
    wall = float(solve.get("wall_time_s") or elapsed) or elapsed
    record = {
        "status": result["status"],
        "objective": result["objective"],
        "nodes_explored": nodes,
        "lp_solves": lp_solves,
        "wall_time_s": round(wall, 4),
        "end_to_end_s": round(elapsed, 4),
        "nodes_per_s": round(nodes / wall, 2) if wall > 0 else None,
        "lp_ms_per_node": (
            round(1000.0 * lp_time_s / lp_solves, 4) if lp_solves else None
        ),
    }
    kernel_block = solve.get("kernel")
    if kernel_block:
        record["kernel"] = {
            "name": kernel_block.get("name"),
            "warm_start_hits": kernel_block.get("warm_start_hits"),
        }
    if heuristics:
        heur_block = solve.get("heuristics") or {}
        record["heuristic_incumbents"] = int(
            heur_block.get("dive_incumbents") or 0
        ) + int(heur_block.get("polish_incumbents") or 0)
    return record


def run_ablation_bench(
    tables, time_limit_s: float, tolerance: float,
) -> "tuple[dict, list, list]":
    """Heuristics ablation mode: (rows, hard failures, notes).

    Every row runs twice — plain, then with the primal heuristics
    enabled.  The enabled run must reach the *identical* status and
    objective (the heuristics may only speed the search up, never
    change the answer), and on Table 3/4 rows that solve to
    optimality it must explore strictly fewer nodes.  Aggregate
    end-to-end time (the whole ``run_row`` call, presolve and model
    build included) across the sweep must not regress beyond
    ``tolerance``.
    """
    rows, failures, notes = {}, [], []
    off_time = on_time = 0.0
    for table in tables:
        for row in table_rows(table):
            off_key = f"{row.key}:off"
            on_key = f"{row.key}:heur"
            print(f"  bench {off_key} ...", flush=True)
            off = bench_row(row, time_limit_s)
            print(f"  bench {on_key} ...", flush=True)
            on = bench_row(row, time_limit_s, heuristics=True)
            rows[off_key], rows[on_key] = off, on
            off_time += off["end_to_end_s"]
            on_time += on["end_to_end_s"]
            for field in ("status", "objective"):
                if on.get(field) != off.get(field):
                    failures.append(
                        f"{on_key}: {field} changed under heuristics "
                        f"(off {off.get(field)!r}, on {on.get(field)!r})"
                    )
            if table in ("t3", "t4") and off["status"] == "optimal":
                if on["nodes_explored"] >= off["nodes_explored"]:
                    failures.append(
                        f"{on_key}: expected strictly fewer nodes than the "
                        f"plain run (off {off['nodes_explored']}, "
                        f"on {on['nodes_explored']})"
                    )
    if off_time > 0 and on_time > off_time * (1.0 + tolerance):
        failures.append(
            f"aggregate end-to-end time regressed >{tolerance:.0%} with "
            f"heuristics on ({off_time:.2f}s -> {on_time:.2f}s)"
        )
    else:
        notes.append(
            f"aggregate end-to-end time {off_time:.2f}s plain -> "
            f"{on_time:.2f}s with heuristics"
        )
    return rows, failures, notes


def print_ablation_rows(rows: dict) -> None:
    width = max(len(k) for k in rows)
    print(f"{'row':<{width}}  {'status':<10} {'nodes':>7} {'e2e s':>8} "
          f"{'heur inc':>8}")
    for key, record in rows.items():
        print(
            f"{key:<{width}}  {record['status']:<10} "
            f"{record['nodes_explored']:>7} "
            f"{record['end_to_end_s']:>8} "
            f"{record.get('heuristic_incumbents', '-'):>8}"
        )


def run_bench(tables, time_limit_s: float) -> dict:
    rows = {}
    for table in tables:
        for row in table_rows(table):
            key = f"{row.key}:incremental"
            print(f"  bench {key} ...", flush=True)
            rows[key] = bench_row(row, time_limit_s)
    return rows


def run_audit_bench(
    tables, time_limit_s: float, baseline: dict,
) -> "tuple[dict, list]":
    """Certification mode: (rows, hard failures).

    Re-runs each table row with proof logging on and
    verifies the log with the independent exact-arithmetic checker
    (:func:`repro.ilp.certify.audit_proof`).  Any row that solves to
    optimality must audit ``CERTIFIED`` — a weaker verdict means the
    logged tree does not actually prove the claimed optimum.
    """
    import tempfile

    from repro.ilp.certify import audit_proof

    base_rows = baseline.get("rows", {})
    rows, failures = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for table in tables:
            for row in table_rows(table):
                key = row.key
                proof = Path(tmp) / f"{key}.jsonl"
                print(f"  audit {key} ...", flush=True)
                result = run_row(
                    row, time_limit_s=time_limit_s, proof_path=str(proof),
                )
                report = audit_proof(str(proof))
                rows[key] = {
                    "status": result["status"],
                    "objective": result["objective"],
                    "verdict": report.verdict,
                    "reason": report.reason,
                }
                if result["status"] == "optimal" and report.verdict != "CERTIFIED":
                    failures.append(
                        f"{key}: optimal solve audited "
                        f"{report.verdict} ({report.reason})"
                    )
                base = base_rows.get(f"{key}:incremental")
                if base and result["status"] != base.get("status"):
                    failures.append(
                        f"{key}: status {result['status']!r} diverged "
                        f"from baseline {base.get('status')!r}"
                    )
    return rows, failures


def print_audit_rows(rows: dict) -> None:
    width = max(len(k) for k in rows)
    print(f"{'row':<{width}}  {'status':<10} {'verdict':<28} reason")
    for key, record in rows.items():
        print(
            f"{key:<{width}}  {record['status']:<10} "
            f"{record['verdict']:<28} {record['reason'] or '-'}"
        )


def drift(key: str, record: dict, base: dict) -> list:
    """Failure strings for the deterministic fields that differ."""
    return [
        f"{key}: {field} drifted "
        f"(baseline {base.get(field)!r}, now {record.get(field)!r})"
        for field in DETERMINISTIC_FIELDS
        if record.get(field) != base.get(field)
    ]


def too_slow(record: dict, base: dict, tolerance: float) -> bool:
    base_nps = base.get("nodes_per_s")
    cur_nps = record.get("nodes_per_s")
    return bool(base_nps and cur_nps and cur_nps < base_nps * (1.0 - tolerance))


def retime_slow_rows(
    rows: dict, baseline: dict, tolerance: float, tables, time_limit_s: float,
) -> list:
    """Re-time each row whose nodes/sec fell past the tolerance.

    A flagged row runs again, at most :data:`RETIMES` times and only
    while it is still flagged; it keeps its best nodes/sec.  Returns
    the deterministic drifts of the re-runs (every re-run is compared).
    """
    failures = []
    base_rows = baseline.get("rows", {})
    by_key = {
        f"{row.key}:incremental": row
        for table in tables for row in table_rows(table)
    }
    for key, record in rows.items():
        base = base_rows.get(key)
        for attempt in range(1, RETIMES + 1):
            if base is None or not too_slow(record, base, tolerance):
                break
            rerun = bench_row(by_key[key], time_limit_s)
            print(
                f"  re-time {key} ({attempt}/{RETIMES}): "
                f"{record['nodes_per_s']} -> {rerun['nodes_per_s']} nodes/s "
                f"(baseline {base['nodes_per_s']})", flush=True,
            )
            failures.extend(
                f"re-time {attempt}: {failure}"
                for failure in drift(key, rerun, base)
            )
            if (rerun["nodes_per_s"] or 0) > (record["nodes_per_s"] or 0):
                rows[key] = record = rerun
    return failures


def compare(current: dict, baseline: dict, tolerance: float) -> list:
    """Return a list of human-readable failure strings (empty = pass)."""
    failures = []
    base_rows = baseline.get("rows", {})
    for key, record in current.items():
        base = base_rows.get(key)
        if base is None:
            continue  # new row: nothing to regress against
        failures.extend(drift(key, record, base))
        if too_slow(record, base, tolerance):
            failures.append(
                f"{key}: nodes/sec regressed >{tolerance:.0%} "
                f"(baseline {base['nodes_per_s']}, now {record['nodes_per_s']})"
            )
    return failures


def print_rows(rows: dict) -> None:
    width = max(len(k) for k in rows)
    print(f"{'row':<{width}}  {'status':<10} {'nodes':>7} {'nodes/s':>10} "
          f"{'lp ms/node':>11}")
    for key, record in rows.items():
        print(
            f"{key:<{width}}  {record['status']:<10} "
            f"{record['nodes_explored']:>7} "
            f"{record['nodes_per_s'] if record['nodes_per_s'] is not None else '-':>10} "
            f"{record['lp_ms_per_node'] if record['lp_ms_per_node'] is not None else '-':>11}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="bench only the t3 family (the CI smoke configuration)",
    )
    parser.add_argument(
        "--tables", default=None,
        help="comma-separated tables to bench (default: t1,t2,t3,t4)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=60.0,
        help="per-row solve time limit in seconds",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="baseline JSON path (default: BENCH_solver.json at repo root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional nodes/sec regression vs baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the measured results as the new baseline and exit 0",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="also write the measured results to this path",
    )
    parser.add_argument(
        "--ablation", action="store_true",
        help="heuristics ablation mode: bench each row plain and "
             "with --heuristics; identical optima and strictly "
             "fewer nodes on optimal t3/t4 rows are hard gates",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="certification mode: re-run each row with proof logging "
             "and verify the log with the independent exact checker; "
             "optimal rows must audit CERTIFIED",
    )
    args = parser.parse_args(argv)

    if args.tables:
        tables = [t.strip() for t in args.tables.split(",") if t.strip()]
    elif args.quick:
        tables = ["t3"]
    else:
        tables = ["t1", "t2", "t3", "t4"]

    if args.ablation:
        rows, failures, notes = run_ablation_bench(
            tables, args.time_limit, args.tolerance,
        )
        payload = {
            "schema": BASELINE_SCHEMA,
            "mode": "ablation",
            "tables": tables,
            "rows": rows,
        }
        if args.json:
            args.json.write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n"
            )
            print(f"wrote {args.json}")
        if args.update_baseline:
            # Merge into the committed baseline: ablation keys
            # (":off"/":heur") never collide with the ":incremental"
            # keys the default compare mode reads.
            merged = {}
            if args.baseline.exists():
                loaded = load_baseline(args.baseline)
                if loaded is None:
                    return 2
                merged = loaded
            merged.setdefault("schema", BASELINE_SCHEMA)
            merged.setdefault("rows", {}).update(rows)
            write_snapshot(args.baseline, merged, indent=1)
            print(f"baseline updated: {args.baseline}")
        print()
        print_ablation_rows(rows)
        for note in notes:
            print(f"\nNOTE: {note}")
        if failures:
            print("\nFAIL:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nOK: heuristics ablation gates hold "
              f"({len(rows)} measurements)")
        return 0

    if args.audit:
        baseline = {}
        if args.baseline.exists():
            loaded = load_baseline(args.baseline)
            if loaded is None:
                return 2
            baseline = loaded
        rows, failures = run_audit_bench(tables, args.time_limit, baseline)
        if args.json:
            args.json.write_text(json.dumps({
                "schema": BASELINE_SCHEMA,
                "mode": "audit",
                "tables": tables,
                "rows": rows,
            }, indent=1, sort_keys=True) + "\n")
            print(f"wrote {args.json}")
        print()
        print_audit_rows(rows)
        if failures:
            print("\nFAIL:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"\nOK: all proof logs verified ({len(rows)} audits)")
        return 0

    rows = run_bench(tables, args.time_limit)
    baseline = None
    failures = []
    if not args.update_baseline and args.baseline.exists():
        baseline = load_baseline(args.baseline)
        if baseline is None:
            return 2
        failures = retime_slow_rows(
            rows, baseline, args.tolerance, tables, args.time_limit,
        )
    payload = {
        "schema": BASELINE_SCHEMA,
        "tables": tables,
        "time_limit_s": args.time_limit,
        "tolerance": args.tolerance,
        "rows": rows,
    }

    if args.json:
        args.json.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.json}")

    if args.update_baseline:
        write_snapshot(args.baseline, payload, indent=1)
        print(f"baseline updated: {args.baseline}")
        return 0

    if baseline is None:
        print(
            f"no baseline at {args.baseline}; run with --update-baseline "
            f"to create one", file=sys.stderr,
        )
        return 2
    failures += compare(rows, baseline, args.tolerance)

    print()
    print_rows(rows)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: within {args.tolerance:.0%} of baseline "
          f"({len(rows)} measurements)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
