#!/usr/bin/env python
"""Solver performance gate: solve signatures and reference-relative cost per row.

Runs the paper's Table 1-4 experiment rows through the default branch
and bound (every node LP on the warm-starting ``incremental`` kernel)
and compares each row, keyed ``{row}:incremental``, with the committed
``BENCH_solver.json`` baseline:

* **solve signature** — status, objective, nodes explored, LP solves.
  These must match exactly: any drift means the search tree changed,
  which a perf change must never do silently.
* **cost relative to a reference solve** — search seconds per node
  (``node_cost``) and LP seconds per LP call (``lp_cost``), each
  divided by the time of a reference batch: ``REFERENCE_SOLVES``
  SciPy ``linprog`` calls on one seeded random LP, code this repo
  does not own.  Each row runs ``REPEATS`` times, each run right
  after a reference batch in the same process, and keeps its best
  cost over its best reference.  A busier or slower host moves both
  sides of the ratio; a slower solver moves only the row.  Either
  cost more than ``--tolerance`` (30%) above its baseline fails the
  row.  The LP cost catches a slower LP kernel even on rows where
  node bookkeeping dominates the search time.

Usage::

    python scripts/bench_solver.py --quick            # t3 family, CI smoke
    python scripts/bench_solver.py                    # all tables
    python scripts/bench_solver.py --quick --update-baseline
    python scripts/bench_solver.py --json out.json
    python scripts/bench_solver.py --quick --audit                # certify rows
    python scripts/bench_solver.py --tables t3,t4 --ablation      # heuristics gate

``--update-baseline`` merges the measured rows into the baseline after
an intentional perf or search change; commit the diff, since the
baseline file is the reviewable perf contract.

``--audit`` re-runs each row with proof logging (``repro.bnb_proof/v1``,
DESIGN.md §14) and audits the log with the exact rational checker
(stdlib ``Fraction`` arithmetic, no LP solver).  Every ``optimal`` row
must audit ``CERTIFIED``, and no status may diverge from the baseline.

``--ablation`` runs each row plain (``:off``) and with the primal
heuristics (``:heur``, DESIGN.md §17).  Gates: identical status and
objective; strictly fewer nodes on every Table 3/4 row that solves to
optimality; and no aggregate end-to-end regression beyond
``--tolerance``, summed over ``end_to_end_s`` (the whole ``run_row``
call, model build and presolve included).  ``--update-baseline`` merges
these rows too; their keys never collide with ``:incremental``.

Exit status: 0 pass, 1 a gate failed, 2 no usable baseline.
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

BASELINE_SCHEMA = "repro.bench_solver/v2"
DEFAULT_BASELINE = REPO_ROOT / "BENCH_solver.json"

#: Fields that must match the baseline bit-for-bit: any drift means
#: the *search* changed (different tree, different answer), which a
#: perf PR must never silently do.
DETERMINISTIC_FIELDS = ("status", "objective", "nodes_explored", "lp_solves")

#: Interleaved (reference, row) runs per row; each cost is the best.
REPEATS = 3
#: ``linprog`` calls in one reference batch (about 0.1 s on a 2-core VM).
REFERENCE_SOLVES = 20


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


def reference_solve_s() -> float:
    """Seconds one reference batch of SciPy LP solves takes right now."""
    import numpy as np
    from scipy.optimize import linprog

    rng = np.random.default_rng(0)
    a_ub = rng.uniform(0.0, 1.0, (40, 60))
    b_ub = 0.3 * a_ub.sum(axis=1)
    cost = -rng.uniform(0.0, 1.0, 60)
    start = time.perf_counter()
    for _ in range(REFERENCE_SOLVES):
        linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(0, 1), method="highs")
    return time.perf_counter() - start


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


def timed_row(row, time_limit_s: float) -> "tuple[dict, list]":
    """Best-of-``REPEATS`` record with reference-relative costs.

    Returns the record and every run, so each run's signature can be
    compared.
    """
    refs, runs = [], []
    for _ in range(REPEATS):
        refs.append(reference_solve_s())
        runs.append(bench_row(row, time_limit_s))
    ref = min(refs)
    record = dict(min(runs, key=lambda r: r["wall_time_s"]))
    nodes = record["nodes_explored"]
    record["ref_s"] = round(ref, 5)
    record["node_cost"] = (
        round(record["wall_time_s"] / nodes / ref, 6) if nodes else None
    )
    lp_ms = [r["lp_ms_per_node"] for r in runs if r["lp_ms_per_node"]]
    record["lp_cost"] = round(min(lp_ms) / 1000.0 / ref, 6) if lp_ms else None
    return record, runs


def run_bench(tables, time_limit_s: float) -> "tuple[dict, dict]":
    rows, all_runs = {}, {}
    for table in tables:
        for row in table_rows(table):
            key = f"{row.key}:incremental"
            print(f"  bench {key} ...", flush=True)
            rows[key], all_runs[key] = timed_row(row, time_limit_s)
    return rows, all_runs


def compare(rows: dict, all_runs: dict, baseline: dict, tolerance: float) -> list:
    """Failure strings (empty = pass): signature drift, then cost."""
    failures = []
    base_rows = baseline.get("rows", {})
    for key, record in rows.items():
        base = base_rows.get(key)
        if base is None:
            continue  # new row: nothing to regress against
        for i, run in enumerate(all_runs[key], 1):
            failures.extend(
                f"{key} (run {i}): {field} drifted "
                f"(baseline {base.get(field)!r}, now {run.get(field)!r})"
                for field in DETERMINISTIC_FIELDS
                if run.get(field) != base.get(field)
            )
        for field in ("node_cost", "lp_cost"):
            limit = base.get(field)
            now = record.get(field)
            if limit and now and now > limit * (1.0 + tolerance):
                failures.append(
                    f"{key}: {field} regressed >{tolerance:.0%} "
                    f"(baseline {limit}, now {now})"
                )
    return failures


def run_ablation_bench(
    tables, time_limit_s: float, tolerance: float,
) -> "tuple[dict, list, list]":
    """Heuristics ablation mode: (rows, hard failures, notes)."""
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


def run_audit_bench(
    tables, time_limit_s: float, baseline: dict,
) -> "tuple[dict, list]":
    """Certification mode: (rows, hard failures)."""
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


def print_table(rows: dict, columns) -> None:
    width = max(len(k) for k in rows)
    print(f"{'row':<{width}}  " + " ".join(f"{c:>14}" for c in columns))
    for key, record in rows.items():
        cells = (record.get(c) for c in columns)
        print(f"{key:<{width}}  " + " ".join(
            f"{'-' if v is None else v!s:>14}" for v in cells
        ))


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
        help="allowed fractional cost regression vs baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="merge the measured rows into the baseline and exit 0",
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

    baseline = {"schema": BASELINE_SCHEMA, "rows": {}}
    if args.baseline.exists():
        baseline = load_baseline(args.baseline)
        if baseline is None:
            return 2
    elif not (args.update_baseline or args.ablation or args.audit):
        print(f"no baseline at {args.baseline}; run with --update-baseline "
              f"to create one", file=sys.stderr)
        return 2

    notes = []
    if args.ablation:
        mode = "ablation"
        rows, failures, notes = run_ablation_bench(
            tables, args.time_limit, args.tolerance,
        )
        columns = ("status", "nodes_explored", "end_to_end_s",
                   "heuristic_incumbents")
    elif args.audit:
        mode = "audit"
        rows, failures = run_audit_bench(tables, args.time_limit, baseline)
        columns = ("status", "verdict", "reason")
    else:
        mode = "bench"
        rows, all_runs = run_bench(tables, args.time_limit)
        failures = compare(rows, all_runs, baseline, args.tolerance)
        columns = ("status", "nodes_explored", "ref_s", "node_cost", "lp_cost")

    if args.json:
        args.json.write_text(json.dumps({
            "schema": BASELINE_SCHEMA,
            "mode": mode,
            "tables": tables,
            "tolerance": args.tolerance,
            "rows": rows,
        }, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if args.update_baseline and mode != "audit":
        baseline["rows"].update(rows)
        baseline["tolerance"] = args.tolerance
        write_snapshot(args.baseline, baseline, indent=1)
        print(f"baseline updated: {args.baseline}")
        return 0

    print()
    print_table(rows, columns)
    for note in notes:
        print(f"\nNOTE: {note}")
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nOK: {mode} gates hold ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
