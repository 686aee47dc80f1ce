#!/usr/bin/env python3
"""Rewrite ``bench/expected/*.json``: pick the generated specs, then
record every spec's answer from the MILP oracle.

Run from the repository root (takes a few minutes)::

    python3 bench/calibrate.py

The generated-branching workload is picked from the seeded draw
``workloads.draw_generated(random.Random(GENERATED_DRAW_SEED))``: a
drawn spec is kept when the default solver config, node-capped as in
the workload, still branches on it (at least ``MIN_NODES`` nodes),
answers without degrading and within ``MAX_SPEC_S`` seconds.  Drawing
stops once the kept specs add up to ``TARGET_PASS_S`` seconds.  The
pick depends on the machine's speed, so it is made once and committed,
with each spec's draw number and parameters.

The oracle's answers on the paper rows are cross-checked against the
committed solver baseline ``BENCH_solver.json`` before anything is
written.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
import workloads  # noqa: E402
from repro.core.partitioner import TemporalPartitioner  # noqa: E402

MIN_NODES = 16
MAX_SPEC_S = 1.0
TARGET_PASS_S = 2.5
MAX_DRAWS = 200


def pick_generated():
    """The kept draws as ``[(draw number, params, item)]``."""
    rng = random.Random(workloads.GENERATED_DRAW_SEED)
    kept, total = [], 0.0
    for draw in range(MAX_DRAWS):
        params = workloads.draw_generated(rng)
        item = workloads.generated_item(draw, params)
        # Same config as the workload, but a calibration time limit so
        # a pathological draw costs seconds, not the safety net's minute.
        probe = TemporalPartitioner(
            device=item.spec.device, memory=item.spec.memory,
            options=item.partitioner.options,
            time_limit_s=MAX_SPEC_S, node_limit=workloads.GENERATED_NODE_LIMIT,
        )
        start = perf_counter()
        outcome = probe.partition_spec(item.spec)
        elapsed = perf_counter() - start
        keep = (
            outcome.solve_stats.nodes_explored >= MIN_NODES
            and not outcome.degraded
            and outcome.solve_stats.stop_reason != "time_limit"
            and elapsed <= MAX_SPEC_S
        )
        print(f"draw {draw:3d} {item.key:<24} {elapsed:6.2f}s "
              f"{outcome.status.value:<10} nodes={outcome.solve_stats.nodes_explored}"
              f"{'  kept' if keep else ''}", flush=True)
        if keep:
            kept.append((draw, params, item))
            total += elapsed
            if total >= TARGET_PASS_S:
                return kept
    raise RuntimeError(f"{MAX_DRAWS} draws did not fill a {TARGET_PASS_S} s pass")


def cross_check(name, entries) -> None:
    """Paper-row answers must agree with the committed solver baseline."""
    with open(ROOT / "BENCH_solver.json", encoding="utf-8") as handle:
        baseline = json.load(handle)["rows"]
    for entry in entries:
        row = baseline.get(f"{entry['key']}:off") or baseline.get(
            f"{entry['key']}:incremental")
        if row is None:
            continue
        if (row["status"], row["objective"]) != (entry["status"], entry["objective"]):
            raise RuntimeError(
                f"{name} {entry['key']}: oracle {entry['status']}/"
                f"{entry['objective']}, BENCH_solver.json "
                f"{row['status']}/{row['objective']}"
            )
        print(f"  {entry['key']}: agrees with BENCH_solver.json")


def main() -> int:
    generated = pick_generated()
    for name in workloads.WORKLOADS:
        if name == "generated-branching":
            items = [item for _, _, item in generated]
        else:
            items = workloads.WORKLOADS[name].build()
        entries = []
        for item in items:
            entry = answers.oracle_answer(item)
            print(f"{name} {item.key}: {entry['status']} {entry['objective']}",
                  flush=True)
            entries.append(entry)
        if name == "generated-branching":
            for entry, (draw, params, _) in zip(entries, generated):
                entry.update(draw=draw, params=params)
        else:
            cross_check(name, entries)
        document = {"workload": name, "oracle": "scipy-milp", "specs": entries}
        path = workloads.EXPECTED_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
