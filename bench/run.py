#!/usr/bin/env python3
"""Benchmark ``TemporalPartitioner.partition_spec`` end to end and per layer.

Run from the repository root; the solver is imported from ``src/``::

    python3 bench/run.py                  # every workload, one run each
    python3 bench/run.py --trace          # ... plus a traced run each
    python3 bench/run.py --repeat 5       # 5 runs each: median and spread
    python3 bench/run.py --workload plain-deep --seed 3 --seconds 20 --trace 0

Without ``--workload`` each workload runs in its own fresh interpreter,
one after another.  With ``--workload`` the run is a closed loop with
one client: it solves the workload's specs one at a time, in an order
drawn from ``--seed``, until ``--seconds`` have passed, and checks every
answer.  Its last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics, from traced solves
each paired with an untraced one.  It exits 1 on any wrong answer or
failed self-check, and 2 when ``src/`` holds no solver.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Every end-to-end metric: (name, unit, better).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("spec_p50_s", "s", "lower"),
    ("decided_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
WORKLOAD_NAMES = (
    "paper-default", "paper-heuristics", "plain-deep", "generated-branching",
)
DEFAULT_SEED = 11
DEFAULT_SECONDS = 20
#: set-up is timed in this many fresh interpreters per run; the median counts.
SETUP_SAMPLES = 5
#: each spec is solved at least this often in an untraced run.
MIN_SAMPLES = 3
#: the largest gap allowed between a traced solve and its top-level
#: spans: max(share of the solve, seconds).
RECONCILE_SHARE = 0.02
RECONCILE_S = 0.020
#: a single-workload child may run this long past ``--seconds``: set-up
#: in 5 interpreters plus the last solve's overrun.
CHILD_GRACE_S = 150.0


def setup(name: str):
    """Import the solver stack, build the workload, warm up on its
    smallest spec.  Returns (workload, items, seconds taken)."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # the solver stack comes in with it

    repro_file = Path(sys.modules["repro"].__file__).resolve()
    if SRC not in repro_file.parents:
        raise RuntimeError(f"repro was imported from {repro_file}, not {SRC}")
    workload = workloads.WORKLOADS[name]
    items = workload.build()
    # "Smallest" by operations x partitions, which the model size tracks.
    smallest = min(items, key=lambda item: (
        item.spec.graph.num_operations * item.spec.n_partitions, item.key))
    smallest.partitioner.partition_spec(smallest.spec)
    return workload, items, perf_counter() - start


def setup_in_child(name: str) -> float:
    """:func:`setup` timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", name],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


class Loop:
    """What one timed loop measured and found."""

    def __init__(self, items, expected) -> None:
        self.expected = expected
        #: untraced solves started per spec, whether or not they raised.
        self.untraced = {item.key: 0 for item in items}
        self.times = {item.key: [] for item in items}
        self.traced_times = {item.key: [] for item in items}
        self.traces = {item.key: [] for item in items}
        self.signatures = {item.key: set() for item in items}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def solve(self, item, tracer=None) -> None:
        """Solve ``item`` once, timed, traced when ``tracer`` is given."""
        import answers
        import spans

        self.attempted += 1
        if tracer is None:
            self.untraced[item.key] += 1
        solve = item.partitioner.partition_spec
        try:
            if tracer is None:
                start = perf_counter()
                outcome = solve(item.spec)
                elapsed = perf_counter() - start
            else:
                with spans.installed(tracer):
                    start = perf_counter()
                    outcome = tracer.call(spans.ROOT, solve, item.spec)
                    elapsed = perf_counter() - start
        except Exception:  # a raise is a failed operation, not a crash
            if tracer is not None:
                tracer.take()  # drop the failed solve's partial spans
            self.failed += 1
            self.problems.append(f"{item.key}: raised\n{traceback.format_exc()}")
            return
        if tracer is None:
            self.times[item.key].append(elapsed)
        else:
            self.traced_times[item.key].append(elapsed)
            flat = tracer.take()
            flat["core.formulation.vars"] = outcome.model_stats["vars"]
            flat["core.formulation.rows"] = outcome.model_stats["constraints"]
            self.traces[item.key].append(flat)
        self.signatures[item.key].add(answers.signature(outcome))
        found = answers.check_outcome(outcome, self.expected[item.key])
        if found:
            self.failed += 1
            self.problems += [f"{item.key}: {p}" for p in found]


def spec_times(times) -> list:
    """Each spec's time: its fastest timed solve in the run.

    Interference on a shared host only ever adds time, in bursts of
    seconds to minutes; the fastest of a spec's ~8 solves is the
    estimate of its cost that such bursts move least (README,
    "Stability and bounds").  A spec whose every solve raised has no
    time; its raises already make the run incorrect.
    """
    return [min(t) for t in times.values() if t]


def end_to_end(loop, setup_samples) -> dict:
    """Every :data:`END_TO_END` value of an untraced loop."""
    import answers

    per_spec = spec_times(loop.times)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(per_spec),
        "spec_p50_s": statistics.median(per_spec) if per_spec else 0.0,
        "decided_share": statistics.mean(
            bool(sigs) and all(sig[0] in answers.DECIDED for sig in sigs)
            for sigs in loop.signatures.values()
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timed_loop(items, expected, seconds, rng, min_samples, tracer=None) -> Loop:
    """Solve specs in seeded random passes until ``seconds`` are up and
    every spec has had ``min_samples`` untraced solves.  A solve that
    raised counts, so a spec that always raises cannot keep the loop
    going.

    With a tracer every untraced solve is paired with a traced one, the
    pair's order flipping each pass, so the two sides see the same
    machine and the difference is the tracing overhead.
    """
    loop = Loop(items, expected)
    modes = [None] if tracer is None else [None, tracer]
    deadline = perf_counter() + seconds
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            if perf_counter() >= deadline and all(
                n >= min_samples for n in loop.untraced.values()
            ):
                return loop
            for mode in modes:
                loop.solve(item, mode)
        modes.reverse()


def per_pass(traces):
    """Per-spec mean of each traced quantity, summed over the specs."""
    totals = {}
    for records in traces.values():
        for key in set().union(*records):
            mean = sum(record.get(key, 0.0) for record in records) / len(records)
            totals[key] = totals.get(key, 0.0) + mean
    return totals


def trace_checks(workload, loop) -> list:
    """The traced solves' self-checks; returns what failed."""
    import spans

    problems = []
    seen = set()
    for key, records in loop.traces.items():
        for flat in records:
            seen |= spans.fired(flat)
            total = flat[f"{spans.ROOT}.s"]
            gap = flat[f"{spans.ROOT}.self_s"]
            if gap > max(RECONCILE_SHARE * total, RECONCILE_S):
                problems.append(
                    f"{key}: top-level spans miss {gap * 1000:.1f} ms "
                    f"of a {total * 1000:.1f} ms solve"
                )
    for name in workload.reaches:
        if name not in seen:
            problems.append(f"span {name} never fired on {workload.name}")
    for name in workload.skips:
        if name in seen:
            problems.append(f"span {name} fired on {workload.name}, which skips it")
    return problems


def run_workload(args) -> int:
    workload, items, setup_s = setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import answers
    import spans
    import workloads

    setup_samples = [setup_s]
    if not args.trace:
        setup_samples += [setup_in_child(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    expected = answers.expected_by_key(workloads.load_expected(args.workload), items)
    rng = random.Random(args.seed)

    if args.trace:
        loop = timed_loop(items, expected, args.seconds, rng, 1, spans.Tracer())
        traced, untraced = sum(spec_times(loop.traced_times)), sum(spec_times(loop.times))
        overhead = 100.0 * (traced / untraced - 1.0) if traced and untraced else 0.0
        values = spans.layer_metrics(per_pass(loop.traces), overhead)
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        checks = trace_checks(workload, loop)
    else:
        loop = timed_loop(items, expected, args.seconds, rng, MIN_SAMPLES)
        values = end_to_end(loop, setup_samples)
        units = {name: unit for name, unit, _ in END_TO_END}
        checks = []
    # Traced and untraced solves alike must give one (status, objective,
    # nodes) per spec, or the runs did not do the same work.
    problems = loop.problems + checks + [
        f"{key}: solves differ: {sorted(s)}"
        for key, s in loop.signatures.items() if len(s) > 1
    ]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    samples = [len(t) for t in loop.times.values()]
    print(f"# {workload.name}: seed {args.seed}, {len(items)} specs, "
          f"{min(samples)}-{max(samples)} untraced solves each, failed_share "
          f"{loop.failed / loop.attempted:.4f} ({loop.failed}/{loop.attempted})")
    for name, value in values.items():
        print(f"{name:<44} {value:14.6f} {units[name]}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if correct else 1


def run_child(args, name, seed, trace):
    """One single-workload run in a fresh interpreter; its result, or
    None when it timed out or printed no result."""
    command = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=args.seconds + CHILD_GRACE_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"FAIL {name}: run took over {args.seconds + CHILD_GRACE_S:.0f} s",
              file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"FAIL {name}: run printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        result["correct"] = False
    return result


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def run_suite(args) -> int:
    """Every workload in a fresh interpreter; ``--repeat`` runs each K
    times, alternating the workload order, at seeds seed..seed+K-1."""
    runs = {name: [] for name in WORKLOAD_NAMES}
    ok = True
    for i in range(args.repeat):
        order = WORKLOAD_NAMES if i % 2 == 0 else tuple(reversed(WORKLOAD_NAMES))
        for name in order:
            result = run_child(args, name, args.seed + i, 0)
            ok &= result is not None and result["correct"]
            if result is not None:
                runs[name].append(result["metrics"])
    if args.trace:
        for name in WORKLOAD_NAMES:
            result = run_child(args, name, args.seed, 1)
            ok &= result is not None and result["correct"]
    print(f"\n# end-to-end, {args.repeat} run(s) per workload: median [spread]")
    for name, results in runs.items():
        print(f"## {name}")
        if not results:
            print("no result")
            continue
        for metric, unit, _ in END_TO_END:
            values = [r[metric]["value"] for r in results]
            print(f"{metric:<16} {statistics.median(values):12.6f} {unit:<6} "
                  f"[{spread(values):.4f}]")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload without --workload")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no solver sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
