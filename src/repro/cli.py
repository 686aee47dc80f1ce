"""Command-line interface: partition a specification end to end.

Usage examples::

    # the paper's graph 1, Table-3 row 2:
    python -m repro.cli --paper-graph 1 --mix 2A+2M+1S -N 3 -L 1

    # a saved specification on a chosen device:
    python -m repro.cli --graph myspec.json --mix 1A+1M+1S \\
        --device xc4005 --memory 16 -L 2 --branching paper

    # export the ILP instead of solving it:
    python -m repro.cli --paper-graph 1 --mix 2A+2M+1S -N 2 -L 2 \\
        --dump-lp model.lp

    # statically analyze a spec without solving (exit 0 clean,
    # 1 warnings, 2 errors or proven infeasible):
    python -m repro.cli lint --graph myspec.json --mix 1A+1M+1S \\
        --device xc4005 --format json

    # certified solve: log a branch-and-bound proof, then verify it
    # with the independent exact-arithmetic checker (exit 0 certified,
    # 1 certified with forfeitures, 2 refuted):
    python -m repro.cli --paper-graph 1 --mix 2A+2M+1S -N 3 -L 1 \\
        --proof run.proof.jsonl
    python -m repro.cli audit run.proof.jsonl

    # triage (and repair) damaged durable artifacts in a run dir —
    # journals, checkpoints, proof logs, telemetry, baselines (exit 0
    # clean, 1 repairable, 2 corrupt):
    python -m repro.cli doctor runs/ --repair
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

from repro.errors import ReproError, SpecificationError
from repro.graph.generators import paper_graph
from repro.graph.io import load_task_graph
from repro.ilp.branching import RULES
from repro.ilp.resilience import FAULT_KINDS, FaultPlan
from repro.ilp.lp_io import write_lp_format
from repro.library.catalogs import DEFAULT_MIX
from repro.target.fpga import DEFAULT_DEVICE
from repro.core.formulation import build_model
from repro.runner.jobs import OPTION_FLAGS, JobSpec


def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags that name a spec: graph, FU mix, N, L, device, memory
    and formulation (shared by the solve and lint parsers)."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--graph", help="path to a task-graph JSON file (see repro.graph.io)"
    )
    source.add_argument(
        "--paper-graph", type=int, choices=range(1, 7), metavar="1..6",
        help="one of the paper's regenerated experimental graphs",
    )
    parser.add_argument(
        "--mix", required=True,
        help="FU mix in the paper's notation, e.g. 2A+2M+1S",
    )
    parser.add_argument(
        "-N", "--partitions", type=int, default=None,
        help="partition bound N (default: estimate heuristically)",
    )
    parser.add_argument(
        "-L", "--relaxation", type=int, default=0,
        help="latency relaxation L over the critical path (default 0)",
    )
    parser.add_argument(
        "--device", default=DEFAULT_DEVICE,
        help="device name from the catalog, or CAPACITY[:ALPHA]",
    )
    parser.add_argument(
        "--memory", type=int, default=None,
        help="scratch memory Ms in data units (default: unbounded)",
    )
    parser.add_argument(
        "--base-model", action="store_true",
        help="use the untightened Section-5 formulation",
    )
    parser.add_argument(
        "--fortet", action="store_true",
        help="use Fortet's linearization instead of Glover's",
    )


def job_from_args(args: argparse.Namespace, **fields) -> JobSpec:
    """The solve request the :func:`add_spec_arguments` flags describe;
    ``fields`` are further :class:`JobSpec` fields."""
    source = (
        {"kind": "paper", "number": args.paper_graph}
        if args.paper_graph is not None
        else {"kind": "file", "path": args.graph}
    )
    return JobSpec(
        index=0,
        source=source,
        mix=args.mix,
        n_partitions=args.partitions,
        relaxation=args.relaxation,
        device=args.device,
        memory=args.memory,
        options={flag: getattr(args, flag, False) for flag in OPTION_FLAGS},
        **fields,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tps",
        description="Optimal temporal partitioning and synthesis "
        "(Kaul & Vemuri, DATE 1998).",
    )
    add_spec_arguments(parser)
    parser.add_argument(
        "--branching", default="paper", choices=sorted(RULES),
        help="branch-and-bound variable selection rule",
    )
    parser.add_argument(
        "--backend", default="bnb", choices=["bnb", "milp"],
        help="solver backend (in-repo branch and bound, or SciPy HiGHS)",
    )
    parser.add_argument(
        "--heuristics", action="store_true",
        help="enable the primal heuristics (LP diving + incumbent "
             "polishing); every heuristic point is audited with "
             "verify_design before adoption (requires --backend bnb)",
    )
    parser.add_argument(
        "--plain-search", action="store_true",
        help="disable the search accelerators (raw 1998-style B&B)",
    )
    parser.add_argument(
        "--time-limit", type=float, default=300.0,
        help="solver time limit in seconds (default 300)",
    )
    parser.add_argument(
        "--dump-lp", metavar="FILE",
        help="write the model in LP format and exit without solving",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the outcome as JSON instead of a text report",
    )
    parser.add_argument(
        "--verbose-solve", action="store_true",
        help="live branch-and-bound trace on stderr "
        "(incumbents and periodic node progress)",
    )
    parser.add_argument(
        "--trace-every", type=int, default=100, metavar="N",
        help="with --verbose-solve, print node progress every N nodes "
        "(default 100)",
    )
    parser.add_argument(
        "--telemetry", metavar="FILE",
        help="write the per-run solve-telemetry JSON artifact to FILE",
    )
    resilience = parser.add_argument_group(
        "resilience",
        "LP-fault injection (chaos testing) and search checkpointing; "
        "see DESIGN.md section 9",
    )
    resilience.add_argument(
        "--chaos-faults", metavar="KINDS",
        help="inject LP-backend faults: comma-separated subset of "
        f"{{{','.join(FAULT_KINDS)}}}",
    )
    resilience.add_argument(
        "--chaos-rate", type=float, default=0.25, metavar="P",
        help="per-call fault injection probability (default 0.25)",
    )
    resilience.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="fault-injection RNG seed; same seed => same fault "
        "sequence (default 0)",
    )
    resilience.add_argument(
        "--chaos-all-backends", action="store_true",
        help="inject faults into every backend in the chain, not just "
        "the primary",
    )
    resilience.add_argument(
        "--checkpoint", metavar="FILE",
        help="periodically save the branch-and-bound state to FILE "
        "(atomic write); resume from it automatically when it exists",
    )
    resilience.add_argument(
        "--checkpoint-every", type=int, default=256, metavar="N",
        help="nodes between periodic checkpoint saves (default 256)",
    )
    resilience.add_argument(
        "--proof", metavar="FILE",
        help="append a repro.bnb_proof/v1 certificate log of the "
        "branch-and-bound tree to FILE; verify it afterwards with "
        "'repro-tps audit FILE' "
        "(requires --backend bnb)",
    )
    return parser


def make_solve_trace(trace_every: int):
    """Build (on_node, on_incumbent) callbacks printing to stderr.

    Incumbent improvements always print; node progress prints every
    ``trace_every`` nodes (the solver already decimates, so the hook
    itself stays cheap).
    """

    def fmt(value) -> str:
        return "-" if value is None else f"{value:g}"

    def on_node(event) -> None:
        print(
            f"[bnb] t={event.wall_time_s:8.2f}s nodes={event.nodes_explored:>7}"
            f" open={event.open_nodes:>5} depth={event.depth:>4}"
            f" incumbent={fmt(event.incumbent_objective)}"
            f" bound={fmt(event.best_bound)} gap={fmt(event.gap)}",
            file=sys.stderr,
        )

    def on_incumbent(event) -> None:
        print(
            f"[bnb] t={event.wall_time_s:8.2f}s *** incumbent"
            f" objective={event.objective:g}"
            f" bound={fmt(event.bound)} gap={fmt(event.gap)}",
            file=sys.stderr,
        )

    return on_node, on_incumbent


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tps lint",
        description="Statically analyze a specification's 0-1 model "
        "without solving it: lint diagnostics, presolve reduction "
        "counts, and infeasibility certificates.  Exit status: 0 "
        "clean, 1 warnings, 2 errors or proven infeasible.",
    )
    add_spec_arguments(parser)
    parser.add_argument(
        "--no-presolve", action="store_true",
        help="lint only; skip the presolve reduction pass",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format (default text)",
    )
    return parser


def _lint_report(payload: "dict", as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    for cert in payload["certificates"]:
        print(f"error: infeasible ({cert['code']}): {cert['reason']}")
    for diag in payload["diagnostics"]:
        where = f" [{diag['constraint_tag']}]" if diag["constraint_tag"] else ""
        print(f"{diag['severity']}: {diag['code']}{where}: {diag['message']}")
    presolve = payload.get("presolve")
    if presolve is not None:
        print(
            f"presolve: {presolve['rows_removed']} rows removed, "
            f"{presolve['vars_fixed']} vars fixed, "
            f"{presolve['bounds_tightened']} bounds tightened, "
            f"{presolve['coeffs_tightened']} coefficients tightened "
            f"({presolve['rows_before']} -> {presolve['rows_after']} rows, "
            f"{presolve['nonzeros_before']} -> {presolve['nonzeros_after']} "
            f"nonzeros)"
        )
    counts = payload["severity_counts"]
    print(
        f"lint: {counts.get('error', 0)} errors, "
        f"{counts.get('warning', 0)} warnings, "
        f"{counts.get('info', 0)} notes"
    )


def lint_main(argv: "Optional[list]" = None) -> int:
    from repro.ilp.analysis import analyze_model
    from repro.core.precheck import precheck_graph, precheck_spec
    from repro.errors import InfeasibleSpecError

    args = build_lint_parser().parse_args(argv)
    as_json = args.format == "json"

    # Loaded unvalidated: precheck_graph reports cycles as certificates.
    if args.paper_graph is not None:
        graph = paper_graph(args.paper_graph)
    else:
        graph = load_task_graph(args.graph, validate=False)

    payload: "dict" = {
        "graph": graph.name,
        "certificates": [],
        "diagnostics": [],
        "severity_counts": {},
    }

    certificates = list(precheck_graph(graph))
    if not certificates:
        try:
            graph.validate()
        except SpecificationError as exc:
            raise SystemExit(f"malformed specification: {exc}") from exc
        job = job_from_args(args)
        try:
            partitioner = job.partitioner()
        except SpecificationError as exc:
            raise SystemExit(str(exc)) from exc
        try:
            spec = partitioner.make_spec(
                graph, job.mix, job.n_partitions, job.relaxation
            )
        except InfeasibleSpecError as exc:
            payload["certificates"] = [{
                "code": "task-exceeds-capacity",
                "reason": str(exc),
                "details": {},
            }]
            payload["exit_code"] = 2
            _lint_report(payload, as_json)
            return 2
        certificates.extend(precheck_spec(spec))
        model, _ = build_model(spec, partitioner.options)
        report = analyze_model(model, run_presolve=not args.no_presolve)
        certificates.extend(report.certificates)
        payload["model"] = dict(model.stats())
        payload["diagnostics"] = [d.as_dict() for d in report.diagnostics]
        if report.presolve is not None:
            payload["presolve"] = report.presolve.stats.as_dict()

    payload["certificates"] = [
        c if isinstance(c, dict) else c.as_dict() for c in certificates
    ]
    counts: "dict" = {}
    for diag in payload["diagnostics"]:
        counts[diag["severity"]] = counts.get(diag["severity"], 0) + 1
    payload["severity_counts"] = counts
    if payload["certificates"] or counts.get("error"):
        code = 2
    elif counts.get("warning"):
        code = 1
    else:
        code = 0
    payload["exit_code"] = code
    _lint_report(payload, as_json)
    return code


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tps batch",
        description="Batch solve runner with per-job process isolation: "
        "each solve runs in a worker subprocess under hard OS resource "
        "limits and a wall-clock watchdog; every outcome is classified "
        "(OK/DEGRADED/TIMEOUT/OOM/CRASH/INVALID_SPEC/SKIPPED) and "
        "recorded in a crash-only append-only journal.  Kill this "
        "process at any time and rerun with --resume: completed jobs "
        "are taken from the journal, never re-solved.  Exit status: 0 "
        "when every job ended OK or DEGRADED, 1 otherwise.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--manifest", metavar="FILE",
        help="batch manifest JSON (schema repro.batch_manifest/v1): "
        "{defaults: {...}, jobs: [{graph|paper_graph|random|drill, "
        "mix, n_partitions, relaxation, ...}]}",
    )
    source.add_argument(
        "--specs", nargs="+", metavar="SPEC.json",
        help="shorthand manifest: one job per task-graph JSON file, "
        "sharing the --mix/--device/... defaults below",
    )
    source.add_argument(
        "--drill", action="store_true",
        help="run the built-in isolation fire drill (one job per "
        "failure mode: OOM, hung worker, segfault, plus OK sentinels) "
        "to verify containment on this machine",
    )
    parser.add_argument(
        "--journal", default="batch_journal.jsonl", metavar="FILE",
        help="append-only JSONL job journal (default batch_journal.jsonl)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay the journal: skip completed jobs, re-queue "
        "in-flight ones",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="restart from scratch, discarding an existing journal",
    )
    parser.add_argument(
        "--scratch", metavar="DIR",
        help="per-job scratch directory (job files, checkpoints, "
        "telemetry; default <journal>.scratch/)",
    )
    parser.add_argument(
        "--summary", metavar="FILE",
        help="write the deterministic repro.batch_summary/v1 JSON here",
    )
    parser.add_argument(
        "--compact", action="store_true",
        help="compact the journal after the run (header + one final "
        "record per job, atomic replace)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="concurrent worker subprocesses (default 1)",
    )
    limits = parser.add_argument_group(
        "per-job resource limits (manifest values win over these)"
    )
    limits.add_argument(
        "--memory-limit-mb", type=int, default=None, metavar="MB",
        help="hard RLIMIT_AS address-space cap per worker",
    )
    limits.add_argument(
        "--cpu-limit", type=float, default=None, metavar="S",
        help="hard RLIMIT_CPU seconds per worker (kernel-enforced)",
    )
    limits.add_argument(
        "--wall-limit", type=float, default=None, metavar="S",
        help="wall-clock deadline per worker; past it the watchdog "
        "SIGKILLs the worker and the job classifies TIMEOUT",
    )
    robust = parser.add_argument_group("retry and circuit breaker")
    robust.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry CRASH/TIMEOUT jobs up to N times with backoff and "
        "a shrunken budget (default 0 = off); retried solves resume "
        "the killed attempt's B&B checkpoint",
    )
    robust.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="S",
        help="initial retry backoff, doubling per attempt (default 0.5)",
    )
    robust.add_argument(
        "--retry-shrink", type=float, default=0.5, metavar="F",
        help="time/node budget multiplier per retry (default 0.5)",
    )
    robust.add_argument(
        "--breaker", type=int, default=None, metavar="N",
        help="open a per-spec-class circuit breaker after N "
        "consecutive failures; later jobs of that class are SKIPPED "
        "(default: off)",
    )
    chaos = parser.add_argument_group(
        "I/O fault injection (chaos testing the storage layer); "
        "see DESIGN.md section 16"
    )
    chaos.add_argument(
        "--chaos-io", metavar="KINDS",
        help="inject orchestrator-side I/O faults at the artifact "
        "seam: comma-separated subset of "
        "{enospc,short-write,torn-line,fsync-raise,eio-read,"
        "bit-flip,rename-fail,tmp-litter}",
    )
    chaos.add_argument(
        "--chaos-io-rate", type=float, default=0.25, metavar="P",
        help="per-operation fault probability (default 0.25)",
    )
    chaos.add_argument(
        "--chaos-io-seed", type=int, default=0, metavar="SEED",
        help="fault RNG seed; same seed => same fault sequence "
        "(default 0)",
    )
    chaos.add_argument(
        "--chaos-io-limit", type=int, default=None, metavar="N",
        help="cap total injected I/O faults (default: unlimited)",
    )
    defaults = parser.add_argument_group(
        "solve defaults (for --specs jobs and manifest entries that "
        "omit them)"
    )
    defaults.add_argument("--mix", default=DEFAULT_MIX)
    defaults.add_argument("-N", "--partitions", type=int, default=None)
    defaults.add_argument("-L", "--relaxation", type=int, default=0)
    defaults.add_argument("--device", default=DEFAULT_DEVICE)
    defaults.add_argument("--memory", type=int, default=None)
    defaults.add_argument("--time-limit", type=float, default=60.0)
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="summary output format on stdout (default text)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-job progress lines on stderr",
    )
    return parser


def batch_main(argv: "Optional[list]" = None) -> int:
    from repro.reporting.tables import format_table
    from repro.runner import (
        BatchConfig,
        BatchRunner,
        JobOutcome,
        RetryPolicy,
        batch_summary,
        compact,
        drill_manifest,
        load_manifest,
    )
    from repro.runner.jobs import MANIFEST_SCHEMA

    args = build_batch_parser().parse_args(argv)
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")

    try:
        if args.drill:
            jobs = drill_manifest()
        else:
            cli_defaults = {
                "mix": args.mix,
                "n_partitions": args.partitions,
                "relaxation": args.relaxation,
                "device": args.device,
                "memory": args.memory,
                "time_limit_s": args.time_limit,
                "memory_limit_mb": args.memory_limit_mb,
                "cpu_limit_s": args.cpu_limit,
                "wall_limit_s": args.wall_limit,
            }
            cli_defaults = {k: v for k, v in cli_defaults.items() if v is not None}
            if args.specs:
                manifest = {
                    "schema": MANIFEST_SCHEMA,
                    "defaults": cli_defaults,
                    "jobs": [{"graph": path} for path in args.specs],
                }
                jobs = load_manifest(manifest)
            else:
                import json as _json
                from pathlib import Path as _Path

                try:
                    data = _json.loads(_Path(args.manifest).read_text())
                except OSError as exc:
                    raise SystemExit(f"cannot read manifest {args.manifest}: {exc}") from exc
                except _json.JSONDecodeError as exc:
                    raise SystemExit(
                        f"manifest {args.manifest} is not valid JSON: {exc}"
                    ) from exc
                if isinstance(data, dict):
                    merged = dict(cli_defaults)
                    merged.update(data.get("defaults", {}) or {})
                    data["defaults"] = merged
                jobs = load_manifest(data)
        retry = RetryPolicy(
            max_retries=args.retries,
            backoff_s=args.retry_backoff,
            budget_shrink=args.retry_shrink,
        )
        on_event = None
        if not args.quiet:
            def on_event(kind, payload):  # noqa: ANN001 - tiny adapter
                print(f"[batch] {kind}: " + " ".join(
                    f"{k}={v}" for k, v in payload.items()
                ), file=sys.stderr)
        runner = BatchRunner(
            jobs,
            journal_path=args.journal,
            scratch_dir=args.scratch,
            config=BatchConfig(
                concurrency=args.jobs,
                retry=retry,
                breaker_threshold=args.breaker,
            ),
            on_event=on_event,
        )
        io_plan = None
        if args.chaos_io:
            from repro.artifacts import IOFaultPlan

            try:
                io_plan = IOFaultPlan.from_cli(
                    args.chaos_io,
                    rate=args.chaos_io_rate,
                    seed=args.chaos_io_seed,
                    limit=args.chaos_io_limit,
                )
            except ValueError as exc:
                raise SystemExit(f"bad --chaos-io-* options: {exc}") from exc
        if io_plan is not None:
            from repro.artifacts import inject_io_faults

            with inject_io_faults(io_plan) as faulty:
                results = runner.run(resume=args.resume, overwrite=args.force)
                if args.compact:
                    compact(args.journal)
            if not args.quiet:
                print(
                    "[batch] chaos-io: "
                    f"injected={faulty.injected} ops={faulty.ops}",
                    file=sys.stderr,
                )
        else:
            results = runner.run(resume=args.resume, overwrite=args.force)
            if args.compact:
                compact(args.journal)
    except ReproError as exc:
        raise SystemExit(f"batch failed: {exc}") from exc

    summary = batch_summary(results)
    if args.summary:
        try:
            from pathlib import Path as _Path

            _Path(args.summary).write_text(
                json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            raise SystemExit(f"cannot write summary {args.summary!r}: {exc}") from exc
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        columns = [
            "job", "job_id", "outcome", "attempts", "status",
            "objective", "gap", "fallback", "error",
        ]
        rows = [
            [row.get(c) for c in columns] for row in summary["rows"]
        ]
        print(format_table([c.upper() for c in columns], rows))
        counts = summary["outcomes"]
        print("outcomes: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items())
        ))
    healthy = (JobOutcome.OK.value, JobOutcome.DEGRADED.value)
    return 0 if all(r.outcome.value in healthy for r in results) else 1


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at stderr for the duration of the block."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        os.dup2(2, 1)
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def main(argv: "Optional[list]" = None) -> int:
    arguments = list(argv) if argv is not None else sys.argv[1:]
    if arguments and arguments[0] == "lint":
        return lint_main(arguments[1:])
    if arguments and arguments[0] == "batch":
        return batch_main(arguments[1:])
    if arguments and arguments[0] == "audit":
        from repro.ilp.certify.audit import audit_main

        return audit_main(arguments[1:])
    if arguments and arguments[0] == "doctor":
        from repro.artifacts.doctor import doctor_main

        return doctor_main(arguments[1:])
    if arguments and arguments[0] == "serve":
        from repro.service.server import serve_main

        return serve_main(arguments[1:])
    args = build_parser().parse_args(arguments)

    if args.trace_every < 1:
        raise SystemExit(f"--trace-every must be >= 1, got {args.trace_every}")
    on_node = on_incumbent = None
    if args.verbose_solve:
        on_node, on_incumbent = make_solve_trace(args.trace_every)
    chaos = None
    if args.chaos_faults:
        try:
            chaos = FaultPlan.from_cli(
                args.chaos_faults,
                rate=args.chaos_rate,
                seed=args.chaos_seed,
                targets="all" if args.chaos_all_backends else "primary",
            )
        except ValueError as exc:
            raise SystemExit(f"bad --chaos-* options: {exc}") from exc
    if args.checkpoint_every < 1:
        raise SystemExit(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    job = job_from_args(args, time_limit_s=args.time_limit, branching=args.branching)
    try:
        partitioner, spec = job.solve_inputs(
            backend=args.backend,
            heuristics=args.heuristics,
            chaos=chaos,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            proof_path=args.proof,
            on_node=on_node,
            on_incumbent=on_incumbent,
            callback_every=args.trace_every if args.verbose_solve else 1,
        )
    except SpecificationError as exc:
        raise SystemExit(str(exc)) from exc

    if args.dump_lp:
        model, _ = build_model(spec, partitioner.options)
        write_lp_format(model, args.dump_lp)
        print(f"wrote {model.num_vars} vars / {model.num_constraints} "
              f"constraints to {args.dump_lp}")
        return 0

    # HiGHS writes debug lines straight to fd 1; under --json they
    # would land in front of the document.
    quiet = _stdout_to_stderr() if args.as_json else contextlib.nullcontext()
    with quiet:
        outcome = partitioner.partition_spec(spec)

    if args.as_json:
        payload = outcome.summary_row()
        if outcome.design is not None:
            payload["assignment"] = dict(outcome.design.assignment)
        print(json.dumps(payload, indent=2))
    else:
        row = outcome.summary_row()
        stats = outcome.solve_stats
        print(f"graph {row['graph']}: {row['tasks']} tasks, "
              f"{row['opers']} ops | N={row['N']} L={row['L']} "
              f"mix={args.mix}")
        print(f"model: {row['vars']} vars, {row['consts']} constraints")
        print(f"solve: {row['status']} in {row['runtime_s']}s "
              f"({stats.nodes_explored} nodes, {stats.lp_calls} LP calls)")
        if outcome.hit_limit and outcome.feasible:
            gap_text = (
                f"{outcome.gap:.4f}" if outcome.gap is not None else "unknown"
            )
            print(f"  limit hit ({stats.stop_reason}): best incumbent "
                  f"returned, optimality gap {gap_text} "
                  f"(bound {outcome.bound})")
        if outcome.degraded:
            rescue = (
                f"heuristic fallback '{outcome.fallback}' returned a "
                f"verified design"
                if outcome.fallback is not None
                else "no fallback design available"
            )
            print(f"  DEGRADED ({outcome.degradation_cause}): exact solve "
                  f"abandoned; {rescue}")
        if outcome.design is not None:
            print()
            print(outcome.design.report())

    if args.telemetry:
        from repro.reporting.export import save_telemetry

        try:
            save_telemetry(outcome, args.telemetry)
        except OSError as exc:
            raise SystemExit(
                f"cannot write telemetry file {args.telemetry!r}: {exc}"
            ) from exc
    return 0 if outcome.feasible or outcome.status.value == "infeasible" else 1


if __name__ == "__main__":
    sys.exit(main())
