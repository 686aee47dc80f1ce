"""Typed batch jobs: specs in, classified results out.

A batch is a list of :class:`JobSpec` — one solve of one
:class:`~repro.core.spec.ProblemSpec`-shaped instance — and produces
one :class:`JobResult` per job, whose :class:`JobOutcome` classifies
*how the worker process fared*, orthogonally to the solver's own
:class:`~repro.ilp.solution.SolveStatus`:

========== ==========================================================
OK          the worker ran the solve to a normal outcome (optimal,
            feasible, *proven infeasible*, or a clean limit expiry —
            all legitimate answers)
DEGRADED    the solve completed but only via the partitioner's
            heuristic-fallback rescue (``outcome.degraded``)
TIMEOUT     the worker blew its wall-clock or CPU budget and was
            killed (watchdog SIGKILL or kernel ``RLIMIT_CPU``)
OOM         the worker exceeded its memory cap (``MemoryError`` under
            ``RLIMIT_AS``, or SIGKILL under a memory cap)
CRASH       the worker died any other way (unhandled exception,
            segfault, protocol violation)
INVALID_SPEC the job's specification was rejected before solving
            (malformed JSON/schema, impossible parameters)
SKIPPED     the job never ran: its spec class's circuit breaker was
            open when the job came up for dispatch
========== ==========================================================

Job *sources* are declarative so a manifest fully determines the batch:
a spec file path, a paper-graph number, a random-generator config, or
a **drill** — a tiny self-test job (sleep / busy loop / memory hog /
hard crash) used to verify, on the actual deployment machine, that the
isolation machinery really contains each failure mode.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ManifestError, SpecificationError
from repro.library.catalogs import DEFAULT_MIX
from repro.runner.limits import ResourceLimits
from repro.target.fpga import DEFAULT_DEVICE, resolve_device

if TYPE_CHECKING:
    from repro.core.partitioner import TemporalPartitioner
    from repro.core.spec import ProblemSpec
    from repro.graph.taskgraph import TaskGraph

#: Manifest schema identifier; bump on incompatible layout changes.
MANIFEST_SCHEMA = "repro.batch_manifest/v1"

#: Formulation flags a job carries under ``options``.
OPTION_FLAGS = ("base_model", "fortet", "plain_search")

#: Drill modes the worker knows how to execute without a solver.
DRILL_MODES = ("ok", "sleep", "busy_loop", "hog_memory", "segfault")


class JobOutcome(enum.Enum):
    """How a worker process fared (see module docstring for the table)."""

    OK = "OK"
    DEGRADED = "DEGRADED"
    TIMEOUT = "TIMEOUT"
    OOM = "OOM"
    CRASH = "CRASH"
    INVALID_SPEC = "INVALID_SPEC"
    SKIPPED = "SKIPPED"

    @property
    def is_retryable(self) -> bool:
        """Whether a retry policy may resubmit this outcome.

        Only process-level deaths are plausibly transient; a DEGRADED
        solve already produced an answer, and INVALID_SPEC can never
        improve by retrying.
        """
        return self in (JobOutcome.CRASH, JobOutcome.TIMEOUT)

    @property
    def counts_as_failure(self) -> bool:
        """Whether the circuit breaker counts this outcome against the class."""
        return self in (
            JobOutcome.TIMEOUT, JobOutcome.OOM,
            JobOutcome.CRASH, JobOutcome.INVALID_SPEC,
        )


@dataclass(frozen=True)
class JobSpec:
    """One solve job, fully described by plain data.

    ``source`` declares where the task graph comes from::

        {"kind": "file",  "path": "specs/g1.json"}
        {"kind": "inline", "data": {...task-graph dict...}}
        {"kind": "paper", "number": 3}
        {"kind": "random", "config": {"n_tasks": 4, "n_ops": 9, "seed": 7}}
        {"kind": "drill", "mode": "busy_loop", "seconds": 60}

    ``inline`` carries the spec dict itself — the solve service accepts
    specs over HTTP and has no file to point at.

    ``spec_class`` groups jobs for the circuit breaker (defaults to a
    name derived from the source).  ``options`` carries formulation
    flags (:data:`OPTION_FLAGS`) verbatim.

    Every entry point describes a solve this way: the CLI, ``repro
    lint``, and the batch and service workers.  :meth:`partitioner` and
    :meth:`solve_inputs` are the one translation into solver inputs.
    """

    index: int
    source: "Dict[str, object]"
    mix: str = DEFAULT_MIX
    n_partitions: "Optional[int]" = None
    relaxation: int = 0
    device: str = DEFAULT_DEVICE
    memory: "Optional[int]" = None
    time_limit_s: "Optional[float]" = 60.0
    node_limit: "Optional[int]" = None
    options: "Dict[str, bool]" = field(default_factory=dict)
    branching: "Optional[str]" = None
    spec_class: str = ""
    limits: ResourceLimits = field(default_factory=ResourceLimits)

    def __post_init__(self) -> None:
        kind = self.source.get("kind")
        if kind not in ("file", "inline", "paper", "random", "drill"):
            raise ManifestError(f"job {self.index}: unknown source kind {kind!r}")
        if kind == "drill" and self.source.get("mode") not in DRILL_MODES:
            raise ManifestError(
                f"job {self.index}: unknown drill mode "
                f"{self.source.get('mode')!r} (use one of {DRILL_MODES})"
            )
        if not self.spec_class:
            object.__setattr__(self, "spec_class", self.default_spec_class())

    def default_spec_class(self) -> str:
        kind = self.source["kind"]
        if kind == "file":
            return Path(str(self.source.get("path", "spec"))).stem
        if kind == "inline":
            data = self.source.get("data")
            if isinstance(data, dict) and isinstance(data.get("name"), str) \
                    and data["name"]:
                return str(data["name"])
            return "inline"
        if kind == "paper":
            return f"graph{self.source.get('number')}"
        if kind == "random":
            config = self.source.get("config", {})
            if isinstance(config, dict):
                return (
                    f"random-t{config.get('n_tasks')}-o{config.get('n_ops')}"
                )
            return "random"
        return f"drill-{self.source.get('mode')}"

    @property
    def job_id(self) -> str:
        """Stable identifier used in the journal and scratch layout."""
        return f"j{self.index:04d}-{self.spec_class}"

    def as_dict(self) -> "Dict[str, object]":
        return {
            "index": self.index,
            "source": dict(self.source),
            "mix": self.mix,
            "n_partitions": self.n_partitions,
            "relaxation": self.relaxation,
            "device": self.device,
            "memory": self.memory,
            "time_limit_s": self.time_limit_s,
            "node_limit": self.node_limit,
            "options": dict(self.options),
            "branching": self.branching,
            "spec_class": self.spec_class,
            "limits": self.limits.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: "Dict[str, object]") -> "JobSpec":
        """A job from the :meth:`as_dict` layout, each field coerced to its type."""
        def optional(key, kind):
            return None if data.get(key) is None else kind(data[key])

        try:
            return cls(
                index=int(data["index"]),  # type: ignore[arg-type]
                source=dict(data["source"]),  # type: ignore[arg-type]
                mix=str(data.get("mix", DEFAULT_MIX)),
                n_partitions=optional("n_partitions", int),
                relaxation=int(data.get("relaxation", 0)),  # type: ignore[arg-type]
                device=str(data.get("device", DEFAULT_DEVICE)),
                memory=optional("memory", int),
                time_limit_s=optional("time_limit_s", float),
                node_limit=optional("node_limit", int),
                options={
                    str(k): bool(v)
                    for k, v in dict(data.get("options", {})).items()  # type: ignore[arg-type]
                },
                branching=optional("branching", str),
                spec_class=str(data.get("spec_class", "")),
                limits=ResourceLimits.from_dict(dict(data.get("limits", {}))),  # type: ignore[arg-type]
            )
        except ManifestError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(
                f"job {data.get('index')}: malformed job description: {exc}"
            ) from exc

    def partitioner(self, **extras) -> "TemporalPartitioner":
        """A partitioner for this job's device, memory, formulation
        options, branching rule and limits.

        ``extras`` are :class:`~repro.core.partitioner.TemporalPartitioner`
        keywords a job does not carry: the CLI's backend, heuristics,
        chaos plan, checkpoint, proof log and trace callbacks, or the
        worker's checkpoint.  Raises
        :class:`~repro.errors.SpecificationError` on an unknown device
        or branching rule.
        """
        from repro.core.formulation import FormulationOptions
        from repro.core.partitioner import TemporalPartitioner
        from repro.ilp.branching import RULES
        from repro.target.memory import ScratchMemory

        branching = self.branching or "paper"
        if branching not in RULES:
            raise SpecificationError(
                f"unknown branching rule {branching!r} (known: {sorted(RULES)})"
            )
        return TemporalPartitioner(
            device=resolve_device(self.device),
            memory=None if self.memory is None else ScratchMemory(self.memory),
            options=FormulationOptions(
                tighten=not self.options.get("base_model", False),
                linearization="fortet" if self.options.get("fortet") else "glover",
            ),
            branching=branching,
            time_limit_s=self.time_limit_s,
            node_limit=self.node_limit,
            plain_search=bool(self.options.get("plain_search", False)),
            **extras,
        )

    def solve_inputs(self, **extras) -> "Tuple[TemporalPartitioner, ProblemSpec]":
        """The partitioner (see :meth:`partitioner`) and the spec it solves.

        Raises a :class:`~repro.errors.ReproError` subclass on a source,
        mix, device or branching rule that names nothing, or on a spec
        proven infeasible before the model is built.
        """
        partitioner = self.partitioner(**extras)
        spec = partitioner.make_spec(
            build_graph(self.source), self.mix, self.n_partitions, self.relaxation
        )
        return partitioner, spec

    def with_shrunk_budget(self, shrink: float) -> "JobSpec":
        """A retry copy with time/node budgets scaled down by ``shrink``.

        Retries of a TIMEOUT must not simply re-run the same hopeless
        budget; composing with the worker's B&B checkpoint (which the
        retry resumes) a shrunken budget still makes net progress.
        """
        return replace(
            self,
            time_limit_s=(
                None if self.time_limit_s is None
                else max(1.0, self.time_limit_s * shrink)
            ),
            node_limit=(
                None if self.node_limit is None
                else max(1, int(self.node_limit * shrink))
            ),
        )


def build_graph(source: "Dict[str, object]") -> "TaskGraph":
    """Materialize a job source's task graph; SpecificationError on bad input."""
    kind = source.get("kind")
    if kind == "file":
        from repro.graph.io import load_task_graph

        path = str(source["path"])
        try:
            return load_task_graph(path)
        except OSError as exc:
            # An unreadable spec file is a bad *specification*, not a
            # worker fault — the job classifies INVALID_SPEC.
            raise SpecificationError(f"cannot read spec file {path}: {exc}") from exc
        except ValueError as exc:  # json.JSONDecodeError subclasses ValueError
            raise SpecificationError(f"spec file {path} is not valid JSON: {exc}") from exc
    if kind == "inline":
        from repro.graph.io import task_graph_from_dict

        data = source.get("data")
        if not isinstance(data, dict):
            raise SpecificationError(
                f"inline source needs a spec dict under 'data', got "
                f"{type(data).__name__}"
            )
        # Defense in depth: the service guards admission with (usually
        # stricter) limits, but the worker re-applies the default caps
        # so an inline job reaching it any other way is still bounded.
        return task_graph_from_dict(data)
    if kind == "paper":
        from repro.graph.generators import paper_graph

        try:
            number = int(source["number"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            raise SpecificationError(
                f"bad paper-graph number: {source.get('number')!r}"
            ) from None
        return paper_graph(number)
    if kind == "random":
        from repro.graph.generators import RandomGraphConfig, random_task_graph

        config = source.get("config")
        if not isinstance(config, dict):
            raise SpecificationError("random source needs a config object")
        allowed = {
            "n_tasks", "n_ops", "seed", "max_task_preds", "intra_edge_prob",
            "intra_chain_prob", "extra_task_edge_prob", "cluster_skew",
            "pred_locality",
        }
        unknown = set(config) - allowed
        if unknown:
            raise SpecificationError(
                f"unknown random-generator keys: {sorted(unknown)}"
            )
        try:
            return random_task_graph(RandomGraphConfig(**config))
        except TypeError as exc:
            raise SpecificationError(f"bad random-generator config: {exc}") from exc
    raise SpecificationError(f"unknown job source kind: {kind!r}")


@dataclass(frozen=True)
class JobResult:
    """The classified outcome of one job (after all retry attempts).

    ``solve`` holds the deterministic slice of the solver's summary row
    (status/objective/bound/gap/degradation provenance) when the worker
    got far enough to produce one; ``error`` the failure detail
    otherwise.  ``timing`` is the *only* nondeterministic field
    (durations, pid, attempt wall-times) — journal comparisons and the
    batch summary exclude it wholesale.
    """

    index: int
    job_id: str
    spec_class: str
    outcome: JobOutcome
    attempts: int = 1
    solve: "Optional[Dict[str, object]]" = None
    error: "Optional[str]" = None
    limit_notes: "List[str]" = field(default_factory=list)
    artifacts: "Dict[str, str]" = field(default_factory=dict)
    timing: "Dict[str, object]" = field(default_factory=dict)

    def as_dict(self) -> "Dict[str, object]":
        return {
            "index": self.index,
            "job_id": self.job_id,
            "spec_class": self.spec_class,
            "outcome": self.outcome.value,
            "attempts": self.attempts,
            "solve": None if self.solve is None else dict(self.solve),
            "error": self.error,
            "limit_notes": list(self.limit_notes),
            "artifacts": dict(self.artifacts),
            "timing": dict(self.timing),
        }

    @classmethod
    def from_dict(cls, data: "Dict[str, object]") -> "JobResult":
        return cls(
            index=int(data["index"]),  # type: ignore[arg-type]
            job_id=str(data["job_id"]),
            spec_class=str(data["spec_class"]),
            outcome=JobOutcome(str(data["outcome"])),
            attempts=int(data.get("attempts", 1)),  # type: ignore[arg-type]
            solve=(
                None if data.get("solve") is None
                else dict(data["solve"])  # type: ignore[arg-type]
            ),
            error=None if data.get("error") is None else str(data["error"]),
            limit_notes=[str(n) for n in data.get("limit_notes", [])],  # type: ignore[union-attr]
            artifacts={
                str(k): str(v)
                for k, v in dict(data.get("artifacts", {})).items()  # type: ignore[arg-type]
            },
            timing=dict(data.get("timing", {})),  # type: ignore[arg-type]
        )

    def summary_row(self) -> "Dict[str, object]":
        """Deterministic one-row view for the batch summary table.

        Excludes ``timing`` by construction so two runs of the same
        batch — at any concurrency, interrupted or not — summarize
        byte-identically.
        """
        solve = self.solve or {}
        return {
            "job": self.index,
            "job_id": self.job_id,
            "class": self.spec_class,
            "outcome": self.outcome.value,
            "attempts": self.attempts,
            "status": solve.get("status"),
            "feasible": solve.get("feasible"),
            "objective": solve.get("objective"),
            "gap": solve.get("gap"),
            "degraded": solve.get("degraded"),
            "fallback": solve.get("fallback"),
            "degradation_cause": solve.get("degradation_cause"),
            "error": self.error,
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Job-level retry of CRASH/TIMEOUT outcomes.  Off by default.

    ``backoff_s`` doubles per attempt; ``budget_shrink`` scales the
    retry's time/node budget (see :meth:`JobSpec.with_shrunk_budget`).
    """

    max_retries: int = 0
    backoff_s: float = 0.5
    budget_shrink: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ManifestError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ManifestError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if not 0.0 < self.budget_shrink <= 1.0:
            raise ManifestError(
                f"budget_shrink must be in (0, 1], got {self.budget_shrink}"
            )

    def wants_retry(self, outcome: JobOutcome, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) should be retried."""
        return outcome.is_retryable and attempt <= self.max_retries

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry attempt ``attempt`` (1-based retries)."""
        return self.backoff_s * (2 ** max(0, attempt - 1))


class CircuitBreaker:
    """Per-spec-class consecutive-failure breaker.

    After ``threshold`` consecutive failure-class outcomes (TIMEOUT /
    OOM / CRASH / INVALID_SPEC) for one ``spec_class``, the breaker
    opens and subsequent jobs of that class are SKIPPED instead of
    dispatched — a sweep with one pathological spec family stops
    burning its budget on it.  Any non-failure outcome closes the
    class's breaker again.

    Counters are updated from results *in job-index order* (the pool
    feeds them through its in-order finalization pipeline), so the
    breaker's view is deterministic; under ``--jobs N`` a job already
    in flight when its class trips still runs to completion — skips
    apply only to not-yet-dispatched jobs.
    """

    def __init__(self, threshold: "Optional[int]" = None) -> None:
        if threshold is not None and threshold < 1:
            raise ManifestError(f"breaker threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._consecutive: "Dict[str, int]" = {}

    def record(self, result: JobResult) -> None:
        if result.outcome is JobOutcome.SKIPPED:
            return  # skips are a breaker *consequence*, not evidence
        if result.outcome.counts_as_failure:
            self._consecutive[result.spec_class] = (
                self._consecutive.get(result.spec_class, 0) + 1
            )
        else:
            self._consecutive[result.spec_class] = 0

    def is_open(self, spec_class: str) -> bool:
        if self.threshold is None:
            return False
        return self._consecutive.get(spec_class, 0) >= self.threshold

    def state(self) -> "Dict[str, int]":
        return dict(self._consecutive)


# ----------------------------------------------------------------------
# manifests


def _job_from_entry(
    index: int, entry: "Dict[str, object]", defaults: "Dict[str, object]",
) -> JobSpec:
    if not isinstance(entry, dict):
        raise ManifestError(f"job {index}: entry must be an object, got {type(entry).__name__}")
    merged: "Dict[str, object]" = dict(defaults)
    merged.update(entry)

    sources = [k for k in ("graph", "paper_graph", "random", "drill") if k in merged]
    if len(sources) != 1:
        raise ManifestError(
            f"job {index}: exactly one of graph/paper_graph/random/drill "
            f"required, got {sources or 'none'}"
        )
    kind = sources[0]
    if kind == "graph":
        source: "Dict[str, object]" = {"kind": "file", "path": str(merged.pop("graph"))}
    elif kind == "paper_graph":
        source = {"kind": "paper", "number": merged.pop("paper_graph")}
    elif kind == "random":
        config = merged.pop("random")
        if not isinstance(config, dict):
            raise ManifestError(f"job {index}: 'random' must be a generator config object")
        source = {"kind": "random", "config": config}
    else:
        drill = merged.pop("drill")
        source = {"kind": "drill", "mode": drill}
        for key in ("seconds", "megabytes"):
            if key in merged:
                source[key] = merged.pop(key)

    options = {name: merged.pop(name) for name in OPTION_FLAGS if name in merged}
    limits = {
        name: merged.pop(name)
        for name in ("memory_limit_mb", "cpu_limit_s", "wall_limit_s")
        if name in merged
    }
    known = {
        "mix", "n_partitions", "relaxation", "device", "memory",
        "time_limit_s", "node_limit", "branching", "spec_class",
    }
    unknown = set(merged) - known
    if unknown:
        raise ManifestError(f"job {index}: unknown manifest keys {sorted(unknown)}")
    return JobSpec.from_dict(
        {**merged, "index": index, "source": source, "options": options, "limits": limits}
    )


def load_manifest(data: "Dict[str, object] | str | Path") -> "List[JobSpec]":
    """Parse a batch manifest (dict, JSON string path, or Path) into jobs.

    Raises :class:`~repro.errors.ManifestError` on every malformation —
    the orchestrator never starts a half-understood batch.
    """
    if isinstance(data, (str, Path)):
        path = Path(data)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest {path} is not valid JSON: {exc}") from exc
    if isinstance(data, list):
        data = {"schema": MANIFEST_SCHEMA, "jobs": data}
    if not isinstance(data, dict):
        raise ManifestError("manifest must be a JSON object or a job list")
    schema = data.get("schema", MANIFEST_SCHEMA)
    if schema != MANIFEST_SCHEMA:
        raise ManifestError(
            f"unsupported manifest schema {schema!r} (expected {MANIFEST_SCHEMA!r})"
        )
    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ManifestError("manifest 'defaults' must be an object")
    jobs_data = data.get("jobs")
    if not isinstance(jobs_data, list) or not jobs_data:
        raise ManifestError("manifest 'jobs' must be a non-empty list")
    return [
        _job_from_entry(index, entry, defaults)
        for index, entry in enumerate(jobs_data)
    ]


def manifest_digest(jobs: "List[JobSpec]") -> str:
    """SHA-256 over the canonical job list.

    Stamped into the journal header so ``--resume`` against a journal
    from a *different* batch is refused instead of silently merged.
    """
    canonical = json.dumps(
        [job.as_dict() for job in jobs], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def drill_manifest() -> "List[JobSpec]":
    """The built-in isolation fire drill (``repro batch --drill``).

    One job per failure mode, each with tight limits, plus healthy
    sentinels on both sides — a machine where this batch does not come
    back ``OK, OOM, TIMEOUT, CRASH, OK`` cannot be trusted to contain
    real pathological instances.
    """
    return load_manifest([
        {"drill": "ok", "spec_class": "sentinel"},
        {"drill": "hog_memory", "megabytes": 512, "memory_limit_mb": 128},
        {"drill": "busy_loop", "seconds": 60, "wall_limit_s": 2.0},
        {"drill": "segfault"},
        {"drill": "ok", "spec_class": "sentinel"},
    ])
