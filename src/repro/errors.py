"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  The hierarchy mirrors the
major subsystems: specification/graph construction, component library
lookups, ILP modeling, solver execution, and solution decoding.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all exceptions raised by the repro library."""


class SpecificationError(ReproError):
    """A behavioral specification (task graph / DFG) is malformed.

    Raised for duplicate names, dangling edge endpoints, cycles in what
    must be a DAG, negative bandwidths, and similar structural issues.
    """


class SpecTooLargeError(SpecificationError):
    """An untrusted specification exceeds the parser's hard size caps.

    Raised by :func:`repro.graph.io.task_graph_from_dict` when a spec
    breaks the :class:`~repro.graph.io.GraphLimits` counting guard
    (tasks / operations / edges / name length).  A subclass of
    :class:`SpecificationError` so every existing ``INVALID_SPEC``
    classification still applies; the solve service maps it to HTTP
    413 instead of 400.
    """


class LibraryError(ReproError):
    """A component-library lookup or definition failed.

    Raised when an operation type has no implementing functional unit,
    when a functional unit is redefined inconsistently, or when cost
    metrics are out of range.
    """


class TargetError(ReproError):
    """A target-device description is invalid (capacity, alpha, memory)."""


class ModelError(ReproError):
    """An ILP model is being constructed or queried incorrectly.

    Raised for duplicate variable names, constraints referencing foreign
    variables, senses outside {<=, >=, ==}, and objective redefinition.
    """


class SolverError(ReproError):
    """The LP/ILP solution process itself failed (not mere infeasibility).

    Infeasibility and unboundedness are *statuses*, not errors; this
    exception signals numerical breakdown, iteration-limit exhaustion in
    a context where that is fatal, or backend misuse.
    """


class TransientSolverError(SolverError):
    """A solver fault that is plausibly recoverable by retrying.

    Raised for iteration-limit expiry (HiGHS ``linprog`` status 1),
    numerical trouble (status 4), ``scipy.milp`` status 4, and injected
    chaos faults.  Carries the backend name and the backend's raw
    status code so retry policies and fault logs can classify it.  The
    resilience layer (:mod:`repro.ilp.resilience`) retries these with
    backoff before falling through the backend chain; anything else
    derived from :class:`SolverError` is treated as non-transient and
    skips straight to the next backend.
    """

    def __init__(
        self,
        message: str,
        backend: str = "unknown",
        raw_status: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.raw_status = raw_status


class CheckpointError(SolverError):
    """A branch-and-bound checkpoint artifact is unusable.

    Raised when a ``--checkpoint`` file is missing, truncated, not
    JSON, empty, carries a foreign schema, fails the model
    fingerprint check, or decodes into an impossible search state.
    Carries the offending ``path`` and a short machine-readable
    ``cause`` (``"unreadable"``, ``"not-json"``, ``"bad-schema"``,
    ``"bad-fingerprint"``, ``"malformed"``) so callers can decide
    between refusing loudly (explicit :meth:`resume`) and falling
    back to a fresh solve with a warning (the partitioner's
    auto-resume).
    """

    def __init__(self, message: str, path: str = "", cause: str = "malformed") -> None:
        super().__init__(message)
        self.path = path
        self.cause = cause


class BackendChainExhausted(SolverError):
    """Every LP backend in the resilience chain failed on one call.

    Raised by :class:`repro.ilp.resilience.ResilientLPBackend` after
    retries, validation, and fallbacks are all spent.  The branch and
    bound treats it as an unresolvable node (branch without pruning /
    count toward the failure budget); the partitioner treats a solve
    that dies of it as a degradation cause.
    """


class DecodeError(ReproError):
    """A solver solution could not be decoded into a partitioned design.

    This generally indicates an internal inconsistency: the model said
    the solution was integer-feasible but the decoded assignment violates
    a structural expectation (e.g. an operation bound to no FU).
    """


class VerificationError(ReproError):
    """A decoded design violates the problem semantics.

    Raised by :func:`repro.core.verify.verify_design` when a design
    breaks uniqueness, precedence, memory, capacity, or exclusivity
    rules.  The message names the first violated rule.
    """


class RunnerError(ReproError):
    """The batch runner (:mod:`repro.runner`) was misused or broke down.

    Raised for malformed job descriptions, a journal that does not
    belong to the manifest being resumed, or worker-protocol
    violations the orchestrator cannot classify.  Job *outcomes*
    (OOM, TIMEOUT, CRASH, ...) are never exceptions — one job's death
    must not take the batch down — so this class covers only
    orchestrator-level faults.
    """


class ManifestError(RunnerError):
    """A batch manifest is malformed (schema, job entries, defaults)."""


class JournalWriteError(RunnerError):
    """A durable-journal append could not be made durable.

    Raised when the underlying ``write``/``flush``/``fsync`` fails
    (``ENOSPC``, a yanked disk, a revoked file descriptor).  Carries
    the journal ``path`` and the errno-ish ``cause`` string.  Consumers
    — the batch orchestrator and the solve service — must treat this as
    *the affected record's* failure, never as a process-fatal event:
    the job in question loses durability (and is failed or flagged
    accordingly) while the orchestrator/server stays alive.
    """

    def __init__(self, message: str, path: str = "", cause: str = "") -> None:
        super().__init__(message)
        self.path = path
        self.cause = cause


class JournalHeaderError(RunnerError):
    """A journal's header line is destroyed: no record can be trusted."""

    def __init__(self, path: object, cause: str) -> None:
        super().__init__(f"journal {path} header is corrupt ({cause})")
        self.cause = cause


class ArtifactError(ReproError):
    """A durable artifact could not be written or read back intact.

    The one storage-layer error (:mod:`repro.artifacts`): every
    artifact family — batch/service journals, B&B checkpoints, proof
    logs, telemetry exports, bench baselines — surfaces disk trouble
    through this type.  Carries the artifact ``path``, a typed
    ``cause`` from the closed vocabulary

    * ``"torn"`` — a partial line/file from an interrupted write that
      is *not* the tolerated final-line case;
    * ``"bit-rot"`` — content present but failing its CRC-32 record
      checksum (or undecodable bytes mid-file);
    * ``"bad-schema"`` — parseable but carrying a foreign/old schema
      envelope;
    * ``"bad-digest"`` — a snapshot whose whole-file SHA-256 does not
      match its embedded digest;
    * ``"stale-temp"`` — a leftover ``*.tmp`` from a crash between
      temp-write and rename;
    * ``"enospc"`` — the append/replace could not be made durable for
      lack of space;
    * ``"io"`` — any other OS-level read/write/rename/fsync failure;

    and ``detail``, the underlying errno-ish string when an
    :class:`OSError` was the trigger.  Consumers convert it to their
    domain error (``JournalWriteError``, ``CheckpointError``,
    ``ProofWriteError``) or quarantine-and-degrade; it must never
    escape as an unhandled traceback.
    """

    def __init__(
        self,
        message: str,
        path: str = "",
        cause: str = "io",
        detail: str = "",
    ) -> None:
        super().__init__(message)
        self.path = path
        self.cause = cause
        self.detail = detail


class ProofWriteError(SolverError):
    """A proof-log append could not be made durable.

    A :class:`SolverError` on purpose: the partitioner's degradation
    path already rescues those, so a run whose proof log hits ENOSPC
    degrades to an honest uncertified answer instead of dying on an
    unhandled ``OSError`` (the half-written log still audits as far as
    it goes — its tail is torn, which the reader tolerates).
    """

    def __init__(self, message: str, path: str = "", cause: str = "io") -> None:
        super().__init__(message)
        self.path = path
        self.cause = cause


class ServiceError(ReproError):
    """A solve-service request cannot be served, with an HTTP mapping.

    ``status`` is the HTTP status code the server should answer with;
    ``code`` is a stable machine-readable reason (``"shed-quota"``,
    ``"shed-queue-full"``, ``"invalid-request"``, ``"spec-too-large"``,
    ``"breaker-open"``, ``"draining"``, ``"journal-error"``, ...);
    ``retry_after_s`` is set when the condition is temporary and the
    client should back off (serialized as a ``Retry-After`` header).
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        code: str = "invalid-request",
        retry_after_s: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after_s = retry_after_s


class InfeasibleSpecError(ReproError):
    """A problem specification can be proven infeasible before solving.

    For example: an operation whose compatible FU cannot fit on the
    device even alone, or a latency bound below the critical path with
    no relaxation.
    """
