"""Request/response protocol of the solve service.

Everything that crosses the HTTP boundary is defined here: the
:class:`SolveRequest` schema (parsed strictly — the server never acts
on a half-understood request), the service-level formulation
fingerprint that keys the result cache, and a minimal HTTP/1.1
parser/serializer for the asyncio server (stdlib only; requests are
``Content-Length``-framed JSON, responses close the connection).

The fingerprint covers exactly the fields that determine the *answer*:
the task graph itself plus every formulation/search knob (mix, N, L,
device, memory, options, branching, node limit).  It deliberately
excludes tenant, priority, and deadline — who asked and how patiently
must not fragment the cache — which is also why only *proven* results
(optimal / infeasible, undegraded) are ever cached: a FEASIBLE answer
under a short deadline is not the answer a longer deadline would get.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError, SpecificationError, SpecTooLargeError
from repro.graph.io import GraphLimits, task_graph_from_dict
from repro.library.catalogs import DEFAULT_MIX
from repro.runner.jobs import OPTION_FLAGS
from repro.target.fpga import DEFAULT_DEVICE

#: Wire schema of request and response documents.
PROTOCOL_SCHEMA = "repro.service/v1"

#: Priorities are a small closed range: enough to say "interactive
#: beats batch", too few to build a starvation ladder out of.
MIN_PRIORITY, MAX_PRIORITY = 0, 9

_ALLOWED_KEYS = {
    "spec", "paper_graph", "mix", "n_partitions", "relaxation",
    "device", "memory", "options", "branching", "node_limit",
    "tenant", "priority", "deadline_s", "wait",
}
_ALLOWED_OPTIONS = set(OPTION_FLAGS)


def _bad(message: str) -> ServiceError:
    return ServiceError(message, status=400, code="invalid-request")


def _opt_int(data: "Dict[str, Any]", key: str) -> "Optional[int]":
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{key!r} must be an integer, got {value!r}")
    return value


def _opt_number(data: "Dict[str, Any]", key: str) -> "Optional[float]":
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{key!r} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SolveRequest:
    """One validated solve request.

    ``spec`` is the inline task-graph dict (schema
    :mod:`repro.graph.io`) or ``None`` when ``paper_graph`` names one
    of the paper's regenerated graphs.  ``deadline_s`` is the total
    wall-clock budget the client grants, queue wait included; ``None``
    means "use the server default".
    """

    spec: "Optional[Dict[str, Any]]" = None
    paper_graph: "Optional[int]" = None
    mix: str = DEFAULT_MIX
    n_partitions: "Optional[int]" = None
    relaxation: int = 0
    device: str = DEFAULT_DEVICE
    memory: "Optional[int]" = None
    options: "Dict[str, bool]" = field(default_factory=dict)
    branching: "Optional[str]" = None
    node_limit: "Optional[int]" = None
    tenant: str = "default"
    priority: int = 0
    deadline_s: "Optional[float]" = None
    wait: bool = True

    @property
    def source(self) -> "Dict[str, object]":
        """The job-source dict the worker protocol understands."""
        if self.spec is not None:
            return {"kind": "inline", "data": self.spec}
        return {"kind": "paper", "number": self.paper_graph}

    @property
    def spec_class(self) -> str:
        """Circuit-breaker grouping: the graph's declared name."""
        if self.spec is not None:
            name = self.spec.get("name")
            return str(name) if isinstance(name, str) and name else "inline"
        return f"graph{self.paper_graph}"

    def solve_fields(self) -> "Dict[str, object]":
        """The formulation-defining slice, canonically ordered.

        This is both the fingerprint input and the ``request`` payload
        persisted in the journal's ``accepted`` record, so a recovered
        job re-runs exactly what was acknowledged.
        """
        return {
            "spec": self.spec,
            "paper_graph": self.paper_graph,
            "mix": self.mix,
            "n_partitions": self.n_partitions,
            "relaxation": self.relaxation,
            "device": self.device,
            "memory": self.memory,
            "options": dict(sorted(self.options.items())),
            "branching": self.branching,
            "node_limit": self.node_limit,
        }


def parse_solve_request(
    data: "Any",
    graph_limits: "Optional[GraphLimits]" = None,
) -> SolveRequest:
    """Validate an untrusted request body into a :class:`SolveRequest`.

    Raises :class:`ServiceError` (status 400, or 413 for an oversized
    spec) on every malformation.  The inline spec is fully parsed —
    including the :class:`~repro.graph.io.GraphLimits` size guard —
    here at the admission boundary, *before* the request consumes a
    queue slot, a token, or a worker.
    """
    if not isinstance(data, dict):
        raise _bad(f"request body must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise _bad(f"unknown request keys: {sorted(unknown)}")

    spec = data.get("spec")
    paper = _opt_int(data, "paper_graph")
    if (spec is None) == (paper is None):
        raise _bad("exactly one of 'spec' or 'paper_graph' is required")
    if spec is not None:
        if not isinstance(spec, dict):
            raise _bad(f"'spec' must be a task-graph object, got {type(spec).__name__}")
        try:
            task_graph_from_dict(spec, validate=True, limits=graph_limits)
        except SpecTooLargeError as exc:
            raise ServiceError(
                f"spec rejected: {exc}", status=413, code="spec-too-large",
            ) from exc
        except SpecificationError as exc:
            raise ServiceError(
                f"spec rejected: {exc}", status=400, code="invalid-spec",
            ) from exc
    if paper is not None and not 1 <= paper <= 6:
        raise _bad(f"'paper_graph' must be in 1..6, got {paper}")

    mix = data.get("mix", DEFAULT_MIX)
    if not isinstance(mix, str) or not mix:
        raise _bad(f"'mix' must be a non-empty string, got {mix!r}")
    device = data.get("device", DEFAULT_DEVICE)
    if not isinstance(device, str) or not device:
        raise _bad(f"'device' must be a non-empty string, got {device!r}")

    options_in = data.get("options", {})
    if not isinstance(options_in, dict):
        raise _bad(f"'options' must be an object, got {type(options_in).__name__}")
    bad_options = set(options_in) - _ALLOWED_OPTIONS
    if bad_options:
        raise _bad(f"unknown options: {sorted(bad_options)}")
    options = {str(k): bool(v) for k, v in options_in.items()}

    branching = data.get("branching")
    if branching is not None and (not isinstance(branching, str) or not branching):
        raise _bad(f"'branching' must be a non-empty string, got {branching!r}")

    tenant = data.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise _bad(f"'tenant' must be a 1..64-character string, got {tenant!r}")

    priority = _opt_int(data, "priority")
    priority = 0 if priority is None else priority
    if not MIN_PRIORITY <= priority <= MAX_PRIORITY:
        raise _bad(
            f"'priority' must be in {MIN_PRIORITY}..{MAX_PRIORITY}, got {priority}"
        )

    deadline_s = _opt_number(data, "deadline_s")
    if deadline_s is not None and deadline_s <= 0:
        raise _bad(f"'deadline_s' must be positive, got {deadline_s}")

    relaxation = _opt_int(data, "relaxation")
    n_partitions = _opt_int(data, "n_partitions")
    if n_partitions is not None and n_partitions < 1:
        raise _bad(f"'n_partitions' must be >= 1, got {n_partitions}")
    node_limit = _opt_int(data, "node_limit")
    if node_limit is not None and node_limit < 1:
        raise _bad(f"'node_limit' must be >= 1, got {node_limit}")
    memory = _opt_int(data, "memory")
    if memory is not None and memory < 0:
        raise _bad(f"'memory' must be >= 0, got {memory}")

    wait = data.get("wait", True)
    if not isinstance(wait, bool):
        raise _bad(f"'wait' must be a boolean, got {wait!r}")

    return SolveRequest(
        spec=spec,
        paper_graph=paper,
        mix=mix,
        n_partitions=n_partitions,
        relaxation=0 if relaxation is None else relaxation,
        device=device,
        memory=memory,
        options=options,
        branching=branching,
        node_limit=node_limit,
        tenant=tenant,
        priority=priority,
        deadline_s=deadline_s,
        wait=wait,
    )


def request_fingerprint(request: SolveRequest) -> str:
    """SHA-256 over the canonical formulation-defining fields.

    The service-level analogue of the solver's compiled-form
    fingerprint (:func:`repro.ilp.resilience.checkpoint.form_fingerprint`):
    two requests with equal fingerprints compile to the same model and
    — the search being deterministic — the same answer, which is what
    makes the fingerprint a sound cache key and single-flight key.
    """
    canonical = json.dumps(
        SolveRequest.solve_fields(request), sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# minimal HTTP/1.1 (the server speaks Content-Length-framed JSON only)


_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def parse_request_head(
    head: bytes,
) -> "Tuple[str, str, Dict[str, str]]":
    """Parse the request line + headers (everything before the body).

    Returns ``(method, path, headers)`` with header names lowercased.
    Raises :class:`ServiceError` (400) on anything malformed — the
    server answers it and closes, it never guesses.
    """
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise _bad(f"undecodable request head: {exc}") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _bad(f"malformed request line: {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers: "Dict[str, str]" = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _bad(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, path, headers


def format_response(
    status: int,
    body: "Dict[str, Any]",
    extra_headers: "Optional[List[Tuple[str, str]]]" = None,
) -> bytes:
    """Serialize one JSON response (connection: close framing)."""
    payload = json.dumps(body, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in extra_headers or []:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def error_response(exc: ServiceError) -> bytes:
    """The uniform error document for a :class:`ServiceError`."""
    headers: "List[Tuple[str, str]]" = []
    if exc.retry_after_s is not None:
        # Retry-After is an integer header; always round *up* so a
        # client honoring it never comes back still-too-early.
        headers.append(("Retry-After", str(max(1, int(-(-exc.retry_after_s // 1))))))
    body = {
        "schema": PROTOCOL_SCHEMA,
        "error": {
            "code": exc.code,
            "message": str(exc),
            "retry_after_s": exc.retry_after_s,
        },
    }
    return format_response(exc.status, body, headers)
