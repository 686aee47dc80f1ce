"""The ``repro.bnb_proof/v1`` record schema and crash-tolerant reader.

A proof log is JSON Lines: one self-checksummed record per line,
appended (and flushed) as the search runs, so a crash loses at most
the final, torn line.  Stdlib only — the independent checker imports
this module and must never pull in an LP solver.

Record kinds
------------
``header``
    First line.  Schema id, SHA-256 formulation fingerprint, and the
    *embedded* standard form (objective, CSR constraint matrices,
    rhs vectors, bounds, integrality) so the checker can re-verify
    every certificate with exact rational arithmetic — and recompute
    the fingerprint to bind the embedded form to the artifact.
``root``
    The root LP's dual vectors, justifying later reduced-cost fixes.
``rc_fix``
    One permanent reduced-cost bound fixation.
``branch``
    A node split into children (with any SOS1 bound-tightenings and
    their justifying constraint rows).
``prune``
    A node closed by bound (dual-vector certificate), by infeasibility
    (Farkas certificate or an exactly-empty bounds box), or by the
    reduced-cost box (``rcbox``).
``integral``
    An integer-feasible leaf: the claimed point, its objective, and —
    when available — the node LP's dual certificate that the subtree
    holds nothing better.
``forfeit``
    A node closed *without* proof (dropped after LP faults, open at a
    limit stop, no extractable certificate): an honestly-unproven
    subtree the audit enumerates.
``resume``
    A checkpoint-resume boundary: the restored frontier replaces the
    open set (each prior open subtree must be contained in it).
``result``
    Final line of a run: the claimed status / objective / bound.

Every record carries a ``crc`` field: the CRC-32 of its canonical JSON
body.  The checksum makes *any* byte tampering detectable even where
the mutated record would still verify mathematically (weak duality
means a corrupted dual vector can only weaken a bound, never forge
one — so without the checksum a flipped digit could go unnoticed).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

#: Artifact schema identifier; bump on any layout change.
PROOF_SCHEMA = "repro.bnb_proof/v1"

#: Schemas older writers emitted that the checker no longer verifies,
#: with the reason it reports (an UNSUPPORTED verdict, not REFUTED:
#: the log is not shown wrong, only out of the checker's reach).
RETIRED_SCHEMAS: Dict[str, str] = {
    "repro.bnb_proof/v2": "cut records (schema v2) are no longer supported",
}

KIND_HEADER = "header"
KIND_ROOT = "root"
KIND_RC_FIX = "rc_fix"
KIND_BRANCH = "branch"
KIND_PRUNE = "prune"
KIND_INTEGRAL = "integral"
KIND_INCUMBENT = "incumbent"
KIND_FORFEIT = "forfeit"
KIND_RESUME = "resume"
KIND_RESULT = "result"

#: Every kind the v1 checker understands; anything else refutes.
RECORD_KINDS = frozenset(
    {
        KIND_HEADER,
        KIND_ROOT,
        KIND_RC_FIX,
        KIND_BRANCH,
        KIND_PRUNE,
        KIND_INTEGRAL,
        KIND_INCUMBENT,
        KIND_FORFEIT,
        KIND_RESUME,
        KIND_RESULT,
    }
)

Record = Dict[str, Any]


def canonical_body(record: Record) -> str:
    """Canonical JSON of a record body (no ``crc`` field).

    Sorted keys + tight separators make the serialization a pure
    function of the content, so writer and checker agree on the bytes
    the checksum covers.  Floats round-trip exactly through ``repr``.
    """
    body = {key: value for key, value in record.items() if key != "crc"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def seal_record(record: Record) -> Record:
    """Attach the CRC-32 self-checksum to a record body."""
    record["crc"] = f"{zlib.crc32(canonical_body(record).encode('utf-8')):08x}"
    return record


def record_checksum_ok(record: Record) -> bool:
    """Re-derive and compare a record's self-checksum."""
    crc = record.get("crc")
    if not isinstance(crc, str):
        return False
    expected = f"{zlib.crc32(canonical_body(record).encode('utf-8')):08x}"
    return crc == expected


@dataclass
class ProofReadResult:
    """Outcome of reading a proof log tolerantly.

    ``records`` holds ``(line_number, record)`` pairs for every intact
    line.  ``torn_tail`` reports that a final, newline-less fragment
    was dropped (the crash-tolerance contract: an interrupted write
    loses only itself).  ``malformed_line`` is the first *interior*
    line that failed to parse — corruption, not a torn write, and the
    checker refutes on it.
    """

    records: List[Tuple[int, Record]] = field(default_factory=list)
    torn_tail: bool = False
    malformed_line: Optional[int] = None


def read_proof_records(path: Union[str, Path]) -> ProofReadResult:
    """Read a proof log, tolerating only a torn final line.

    Raises ``OSError`` when the file cannot be read at all; every
    in-band problem (bad JSON, non-object line) is reported through
    the result so the caller can turn it into a typed verdict.
    """
    raw = Path(path).read_bytes()
    result = ProofReadResult()
    if not raw:
        return result
    complete, _, tail = raw.rpartition(b"\n")
    if tail:
        # Bytes after the last newline: a write interrupted mid-line.
        result.torn_tail = True
    if not complete:
        return result
    for lineno, line in enumerate(complete.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            result.malformed_line = lineno
            return result
        if not isinstance(record, dict):
            result.malformed_line = lineno
            return result
        result.records.append((lineno, record))
    return result
