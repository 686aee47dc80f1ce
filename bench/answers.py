"""Expected answers and the bench-side check of every returned outcome.

The expected answers come from an independent oracle: SciPy's HiGHS
MILP (``backend="milp"``) on the same formulation, with the structural
prechecks off so the MILP decides every spec by itself.  They are
committed under ``bench/expected/`` because the oracle is too slow to
run inside a timed run; ``bench/calibrate.py`` rewrites them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.partitioner import PartitionOutcome, TemporalPartitioner
from repro.core.verify import verify_design
from repro.errors import VerificationError
from repro.ilp.solution import SolveStatus

#: Objectives are integral communication costs; this only absorbs float
#: noise in a reported bound.
TOL = 1e-6
#: Statuses that end a search with a proof.
DECIDED = ("optimal", "infeasible")


def oracle_answer(item) -> Dict[str, object]:
    """Status and objective of ``item`` from the HiGHS MILP oracle."""
    partitioner = TemporalPartitioner(
        device=item.spec.device,
        memory=item.spec.memory,
        options=item.partitioner.options,
        backend="milp",
        presolve=False,
    )
    outcome = partitioner.partition_spec(item.spec)
    if outcome.status.value not in DECIDED or outcome.degraded:
        raise RuntimeError(
            f"oracle did not decide {item.key}: {outcome.status.value}"
        )
    return {
        "key": item.key,
        "fingerprint": item.fingerprint,
        "status": outcome.status.value,
        "objective": outcome.objective,
    }


def expected_by_key(document: Dict[str, object], items) -> Dict[str, Dict[str, object]]:
    """Index an expected-answer document by item key.

    Raises when an item has no answer or its fingerprint differs from
    the one the answer was computed for: the spec changed, so the
    committed answer says nothing about it.
    """
    entries = {entry["key"]: entry for entry in document["specs"]}
    for item in items:
        entry = entries.get(item.key)
        if entry is None:
            raise RuntimeError(f"no expected answer for {item.key}")
        if entry["fingerprint"] != item.fingerprint:
            raise RuntimeError(
                f"{item.key}: spec fingerprint {item.fingerprint} does not "
                f"match the expected answer's {entry['fingerprint']}"
            )
    return entries


def check_outcome(outcome: PartitionOutcome, expected: Dict[str, object]) -> List[str]:
    """Everything wrong with ``outcome``; an empty list means correct.

    A decided outcome must match the oracle.  A node-capped FEASIBLE
    outcome must be no better than the oracle's optimum and carry a
    bound no worse than it.  A node-capped outcome with no incumbent
    (plain search only) claims nothing to check.  Any returned design is
    re-verified here, independently of the solver's own check.
    """
    problems: List[str] = []
    status = outcome.status
    if outcome.degraded:
        problems.append(f"degraded ({outcome.degradation_cause})")
    if outcome.solve_stats.stop_reason == "time_limit":
        problems.append("hit the time limit")
    if status is SolveStatus.ERROR:
        problems.append("solver error")
    if outcome.design is not None:
        try:
            verify_design(outcome.design)
        except VerificationError as exc:
            problems.append(f"design fails verify_design: {exc}")
        if outcome.design.communication_cost() != outcome.objective:
            problems.append(
                f"communication_cost {outcome.design.communication_cost()} "
                f"!= objective {outcome.objective}"
            )
    elif status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE):
        problems.append(f"{status.value} without a design")
    want_status = expected["status"]
    want_obj: Optional[float] = expected["objective"]
    if status.value in DECIDED and (status.value, outcome.objective) != (want_status, want_obj):
        problems.append(
            f"answer {status.value}/{outcome.objective}, "
            f"oracle {want_status}/{want_obj}"
        )
    if status is SolveStatus.FEASIBLE:
        if want_status != "optimal":
            problems.append(f"feasible design, oracle says {want_status}")
        else:
            if outcome.objective < want_obj - TOL:
                problems.append(
                    f"objective {outcome.objective} beats the optimum {want_obj}"
                )
            if outcome.bound is not None and outcome.bound > want_obj + TOL:
                problems.append(
                    f"bound {outcome.bound} exceeds the optimum {want_obj}"
                )
    return problems


def signature(outcome: PartitionOutcome) -> tuple:
    """What must repeat exactly on every solve of one spec."""
    return (outcome.status.value, outcome.objective, outcome.solve_stats.nodes_explored)
