"""Seeded fault plans: the core both chaos layers share.

:class:`~repro.ilp.resilience.faults.FaultPlan` (LP backend faults)
and :class:`~repro.artifacts.chaos.IOFaultPlan` (storage faults) share
plan validation, the CLI's comma-separated notation, the RNG step, the
capped fault log and the by-kind telemetry; each layer only says what
its faults *do*.  The decision sequence is a pure function of
``(kinds, rate, seed, limit)``, the injector's stream name and the
operation count, so every chaos run replays exactly.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

#: Fault-log entries kept per injector (bounded so week-long chaos
#: soaks cannot eat memory).
LOG_CAP = 1000


@dataclass(frozen=True)
class SeededFaultPlan:
    """What to inject, how often, seeded; subclasses name the kinds.

    Parameters
    ----------
    kinds:
        Fault classes to draw from (uniformly) on each faulted
        operation; each must be one of ``KNOWN_KINDS``.
    rate:
        Probability in ``[0, 1]`` that any given operation is faulted.
    seed:
        RNG seed; the full fault sequence is a pure function of it.
    limit:
        Maximum number of injections (``None`` = unlimited); lets a
        test fault exactly the first k operations.
    """

    kinds: "Tuple[str, ...]" = ()
    rate: float = 0.25
    seed: int = 0
    limit: "Optional[int]" = None

    #: Every fault class a plan of this type may name.
    KNOWN_KINDS: ClassVar[Tuple[str, ...]] = ()
    #: How error messages call these fault classes.
    KIND_LABEL: ClassVar[str] = "fault"

    def __post_init__(self) -> None:
        name = type(self).__name__
        unknown = [k for k in self.kinds if k not in self.KNOWN_KINDS]
        if unknown:
            raise ValueError(
                f"unknown {self.KIND_LABEL} kind(s) {unknown}; "
                f"choose from {self.KNOWN_KINDS}"
            )
        if not self.kinds:
            raise ValueError(f"{name}.kinds must name at least one class")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"{name}.rate must be in [0, 1], got {self.rate}")

    @classmethod
    def from_cli(cls, kinds: str, rate: float, seed: int, **fields):
        """Parse the CLI's comma-separated kind list into a plan."""
        names = tuple(k.strip() for k in kinds.split(",") if k.strip())
        return cls(kinds=names, rate=rate, seed=seed, **fields)

    def describe(self) -> "Dict[str, object]":
        """The ``plan`` entry of the injector's telemetry."""
        return {"kinds": list(self.kinds), "rate": self.rate, "seed": self.seed}


class SeededInjector:
    """Decision stream, fault log and telemetry of one injector.

    A subclass counts its operations in the attribute named by
    ``COUNT_KEY``, calls :meth:`_roll` once per operation *before*
    doing any work, and :meth:`_record` for each fault it injects.
    Extra randomness a fault needs (a victim index, a cut point) comes
    from the same ``_rng``, so it replays with the decisions.

    ``stream`` names an independent decision stream under the same
    plan: injectors with different names draw different sequences,
    seeded from the string ``"<seed>/<stream>"`` (string seeds go
    through SHA-512, so the stream never depends on
    ``PYTHONHASHSEED``).  Without a name the RNG is seeded with the
    plan's seed itself.
    """

    #: Attribute (and telemetry key) holding the operation count.
    COUNT_KEY: ClassVar[str] = "calls"

    def __init__(
        self, plan: SeededFaultPlan, stream: "Optional[str]" = None,
    ) -> None:
        self.plan = plan
        self.injected = 0
        self.log: "List[object]" = []
        self._rng = random.Random(
            plan.seed if stream is None else f"{plan.seed}/{stream}"
        )

    def _roll(self) -> "Optional[str]":
        """This operation's fault kind (or None), advancing the RNG.

        Both RNG draws happen unconditionally so the decision sequence
        depends only on the seed and operation count, not on earlier
        outcomes like the injection limit.
        """
        roll = self._rng.random()
        kind = self._rng.choice(self.plan.kinds)
        if self.plan.limit is not None and self.injected >= self.plan.limit:
            return None
        return kind if roll < self.plan.rate else None

    def _record(self, record: object) -> None:
        self.injected += 1
        if len(self.log) < LOG_CAP:
            self.log.append(record)

    def telemetry(self) -> "Dict[str, object]":
        """Injection counters: operations, injections, faults by kind."""
        return {
            self.COUNT_KEY: getattr(self, self.COUNT_KEY),
            "injected": self.injected,
            "by_kind": dict(Counter(record.kind for record in self.log)),
            "plan": self.plan.describe(),
        }
