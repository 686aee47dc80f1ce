"""Functional-unit models, instances, libraries and allocations.

Terminology (matching the paper):

* an **FU model** is a characterized library component — "a 16-bit
  ripple-carry adder costing 18 function generators with 25 ns delay";
* the exploration set **F** is an ordered collection of **FU
  instances** of those models — "2 adders, 2 multipliers and 1
  subtracter" — which the formulation's ``x[i,j,k]`` variables bind
  operations onto.  Not every instance need be *used* in every
  partition: the ``u[p,k]`` variables express per-partition usage, and
  only used instances count against the device capacity (eq. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro._validation import require_identifier, require_positive
from repro.errors import LibraryError
from repro.graph.operations import OpType


@dataclass(frozen=True)
class FUModel:
    """A characterized functional-unit type from the component library.

    Parameters
    ----------
    name:
        Library-unique model identifier (e.g. ``"add16"``).
    optypes:
        The operation types this model can execute.  A multi-function
        ALU lists several; the paper's design explorations ("can we use
        a non-pipelined and a pipelined multiplier in the same
        design?") are expressed by putting several models covering the
        same optype into one allocation.
    fg_cost:
        FPGA function generators consumed — the paper's ``FG(k)``.
    delay_ns:
        Propagation delay; used for clock estimation and by the
        chaining extension.
    latency:
        Control steps from operand consumption to result availability.
        The base model of the paper assumes 1; the multicycle extension
        (:mod:`repro.extensions.multicycle`) supports larger values.
    pipelined:
        Whether a new operation may start every control step even when
        ``latency > 1``.
    """

    name: str
    optypes: FrozenSet[OpType]
    fg_cost: int
    delay_ns: float = 10.0
    latency: int = 1
    pipelined: bool = False

    def __post_init__(self) -> None:
        require_identifier(self.name, LibraryError, "FU model name")
        if not self.optypes:
            raise LibraryError(f"FU model {self.name!r} executes no operation types")
        if not all(isinstance(t, OpType) for t in self.optypes):
            raise LibraryError(f"FU model {self.name!r} has non-OpType entries")
        if not isinstance(self.fg_cost, int) or isinstance(self.fg_cost, bool):
            raise LibraryError(f"FU model {self.name!r}: fg_cost must be an int")
        if self.fg_cost <= 0:
            raise LibraryError(
                f"FU model {self.name!r}: fg_cost must be positive, got {self.fg_cost}"
            )
        require_positive(self.delay_ns, LibraryError, f"{self.name} delay_ns")
        if not isinstance(self.latency, int) or self.latency < 1:
            raise LibraryError(f"FU model {self.name!r}: latency must be an int >= 1")

    def executes(self, optype: OpType) -> bool:
        """Whether this model can execute operations of ``optype``."""
        return optype in self.optypes


@dataclass(frozen=True)
class FUInstance:
    """One concrete functional unit in the exploration set ``F``.

    The formulation's index ``k`` ranges over these instances.  Two
    instances of the same model are interchangeable in cost but distinct
    in binding, which is exactly what lets the model discover solutions
    like "partition 1 uses 1 multiplier and 5 adders, partition 2 uses 2
    multipliers and 2 adders" from a shared exploration set.
    """

    name: str
    model: FUModel

    def __post_init__(self) -> None:
        require_identifier(self.name, LibraryError, "FU instance name")

    @property
    def fg_cost(self) -> int:
        """Function-generator cost of the underlying model (``FG(k)``)."""
        return self.model.fg_cost

    def executes(self, optype: OpType) -> bool:
        """Whether this instance can execute operations of ``optype``."""
        return self.model.executes(optype)


class ComponentLibrary:
    """A named catalog of FU models.

    Lookup helpers answer the two questions the flow needs: which models
    implement a given operation type (``Fu(i)`` construction), and what
    a model costs (``FG(k)``).
    """

    def __init__(self, name: str = "library") -> None:
        require_identifier(name, LibraryError, "library name")
        self.name = name
        self._models: "Dict[str, FUModel]" = {}

    def add_model(self, model: FUModel) -> FUModel:
        """Register a model; redefinition with different data is an error."""
        existing = self._models.get(model.name)
        if existing is not None:
            if existing != model:
                raise LibraryError(
                    f"FU model {model.name!r} redefined with different parameters"
                )
            return existing
        self._models[model.name] = model
        return model

    @property
    def models(self) -> Tuple[FUModel, ...]:
        """All models, in registration order."""
        return tuple(self._models.values())

    def model(self, name: str) -> FUModel:
        """Look up a model by name."""
        try:
            return self._models[name]
        except KeyError:
            raise LibraryError(
                f"library {self.name!r} has no FU model {name!r}"
            ) from None

    def models_for(self, optype: OpType) -> "Tuple[FUModel, ...]":
        """All models that can execute ``optype``, registration order."""
        return tuple(m for m in self._models.values() if m.executes(optype))

    def cheapest_model_for(self, optype: OpType) -> FUModel:
        """The lowest-FG-cost model executing ``optype``.

        Raises :class:`LibraryError` when no model covers the type —
        the specification is then unimplementable with this library.
        """
        candidates = self.models_for(optype)
        if not candidates:
            raise LibraryError(
                f"library {self.name!r} has no FU model executing {optype}"
            )
        return min(candidates, key=lambda m: m.fg_cost)

    def covers(self, optypes: "Iterable[OpType]") -> bool:
        """Whether every type in ``optypes`` has at least one model."""
        return all(self.models_for(t) for t in optypes)


class Allocation:
    """The ordered exploration set ``F`` of FU instances.

    The order is significant: it fixes the index ``k`` of each instance
    in the ILP, and therefore the tie-breaking of the branching
    heuristic.  Instances of the same model are canonically named
    ``<model>_<n>``.
    """

    def __init__(self, instances: "Sequence[FUInstance]") -> None:
        if not instances:
            raise LibraryError("allocation must contain at least one FU instance")
        names = [fu.name for fu in instances]
        if len(set(names)) != len(names):
            raise LibraryError(f"duplicate FU instance names in allocation: {names}")
        self._instances: "Tuple[FUInstance, ...]" = tuple(instances)

    @classmethod
    def from_counts(
        cls, library: ComponentLibrary, counts: "Mapping[str, int]"
    ) -> "Allocation":
        """Build an allocation from ``{model_name: instance_count}``.

        Iteration order of ``counts`` determines instance order, so use
        an ordered mapping when index order matters.
        """
        instances: "List[FUInstance]" = []
        for model_name, count in counts.items():
            if not isinstance(count, int) or count < 1:
                raise LibraryError(
                    f"instance count for {model_name!r} must be an int >= 1"
                )
            model = library.model(model_name)
            for idx in range(count):
                instances.append(FUInstance(f"{model_name}_{idx + 1}", model))
        return cls(instances)

    @property
    def names(self) -> "Tuple[str, ...]":
        """Instance names in index order."""
        return tuple(fu.name for fu in self._instances)

    def instance(self, name: str) -> FUInstance:
        """Look up an instance by name."""
        for fu in self._instances:
            if fu.name == name:
                return fu
        raise LibraryError(f"allocation has no FU instance {name!r}")

    def instances_for(self, optype: OpType) -> "Tuple[FUInstance, ...]":
        """All instances that can execute ``optype`` (``Fu(i)``)."""
        return tuple(fu for fu in self._instances if fu.executes(optype))

    def total_fg_cost(self) -> int:
        """Summed FG cost of all instances (cost if all were used at once)."""
        return sum(fu.fg_cost for fu in self._instances)

    def count_by_model(self) -> "Dict[str, int]":
        """Instance count per model name."""
        counts: "Dict[str, int]" = {}
        for fu in self._instances:
            counts[fu.model.name] = counts.get(fu.model.name, 0) + 1
        return counts

    def covers(self, optypes: "Iterable[OpType]") -> bool:
        """Whether every operation type has at least one instance."""
        return all(self.instances_for(t) for t in optypes)

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self):
        return iter(self._instances)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mix = "+".join(f"{c}x{m}" for m, c in sorted(self.count_by_model().items()))
        return f"Allocation({mix})"
