"""repro: optimal temporal partitioning and synthesis for reconfigurable architectures.

A complete, self-contained reproduction of Kaul & Vemuri, "Optimal
Temporal Partitioning and Synthesis for Reconfigurable Architectures"
(DATE 1998): a 0-1 (originally non-linear) programming model that
*simultaneously* partitions a behavioral specification into temporal
segments for a dynamically reconfigurable FPGA and performs high-level
synthesis (scheduling, FU allocation, binding) of every segment —
minimizing the data transferred between segments subject to scratch-
memory and per-segment FPGA-capacity constraints.

Quick start
-----------
>>> from repro import TemporalPartitioner, paper_graph
>>> tp = TemporalPartitioner()
>>> outcome = tp.partition(paper_graph(1), "2A+2M+1S", n_partitions=3,
...                        relaxation=1)
>>> outcome.feasible
True
>>> print(outcome.design.report())      # doctest: +SKIP

Package map
-----------
``repro.graph``      task graphs, generators, standard HLS benchmarks
``repro.library``    characterized FU models and allocations
``repro.target``     FPGA devices, scratch memory, reconfig cost model
``repro.schedule``   ASAP/ALAP, list scheduling, segment estimation
``repro.ilp``        modeling layer, LP backends, branch and bound
``repro.core``       the paper's formulation, solution flow, verifier
``repro.baselines``  heuristic partitioners for comparison
``repro.extensions`` multicycle/pipelined FUs, chaining, registers,
                     task splitting
``repro.reporting``  experiment runner and table rendering
"""

from repro.errors import (
    DecodeError,
    InfeasibleSpecError,
    LibraryError,
    ModelError,
    ReproError,
    SolverError,
    SpecificationError,
    TargetError,
    VerificationError,
)
from repro.graph import (
    OpType,
    Operation,
    Task,
    TaskGraph,
    TaskGraphBuilder,
    paper_graph,
    random_task_graph,
)
from repro.ilp import IncumbentEvent, MilpResult, NodeEvent, SolveStats, SolveStatus
from repro.library import Allocation, ComponentLibrary, FUModel, default_library, mix_from_string
from repro.target import FPGADevice, ReconfigCostModel, ScratchMemory, device_catalog
from repro.schedule import compute_mobility, estimate_num_segments, list_schedule
from repro.core import (
    FormulationOptions,
    PartitionOutcome,
    PartitionedDesign,
    ProblemSpec,
    TemporalPartitioner,
    build_model,
    decode_solution,
    verify_design,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SpecificationError",
    "LibraryError",
    "TargetError",
    "ModelError",
    "SolverError",
    "DecodeError",
    "VerificationError",
    "InfeasibleSpecError",
    # graph
    "OpType",
    "Operation",
    "Task",
    "TaskGraph",
    "TaskGraphBuilder",
    "paper_graph",
    "random_task_graph",
    # library / target
    "FUModel",
    "ComponentLibrary",
    "Allocation",
    "default_library",
    "mix_from_string",
    "FPGADevice",
    "device_catalog",
    "ScratchMemory",
    "ReconfigCostModel",
    # ilp telemetry surface
    "SolveStatus",
    "SolveStats",
    "MilpResult",
    "IncumbentEvent",
    "NodeEvent",
    # schedule
    "compute_mobility",
    "list_schedule",
    "estimate_num_segments",
    # core
    "ProblemSpec",
    "FormulationOptions",
    "build_model",
    "decode_solution",
    "verify_design",
    "TemporalPartitioner",
    "PartitionOutcome",
    "PartitionedDesign",
]
