"""The benchmark's four workloads: which specs each solves, and how.

Every workload solves its specs on the reference device and memory with
``TemporalPartitioner.partition_spec``, one spec at a time, in-process,
with ``workers=1``.  The specs of a workload are fixed; a run's
``--seed`` only fixes the order in which it visits them, so runs at
different seeds do the same work (``bench/README.md`` says why).

Importing this module imports the solver stack; ``bench/run.py`` times
that import as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.core.formulation import FormulationOptions
from repro.core.partitioner import TemporalPartitioner
from repro.core.spec import ProblemSpec
from repro.graph.generators import (
    PAPER_TYPE_WEIGHTS,
    RandomGraphConfig,
    paper_graph,
    random_task_graph,
)
from repro.graph.io import task_graph_to_dict
from repro.library.catalogs import mix_from_string
from repro.reporting.experiments import (
    EXPERIMENT_ROWS,
    reference_device,
    reference_memory,
)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Safety net only: no spec of any workload comes near it.
TIME_LIMIT_S = 60.0
#: Node cap of the plain-deep workload: ~1 s of LP work on each of its
#: two g1-N3-L1 specs, which never close in plain search.
PLAIN_NODE_LIMIT = 250
#: Node cap of the generated-branching workload.
GENERATED_NODE_LIMIT = 200
#: Seed of the draw ``bench/calibrate.py`` picks generated specs from.
GENERATED_DRAW_SEED = 11
GENERATED_MIXES = ("2A+2M+1S", "2A+2M+2S", "3A+2M+2S")


@dataclass(frozen=True)
class Item:
    """One spec of a workload, with the partitioner that solves it."""

    key: str
    spec: ProblemSpec
    partitioner: TemporalPartitioner
    fingerprint: str


@dataclass(frozen=True)
class Workload:
    """A named set of specs plus the layers a traced run must reach.

    ``reaches`` are spans that must fire on this workload; ``skips``
    are spans its configuration turns off, which must not fire.  Both
    make a moved binding fail loudly instead of reporting 0.  Why each
    workload exists is recorded in ``BENCHMARK.json`` and
    ``bench/README.md``.
    """

    name: str
    build: Callable[[], List[Item]]
    reaches: Tuple[str, ...]
    skips: Tuple[str, ...] = field(default=())


def spec_fingerprint(spec: ProblemSpec, options: FormulationOptions) -> str:
    """Short SHA-256 over everything that defines a spec's answer."""
    canonical = json.dumps(
        {
            "graph": task_graph_to_dict(spec.graph),
            "fus": [[fu.name, fu.model.name, fu.fg_cost] for fu in spec.allocation],
            "n_partitions": spec.n_partitions,
            "relaxation": spec.relaxation,
            "device": [spec.device.capacity, spec.device.alpha],
            "memory": spec.memory.size,
            "tighten": options.tighten,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _item(key, graph, mix, n_partitions, relaxation, tighten=True, **solver) -> Item:
    options = FormulationOptions(tighten=tighten)
    partitioner = TemporalPartitioner(
        device=reference_device(),
        memory=reference_memory(),
        options=options,
        **solver,
    )
    spec = partitioner.make_spec(
        graph, mix_from_string(mix), n_partitions=n_partitions, relaxation=relaxation
    )
    return Item(key, spec, partitioner, spec_fingerprint(spec, options))


_ROWS = {row.key: row for row in EXPERIMENT_ROWS}


def _paper_items(keys, tighten=True, **solver) -> List[Item]:
    items = []
    for key in keys:
        row = _ROWS[key]
        items.append(
            _item(key, paper_graph(row.graph), row.mix, row.n_partitions,
                  row.relaxation, tighten=tighten, **solver)
        )
    return items


def draw_generated(rng: random.Random) -> Dict[str, object]:
    """Parameters of the next generated spec from the draw ``rng``."""
    n_tasks = rng.randint(5, 7)
    return {
        "n_tasks": n_tasks,
        "n_ops": rng.randint(3 * n_tasks, 4 * n_tasks),
        "n_partitions": rng.choice([2, 3]),
        "relaxation": rng.choice([0, 1, 2]),
        "mix": rng.choice(GENERATED_MIXES),
        "graph_seed": rng.randrange(2**31),
    }


def generated_item(index: int, params: Dict[str, object]) -> Item:
    """The generated-branching item for draw number ``index``."""
    graph = random_task_graph(
        RandomGraphConfig(
            n_tasks=params["n_tasks"],
            n_ops=params["n_ops"],
            seed=params["graph_seed"],
            type_weights=dict(PAPER_TYPE_WEIGHTS),
            cluster_skew=0.5,
        )
    )
    key = (
        f"gen{index:02d}-t{params['n_tasks']}-o{params['n_ops']}"
        f"-N{params['n_partitions']}-L{params['relaxation']}"
    )
    return _item(
        key, graph, params["mix"], params["n_partitions"], params["relaxation"],
        time_limit_s=TIME_LIMIT_S, node_limit=GENERATED_NODE_LIMIT,
    )


def load_expected(name: str) -> Dict[str, object]:
    """The committed expected-answer document of workload ``name``."""
    with open(EXPECTED_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _generated_items() -> List[Item]:
    return [
        generated_item(entry["draw"], entry["params"])
        for entry in load_expected("generated-branching")["specs"]
    ]


# Spans every bnb workload reaches; see bench/spans.py for the names.
_CORE = (
    "core.formulation", "ilp.standard_form", "ilp.branch_bound",
    "ilp.incremental.tree", "core.decode", "core.verify",
)
_DEFAULT_FLOW = _CORE + (
    "core.precheck", "ilp.analysis.presolve", "core.probe", "core.leafsolve",
)
_HEURISTICS = (
    "ilp.heuristics.dive", "ilp.heuristics.polish", "ilp.incremental.dive",
    "ilp.incremental.polish", "core.parallel_support.audit",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-default",
            lambda: _paper_items(
                ("t3-g1-N3-L0", "t3-g1-N3-L1", "t3-g1-N2-L2", "t4-g4-N2-L1"),
                time_limit_s=TIME_LIMIT_S,
            ),
            reaches=_DEFAULT_FLOW,
            skips=_HEURISTICS,
        ),
        Workload(
            "paper-heuristics",
            lambda: _paper_items(
                ("t4-g3-N3-L1", "t4-g4-N3-L0", "t4-g6-N2-L1"),
                time_limit_s=TIME_LIMIT_S, heuristics=True,
            ),
            reaches=_DEFAULT_FLOW + (
                "ilp.heuristics.dive", "ilp.incremental.dive",
                "core.parallel_support.audit",
            ),
        ),
        Workload(
            "plain-deep",
            lambda: _paper_items(
                ("t1-g1-N3-L1", "t1-g1-N2-L3"),
                tighten=False, plain_search=True, node_limit=PLAIN_NODE_LIMIT,
            ) + _paper_items(
                ("t2-g1-N3-L1", "t2-g1-N2-L3"),
                plain_search=True, node_limit=PLAIN_NODE_LIMIT,
            ),
            reaches=_CORE,
            skips=(
                "core.precheck", "ilp.analysis.presolve", "core.probe",
                "core.leafsolve",
            ) + _HEURISTICS,
        ),
        Workload(
            "generated-branching",
            _generated_items,
            reaches=_DEFAULT_FLOW,
            skips=_HEURISTICS,
        ),
    )
}
