"""Presolve output pinned on a corpus of paper rows and seeded draws.

Each case builds a Section-6 model, presolves it and hashes everything
the :class:`~repro.ilp.analysis.presolve.PresolveResult` carries: the
stats, every variable's bounds, every surviving row (name, tag, sense,
rhs and sorted coefficients), the certificate and the reduction map.
Floats enter the hash through ``repr``, so a tightened coefficient that
moves in its last bit fails the case.

The corpus is the 13 Table 3/4 rows plus seven draws of
``random.Random(11)`` (the benchmark's generated-spec draw): gen14
needs three rounds of bound propagation, gen15/24/33/43 lose duplicate
rows, and gen09/gen11 fix variables.  Four cases also run in the
eliminating mode.  No case reaches a certificate; the hand-built models
of ``test_ilp_analysis.py`` cover those paths.

The digests in ``tests/data/presolve_digests.json`` are a recording, not
a specification: re-record them (``PYTHONPATH=src python tests/test_presolve_corpus.py``)
only for a change that is meant to alter what presolve returns.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.formulation import FormulationOptions, build_model
from repro.core.partitioner import TemporalPartitioner
from repro.graph.generators import (
    PAPER_TYPE_WEIGHTS,
    RandomGraphConfig,
    paper_graph,
    random_task_graph,
)
from repro.ilp.analysis.presolve import presolve
from repro.library.catalogs import mix_from_string
from repro.reporting.experiments import (
    EXPERIMENT_ROWS,
    reference_device,
    reference_memory,
)

DIGESTS = Path(__file__).resolve().parent / "data" / "presolve_digests.json"

#: Literal draw parameters (tasks, ops, N, L, mix, graph seed).
DRAWS = {
    "gen09": (5, 19, 3, 0, "2A+2M+1S", 463542574),
    "gen11": (7, 21, 2, 0, "2A+2M+1S", 2018579976),
    "gen14": (5, 18, 2, 0, "2A+2M+1S", 433990593),
    "gen15": (5, 15, 3, 1, "2A+2M+1S", 809109426),
    "gen24": (5, 20, 2, 1, "2A+2M+1S", 1071588168),
    "gen33": (7, 23, 2, 1, "2A+2M+1S", 1934220228),
    "gen43": (7, 21, 3, 2, "2A+2M+1S", 2065693802),
}

PAPER_ROWS = {row.key: row for row in EXPERIMENT_ROWS if row.table in ("t3", "t4")}

#: Models presolved in the eliminating mode as well.
ELIMINATED = ("t3-g1-N3-L0", "gen09", "gen11", "gen14")

CASES = [f"{key}-keep" for key in (*PAPER_ROWS, *DRAWS)] + [
    f"{key}-eliminate" for key in ELIMINATED
]

_MODELS: dict = {}


def corpus_model(key):
    """The Section-6 model of a corpus spec (built once per session)."""
    if key not in _MODELS:
        tp = TemporalPartitioner(device=reference_device(), memory=reference_memory())
        if key in PAPER_ROWS:
            row = PAPER_ROWS[key]
            graph, mix = paper_graph(row.graph), row.mix
            n_parts, relax = row.n_partitions, row.relaxation
        else:
            n_tasks, n_ops, n_parts, relax, mix, seed = DRAWS[key]
            graph = random_task_graph(
                RandomGraphConfig(
                    n_tasks=n_tasks,
                    n_ops=n_ops,
                    seed=seed,
                    type_weights=dict(PAPER_TYPE_WEIGHTS),
                    cluster_skew=0.5,
                )
            )
        spec = tp.make_spec(
            graph, mix_from_string(mix), n_partitions=n_parts, relaxation=relax
        )
        _MODELS[key], _ = build_model(spec, FormulationOptions())
    return _MODELS[key]


def result_digest(result) -> str:
    """SHA-256 over everything a presolve result carries."""
    document = {"stats": result.stats.as_dict(), "certificate": None}
    if result.certificate is not None:
        document["certificate"] = result.certificate.as_dict()
    if result.model is not None:
        model = result.model
        document["bounds"] = [[v.name, v.lb, v.ub] for v in model.variables]
        document["rows"] = [
            [con.name, tag, con.sense.value, con.rhs,
             sorted(con.expr.coeffs.items())]
            for con, tag in zip(model.constraints, model.constraint_tags)
        ]
        rmap = result.map
        document["map"] = [
            rmap.num_original_vars,
            sorted(rmap.index_map.items()),
            sorted(rmap.fixed_values.items()),
            rmap.objective_offset,
        ]
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def case_digest(case: str) -> str:
    key, mode = case.rsplit("-", 1)
    return result_digest(presolve(corpus_model(key), eliminate=mode == "eliminate"))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_corpus_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_presolve_output_matches_pinned_digest(case, pinned):
    assert case_digest(case) == pinned[case]


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps({case: case_digest(case) for case in CASES}, indent=1) + "\n",
        encoding="utf-8",
    )
