"""Ablation D — static presolve on vs off.

The paper's Table 1 -> Table 2 move shows how much formulation
tightening buys; the presolve pass recovers part of that gap
mechanically.  This ablation measures two things:

* *solve effect* — each feasible Table-3 row runs with and without
  presolve; the optimum must be identical and the reduction counts the
  search started from land in the telemetry (and the benchmark JSON's
  ``extra_info``);
* *root-LP size* — on the Table-3 reference instance the presolve's
  row reductions are measured for both the Section-5 base model and
  the Section-6 tightened model.  The base model shrinks more: its
  eq-4 ``w >= v`` rows are proven implied-redundant by eq 5, which is
  exactly the kind of slack the paper removed by hand between the two
  tables.
"""

import pytest

from repro.core.formulation import FormulationOptions, build_model
from repro.core.spec import ProblemSpec
from repro.graph.generators import paper_graph
from repro.ilp.analysis import presolve
from repro.library.catalogs import mix_from_string
from repro.reporting.experiments import (
    reference_device,
    reference_memory,
    run_row,
    table_rows,
)
from repro.reporting.tables import render_rows
from benchmarks.conftest import TIME_LIMIT_S, run_once

ROWS = [r for r in table_rows("t3") if r.paper_feasible]
VARIANTS = [("off", False), ("on", True)]


@pytest.mark.parametrize("name,enabled", VARIANTS, ids=[v[0] for v in VARIANTS])
@pytest.mark.parametrize("row", ROWS, ids=[r.key for r in ROWS])
def test_presolve_variant(benchmark, row, name, enabled, results_bucket):
    result = run_once(
        benchmark,
        lambda: run_row(row, presolve=enabled, time_limit_s=TIME_LIMIT_S),
    )
    result["variant"] = name
    reductions = (result["telemetry"]["solve"] or {}).get("presolve")
    result["rows_removed"] = reductions["rows_removed"] if reductions else 0
    results_bucket.append(("presolve", result))
    assert result["status"] == "optimal"
    if enabled:
        assert reductions is not None
        assert reductions["rows_after"] <= reductions["rows_before"]


def _root_lp_sizes(row):
    """Presolve row reductions of the base vs tightened formulation."""
    spec = ProblemSpec.create(
        graph=paper_graph(row.graph),
        allocation=mix_from_string(row.mix),
        device=reference_device(),
        memory=reference_memory(),
        n_partitions=row.n_partitions,
        relaxation=row.relaxation,
    )
    sizes = []
    for variant, tighten in (("base", False), ("tightened", True)):
        model, _ = build_model(spec, FormulationOptions(tighten=tighten))
        res = presolve(model, eliminate=False)
        sizes.append({
            "key": row.key,
            "variant": variant,
            "rows_before": res.stats.rows_before,
            "rows_after": res.stats.rows_after,
            "rows_removed": res.stats.rows_removed,
            "nonzeros_before": res.stats.nonzeros_before,
            "nonzeros_after": res.stats.nonzeros_after,
        })
    return sizes


def test_presolve_root_lp_size(benchmark, results_bucket):
    sizes = run_once(benchmark, lambda: _root_lp_sizes(ROWS[0]))
    print()
    print(render_rows(
        sizes,
        columns=["key", "variant", "rows_before", "rows_after",
                 "rows_removed", "nonzeros_before", "nonzeros_after"],
        title="Ablation D: root-LP size after presolve:",
    ))
    base, tightened = sizes
    # Both formulations shrink; the untightened one shrinks more
    # (presolve proves its eq-4 rows implied by eq 5).
    assert base["rows_removed"] > 0
    assert tightened["rows_removed"] > 0
    assert base["rows_removed"] >= tightened["rows_removed"]


def test_presolve_summary(benchmark, results_bucket):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [r for tag, r in results_bucket if tag == "presolve"]
    if not rows:
        pytest.skip("ablation rows did not run")
    print()
    print(render_rows(
        rows,
        columns=["key", "variant", "consts", "rows_removed", "runtime_s",
                 "nodes", "objective"],
        title="Ablation D: presolve off vs on:",
    ))
    by_key = {}
    for r in rows:
        by_key.setdefault(r["key"], {})[r["variant"]] = r
    for key, pair in by_key.items():
        if len(pair) == 2:
            # Presolve must never change the optimum, only the path to it.
            assert pair["off"]["objective"] == pair["on"]["objective"]
            assert pair["on"]["rows_removed"] > 0
