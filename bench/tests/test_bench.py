"""Checks on the benchmark itself: names, inputs, tracing, answers.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import answers
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def built():
    return {name: w.build() for name, w in workloads.WORKLOADS.items()}


def small_item():
    return next(item for item in workloads.WORKLOADS["paper-default"].build()
                if item.key == "t3-g1-N2-L2")


def test_metric_names_are_valid_and_few():
    e2e = [name for name, _, _ in run.END_TO_END]
    layer = [name for name, _, _ in spans.LAYER_METRICS]
    assert len(e2e) <= 16 and len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    for name in e2e + layer:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    def triples(entries):
        return [(m["name"], m["unit"], m["better"]) for m in entries]

    assert triples(BENCHMARK["end_to_end"]) == run.END_TO_END
    assert triples(BENCHMARK["per_layer"]) == spans.LAYER_METRICS
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 <= b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_printed_metric_names_match_benchmark_json():
    loop = run.Loop([SimpleNamespace(key="a"), SimpleNamespace(key="b")], {})
    loop.times = {"a": [0.2, 0.1, 0.3], "b": [1.0]}
    loop.signatures = {"a": {("optimal", 0, 3)}, "b": {("node_limit", None, 9)}}
    values = run.end_to_end(loop, [0.5, 0.7, 0.6])
    assert list(values) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert values["wall_s"] == pytest.approx(1.1)
    assert values["decided_share"] == 0.5
    assert values["setup_s"] == 0.6
    layer = spans.layer_metrics({}, 0.0)
    assert list(layer) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_same_seed_gives_same_specs(built):
    for name, workload in workloads.WORKLOADS.items():
        again = [item.fingerprint for item in workload.build()]
        assert again == [item.fingerprint for item in built[name]]
        committed = [e["fingerprint"] for e in workloads.load_expected(name)["specs"]]
        assert sorted(again) == sorted(committed), name
    entries = workloads.load_expected("generated-branching")["specs"]
    rng = random.Random(workloads.GENERATED_DRAW_SEED)
    draws = [workloads.draw_generated(rng) for _ in range(entries[-1]["draw"] + 1)]
    for entry in entries:
        assert draws[entry["draw"]] == entry["params"]


def test_lp_proxy_is_transparent():
    from repro.core.formulation import build_model
    from repro.errors import SolverError
    from repro.ilp.incremental import IncrementalLPSolver
    from repro.ilp.standard_form import compile_standard_form

    item = small_item()
    model, _ = build_model(item.spec, item.partitioner.options)
    form = compile_standard_form(model)
    tracer = spans.Tracer()
    bare, wrapped = IncrementalLPSolver(), IncrementalLPSolver()
    proxy = spans.LPProxy(wrapped, tracer)
    want = bare(form, form.lb, form.ub)
    got = proxy(form, form.lb, form.ub)
    assert (got.status, got.objective) == (want.status, want.objective)
    assert np.array_equal(got.values.array, want.values.array)
    assert proxy.kernel_telemetry() == wrapped.kernel_telemetry()
    assert proxy.kernel_telemetry()["calls"] == 1
    assert tracer.take()["ilp.incremental.tree.calls"] == 1

    def broken(form, lb, ub):
        raise SolverError("down")

    with pytest.raises(SolverError):
        spans.LPProxy(broken, tracer)(form, form.lb, form.ub)
    assert tracer.take()["ilp.incremental.failures"] == 1


def test_spans_reconcile_on_a_small_spec():
    import repro.core.partitioner as partitioner
    from repro.ilp.branch_bound import BranchAndBound

    item = small_item()
    plain = item.partitioner.partition_spec(item.spec)
    originals = (partitioner.build_model, BranchAndBound.__dict__["solve"])
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = tracer.call(spans.ROOT, item.partitioner.partition_spec, item.spec)
    assert (partitioner.build_model, BranchAndBound.__dict__["solve"]) == originals
    flat = tracer.take()
    total, gap = flat[f"{spans.ROOT}.s"], flat[f"{spans.ROOT}.self_s"]
    assert 0 <= gap <= max(run.RECONCILE_SHARE * total, run.RECONCILE_S)
    assert set(workloads.WORKLOADS["paper-default"].reaches) <= spans.fired(flat)
    assert answers.signature(traced) == answers.signature(plain)
    assert flat["ilp.branch_bound.nodes"] == plain.solve_stats.nodes_explored


def test_check_outcome_catches_a_wrong_answer():
    item = small_item()
    outcome = item.partitioner.partition_spec(item.spec)
    right = {"status": "optimal", "objective": outcome.objective}
    assert answers.check_outcome(outcome, right) == []
    assert answers.check_outcome(outcome, dict(right, objective=outcome.objective + 1))
    assert answers.check_outcome(outcome, dict(right, status="infeasible", objective=None))


class Raising:
    """A partitioner whose every solve raises."""

    def partition_spec(self, spec):
        raise RuntimeError("stub partitioner")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_ends_and_fails_when_every_solve_raises(monkeypatch, capsys, trace):
    workload = workloads.WORKLOADS["paper-default"]
    items = [dataclasses.replace(item, partitioner=Raising()) for item in workload.build()]
    monkeypatch.setattr(run, "setup", lambda name: (workload, items, 0.1))
    monkeypatch.setattr(run, "setup_in_child", lambda name: 0.1)
    code = run.main(["--workload", workload.name, "--seed", "1",
                     "--seconds", "0.05", "--trace", trace])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_run_refuses_without_solver_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
