"""Outside-in per-layer spans for the benchmark's traced pass.

Inside ``with installed(tracer):`` the solver's public functions are
replaced, at the places ``partition_spec`` looks them up, by wrappers
that time every call as a span; leaving the block puts the originals
back.  Nothing inside ``src/`` changes, and untraced solves never see a
wrapper.

Spans nest.  A span's self time is its duration minus the time covered
by its child spans; ``trace.unattributed_s`` is the time of
``partition_spec`` (the root span the benchmark opens) that no
top-level span covers.  Layer names follow the module names.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List

from repro.errors import SolverError

ROOT = "partition_spec"
DIVE = "ilp.heuristics.dive"
POLISH = "ilp.heuristics.polish"

#: Every per-layer metric: (name, unit, better).  Times and counts are
#: per pass over the workload (each spec solved once).
LAYER_METRICS = [
    ("core.precheck.s", "s", "lower"),
    ("core.formulation.s", "s", "lower"),
    ("core.formulation.vars", "count", "lower"),
    ("core.formulation.rows", "count", "lower"),
    ("ilp.analysis.presolve.s", "s", "lower"),
    ("ilp.standard_form.s", "s", "lower"),
    ("ilp.branch_bound.s", "s", "lower"),
    ("ilp.branch_bound.self_s", "s", "lower"),
    ("ilp.branch_bound.nodes", "count", "lower"),
    ("ilp.branch_bound.nodes_per_s", "1/s", "higher"),
    ("ilp.incremental.calls", "count", "lower"),
    ("ilp.incremental.s", "s", "lower"),
    ("ilp.incremental.ms_per_call", "ms", "lower"),
    ("ilp.incremental.failures", "count", "lower"),
    ("ilp.incremental.tree.calls", "count", "lower"),
    ("ilp.incremental.tree.s", "s", "lower"),
    ("ilp.incremental.dive.calls", "count", "lower"),
    ("ilp.incremental.dive.s", "s", "lower"),
    ("ilp.incremental.polish.calls", "count", "lower"),
    ("ilp.incremental.polish.s", "s", "lower"),
    ("core.probe.calls", "count", "lower"),
    ("core.probe.s", "s", "lower"),
    ("core.probe.hit_ratio", "ratio", "higher"),
    ("core.leafsolve.calls", "count", "lower"),
    ("core.leafsolve.s", "s", "lower"),
    ("core.leafsolve.ms_per_call", "ms", "lower"),
    ("core.leafsolve.decided_ratio", "ratio", "higher"),
    ("ilp.heuristics.dive.calls", "count", "lower"),
    ("ilp.heuristics.dive.self_s", "s", "lower"),
    ("ilp.heuristics.dive.incumbent_ratio", "ratio", "higher"),
    ("ilp.heuristics.polish.calls", "count", "lower"),
    ("ilp.heuristics.polish.s", "s", "lower"),
    ("core.parallel_support.audit.calls", "count", "lower"),
    ("core.parallel_support.audit.s", "s", "lower"),
    ("core.parallel_support.audit.reject_ratio", "ratio", "lower"),
    ("core.decode.s", "s", "lower"),
    ("core.verify.s", "s", "lower"),
    ("baselines.fallback.calls", "count", "lower"),
    ("baselines.fallback.s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    """In-memory span recorder for one thread.

    :meth:`take` returns and clears what was recorded since the last
    call, as a flat ``{"<span>.calls"|"<span>.s"|"<span>.self_s"|
    "<counter>": float}`` dict.
    """

    def __init__(self) -> None:
        self._stack: List[list] = []
        self._spans: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._counts: Dict[str, float] = defaultdict(float)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        frame = [name, 0.0]  # [name, time covered by child spans]
        stack = self._stack
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            record = self._spans[name]
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def count(self, name: str, n: float = 1) -> None:
        self._counts[name] += n

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(frame[0] == name for frame in self._stack)

    def take(self) -> Dict[str, float]:
        flat = dict(self._counts)
        for name, (calls, total, own) in self._spans.items():
            flat[f"{name}.calls"] = calls
            flat[f"{name}.s"] = total
            flat[f"{name}.self_s"] = own
        self._spans.clear()
        self._counts.clear()
        return flat


class LPProxy:
    """An LP backend that times every solve and hides nothing else.

    Calls are split by caller (tree search, dive, polish) from the open
    spans; every other attribute is forwarded, so the solver still
    reads ``kernel_telemetry()`` and ``resilience_telemetry()``.  The
    spans are named ``ilp.incremental.*`` whatever the backend; under
    ``plain_search`` it is the bare SciPy ``solve_lp_scipy``.
    """

    def __init__(self, backend, tracer: Tracer) -> None:
        self._backend = backend
        self._tracer = tracer

    def __call__(self, form, lb, ub):
        tracer = self._tracer
        if tracer.inside(DIVE):
            name = "ilp.incremental.dive"
        elif tracer.inside(POLISH):
            name = "ilp.incremental.polish"
        else:
            name = "ilp.incremental.tree"
        try:
            return tracer.call(name, self._backend, form, lb, ub)
        except SolverError:
            tracer.count("ilp.incremental.failures")
            raise

    def __getattr__(self, attr):
        return getattr(self._backend, attr)


def _timed(tracer: Tracer, name: str, fn: Callable, outcome=None) -> Callable:
    """``fn`` wrapped in a span; ``outcome(result)`` may count results."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if outcome is not None:
            outcome(result)
        return result

    return wrapper


def _factory(fn: Callable, wrap: Callable) -> Callable:
    """A factory whose product is passed through ``wrap``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return wrap(fn(*args, **kwargs))

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Every traced site wrapped for the duration of the block."""
    import repro.core.leafsolve as leafsolve
    import repro.core.parallel_support as parallel_support
    import repro.core.partitioner as partitioner
    import repro.core.probe as probe
    import repro.ilp.analysis.presolve  # noqa: F401 - loads the submodule
    import repro.ilp.branch_bound as branch_bound
    import repro.ilp.heuristics as heuristics

    # ``import ... as`` would bind the package's re-exported
    # ``presolve`` function, which shadows the submodule.
    presolve_module = sys.modules["repro.ilp.analysis.presolve"]
    count = tracer.count

    def when(counter, test):
        return lambda result: count(counter) if test(result) else None

    def nodes(result):
        count("ilp.branch_bound.nodes", result.stats.nodes_explored)

    sites = [
        (partitioner, "precheck_spec", "core.precheck", None),
        (partitioner, "build_model", "core.formulation", None),
        (partitioner, "decode_solution", "core.decode", None),
        (partitioner, "verify_design", "core.verify", None),
        (partitioner, "level_partition", "baselines.fallback", None),
        (partitioner, "greedy_partition", "baselines.fallback", None),
        (presolve_module, "presolve", "ilp.analysis.presolve", None),
        (branch_bound, "compile_standard_form", "ilp.standard_form", None),
        (branch_bound.BranchAndBound, "solve", "ilp.branch_bound", nodes),
        (heuristics, "lp_dive", DIVE,
         when("ilp.heuristics.dive.incumbents", lambda r: r is not None)),
        (heuristics, "polish_incumbent", POLISH, None),
    ]
    factories = [
        (parallel_support, "make_lp_backend", lambda lp: LPProxy(lp, tracer)),
        (parallel_support, "make_incumbent_auditor", lambda audit: _timed(
            tracer, "core.parallel_support.audit", audit,
            when("core.parallel_support.audit.rejects", lambda ok: not ok))),
        (probe, "make_slot_prober", lambda prober: _timed(
            tracer, "core.probe", prober,
            when("core.probe.hits", bool))),
        (leafsolve, "make_leaf_solver", lambda leaf: _timed(
            tracer, "core.leafsolve", leaf,
            when("core.leafsolve.decided",
                 lambda r: r[0] in ("optimal", "infeasible")))),
    ]
    originals = []
    try:
        for owner, attr, name, outcome in sites:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, _timed(tracer, name, fn, outcome))
        for owner, attr, wrap in factories:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, _factory(fn, wrap))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def fired(flat: Dict[str, float]) -> set:
    """Names of the spans that recorded at least one call."""
    return {key[: -len(".calls")] for key, value in flat.items()
            if key.endswith(".calls") and value > 0}


def layer_metrics(per_pass: Dict[str, float], overhead_pct: float) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from per-pass span totals."""

    def get(key):
        return float(per_pass.get(key, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    callers = ("tree", "dive", "polish")
    lp_calls = sum(get(f"ilp.incremental.{c}.calls") for c in callers)
    lp_s = sum(get(f"ilp.incremental.{c}.s") for c in callers)
    # Most metrics are a span's ".calls"/".s"/".self_s" or a counter.
    values = {name: get(name) for name, _, _ in LAYER_METRICS}
    values.update({
        "ilp.branch_bound.nodes_per_s": ratio(
            get("ilp.branch_bound.nodes"), get("ilp.branch_bound.s")),
        "ilp.incremental.calls": lp_calls,
        "ilp.incremental.s": lp_s,
        "ilp.incremental.ms_per_call": 1000.0 * ratio(lp_s, lp_calls),
        "core.probe.hit_ratio": ratio(get("core.probe.hits"), get("core.probe.calls")),
        "core.leafsolve.ms_per_call": 1000.0 * ratio(
            get("core.leafsolve.s"), get("core.leafsolve.calls")),
        "core.leafsolve.decided_ratio": ratio(
            get("core.leafsolve.decided"), get("core.leafsolve.calls")),
        "ilp.heuristics.dive.incumbent_ratio": ratio(
            get("ilp.heuristics.dive.incumbents"), get(f"{DIVE}.calls")),
        "core.parallel_support.audit.reject_ratio": ratio(
            get("core.parallel_support.audit.rejects"),
            get("core.parallel_support.audit.calls")),
        "trace.unattributed_s": get(f"{ROOT}.self_s"),
        "trace.overhead_pct": overhead_pct,
    })
    return values
