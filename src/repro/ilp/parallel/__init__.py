"""Multi-process branch-and-bound: frontier sharding across workers.

The paper's Tables 3–4 show exact search cost exploding with graph
size; this package scales the PR 5 per-node speedups *across cores* by
sharding the open-node frontier over spawn-isolated worker
interpreters:

* the **coordinator** (:class:`~repro.ilp.parallel.coordinator.\
ParallelBranchAndBound`) ramps up the search inline until the frontier
  is wide enough, then dispatches subtree chunks — each chunk a top
  frontier node plus a node budget — to workers, re-absorbing whatever
  frontier a worker returns (that re-absorption *is* the work
  stealing: a busy subtree's leftovers go back into the shared pool
  and the next idle worker takes them);
* the **shared incumbent** is first-class: every improvement found by
  any worker is broadcast to all others immediately, so bound pruning
  stays as tight in every process as it would be in a sequential run;
* **deterministic replay** (``replay=True``) keeps a
  single chunk in flight, assigned round-robin — the global node
  sequence is then exactly the sequential one, so tests can assert the
  parallel machinery changes *nothing* about the search itself;
* workers are **crash-survivable**: a dead worker's in-flight chunk is
  re-queued and solved by the survivors; with no workers left the
  coordinator finishes the frontier inline, so the answer never
  depends on fleet health.

One search loop runs everywhere: the coordinator's rampup and inline
fallback and every worker chunk
(:meth:`~repro.ilp.branch_bound.BranchAndBound.explore_chunk`) run the
sequential solver's own depth-first loop.  Workers rebuild the problem
with a module-level context builder that travels, pickled by
reference, in the init payload (default
:func:`~repro.ilp.parallel.coordinator.plain_context`).

Subtrees travel between processes in the ``repro.bnb_checkpoint/v2``
frontier-delta encoding; the sharded frontier (pool plus in-flight
chunks) checkpoints through the same codec, so a killed parallel run
resumes — even under ``workers=1``.
"""

from repro.ilp.parallel.coordinator import ParallelBranchAndBound

__all__ = ["ParallelBranchAndBound"]
