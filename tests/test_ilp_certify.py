"""Certified solves: proof logging and the independent exact checker.

Three layers under test.  First, honest logs: sequential, resumed and
chaos-faulted solves, and logs kept from older solvers, must audit
CERTIFIED or CERTIFIED-WITH-FORFEITURES — an honest run is *never*
REFUTED, however degraded its certificates.  Second, tampered logs: each fixture mutates
one record (re-sealing its checksum so the semantic check, not the CRC,
is what fires) and must be REFUTED with the specific reason the
mutation deserves.  Third, the trust boundary itself: a static AST scan
pins the checker to the stdlib — no numpy, no scipy, no LP backend —
so the audit can never share a bug with the solver it audits.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import json
from pathlib import Path

import pytest

import repro.ilp.certify
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.certify.audit import audit_main
from repro.ilp.certify.checker import audit_proof
from repro.ilp.certify.proof import ProofLogMismatch, ProofWriter
from repro.ilp.certify.records import seal_record
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.resilience import FaultPlan
from repro.ilp.resilience.faults import FAULT_KINDS, FaultInjectingBackend
from repro.ilp.resilience.resilient import ResilientLPBackend
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import SolveStatus
from repro.ilp.standard_form import compile_standard_form


def bigger_model():
    """A knapsack the solver needs a real tree for (opt -56)."""
    model = Model("bigger")
    weights = [3, 5, 7, 11, 13, 17, 19, 23]
    values = [5, 8, 11, 15, 17, 20, 24, 29]
    xs = [model.add_binary(f"x{i}") for i in range(8)]
    model.add(lin_sum(w * x for w, x in zip(weights, xs)) <= 40)
    model.set_objective(lin_sum(-v * x for v, x in zip(values, xs)))
    return model


def infeasible_model():
    model = Model("infeasible")
    a = model.add_binary("a")
    b = model.add_binary("b")
    model.add(a + b >= 3)
    model.set_objective(-a - b)
    return model


#: A v1 log of the ``bigger_model`` knapsack, written by the solver when
#: it still had root reduced-cost fixing: one ``root`` record, six
#: ``rc_fix`` records and an ``rcbox`` prune.  The writer no longer
#: emits these records, but the checker must keep verifying old logs.
RC_FIX_LOG = Path(__file__).parent / "data" / "proof_v1_rc_fix.jsonl"

#: A v1 log of the same knapsack, written when the solver could shard
#: its frontier across worker processes: node ids from several ``c{k}n``
#: chunk namespaces next to the coordinator's ``m`` ids.  The sharded
#: search is gone; its logs must still audit.
SHARDED_LOG = Path(__file__).parent / "data" / "proof_v1_sharded.jsonl"


def _config(**overrides):
    return BranchAndBoundConfig(objective_is_integral=True, **overrides)


def _certified_log(tmp_path, name="proof.jsonl"):
    """Solve the knapsack with proof logging; returns (result, path)."""
    path = tmp_path / name
    result = BranchAndBound(
        bigger_model(), config=_config(proof_path=str(path))
    ).solve()
    assert result.status is SolveStatus.OPTIMAL
    return result, path


def _load_records(path):
    return [
        json.loads(line) for line in Path(path).read_bytes().splitlines()
    ]


def _dump_records(path, records):
    with open(path, "wb") as handle:
        for record in records:
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
            handle.write(line.encode("utf-8") + b"\n")


def _reseal(record):
    """Recompute the CRC of a *semantically* mutated record.

    Tamper fixtures must pass the checksum gate — otherwise every test
    would just exercise the CRC check instead of the semantic rule it
    targets."""
    body = dict(record)
    body.pop("crc", None)
    return seal_record(body)


class TestCertifiedSequential:
    def test_optimal_solve_certified(self, tmp_path):
        result, path = _certified_log(tmp_path)
        report = audit_proof(path)
        assert report.verdict == "CERTIFIED"
        assert report.exit_code == 0
        assert report.claimed_status == "optimal"
        assert report.certified_objective == result.objective == -56.0
        assert not report.forfeits
        assert report.counts["branch"] > 0
        assert report.counts["result"] == 1

    def test_reduced_cost_fixes_are_logged_and_verified(self):
        report = audit_proof(RC_FIX_LOG)
        # Each fix carries a replayable root-dual justification, or the
        # stored log would refute.
        assert report.counts.get("rc_fix", 0) == 6
        assert report.counts.get("root", 0) == 1
        assert report.verdict == "CERTIFIED"
        assert report.certified_objective == -56.0
        chunks = {
            record["id"].split("n")[0]
            for record in _load_records(SHARDED_LOG)
            if str(record.get("id", "")).startswith("c")
        }
        assert len(chunks) >= 2
        sharded = audit_proof(SHARDED_LOG)
        assert sharded.verdict == "CERTIFIED"
        assert sharded.certified_objective == -56.0

    def test_infeasible_model_certified(self, tmp_path):
        path = tmp_path / "infeasible.jsonl"
        result = BranchAndBound(
            infeasible_model(), config=_config(proof_path=str(path))
        ).solve()
        assert result.status is SolveStatus.INFEASIBLE
        report = audit_proof(path)
        assert report.verdict == "CERTIFIED"
        assert report.claimed_status == "infeasible"
        assert report.certified_objective is None

    def test_solver_telemetry_reports_proof_block(self, tmp_path):
        result, path = _certified_log(tmp_path)
        block = result.stats.proof
        assert block is not None
        assert block["path"] == str(path)
        assert isinstance(block["fingerprint"], str)
        assert len(block["fingerprint"]) == 64
        assert block["forfeits"] == 0
        # The writer's own record tally agrees with the audited log.
        report = audit_proof(path)
        assert block["records"] == report.counts


class TestForfeitures:
    def test_node_limit_stop_enumerates_open_subtrees(self, tmp_path):
        path = tmp_path / "limited.jsonl"
        result = BranchAndBound(
            bigger_model(), config=_config(proof_path=str(path), node_limit=3)
        ).solve()
        assert result.status is SolveStatus.NODE_LIMIT
        report = audit_proof(path)
        assert report.verdict == "CERTIFIED-WITH-FORFEITURES"
        assert report.exit_code == 1
        assert report.claimed_status == "node_limit"
        assert report.forfeits, "open frontier nodes must be enumerated"
        assert {f.cause for f in report.forfeits} == {"open_at_stop"}

    def test_dual_stripping_backend_downgrades_to_forfeits(self, tmp_path):
        # A backend that solves correctly but returns no duals: every
        # bound prune and leaf certificate degrades to an honest
        # forfeit — degraded, never refuted, and the optimum survives.
        def stripped(form, lb_override=None, ub_override=None):
            result = solve_lp_scipy(form, lb_override, ub_override)
            return dataclasses.replace(result, dual_ub=None, dual_eq=None)

        path = tmp_path / "stripped.jsonl"
        result = BranchAndBound(
            bigger_model(),
            config=_config(proof_path=str(path), lp_backend=stripped),
        ).solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == -56.0
        report = audit_proof(path)
        assert report.verdict == "CERTIFIED-WITH-FORFEITURES"
        assert report.certified_objective == -56.0
        assert report.forfeits
        assert {f.cause for f in report.forfeits} <= {
            "no_certificate", "uncertified_leaf"
        }
        assert all(f.node for f in report.forfeits)

    @pytest.mark.parametrize("seed", [13, 99, 7])
    def test_chaos_faults_recover_with_full_certificates(self, tmp_path, seed):
        plan = FaultPlan(kinds=FAULT_KINDS, rate=0.5, seed=seed, slow_s=0.0)
        backend = ResilientLPBackend(
            backends=[
                ("chaos", FaultInjectingBackend(solve_lp_scipy, plan)),
                ("scipy-highs", solve_lp_scipy),
            ],
            double_check_infeasible=True,
            sleep=lambda s: None,
        )
        path = tmp_path / f"chaos{seed}.jsonl"
        result = BranchAndBound(
            bigger_model(),
            config=_config(proof_path=str(path), lp_backend=backend),
        ).solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == -56.0
        report = audit_proof(path)
        # The fallback returns its duals, so every node the chain
        # recovers keeps its certificate: nothing is forfeited.
        assert report.verdict == "CERTIFIED"
        assert report.certified_objective == -56.0
        assert not report.forfeits


class TestTornAndForeignLogs:
    def test_torn_final_line_tolerated(self, tmp_path):
        _, path = _certified_log(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b'{"kind":"branch","id":"m9')  # crash mid-write
        report = audit_proof(path)
        assert report.verdict == "CERTIFIED"
        assert report.torn_tail

    def test_mid_log_byte_flip_refuted(self, tmp_path):
        _, path = _certified_log(tmp_path)
        lines = path.read_bytes().split(b"\n")
        flipped = bytearray(lines[2])
        flipped[10] ^= 0x01
        lines[2] = bytes(flipped)
        path.write_bytes(b"\n".join(lines))
        report = audit_proof(path)
        assert report.verdict == "REFUTED"
        assert report.exit_code == 2
        assert report.reason in ("malformed record", "record checksum mismatch")
        assert report.line == 3

    def test_foreign_fingerprint_resume_refused(self, tmp_path):
        _, path = _certified_log(tmp_path)
        foreign_form = compile_standard_form(infeasible_model())
        with pytest.raises(ProofLogMismatch, match="fingerprint mismatch"):
            ProofWriter(
                path,
                foreign_form,
                objective_is_integral=True,
                int_tol=1e-6,
                resume=True,
            )

    def test_expected_fingerprint_mismatch_refutes(self, tmp_path):
        _, path = _certified_log(tmp_path)
        report = audit_proof(path, expected_fingerprint="0" * 64)
        assert report.verdict == "REFUTED"
        assert "fingerprint" in report.reason


class TestTamperFixtures:
    """Each fixture mutates one sealed record, re-seals it, and must be
    REFUTED for the *semantic* reason — not the checksum."""

    def test_weakened_dual_refuted(self, tmp_path):
        _, path = _certified_log(tmp_path)
        records = _load_records(path)
        for i, record in enumerate(records):
            if (
                record.get("kind") == "prune"
                and record.get("cert", {}).get("kind") == "duals"
            ):
                tampered = copy.deepcopy(record)
                tampered["cert"]["y_ub"] = {
                    k: v * 0.5 for k, v in tampered["cert"]["y_ub"].items()
                }
                records[i] = _reseal(tampered)
                break
        else:  # pragma: no cover - fixture invariant
            pytest.fail("expected a dual-certified bound prune in the log")
        _dump_records(path, records)
        report = audit_proof(path)
        assert report.verdict == "REFUTED"
        assert report.reason == "dual bound below threshold"

    def test_missing_leaf_refuted(self, tmp_path):
        _, path = _certified_log(tmp_path)
        records = _load_records(path)
        closure = next(i for i, r in enumerate(records) if r.get("kind") == "prune")
        node = records[closure]["id"]
        del records[closure]
        _dump_records(path, records)
        report = audit_proof(path)
        assert report.verdict == "REFUTED"
        assert report.reason == f"unclosed subtree {node!r}"

    def test_duplicated_subtree_refuted(self, tmp_path):
        _, path = _certified_log(tmp_path)
        records = _load_records(path)
        closure = next(i for i, r in enumerate(records) if r.get("kind") == "prune")
        node = records[closure]["id"]
        records.insert(closure, records[closure])
        _dump_records(path, records)
        report = audit_proof(path)
        assert report.verdict == "REFUTED"
        assert report.reason in (
            f"node {node!r} is not open",
            f"duplicate node id {node!r}",
        )

    def test_wrong_fingerprint_refuted(self, tmp_path):
        _, path = _certified_log(tmp_path)
        records = _load_records(path)
        header = copy.deepcopy(records[0])
        header["fingerprint"] = "0" * 64
        records[0] = _reseal(header)
        _dump_records(path, records)
        report = audit_proof(path)
        assert report.verdict == "REFUTED"
        assert report.reason == "fingerprint mismatch"

    def test_moved_reduced_cost_fix_refuted(self, tmp_path):
        records = _load_records(RC_FIX_LOG)
        i = next(i for i, r in enumerate(records) if r.get("kind") == "rc_fix")
        tampered = copy.deepcopy(records[i])
        tampered["bound"] = 1.0 - tampered["bound"]
        records[i] = _reseal(tampered)
        path = tmp_path / "moved_fix.jsonl"
        _dump_records(path, records)
        report = audit_proof(path)
        assert report.verdict == "REFUTED"
        assert report.reason == (
            f"fix of x{tampered['var']} does not match the root "
            f"{'lower' if tampered['side'] == 'lb' else 'upper'} bound"
        )

    def test_inflated_claim_refuted(self, tmp_path):
        _, path = _certified_log(tmp_path)
        records = _load_records(path)
        final = copy.deepcopy(records[-1])
        assert final["kind"] == "result"
        final["objective"] = final["objective"] - 1.0
        records[-1] = _reseal(final)
        _dump_records(path, records)
        report = audit_proof(path)
        assert report.verdict == "REFUTED"
        assert "certified incumbent" in report.reason


class TestKillAndResume:
    def test_interrupted_then_resumed_run_certifies(self, tmp_path):
        proof = tmp_path / "resumed.jsonl"
        checkpoint = tmp_path / "ck.json"
        interrupted = BranchAndBound(
            bigger_model(),
            config=_config(
                proof_path=str(proof),
                node_limit=5,
                checkpoint_path=str(checkpoint),
                checkpoint_every=1,
            ),
        ).solve()
        assert interrupted.status is not SolveStatus.OPTIMAL
        partial = audit_proof(proof)
        assert partial.verdict == "CERTIFIED-WITH-FORFEITURES"

        # "Restarted process": fresh solver appends to the same log.
        resumed = BranchAndBound(
            bigger_model(), config=_config(proof_path=str(proof))
        ).resume(str(checkpoint))
        assert resumed.status is SolveStatus.OPTIMAL
        report = audit_proof(proof)
        # The resume frontier re-covers the forfeited nodes, so the
        # *final* log certifies outright.
        assert report.verdict == "CERTIFIED"
        assert report.counts["resume"] == 1
        assert report.certified_objective == resumed.objective == -56.0


class TestHeuristicIncumbent:
    def test_leaf_subsolve_emits_certified_incumbent_record(self, tmp_path):
        # The Table-3 g1/N3/L1 row needs the leaf MILP sub-solve as a
        # primal heuristic: in proof mode that sub-solve cannot close a
        # subtree (no replayable certificate), so its solution is logged
        # as a globally-verified `incumbent` record and the tree is
        # closed by ordinary bound prunes against it.
        from repro.reporting.experiments import run_row, table_rows

        row = next(
            r
            for r in table_rows("t3")
            if r.graph == 1 and r.n_partitions == 3 and r.relaxation == 1
        )
        path = tmp_path / "t3.jsonl"
        measured = run_row(row, time_limit_s=120, proof_path=str(path))
        assert measured["status"] == "optimal"
        report = audit_proof(path)
        assert report.verdict == "CERTIFIED"
        assert report.counts.get("incumbent", 0) >= 1


class TestCheckerIndependence:
    def test_trust_kernel_imports_no_solver_stack(self):
        """AST-level gate: the checker must not even *import* the code
        it audits — no numpy/scipy/LP backend, and no repro module
        outside the certify package."""
        certify_dir = Path(repro.ilp.certify.__file__).parent
        forbidden_roots = ("numpy", "scipy", "highspy")
        for name in ("records.py", "checker.py", "audit.py"):
            tree = ast.parse((certify_dir / name).read_text())
            imported = []
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.extend(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    imported.append(node.module)
            for module in imported:
                root = module.split(".")[0]
                assert root not in forbidden_roots, (
                    f"{name} imports {module}: the audit trust kernel "
                    "must stay independent of the solver stack"
                )
                if root == "repro":
                    assert module.startswith("repro.ilp.certify"), (
                        f"{name} imports {module}: only intra-package "
                        "imports are allowed in the trust kernel"
                    )


class TestAuditCli:
    def test_exit_codes_span_all_verdicts(self, tmp_path, capsys):
        _, certified = _certified_log(tmp_path)

        forfeited = tmp_path / "forfeited.jsonl"
        BranchAndBound(
            bigger_model(),
            config=_config(proof_path=str(forfeited), node_limit=3),
        ).solve()

        refuted = tmp_path / "refuted.jsonl"
        data = bytearray(certified.read_bytes())
        data[len(data) // 2] ^= 0x01
        refuted.write_bytes(bytes(data))

        assert audit_main([str(certified)]) == 0
        assert audit_main([str(forfeited)]) == 1
        assert audit_main([str(refuted)]) == 2
        assert audit_main([str(tmp_path / "missing.jsonl")]) == 3
        out = capsys.readouterr().out
        assert "verdict: CERTIFIED" in out
        assert "verdict: REFUTED" in out

    def test_retired_v2_schema_is_unsupported(self, tmp_path, capsys):
        _, path = _certified_log(tmp_path)
        records = _load_records(path)
        records[0]["schema"] = "repro.bnb_proof/v2"
        records[0]["cuts"] = 0
        records[0] = _reseal(records[0])
        _dump_records(path, records)
        assert audit_main([str(path)]) == 3
        out = capsys.readouterr().out
        assert "verdict: UNSUPPORTED" in out
        assert "cut records (schema v2) are no longer supported" in out

    def test_json_report(self, tmp_path, capsys):
        _, path = _certified_log(tmp_path)
        assert audit_main([str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "CERTIFIED"
        assert payload["claimed_status"] == "optimal"
        assert payload["counts"]["result"] == 1

    def test_quiet_mode_prints_nothing(self, tmp_path, capsys):
        _, path = _certified_log(tmp_path)
        assert audit_main([str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
