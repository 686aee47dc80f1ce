"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.errors import SpecificationError
from repro.graph.io import save_task_graph
from repro.target.fpga import resolve_device


class TestParser:
    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--mix", "1A"])

    def test_sources_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--graph", "x.json", "--paper-graph", "1", "--mix", "1A"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["--paper-graph", "1", "--mix", "2A"])
        args_dict = vars(args)
        assert args_dict["branching"] == "paper"
        assert args_dict["backend"] == "bnb"
        assert args_dict["relaxation"] == 0


class TestResolveDevice:
    def test_catalog_name(self):
        assert resolve_device("xc4005").capacity == 392

    def test_custom_capacity(self):
        dev = resolve_device("300")
        assert dev.capacity == 300
        assert dev.alpha == 0.7

    def test_custom_capacity_alpha(self):
        dev = resolve_device("300:0.5")
        assert dev.alpha == 0.5

    def test_garbage_rejected(self):
        with pytest.raises(SpecificationError, match="unknown device"):
            resolve_device("not-a-device")

    def test_cli_turns_a_bad_device_into_an_exit(self):
        with pytest.raises(SystemExit, match="unknown device"):
            main(["--paper-graph", "1", "--mix", "2A+2M+1S",
                  "--device", "not-a-device"])


class TestMain:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_solve_json_output(self, capsys, tmp_path, chain3_graph):
        path = tmp_path / "g.json"
        save_task_graph(chain3_graph, path)
        code, out = self.run_cli(
            capsys,
            "--graph", str(path), "--mix", "1A+1M+1S",
            "-N", "2", "-L", "2", "--device", "2048:0.7", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["objective"] == 0
        assert set(payload["assignment"]) == {"t1", "t2", "t3"}

    def test_solve_text_report(self, capsys, tmp_path, chain3_graph):
        path = tmp_path / "g.json"
        save_task_graph(chain3_graph, path)
        code, out = self.run_cli(
            capsys,
            "--graph", str(path), "--mix", "1A+1M+1S",
            "-N", "2", "-L", "2", "--device", "2048:0.7",
        )
        assert code == 0
        assert "solve: optimal" in out
        assert "partition" in out

    def test_infeasible_exit_ok(self, capsys, tmp_path, chain3_graph):
        path = tmp_path / "g.json"
        save_task_graph(chain3_graph, path)
        code, out = self.run_cli(
            capsys,
            "--graph", str(path), "--mix", "1A+1M+1S",
            "-N", "1", "-L", "0", "--device", "130:0.7",
        )
        # A proven infeasibility is a successful run (exit 0).
        assert code == 0
        assert "infeasible" in out

    def test_dump_lp(self, capsys, tmp_path, chain3_graph):
        graph_path = tmp_path / "g.json"
        lp_path = tmp_path / "model.lp"
        save_task_graph(chain3_graph, graph_path)
        code, out = self.run_cli(
            capsys,
            "--graph", str(graph_path), "--mix", "1A+1M+1S",
            "-N", "2", "-L", "1", "--dump-lp", str(lp_path),
        )
        assert code == 0
        text = lp_path.read_text()
        assert "Minimize" in text and "Binaries" in text

    def test_verbose_solve_traces_incumbents(self, capsys, tmp_path, chain3_graph):
        path = tmp_path / "g.json"
        save_task_graph(chain3_graph, path)
        code = main([
            "--graph", str(path), "--mix", "1A+1M+1S",
            "-N", "2", "-L", "2", "--device", "2048:0.7",
            "--verbose-solve", "--trace-every", "1",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "[bnb]" in captured.err
        assert "*** incumbent" in captured.err
        assert "LP calls" in captured.out

    def test_telemetry_artifact_written(self, capsys, tmp_path, chain3_graph):
        path = tmp_path / "g.json"
        save_task_graph(chain3_graph, path)
        telemetry_path = tmp_path / "telemetry.json"
        code, out = self.run_cli(
            capsys,
            "--graph", str(path), "--mix", "1A+1M+1S",
            "-N", "2", "-L", "2", "--device", "2048:0.7",
            "--telemetry", str(telemetry_path),
        )
        assert code == 0
        record = json.loads(telemetry_path.read_text())
        assert record["schema"] == "repro.solve_telemetry/v12"
        assert record["status"] == "optimal"
        assert record["solve"]["nodes_explored"] >= 1

    def test_deadline_expiry_reports_gap(self, capsys, tmp_path, chain3_graph):
        path = tmp_path / "g.json"
        save_task_graph(chain3_graph, path)
        code, out = self.run_cli(
            capsys,
            "--graph", str(path), "--mix", "1A+1M+1S",
            "-N", "2", "-L", "2", "--device", "130:0.7",
            "--time-limit", "0", "--plain-search", "--json",
        )
        payload = json.loads(out)
        # A zero limit returns a bare timeout; any incumbent comes
        # with a gap.  Never a crash.
        assert payload["status"] in ("optimal", "feasible", "infeasible",
                                     "timeout")
        if payload["status"] == "feasible":
            assert code == 0
            assert payload["gap"] is not None

    def test_milp_backend_flag(self, capsys, tmp_path, chain3_graph):
        path = tmp_path / "g.json"
        save_task_graph(chain3_graph, path)
        code, out = self.run_cli(
            capsys,
            "--graph", str(path), "--mix", "1A+1M+1S",
            "-N", "2", "-L", "2", "--device", "2048:0.7",
            "--backend", "milp", "--json",
        )
        assert json.loads(out)["status"] == "optimal"

    def test_json_stdout_holds_only_the_document(
        self, capfd, monkeypatch, tmp_path, chain3_graph
    ):
        # HiGHS writes debug lines to fd 1 from native code, below
        # sys.stdout; they must not land in front of the document.
        from repro.core import partitioner

        real = partitioner.solve_milp_scipy

        def noisy(*args, **kwargs):
            os.write(1, b"HighsMipSolverData::transformNewIntegerFeasibleSolution\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(partitioner, "solve_milp_scipy", noisy)
        path = tmp_path / "g.json"
        save_task_graph(chain3_graph, path)
        code = main([
            "--graph", str(path), "--mix", "1A+1M+1S",
            "-N", "2", "-L", "2", "--device", "2048:0.7",
            "--backend", "milp", "--json",
        ])
        captured = capfd.readouterr()
        assert code == 0
        assert json.loads(captured.out)["status"] == "optimal"
        assert "HighsMipSolverData" in captured.err


class TestBatch:
    #: The journal digest of ``--specs g.json`` under the default solve
    #: flags, as written before the manifest coercion was merged into
    #: ``JobSpec.from_dict``; a journal only resumes when it matches.
    SPECS_DIGEST = "7cf52866a0906d8c0f314ae0704e1d29327ab859f9d8e43847791ffda9f7809f"

    def test_specs_batch_runs_in_process(
        self, capsys, monkeypatch, tmp_path, chain3_graph
    ):
        monkeypatch.chdir(tmp_path)
        save_task_graph(chain3_graph, "g.json")
        code = main([
            "batch", "--specs", "g.json", "--journal", "j.jsonl",
            "--format", "json", "--quiet",
        ])
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["outcomes"] == {"OK": 1}
        assert summary["rows"][0]["status"] == "optimal"
        with open("j.jsonl", encoding="utf-8") as journal:
            header = json.loads(journal.readline())
        assert header["manifest_digest"] == self.SPECS_DIGEST
