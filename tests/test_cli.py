"""Tests for the command-line interface."""

import argparse
import json

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.util.parallel import resolve_backend


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_docstring_names_every_subcommand(self):
        def names(parser, prefix=""):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, child in action.choices.items():
                        yield prefix + name
                        yield from names(child, prefix + name + " ")

        missing = [n for n in names(build_parser()) if f"``{n}``" not in repro.cli.__doc__]
        assert missing == []


class TestVersion:
    def test_prints_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == "1.0.0"


class TestAnalyze:
    def test_single_criterion(self, capsys):
        code = main(
            [
                "analyze",
                "--criterion",
                "relaxed",
                "--tasks",
                "300",
                "--loaded-ranks",
                "4",
                "--ranks",
                "64",
                "--iters",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "criterion: relaxed" in out
        assert "I0" in out

    def test_both_criteria_with_json(self, capsys, tmp_path):
        out_file = tmp_path / "analysis.json"
        code = main(
            [
                "analyze",
                "--tasks",
                "300",
                "--loaded-ranks",
                "4",
                "--ranks",
                "64",
                "--iters",
                "2",
                "--json",
                str(out_file),
            ]
        )
        assert code == 0
        assert "Criterion 35" in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"original", "relaxed"}
        assert len(payload["relaxed"]) == 2


class TestEmpire:
    def test_spmd_run(self, capsys):
        code = main(
            [
                "empire",
                "--config",
                "spmd",
                "--ranks",
                "16",
                "--steps",
                "10",
                "--lb-period",
                "5",
                "--particles",
                "500",
            ]
        )
        assert code == 0
        assert "SPMD (no AMT)" in capsys.readouterr().out

    def test_balanced_run_reports_speedup(self, capsys, tmp_path):
        out_file = tmp_path / "empire.json"
        code = main(
            [
                "empire",
                "--config",
                "greedy",
                "--ranks",
                "16",
                "--steps",
                "20",
                "--lb-period",
                "5",
                "--particles",
                "1000",
                "--json",
                str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup vs SPMD" in out
        rows = json.loads(out_file.read_text())
        assert len(rows) == 2

    def test_bad_configuration(self):
        with pytest.raises(ValueError, match="configuration"):
            main(["empire", "--config", "warp", "--steps", "5"])


class TestSweep:
    def test_runs_spec_file(self, capsys, tmp_path):
        from repro.analysis.io import save_json

        spec = {
            "workloads": {
                "w": {"generator": "random", "n_tasks": 100, "n_ranks": 8}
            },
            "strategies": {"greedy": {"kind": "greedy"}},
            "seeds": [0, 1],
        }
        spec_path = tmp_path / "spec.json"
        save_json(spec, spec_path)
        out_path = tmp_path / "rows.json"
        code = main(["sweep", str(spec_path), "--json", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "greedy" in out and "sweep over 2 seeds" in out
        rows = json.loads(out_path.read_text())
        assert len(rows) == 1
        assert rows[0]["raw"]["final"]


class TestTrace:
    def test_prints_gantt_and_stats(self, capsys):
        code = main(["trace", "--ranks", "6", "--tasks-per-rank", "3", "--width", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rank   0 |" in out
        assert "mean utilization" in out
        assert "messages by tag" in out

    @pytest.mark.parametrize("flag", ["--width", "--tasks-per-rank"])
    def test_bad_count_rejected_before_the_run(self, flag, monkeypatch):
        def no_runtime(*args, **kwargs):
            pytest.fail("the runtime was built before the flags were checked")

        monkeypatch.setattr("repro.runtime.AMTRuntime", no_runtime)
        with pytest.raises(ValueError, match=flag):
            main(["trace", "--ranks", "2", flag, "0"])


class TestStats:
    @pytest.mark.parametrize("phases", ["0", "-1"])
    def test_bad_phase_count_rejected_before_the_balancer(self, phases, monkeypatch):
        def no_balancer(*args, **kwargs):
            pytest.fail("the balancer was built before --phases was checked")

        monkeypatch.setattr("repro.core.tempered.TemperedLB", no_balancer)
        with pytest.raises(ValueError, match="--phases"):
            main(["stats", "--phases", phases])


class TestProtocols:
    def test_reports_costs(self, capsys, tmp_path):
        out_file = tmp_path / "protocols.json"
        code = main(["protocols", "--ranks", "16", "--json", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "allreduce" in out
        row = json.loads(out_file.read_text())[0]
        assert row["P"] == 16
        assert row["coverage"] > 0.5

    #: Rows of ``repro protocols --ranks 64`` before the inform stage moved
    #: onto the per-rank rule, lossless and with loss plus a crash (whose
    #: stage runs into its 2 ms timeout with the crashed rank suspected).
    PINNED = {
        (): {
            "P": 64,
            "allreduce (us)": 10.641066666666662,
            "coverage": 0.98515625,
            "gossip (us)": 91.75013333333337,
            "gossip msgs": 1488,
        },
        ("--loss-rate", "0.1", "--fault-seed", "3", "--churn", "crash:5@0.00005"): {
            "P": 64,
            "allreduce (us)": 10.641066666666662,
            "coverage": 0.97578125,
            "crashes": 1,
            "drops": 132,
            "gossip (us)": 2000.0,
            "gossip msgs": 1471,
            "suspected": 1,
        },
    }

    @pytest.mark.parametrize("flags", list(PINNED), ids=["lossless", "loss_and_crash"])
    def test_rows_are_pinned(self, flags, capsys, tmp_path):
        out_file = tmp_path / "protocols.json"
        code = main(["protocols", "--ranks", "64", *flags, "--json", str(out_file)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(out_file.read_text()) == [self.PINNED[flags]]


class TestBench:
    def test_quick_bench_writes_json(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_perf.json"
        code = main(
            ["bench", "--quick", "--repeats", "1", "--json", str(out_file)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "refinement_parallel_vs_serial" in out
        payload = json.loads(out_file.read_text())
        assert payload["meta"]["quick"] is True
        # The § V-scale stage cases are benchmarks/e2e's: without
        # --scale the bench writes the refinement race and nothing else.
        names = [b["name"] for b in payload["benchmarks"]]
        assert names == ["refinement/serial", "refinement/parallel"]
        assert payload["scale_ladder"] == []
        assert list(payload["speedups"]) == ["refinement_parallel_vs_serial"]
        assert payload["speedups"]["refinement_parallel_vs_serial"] > 0

    def test_profile_writes_hotspot_listings(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--quick", "--repeats", "1", "--profile", "--json", "-"])
        out = capsys.readouterr().out
        assert code == 0
        results = tmp_path / "benchmarks" / "results"
        written = sorted(p.name for p in results.glob("profile_*.txt"))
        assert written == ["profile_refinement_serial.txt"]
        text = (results / "profile_refinement_serial.txt").read_text()
        assert "cumulative" in text  # pstats sort order header
        assert "[profile: " in out

    def test_dash_skips_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--quick", "--repeats", "1", "--json", "-"])
        assert code == 0
        assert "perf bench" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_perf.json").exists()

    def test_workers_and_executor_flags(self, capsys, tmp_path):
        out_file = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "bench",
                "--quick",
                "--repeats",
                "1",
                "--workers",
                "2",
                "--json",
                str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "refinement utilization" in out
        payload = json.loads(out_file.read_text())
        assert payload["meta"]["cpu_count"] >= 1
        # The backend is resolved, never requested: 2 workers x 2 trials
        # get a process pool wherever a second core and fork exist.
        resolved = resolve_backend(2, 2)
        refinement = payload["refinement_parallel"]
        assert refinement["executor"] == resolved
        assert "executor_requested" not in refinement
        assert refinement["n_workers"] == 2
        assert refinement["stage_wall_seconds"] > 0
        by_name = {b["name"]: b for b in payload["benchmarks"]}
        assert by_name["refinement/serial"]["executor"] == "serial"
        assert by_name["refinement/parallel"]["executor"] == resolved


class TestExecutorFlags:
    def test_parser_accepts_workers_and_executor(self):
        for command in (
            ["stats", "--workers", "2"],
            ["empire", "--workers", "4"],
            ["bench", "--workers", "2"],
        ):
            args = build_parser().parse_args(command)
            assert args.workers in (2, 4)
            assert not hasattr(args, "executor")

    def test_parser_rejects_unknown_executor(self):
        # --executor is gone: every value is an argparse error now.
        for command in ("stats", "empire", "bench"):
            for backend in ("gpu", "thread", "process"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, "--executor", backend])

    def test_stats_phases_identical_for_any_worker_count(self, capsys):
        # Each trial draws its own spawned stream for every count >= 1,
        # so the worker count is scheduling only. (Omitting --workers
        # runs the shared-stream loop, whose decisions differ.)
        lines = []
        for workers in ("1", "2"):
            argv = ["stats", "--tasks", "400", "--ranks", "32", "--phases", "2"]
            assert main([*argv, "--workers", workers]) == 0
            out = capsys.readouterr().out
            lines.append([l for l in out.splitlines() if l.startswith("phase ")])
        assert len(lines[0]) == 2
        assert lines[0] == lines[1]

    def test_stats_runs_with_process_executor(self, capsys):
        code = main(
            [
                "stats",
                "--tasks",
                "200",
                "--ranks",
                "16",
                "--phases",
                "1",
                "--trials",
                "2",
                "--iters",
                "1",
                "--workers",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lb.iteration" in out
        assert "wall.refinement" in out
