"""Report/plumbing tests for the perf bench and its scale ladder.

Timing itself is covered by ``benchmarks/`` and the CI gates; here we
pin the cheap contracts: the race rows print at the meta scale, each
rung's numbers print once under their own rung (store, message-model
bit, transfer, episode), the rung table is well-formed, one rung record
carries the rung's numbers exactly once, and the ladder rejects
unknown rungs without spawning anything.
"""

import pytest

from repro.perf import SCALE_RSS_BUDGET_MB, SCALE_RUNGS, format_report
from repro.perf.bench import LADDER_MAX_KNOWN, _run_scale_rung, run_scale_ladder


def _payload():
    return {
        "meta": {
            "quick": True,
            "repeats": 1,
            "scale": {"n_tasks": 2000, "n_loaded_ranks": 8, "n_ranks": 512},
            "cpu_count": 2,
        },
        "benchmarks": [
            {
                "name": "refinement/serial",
                "seconds": 0.02,
                "repeats": 1,
                "n_workers": 1,
                "executor": "serial",
            },
        ],
        "speedups": {"inform_backend_auto_vs_alt_32k": 6.5},
        "scale_ladder": [
            {
                "scale": "32k",
                "n_ranks": 32768,
                "n_tasks": 100000,
                "auto_backend": "sparse",
                "inform_seconds": {"packed": 16.25, "sparse": 2.5},
                "message_model_exact": {"packed": True, "sparse": True},
                "knowledge_memory_mb": {"packed": 128.0, "sparse": 1.9},
                "transfer_seconds": 0.75,
                "transfers": 4321,
                "refinement": {
                    "seconds": 21.5,
                    "n_trials": 1,
                    "n_iters": 2,
                    "stage_walls": {"wall.inform": 17.0, "wall.transfer": 3.1},
                },
                "peak_rss_mb": 740.0,
                "peak_rss_budget_mb": 4096,
                "subprocess": True,
            }
        ],
        "wall_timers": {},
        "refinement_parallel": {"wall_seconds": 0.0},
    }


def _line(report, start):
    return next(l for l in report.splitlines() if l.strip().startswith(start))


class TestFormatReport:
    def test_rows_lead_with_their_own_rung(self):
        lines = format_report(_payload()).splitlines()
        # The race row prints at the meta scale (the header's); the
        # rung's numbers print in the block its own rung line opens.
        assert "512 ranks" in lines[0]
        row = next(l for l in lines if "refinement/serial" in l)
        assert "executor=serial" in row
        at = next(i for i, l in enumerate(lines) if l.strip().startswith("rung 32k:"))
        assert lines[at + 1].strip().startswith("inform:")
        assert lines[at + 2].strip().startswith("episode")

    def test_knowledge_backend_printed_per_row(self):
        inform = _line(format_report(_payload()), "inform:")
        assert "packed 16.25s (f x senders exact)" in inform
        assert "sparse 2.50s (f x senders exact)" in inform
        assert "transfer 0.75s, 4321 transfers" in inform

    def test_broken_message_model_is_printed(self):
        payload = _payload()
        payload["scale_ladder"][0]["message_model_exact"]["sparse"] = False
        inform = _line(format_report(payload), "inform:")
        assert "sparse 2.50s (f x senders BROKEN)" in inform

    def test_rung_summary_includes_rss_and_budget(self):
        rung = _line(format_report(_payload()), "rung")
        assert "740" in rung and "4096" in rung and "auto=sparse" in rung

    def test_rung_summary_includes_knowledge_memory(self):
        rung = _line(format_report(_payload()), "rung")
        assert "packed=128.0MB" in rung and "sparse=1.9MB" in rung

    def test_rung_episode_line_prints_stage_walls(self):
        episode = _line(format_report(_payload()), "episode")
        assert "1x2" in episode
        assert "21.50s total" in episode
        assert "inform 17.00s" in episode and "transfer 3.10s" in episode

    def test_in_process_rss_is_flagged(self):
        payload = _payload()
        payload["scale_ladder"][0]["subprocess"] = False
        report = format_report(payload)
        assert "upper bound" in report

    def test_report_without_ladder_still_renders(self):
        payload = _payload()
        del payload["scale_ladder"]
        report = format_report(payload)
        assert "rung" not in report
        assert "refinement/serial" in report


class TestLadderPlumbing:
    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError, match="scale must be one of"):
            run_scale_ladder("64k")

    def test_rung_table_is_consistent(self):
        assert set(SCALE_RSS_BUDGET_MB) == set(SCALE_RUNGS)
        assert LADDER_MAX_KNOWN > 0
        for name, spec in SCALE_RUNGS.items():
            assert spec["tasks_quick"] <= spec["tasks_full"]
            assert spec["n_loaded"] < spec["n_ranks"]
            # Rung rank counts are exact powers of two (2^12..2^17).
            assert spec["n_ranks"] & (spec["n_ranks"] - 1) == 0
        # The acceptance budget: the 131k rung must fit in 8 GiB.
        assert SCALE_RSS_BUDGET_MB["131k"] == 8192

    def test_rung_record_holds_each_number_once(self):
        # In-process (no spawn), quick 4k: the record is the only copy
        # of the rung's numbers — one entry per store raced, scalar
        # transfer figures, a message-model bit per store.
        record = _run_scale_rung("4k", quick=True, repeats=1, seed=0)
        assert record["auto_backend"] in ("packed", "sparse")
        for key in ("inform_seconds", "inform_messages", "knowledge_memory_mb"):
            assert set(record[key]) == {"packed", "sparse"}, key
        assert record["message_model_exact"] == {"packed": True, "sparse": True}
        assert record["inform_messages"]["packed"] == record["inform_messages"]["sparse"]
        assert isinstance(record["transfer_seconds"], float)
        assert isinstance(record["transfers"], int) and record["transfers"] > 0
        walls = record["refinement"]["stage_walls"]
        assert walls["wall.inform"] > 0 and walls["wall.transfer"] > 0
