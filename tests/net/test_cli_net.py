"""The ``repro net run`` / ``repro net analyze`` command pair."""

import json

import pytest

from repro.cli import main
from repro.net import NetOptions


@pytest.fixture(scope="module")
def episode_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("net_cli")
    code = main(
        [
            "net", "run",
            "--ranks", "16",
            "--seed", "3",
            "--out", str(out),
            "--check",
        ]
    )
    assert code == 0
    return out


class TestNetRun:
    def test_writes_result_and_logs(self, episode_dir, capsys):
        payload = json.loads((episode_dir / "result.json").read_text())
        assert payload["mode"] == "net"
        assert payload["spec"]["n_ranks"] == 16
        assert payload["result"]["per_round_messages"]
        assert list(episode_dir.glob("logs/wire_rank*.jsonl"))

    def test_check_reports_bit_identity(self, episode_dir, capsys, tmp_path):
        code = main(
            [
                "net", "run",
                "--ranks", "8",
                "--seed", "1",
                "--out", str(tmp_path / "ep"),
                "--no-logs",
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identity: net == sim" in out
        assert not (tmp_path / "ep" / "logs").exists()


class TestNetAnalyze:
    def test_analyze_consistent_episode(self, episode_dir, capsys, tmp_path):
        report_json = tmp_path / "report.json"
        code = main(
            ["net", "analyze", str(episode_dir), "--json", str(report_json)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CONSISTENT" in out
        report = json.loads(report_json.read_text())
        assert report["consistent"] is True

    def test_analyze_flags_doctored_result(self, episode_dir, capsys):
        result_path = episode_dir / "result.json"
        payload = json.loads(result_path.read_text())
        payload["result"]["per_round_messages"][0] += 1
        result_path.write_text(json.dumps(payload))
        try:
            code = main(["net", "analyze", str(episode_dir)])
            out = capsys.readouterr().out
            assert code == 1
            assert "MISMATCH" in out
        finally:
            payload["result"]["per_round_messages"][0] -= 1
            result_path.write_text(json.dumps(payload))


class TestNetRunRefusesBadOptions:
    """A bad host option fails before any socket opens, naming itself,
    instead of being rewritten to something that runs."""

    @pytest.fixture(autouse=True)
    def no_episode(self, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("an episode started despite a bad option")

        monkeypatch.setattr("repro.net.run_episode_net", refuse)

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--workers", "0", "workers"),
            ("--workers", "-2", "workers"),
            ("--processes", "-1", "--processes"),
            ("--timeout", "0", "timeout"),
        ],
    )
    def test_bad_host_option(self, flag, value, name, tmp_path):
        with pytest.raises(ValueError, match=name):
            main(["net", "run", "--ranks", "8", "--out", str(tmp_path), flag, value])

    def test_workers_with_processes_refused(self, tmp_path):
        """Both flags set the worker count, so naming both is refused
        instead of one being dropped."""
        with pytest.raises(ValueError, match="--workers and --processes"):
            main(["net", "run", "--ranks", "8", "--out", str(tmp_path),
                  "--workers", "3", "--processes", "2"])

    @pytest.mark.parametrize("ranks", ["0", "-4"])
    def test_bad_rank_count_names_ranks(self, ranks, tmp_path):
        with pytest.raises(ValueError, match="n_ranks"):
            main(["net", "run", "--ranks", ranks, "--out", str(tmp_path)])


@pytest.mark.parametrize(
    "kwargs", [{"workers": 0}, {"workers": -2}, {"workers": 1.5}, {"timeout": 0.0}]
)
def test_net_options_refuse_bad_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        NetOptions(**kwargs)
