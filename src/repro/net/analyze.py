"""Offline analysis of a ``repro net run`` artifact directory.

Consumes the ``result.json`` the coordinator saves plus the per-rank
JSONL message logs, and cross-checks them against each other: the logs
are written by the transport as messages actually move, the result by
the protocol accounting — when both exist, their per-round message counts
must agree, and :func:`analyze_episode` reports any divergence instead
of averaging it away.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.net.logging_jsonl import iter_records

__all__ = ["analyze_episode", "analyze_logs", "format_report"]


def analyze_logs(log_dir: Path | str) -> dict[str, Any]:
    """Aggregate every ``wire_rank*.jsonl`` under ``log_dir``.

    Returns per-round tx/rx message counts, per-tag totals, model vs
    encoded message bytes, retry counts, and the per-rank tx spread.
    """
    log_dir = Path(log_dir)
    files = sorted(log_dir.glob("wire_rank*.jsonl"))
    # Rounds are keyed (iteration, round) so multi-iteration episodes
    # line up with EpisodeResult.per_round_messages, which concatenates
    # the per-iteration gossip stages.
    per_round_tx: dict[tuple[int, int], int] = {}
    per_round_rx: dict[tuple[int, int], int] = {}
    per_tag_tx: dict[str, int] = {}
    per_node_tx: dict[int, int] = {}
    model_bytes = 0
    frame_bytes = 0
    retries = 0
    span_wall = [float("inf"), float("-inf")]
    for path in files:
        for row in iter_records(path):
            direction = row["dir"]
            if direction == "retry":
                retries += 1
                continue
            span_wall[0] = min(span_wall[0], row["t_wall"])
            span_wall[1] = max(span_wall[1], row["t_wall"])
            if direction == "tx":
                per_tag_tx[row["tag"]] = per_tag_tx.get(row["tag"], 0) + 1
                per_node_tx[row["rank"]] = per_node_tx.get(row["rank"], 0) + 1
                model_bytes += row["size"]
                frame_bytes += row["frame_bytes"]
                if row["round"] is not None:
                    key = (int(row["iter"]), int(row["round"]))
                    per_round_tx[key] = per_round_tx.get(key, 0) + 1
            elif row["round"] is not None:
                key = (int(row["iter"]), int(row["round"]))
                per_round_rx[key] = per_round_rx.get(key, 0) + 1
    rounds = sorted(set(per_round_tx) | set(per_round_rx))
    return {
        "nodes": len(files),
        "per_round_tx": [per_round_tx.get(r, 0) for r in rounds],
        "per_round_rx": [per_round_rx.get(r, 0) for r in rounds],
        "rounds": [list(r) for r in rounds],
        "per_tag_tx": dict(sorted(per_tag_tx.items())),
        "model_bytes": model_bytes,
        "frame_bytes": frame_bytes,
        "retries": retries,
        "max_node_tx": max(per_node_tx.values(), default=0),
        "wall_span_s": (
            span_wall[1] - span_wall[0] if span_wall[1] >= span_wall[0] else 0.0
        ),
    }


def analyze_episode(out_dir: Path | str) -> dict[str, Any]:
    """Analyze one episode directory (``result.json`` + ``logs/``)."""
    out_dir = Path(out_dir)
    result_path = out_dir / "result.json"
    report: dict[str, Any] = {"dir": str(out_dir)}
    artifact = None
    if result_path.exists():
        artifact = json.loads(result_path.read_text(encoding="utf-8"))
        result = artifact["result"]
        report["result"] = {
            "n_ranks": artifact["spec"]["n_ranks"],
            "seed": artifact["spec"]["seed"],
            "rounds_run": len(result["per_round_messages"]),
            "per_round_messages": result["per_round_messages"],
            "n_messages": result["n_messages"],
            "transfer_messages": result["transfer_messages"],
            "moves": len(result["moves"]),
            "coverage": result["coverage"],
            "initial_imbalance": result["initial_imbalance"],
            "final_imbalance": result["final_imbalance"],
        }
    log_dir = out_dir / "logs"
    if log_dir.is_dir():
        report["logs"] = analyze_logs(log_dir)
    if artifact is not None and "logs" in report:
        expected = artifact["result"]["per_round_messages"]
        observed = report["logs"]["per_round_tx"]
        report["consistent"] = observed == expected
        if not report["consistent"]:
            report["mismatch"] = {"result": expected, "logs": observed}
    return report


def format_report(report: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`analyze_episode` output."""
    lines = [f"episode: {report['dir']}"]
    result = report.get("result")
    if result:
        lines += [
            f"  ranks={result['n_ranks']} seed={result['seed']} "
            f"rounds={result['rounds_run']}",
            f"  gossip messages: {result['n_messages']} "
            f"(per round: {result['per_round_messages']})",
            f"  transfers: {result['moves']} moves, "
            f"{result['transfer_messages']} messages",
            f"  coverage: {result['coverage']:.4f}",
            f"  imbalance: {result['initial_imbalance']:.4f} -> "
            f"{result['final_imbalance']:.4f}",
        ]
    logs = report.get("logs")
    if logs:
        lines += [
            f"  wire logs: {logs['nodes']} nodes, "
            f"tx per tag {logs['per_tag_tx']}, retries={logs['retries']}",
            f"  bytes: model={logs['model_bytes']} "
            f"encoded={logs['frame_bytes']} "
            f"(overhead x{logs['frame_bytes'] / logs['model_bytes']:.2f})"
            if logs["model_bytes"]
            else "  bytes: none recorded",
            f"  wall span: {logs['wall_span_s'] * 1e3:.1f} ms",
        ]
    if "consistent" in report:
        lines.append(
            "  result/log per-round counts: "
            + ("CONSISTENT" if report["consistent"] else
               f"MISMATCH {report['mismatch']}")
        )
    return "\n".join(lines)
