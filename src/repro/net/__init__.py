"""repro.net — the paper's protocol over real TCP sockets.

Everything else in the repository runs the gossip/transfer protocol
inside one discrete-event simulator. This package runs the *same*
protocol between live workers — one socket per worker pair, one batch
frame per barrier step — over loopback TCP, and holds it to a
bit-identity contract: on the same
:class:`~repro.net.episode.EpisodeSpec`, the socket runtime and the
simulator-driven reference (:func:`~repro.net.simref.run_episode_sim`)
must produce field-for-field equal
:class:`~repro.net.episode.EpisodeResult` objects (final assignment,
per-round message counts, registry counters). See ``docs/net.md`` for
the architecture and the determinism contract.

Entry points: ``repro net run`` / ``repro net analyze`` on the CLI,
:func:`~repro.net.coordinator.run_episode_net` from Python.
"""

from repro.net.coordinator import (
    NetOptions,
    WorkerFailed,
    run_episode_net,
    run_episode_net_async,
    save_result,
)
from repro.net.dispatcher import DispatchError, Dispatcher, RetryPolicy
from repro.net.episode import (
    EpisodeResult,
    EpisodeSpec,
    NodeCore,
    episode_streams,
)
from repro.net.simref import run_episode_sim

__all__ = [
    "DispatchError",
    "Dispatcher",
    "EpisodeResult",
    "EpisodeSpec",
    "NetOptions",
    "NodeCore",
    "RetryPolicy",
    "WorkerFailed",
    "episode_streams",
    "run_episode_net",
    "run_episode_net_async",
    "run_episode_sim",
    "save_result",
]
