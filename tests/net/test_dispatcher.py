"""Dispatcher retry/backoff semantics under injected connection faults."""

import asyncio

import pytest

from repro.net.dispatcher import DispatchError, Dispatcher, RetryPolicy
from repro.net.wire import read_frame


def _run(coro):
    return asyncio.run(coro)


def _dead_port() -> int:
    """A loopback port with no listener (bind-then-close reserves one)."""
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestRetryPolicy:
    def test_backoff_curve_is_capped(self):
        policy = RetryPolicy(rto=0.1, backoff=2.0, max_retries=8, max_delay=0.5)
        delays = [policy.delay(a) for a in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


class TestDispatcher:
    def test_refused_connection_retries_then_raises(self):
        async def scenario():
            port = _dead_port()
            policy = RetryPolicy(rto=0.001, backoff=1.5, max_retries=3)
            dispatcher = Dispatcher(0, {1: ("127.0.0.1", port)}, policy)
            dispatcher.send(1, {"t": "probe"})
            with pytest.raises(DispatchError, match="gave up after"):
                await dispatcher.drain()
            # First attempt + the full retry budget, all refused.
            assert dispatcher.retries == 4
            assert dispatcher.sent == 0
            # The failure is sticky: further sends fail fast.
            with pytest.raises(DispatchError):
                dispatcher.send(1, {"t": "again"})
            await dispatcher.close()

        _run(scenario())

    def test_late_listener_receives_retransmitted_frame(self):
        """A peer that comes up after the first attempts still gets the
        frame exactly once (stubborn retransmission + seq stamping)."""

        async def scenario():
            port = _dead_port()
            received = []

            async def handler(reader, writer):
                frame = await read_frame(reader)
                received.append(frame)
                writer.close()

            policy = RetryPolicy(rto=0.02, backoff=1.0, max_retries=None)
            dispatcher = Dispatcher(0, {1: ("127.0.0.1", port)}, policy)
            dispatcher.send(1, {"t": "probe"}, tag="gossip")
            await asyncio.sleep(0.05)  # let a few refused attempts happen
            server = await asyncio.start_server(handler, "127.0.0.1", port)
            await dispatcher.drain()
            assert dispatcher.sent == 1
            assert dispatcher.retries >= 1
            await dispatcher.close()
            server.close()
            await server.wait_closed()
            assert [f["t"] for f in received] == ["probe"]
            assert received[0]["seq"] == 0

        _run(scenario())

    def test_seq_stamps_are_per_peer_monotonic(self):
        async def scenario():
            frames = {1: [], 2: []}
            servers = []
            peers = {}

            def make_handler(peer):
                async def handler(reader, writer):
                    while True:
                        frame = await read_frame(reader)
                        if frame is None:
                            return
                        frames[peer].append(frame)

                return handler

            for peer in (1, 2):
                server = await asyncio.start_server(
                    make_handler(peer), "127.0.0.1", 0
                )
                servers.append(server)
                peers[peer] = ("127.0.0.1", server.sockets[0].getsockname()[1])

            dispatcher = Dispatcher(0, peers)
            for i in range(3):
                dispatcher.send(1, {"t": "a", "i": i})
            dispatcher.send(2, {"t": "b"})
            await dispatcher.drain()
            await dispatcher.close()
            for server in servers:
                server.close()
                await server.wait_closed()
            assert [f["seq"] for f in frames[1]] == [0, 1, 2]
            assert [f["seq"] for f in frames[2]] == [0]

        _run(scenario())

    def test_unknown_peer_rejected(self):
        async def scenario():
            dispatcher = Dispatcher(0, {1: ("127.0.0.1", 1)})
            with pytest.raises(KeyError):
                dispatcher.send(9, {"t": "x"})
            await dispatcher.close()

        _run(scenario())
