"""End-to-end tests of the TCP serving layer.

The async tests drive a real :class:`ReproServer`, its loop on a thread
of its own, from asyncio clients on a loopback socket via
``asyncio.run`` inside synchronous test functions.  Correctness is
checked two ways: exact equivalence against a reference
:class:`StreamMonitor` fed the identical per-stream batch sequence, and
zero false negatives against the independent networkx monomorphism
oracle on each stream's final graph.  The SIGTERM drain test spawns the
real ``repro serve --tcp`` CLI as a subprocess.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core import load_monitor
from repro.core.monitor import StreamMonitor
from repro.datasets.stream_gen import synthesize_stream
from repro.graph import LabeledGraph
from repro.graph.io import write_graph_set
from repro.graph.operations import EdgeChange, GraphChangeOperation
from repro.obs import Registry
from repro.serve.protocol import (
    AddQuery,
    AddStream,
    Commit,
    Edit,
    ProtocolError,
    change_to_dict,
    parse_json_line,
)
from repro.serve.server import ReproServer, ServeConfig, run_server
from repro.serve.session import (
    MonitorBridge,
    Session,
    apply_batch_validated,
    serve_lines,
)

from .conftest import random_labeled_graph
from .test_vf2 import nx_subgraph_iso

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def clean_obs():
    previous = obs.set_registry(Registry())
    obs.clear_spans()
    was_enabled = obs.enabled()
    obs.enable()
    yield
    obs.set_registry(previous)
    obs.clear_spans()
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


# -- client helpers ----------------------------------------------------------


class _LineClient:
    """A blocking socket client, for servers that run on another thread."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.stream = self.sock.makefile("rw", encoding="utf-8", newline="\n")
        assert json.loads(self.stream.readline())["notice"] == "hello"

    def send(self, doc: dict) -> None:
        self.stream.write(json.dumps(doc) + "\n")
        self.stream.flush()

    def recv(self) -> dict:
        while True:
            reply = json.loads(self.stream.readline())
            if "notice" not in reply:
                return reply

    def roundtrip(self, doc: dict) -> dict:
        self.send(doc)
        return self.recv()

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


#: Each launched server's loop thread.
_LOOPS: dict[ReproServer, threading.Thread] = {}


def launch(monitor, config: ServeConfig | None = None) -> ReproServer:
    """Bind a server and run its loop on a thread of its own."""
    server = ReproServer(monitor, config)
    server.start()
    _LOOPS[server] = threading.Thread(target=server.serve, daemon=True)
    _LOOPS[server].start()
    return server


def joined(server: ReproServer) -> None:
    """Join the server's loop thread, which a drain ends."""
    thread = _LOOPS.pop(server)
    thread.join(60)
    assert not thread.is_alive()


async def stopped(server: ReproServer) -> None:
    """Wait, off the caller's event loop, until the server's loop ended."""
    await asyncio.to_thread(joined, server)


async def drained(server: ReproServer) -> None:
    server.request_drain()
    await stopped(server)


@contextlib.asynccontextmanager
async def connect(port: int):
    """One client connection, ``(reader, writer, hello)``, closed on exit."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        hello = json.loads(await reader.readline())
        assert hello["notice"] == "hello"
        yield reader, writer, hello
    finally:
        writer.close()
        await writer.wait_closed()


async def send_cmd(reader, writer, doc: dict, notices: list | None = None) -> dict:
    writer.write((json.dumps(doc) + "\n").encode())
    await writer.drain()
    while True:
        line = await reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        reply = json.loads(line)
        if "notice" in reply:
            if notices is not None:
                notices.append(reply)
            continue
        return reply


def small_queries(rng: random.Random, count: int = 2) -> dict:
    return {f"q{i}": random_labeled_graph(rng, 3, extra_edges=1) for i in range(count)}


def edge_query() -> LabeledGraph:
    query = LabeledGraph()
    query.add_vertex(0, "A")
    query.add_vertex(1, "B")
    query.add_edge(0, 1, "x")
    return query


def ins(stream, u, v) -> dict:
    return {
        "cmd": "ins",
        "stream": stream,
        "u": u,
        "v": v,
        "edge_label": "x",
        "u_label": "A",
        "v_label": "B",
    }


# -- concurrent clients vs reference monitor + oracle ----------------------


def _build_workload(rng: random.Random, stream_id: int):
    """One client's batch sequence: the initial graph as an insert batch
    (streams are created empty over the wire) plus the synthetic stream's
    change operations.  Returns (batches, final_graph)."""
    base = random_labeled_graph(rng, 6, extra_edges=2)
    stream = synthesize_stream(
        base, 0.3, 0.25, 4, rng, all_pairs=True, name=str(stream_id)
    )
    initial_batch = GraphChangeOperation(
        [
            EdgeChange.insert(
                u,
                v,
                label,
                stream.initial.vertex_label(u),
                stream.initial.vertex_label(v),
            )
            for u, v, label in stream.initial.edges()
        ]
    )
    batches = [initial_batch] + list(stream.operations)
    return batches, stream.graph_at(len(stream) - 1)


class TestConcurrentClients:
    def test_concurrent_clients_match_reference_and_oracle(self):
        rng = random.Random(20090415)
        queries = small_queries(rng, count=3)
        workloads = {i: _build_workload(rng, i) for i in range(3)}

        async def drive(port: int, stream_id: int, batches, commits: list):
            async with connect(port) as (reader, writer, _):
                reply = await send_cmd(
                    reader, writer, {"cmd": "stream", "stream": stream_id}
                )
                assert reply["ok"] and reply["stream"] == stream_id
                for batch in batches:
                    reply = await send_cmd(
                        reader,
                        writer,
                        {
                            "cmd": "batch",
                            "stream": stream_id,
                            "changes": [change_to_dict(c) for c in batch],
                        },
                    )
                    assert reply["ok"], reply
                    reply = await send_cmd(reader, writer, {"cmd": "commit"})
                    assert reply["ok"], reply
                    commits.append(reply)
                    await asyncio.sleep(0)  # let the other clients interleave
                await send_cmd(reader, writer, {"cmd": "quit"})

        async def scenario():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(monitor)
            commits: dict[int, list] = {i: [] for i in workloads}
            await asyncio.gather(
                *(
                    drive(server.port, i, batches, commits[i])
                    for i, (batches, _) in workloads.items()
                )
            )
            async with connect(server.port) as (reader, writer, _):
                matches_reply = await send_cmd(reader, writer, {"cmd": "matches"})
                poll_reply = await send_cmd(reader, writer, {"cmd": "poll"})
                await send_cmd(reader, writer, {"cmd": "quit"})
                await drained(server)
                return commits, matches_reply, poll_reply

        commits, matches_reply, poll_reply = asyncio.run(scenario())

        # Reference: the identical batch sequence through a library monitor.
        reference = StreamMonitor(queries, method="dsc")
        for stream_id, (batches, _) in workloads.items():
            reference.add_stream(stream_id, LabeledGraph())
            for batch in batches:
                reference.apply(stream_id, batch)
        expected = reference.matches()

        served = {tuple(pair) for pair in matches_reply["matches"]}
        assert served == expected

        # Zero false negatives against the independent networkx oracle.
        for stream_id, (_, final_graph) in workloads.items():
            for query_id, query in queries.items():
                if nx_subgraph_iso(query, final_graph):
                    assert (stream_id, query_id) in served

        # A fresh session's first poll reports the whole current match
        # set as appeared events, with integer stream ids kept typed.
        polled = {(e["stream"], e["query"]) for e in poll_reply["events"]}
        assert polled == expected
        assert all(e["kind"] == "appeared" for e in poll_reply["events"])
        assert all(isinstance(e["stream"], int) for e in poll_reply["events"])

        # Every commit minted a trace id and carried it in the reply.
        for replies in commits.values():
            assert all(reply.get("trace") for reply in replies)


# -- admission: one bounded queue -----------------------------------------


class TestAdmission:
    def test_full_queue_reject_policy_refuses_newcomer(self):
        rng = random.Random(9)
        server = ReproServer(
            StreamMonitor(small_queries(rng)),
            ServeConfig(admission_capacity=1),
        )
        server._data_depth = 1  # one data command already queued
        rejection = server._admit(Commit(verb="commit"))
        assert rejection["code"] == "overloaded"
        assert rejection["error"] == "admission queue full"
        assert rejection["retry_after"] >= 0.05
        assert server.counters["rejected_queue"] == 1

    def test_a_flooding_session_holds_one_slot(self):
        """Why the edge needs no per-session rate limit: a session awaits
        each reply before it reads its next line, so it holds at most one
        admission slot however hard it floods.  Three sessions against a
        paused one-worker runtime with ``admission_capacity=2``: the
        queue never holds more than one command per session, the quiet
        sessions are admitted or refused by the queue alone, and every
        admitted commit applies once the worker resumes."""
        from repro.runtime import ShardedMonitor

        flood_pairs = 30
        depths: list[int] = []
        started = threading.Event()
        live: dict = {}

        def ready(server):
            live["server"] = server
            admit = server._admit

            def recording(command):
                rejection = admit(command)
                depths.append(server._data_depth + (rejection is None and command.is_data))
                return rejection

            server._admit = recording
            started.set()

        def batch(stream, k) -> dict:
            change = EdgeChange.insert(k, k + 1000, "x", "A", "B")
            return {"cmd": "batch", "stream": stream, "changes": [change_to_dict(change)]}

        with ShardedMonitor({"q": edge_query()}, num_workers=1) as monitor:
            thread = threading.Thread(
                target=run_server,
                args=(monitor, ServeConfig(admission_capacity=2)),
                kwargs={"install_signals": False, "ready": ready},
                daemon=True,
            )
            thread.start()
            assert started.wait(30)
            server = live["server"]
            clients = {name: _LineClient(server.port) for name in ("flood", "a", "b")}
            try:
                for name, client in clients.items():
                    assert client.roundtrip({"cmd": "stream", "stream": name})["ok"]
                assert clients["a"].roundtrip({"cmd": "matches"})["ok"]
                pid = monitor.worker_pids()[0]
                os.kill(pid, signal.SIGSTOP)
                try:
                    for k in range(flood_pairs):
                        clients["flood"].send(batch("flood", k))
                        clients["flood"].send({"cmd": "commit"})
                    time.sleep(0.3)  # the writer is now stuck on the paused worker
                    for name in ("a", "b"):
                        clients[name].send(batch(name, 0))
                        clients[name].send({"cmd": "commit"})
                    time.sleep(0.3)
                finally:
                    os.kill(pid, signal.SIGCONT)
                sent = {"flood": 2 * flood_pairs, "a": 2, "b": 2}
                replies = {
                    name: [clients[name].recv() for _ in range(count)]
                    for name, count in sent.items()
                }
                # Whatever a session left staged, a final admitted commit applies.
                for name, client in clients.items():
                    while (final := client.roundtrip({"cmd": "commit"}))["ok"] is False:
                        assert final["error"] == "admission queue full"
                        time.sleep(final["retry_after"])
            finally:
                for client in clients.values():
                    client.close()
                server.request_drain()
                thread.join(60)

            assert not thread.is_alive()
            assert max(depths) <= len(clients)
            assert set(server.counters) == {"admitted", "rejected_queue", "rejected_draining"}
            assert server.counters["rejected_draining"] == 0
            for name in ("a", "b"):
                for reply in replies[name]:
                    assert reply["ok"] or reply["error"] == "admission queue full", reply
            for name, session_replies in replies.items():
                admitted = [
                    k
                    for k, reply in enumerate(session_replies[0::2])
                    if reply["ok"]
                ]
                for reply in session_replies[1::2]:
                    assert reply["ok"] or reply["error"] == "admission queue full", reply
                graph = monitor.graph(name)
                assert sorted(graph.edges()) == sorted((k, k + 1000, "x") for k in admitted)

# -- the loop: framing, slow readers, vanished clients ----------------------


def _lines(*docs: dict) -> bytes:
    return "".join(json.dumps(doc) + "\n" for doc in docs).encode()


class TestLoop:
    def test_split_and_coalesced_lines_get_one_reply_each_in_order(self):
        server = launch(StreamMonitor({"q": edge_query()}))
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                wire = sock.makefile("rb")
                assert json.loads(wire.readline())["notice"] == "hello"
                line = _lines({"cmd": "stream", "stream": "s"})
                sock.sendall(line[:9])
                time.sleep(0.1)  # the loop sees half a line, then the rest
                sock.sendall(line[9:])
                sock.sendall(_lines(ins("s", 1, 2), {"cmd": "commit"}, {"cmd": "quit"}))
                replies = [json.loads(raw) for raw in wire]  # until the server closes
                wire.close()
            assert [reply["cmd"] for reply in replies] == ["stream", "ins", "commit", "quit"]
            assert replies[2]["ok"] and replies[2]["applied"] == 1
        finally:
            server.request_drain()
            joined(server)

    def test_a_session_that_never_reads_stalls_no_other(self):
        server = launch(StreamMonitor({"q": edge_query()}))
        flooder = socket.socket()
        try:
            flooder.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            flooder.connect(("127.0.0.1", server.port))
            flooder.setblocking(False)
            # Pipelined ``stats`` until the server stops taking them: its
            # replies fill every buffer on the way back, none of them read.
            burst = _lines(*[{"cmd": "stats"}] * 256)
            while select.select([], [flooder], [], 1.0)[1]:
                try:
                    flooder.send(burst)
                except BlockingIOError:
                    continue
            client = _LineClient(server.port)
            try:
                assert client.roundtrip({"cmd": "stream", "stream": "s"})["ok"]
                for k in range(20):
                    assert client.roundtrip(ins("s", k, 100 + k))["ok"]
                    assert client.roundtrip({"cmd": "commit"})["applied"] == 1
                assert server._sessions[1].outbuf  # the flooder is still backed up
            finally:
                client.close()
        finally:
            flooder.close()
            server.request_drain()
            joined(server)

    def test_a_client_gone_mid_reply_leaves_the_server_serving(self):
        server = launch(StreamMonitor({"q": edge_query()}))
        try:
            gone = socket.socket()
            gone.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            gone.connect(("127.0.0.1", server.port))
            gone.sendall(_lines(*[{"cmd": "stats"}] * 2000))
            gone.recv(64)  # the hello, or part of it: the replies are on their way
            # Reset, not FIN: the server's next write to it fails.
            gone.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            gone.close()
            client = _LineClient(server.port)
            try:
                deadline = time.monotonic() + 30
                while (stats := client.roundtrip({"cmd": "stats"}))["stats"]["serve"]["sessions"] > 1:
                    assert time.monotonic() < deadline, stats
                    time.sleep(0.05)
                assert client.roundtrip({"cmd": "stream", "stream": "s"})["ok"]
            finally:
                client.close()
        finally:
            server.request_drain()
            joined(server)


# -- poison batches: refused, counted, cleared from the stage ---------------


def refused_count() -> float:
    return obs.get_registry().summary().get("serve.refused", {}).get("value", 0)


class TestDeadLettering:
    def test_poison_batch_is_refused_and_the_session_recovers(self):
        queries = {"q": edge_query()}

        async def poison_phase():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(monitor)
            async with connect(server.port) as (reader, writer, _):
                assert (await send_cmd(reader, writer, {"cmd": "stream", "stream": "s"}))[
                    "ok"
                ]
                assert (await send_cmd(reader, writer, ins("s", 1, 2)))["ok"]
                good = await send_cmd(reader, writer, {"cmd": "commit"})
                # The same insert again is a duplicate edge: poison at commit.
                assert (await send_cmd(reader, writer, ins("s", 1, 2)))["ok"]
                bad = await send_cmd(reader, writer, {"cmd": "commit"})
                # Poison is cleared from the stage, so the session recovers.
                after = await send_cmd(reader, writer, {"cmd": "commit"})
                stats = await send_cmd(reader, writer, {"cmd": "stats"})
                await drained(server)
                return server, good, bad, after, stats

        server, good, bad, after, stats = asyncio.run(poison_phase())
        assert good["ok"] and good["applied"] == 1
        assert bad["ok"] is False
        assert bad["errors"] == [{"stream": "s", "error": bad["error"]}]
        assert "GraphError" in bad["errors"][0]["error"]
        assert bad["trace"]  # the refusal is followable like any commit
        assert after["ok"] and after["applied"] == 0
        assert refused_count() == 1
        assert stats["stats"]["serve"]["dead_letters"] == 1
        events = [e for e in server.flight.events() if e["kind"] == "refused"]
        assert len(events) == 1 and events[0]["error"] == bad["error"]

    def test_sharded_poison_is_dead_lettered_and_worker_stays_healthy(self):
        """Against the sharded runtime a poison batch that reached a
        worker would crash it *after* the commit reply.  The graph of
        record must refuse the batch up front: a structured ``ok: false``
        reply, never ``code: internal``, and the stream keeps serving
        afterwards."""
        from repro.runtime import ShardedMonitor

        queries = {"q": edge_query()}

        async def scenario(monitor):
            server = launch(monitor)
            async with connect(server.port) as (reader, writer, _):
                assert (await send_cmd(reader, writer, {"cmd": "stream", "stream": "s"}))[
                    "ok"
                ]
                assert (await send_cmd(reader, writer, ins("s", 1, 2)))["ok"]
                good = await send_cmd(reader, writer, {"cmd": "commit"})
                # Duplicate edge: poison, but the worker must never see it.
                assert (await send_cmd(reader, writer, ins("s", 1, 2)))["ok"]
                bad = await send_cmd(reader, writer, {"cmd": "commit"})
                # The stream still accepts good batches — the worker is alive.
                assert (await send_cmd(reader, writer, ins("s", 3, 4)))["ok"]
                after = await send_cmd(reader, writer, {"cmd": "commit"})
                matched = await send_cmd(reader, writer, {"cmd": "matches"})
                await drained(server)
                return good, bad, after, matched

        monitor = ShardedMonitor(queries, method="dsc", num_workers=2)
        try:
            good, bad, after, matched = asyncio.run(scenario(monitor))
        finally:
            monitor.close()

        assert good["ok"] and good["applied"] == 1
        assert bad["ok"] is False and "code" not in bad
        assert bad["errors"][0]["stream"] == "s"
        assert "GraphError" in bad["errors"][0]["error"]
        assert after["ok"] and after["applied"] == 1
        assert matched["matches"] == [["s", "q"]]
        assert refused_count() == 1

    def test_poison_third_change_leaves_the_stream_as_it_was(self):
        """In-process, no shadow: the monitor itself refuses the whole
        commit, so the two good changes ahead of the poison one leave
        no trace and the following commit applies."""
        monitor = StreamMonitor({"q": edge_query()}, method="dsc")
        replies: list[dict] = []
        script = [
            "stream s",
            "ins s 1 2 x A B",
            "tick",
            "ins s 3 4 x A B",
            "ins s 4 5 x B A",
            "ins s 1 2 x A B",  # duplicate edge: poison, third of three
            "tick",
        ]
        serve_lines(monitor, script, replies.append)
        bad = replies[-1]
        assert bad["ok"] is False and bad["applied"] == 0
        assert "GraphError" in bad["errors"][0]["error"]
        assert refused_count() == 1
        assert sorted(monitor.graph("s").edges()) == [("1", "2", "x")]

        replies.clear()
        serve_lines(monitor, ["ins s 3 4 x A B", "tick"], replies.append)
        assert replies[-1]["ok"] and replies[-1]["applied"] == 1
        assert monitor.graph("s").num_edges == 2


class TestUnhashableInputDoesNotWedgeASession:
    """A JSON id that cannot be hashed is refused at parse time, and an
    apply that raises anyway leaves nothing staged: neither may fail the
    session's later, valid commits."""

    def _execute(self, bridge, session, doc: dict) -> dict:
        """The TCP writer's path: parse, then execute."""
        try:
            return bridge.execute(session, parse_json_line(json.dumps(doc)))
        except ProtocolError as exc:
            return {"ok": False, "code": "bad_request", "error": str(exc)}

    @pytest.mark.parametrize(
        "doc",
        [
            ins("s", [1], 2),
            {**ins("s", 1, 2), "edge_label": [1]},
            {"cmd": "stream", "stream": [1]},
            {"cmd": "delq", "query": [1]},
        ],
    )
    def test_refused_then_a_valid_commit_applies(self, doc):
        bridge = MonitorBridge(StreamMonitor({"q": edge_query()}, method="dsc"))
        session = Session(0)
        assert self._execute(bridge, session, {"cmd": "stream", "stream": "s"})["ok"]
        refused = self._execute(bridge, session, doc)
        assert refused["ok"] is False and refused["code"] == "bad_request"
        assert self._execute(bridge, session, ins("s", 1, 2))["ok"]
        committed = self._execute(bridge, session, {"cmd": "commit"})
        assert committed["ok"] and committed["applied"] == 1
        assert bridge.monitor.matches() == {("s", "q")}

    def test_a_commit_that_raises_still_clears_the_stage(self):
        bridge = MonitorBridge(StreamMonitor({"q": edge_query()}, method="dsc"))
        session = Session(0)
        assert self._execute(bridge, session, {"cmd": "stream", "stream": "s"})["ok"]
        # Staged past the parser: the apply fails with an unexpected error.
        bridge.execute(session, Edit("s", EdgeChange.insert([1], 2, "x", "A", "B")))
        with pytest.raises(TypeError):
            bridge.execute(session, Commit())
        assert session.staged_changes == 0
        assert self._execute(bridge, session, ins("s", 1, 2))["ok"]
        committed = self._execute(bridge, session, {"cmd": "commit"})
        assert committed["ok"] and committed["applied"] == 1

    def test_an_export_the_text_format_cannot_carry_is_a_reply(self, tmp_path):
        monitor = StreamMonitor({"q": edge_query()}, checkpoint_dir=tmp_path)
        bridge, session = MonitorBridge(monitor), Session(0)
        assert self._execute(bridge, session, {"cmd": "stream", "stream": "s"})["ok"]
        # Staged past the parser, which refuses a label with a space.
        bridge.execute(session, Edit("s", EdgeChange.insert(1, 2, "x", "A", "B C")))
        assert self._execute(bridge, session, {"cmd": "commit"})["ok"]
        reply = self._execute(bridge, session, {"cmd": "checkpoint"})
        assert reply["ok"] is False and "not a token" in reply["error"]

    def test_an_integer_graph_file_opens_no_descriptor(self):
        read_end, write_end = os.pipe()
        try:
            bridge = MonitorBridge(StreamMonitor({"q": edge_query()}, method="dsc"))
            session = Session(0)
            for doc in (
                {"cmd": "stream", "stream": "a", "graph_file": write_end},
                {"cmd": "addq", "query": "p", "graph_file": write_end},
            ):
                refused = self._execute(bridge, session, doc)
                assert refused["code"] == "bad_request" and "graph_file" in refused["error"]
            os.fstat(write_end)  # still open: nothing read or closed it
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_a_refused_float_id_pattern_leaves_checkpoints_working(self, tmp_path):
        monitor = StreamMonitor({"q": edge_query()}, checkpoint_dir=tmp_path)
        bridge, session = MonitorBridge(monitor), Session(0)
        doc = {"cmd": "addq", "query": "f", "vertices": [[1.5, "A"], [2, "B"]],
               "edges": [[1.5, 2, "x"]]}
        assert self._execute(bridge, session, doc)["code"] == "bad_request"
        assert self._execute(bridge, session, {"cmd": "checkpoint"})["ok"]
        assert monitor.query_ids() == ["q"]

# -- shadow validation ------------------------------------------------------


class TestShadowValidation:
    """The bridge's all-or-nothing batch validator (session module)."""

    def _graph(self) -> LabeledGraph:
        graph = LabeledGraph()
        graph.add_vertex(1, "A")
        graph.add_vertex(2, "B")
        graph.add_edge(1, 2, "x")
        return graph

    def test_clean_batch_applies(self):
        graph = self._graph()
        apply_batch_validated(
            graph,
            GraphChangeOperation(
                [EdgeChange.delete(1, 2), EdgeChange.insert(1, 3, "y", "A", "C")]
            ),
        )
        assert graph.has_edge(1, 3) and not graph.has_edge(1, 2)
        assert not graph.has_vertex(2)  # isolated by the delete, dropped

    @pytest.mark.parametrize(
        "poison",
        [
            EdgeChange.insert(2, 5, "z", "B", "E"),  # duplicates the prefix's
            EdgeChange.delete(1, 9),  # missing edge
            EdgeChange.insert(1, 9, "x"),  # new vertex, no label
        ],
        ids=["duplicate-insert", "missing-delete", "unlabeled-vertex"],
    )
    def test_poison_rolls_back_to_identical_graph(self, poison):
        graph = self._graph()
        pristine = graph.copy()
        # A prefix of valid changes applies before the poison hits; the
        # rollback must undo those too, not just the failing change.
        batch = GraphChangeOperation(
            [
                EdgeChange.delete(1, 2),
                EdgeChange.insert(2, 5, "z", "B", "E"),
                EdgeChange.insert(1, 4, "y", "A", "D"),
                poison,
            ]
        )
        with pytest.raises((Exception,)) as excinfo:
            apply_batch_validated(graph, batch)
        assert excinfo.type.__name__ in ("GraphError", "ValueError", "KeyError")
        assert graph == pristine

    def test_partially_applied_insert_rolls_back(self):
        # 7 gets created, then the unlabeled endpoint 8 aborts the
        # change mid-way: the created vertex must not survive.
        graph = self._graph()
        pristine = graph.copy()
        with pytest.raises(Exception):
            apply_batch_validated(
                graph,
                GraphChangeOperation([EdgeChange.insert(7, 8, "x", "G", None)]),
            )
        assert graph == pristine


# -- graph-set files ----------------------------------------------------------


class TestGraphSetFileParsedOnce:
    """``stream`` / ``addq`` commands naming one graph-set file parse it
    once, not once per command — and still see the file change."""

    def _write(self, path: Path, count: int, size: int) -> None:
        rng = random.Random(size)
        write_graph_set(
            [random_labeled_graph(rng, size) for _ in range(count)],
            path,
            names=[f"g{i}" for i in range(count)],
        )

    def test_one_parse_for_many_commands_and_rewrites_are_seen(
        self, tmp_path, monkeypatch
    ):
        from repro.serve import session as session_module

        parses = []
        real = session_module.read_graph_set

        def counting(path):
            parses.append(str(path))
            return real(path)

        monkeypatch.setattr(session_module, "read_graph_set", counting)
        path = tmp_path / "set.txt"
        self._write(path, 32, 4)
        bridge = session_module.MonitorBridge(StreamMonitor({"q": edge_query()}))
        session = Session(1)
        for i in range(32):
            reply = bridge.execute(session, AddStream(i, str(path), f"g{i}", verb="stream"))
            assert reply["ok"], reply
        reply = bridge.execute(session, AddQuery("p", str(path), "g3", verb="addq"))
        assert reply["ok"], reply
        assert len(parses) == 1
        assert bridge.monitor.graph(7).num_vertices == 4
        # Each stream got a graph of its own, not the shared parsed one.
        bridge.execute(session, Edit(7, EdgeChange.insert("0", "99", "x", None, "A"), verb="ins"))
        assert bridge.execute(session, Commit(verb="commit"))["ok"]
        assert bridge.monitor.graph(8).num_vertices == 4

        self._write(path, 32, 6)  # another size: stat differs whatever the clock
        reply = bridge.execute(session, AddStream(100, str(path), "g0", verb="stream"))
        assert reply["ok"], reply
        assert len(parses) == 2
        assert bridge.monitor.graph(100).num_vertices == 6


class TestStreamGraphFile:
    """``stream <id> <file>`` naming an empty or a missing graph-set file
    is a bad request, and the session lives on."""

    def _paths(self, tmp_path: Path) -> tuple[str, str]:
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        return str(empty), str(tmp_path / "missing.txt")

    def test_stdin_refuses_empty_and_missing_files(self, tmp_path):
        empty, missing = self._paths(tmp_path)
        replies: list[dict] = []
        script = [
            f"stream s {empty}",
            f"stream t {missing}",
            "stream u",
            "ins u 1 2 x A B",
            "tick",
        ]
        serve_lines(StreamMonitor({"q": edge_query()}), script, replies.append)
        assert [reply.get("code") for reply in replies[:2]] == ["bad_request"] * 2
        assert "empty graph set" in replies[0]["error"]
        assert "FileNotFoundError" in replies[1]["error"]
        assert replies[-1]["ok"] and replies[-1]["applied"] == 1

    def test_stdin_refuses_duplicate_block_names(self, tmp_path):
        dup = tmp_path / "dup.txt"
        dup.write_text("t # q\nv 0 A\nv 1 B\ne 0 1 x\nt # q\nv 0 C\nv 1 D\ne 0 1 x\n")
        replies: list[dict] = []
        script = [f"stream s {dup} q", f"addq p {dup} q", "stream u", "ins u 1 2 x A B", "tick"]
        monitor = StreamMonitor({"q": edge_query()})
        serve_lines(monitor, script, replies.append)
        assert [reply["ok"] for reply in replies] == [False, False, True, True, True]
        assert all("duplicate graph block name 'q'" in r["error"] for r in replies[:2])
        assert monitor.stream_ids() == ["u"] and monitor.query_ids() == ["q"]

    def test_tcp_refuses_empty_and_missing_files(self, tmp_path):
        empty, missing = self._paths(tmp_path)

        async def run():
            server = launch(StreamMonitor({"q": edge_query()}))
            async with connect(server.port) as (reader, writer, _):
                replies = [
                    await send_cmd(reader, writer, command)
                    for command in (
                        {"cmd": "stream", "stream": "s", "graph_file": empty},
                        {"cmd": "stream", "stream": "t", "graph_file": missing},
                        {"cmd": "stream", "stream": "u"},
                        ins("u", 1, 2),
                        {"cmd": "commit"},
                    )
                ]
                await drained(server)
                return replies

        replies = asyncio.run(run())
        assert [reply.get("code") for reply in replies[:2]] == ["bad_request"] * 2
        assert "empty graph set" in replies[0]["error"]
        assert "FileNotFoundError" in replies[1]["error"]
        assert replies[-1]["ok"] and replies[-1]["applied"] == 1
        summary = obs.get_registry().summary()
        assert not [key for key in summary if "internal" in key]


# -- draining ---------------------------------------------------------------


class TestDraining:
    def test_drain_flushes_every_acked_batch(self):
        rng = random.Random(11)
        queries = small_queries(rng)

        async def scenario():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(monitor)
            async with connect(server.port) as (reader, writer, _):
                assert (await send_cmd(reader, writer, {"cmd": "stream", "stream": "s"}))[
                    "ok"
                ]
                notices: list = []
                acked: list[int] = []
                saw_draining_reject = False
                for k in range(100):
                    if k == 10:
                        server.request_drain()
                    try:
                        staged = await send_cmd(
                            reader, writer, ins("s", 1000 + k, 2000 + k), notices
                        )
                        if staged.get("code") == "draining":
                            saw_draining_reject = True
                            break
                        committed = await send_cmd(
                            reader, writer, {"cmd": "commit"}, notices
                        )
                        if committed.get("code") == "draining":
                            saw_draining_reject = True
                            break
                    except (ConnectionError, OSError):
                        break
                    if staged["ok"] and committed["ok"]:
                        acked.append(k)
                await stopped(server)
                return monitor, server, acked, notices, saw_draining_reject

        monitor, server, acked, notices, rejected = asyncio.run(scenario())
        assert acked  # some commits were acked before the drain
        assert rejected or notices  # the client was told about the drain
        assert any(n.get("notice") == "draining" for n in notices)
        # Every acked batch survived the drain: its edge is in the graph.
        graph = monitor.graph("s")
        for k in acked:
            assert graph.has_edge(1000 + k, 2000 + k)
        assert server.bridge.accepted_batches >= len(acked)
        assert server.lifecycle.stopped

    @pytest.mark.parametrize("workers", [0, 1])
    def test_failed_export_is_reported_and_the_drain_finishes(self, tmp_path, workers):
        """A checkpoint directory that cannot be written (a file where
        the directory should be): the verb answers ``ok: false`` and the
        writer lives on; the drain says so, on the wire and on the
        flight recorder, and still stops."""
        blocked = tmp_path / "ckpt"
        blocked.write_text("not a directory")

        from repro.runtime import ShardedMonitor

        async def scenario():
            if workers:
                monitor = ShardedMonitor(
                    {"q": edge_query()}, num_workers=workers, checkpoint_dir=blocked
                )
            else:
                monitor = StreamMonitor({"q": edge_query()}, checkpoint_dir=blocked)
            with monitor:
                server = launch(monitor)
                async with connect(server.port) as (reader, writer, _):
                    assert (await send_cmd(reader, writer, {"cmd": "stream", "stream": "s"}))["ok"]
                    refused = await send_cmd(reader, writer, {"cmd": "checkpoint"})
                    assert (await send_cmd(reader, writer, ins("s", 1, 2)))["ok"]
                    committed = await send_cmd(reader, writer, {"cmd": "commit"})
                    await drained(server)
                    notices = []
                    while line := await reader.readline():
                        notices.append(json.loads(line))
                    return server, refused, committed, notices

        server, refused, committed, notices = asyncio.run(scenario())
        assert refused["ok"] is False and refused["cmd"] == "checkpoint"
        assert "FileExistsError" in refused["error"]
        assert committed["ok"] and committed["applied"] == 1
        assert server.lifecycle.stopped
        assert [n["notice"] for n in notices] == ["draining", "checkpoint_failed"]
        assert "FileExistsError" in notices[1]["error"]
        assert [e["kind"] for e in server.flight.events()] == ["checkpoint_failed"]
        assert blocked.read_text() == "not a directory"

    def test_sigterm_drains_checkpoint_and_exits_cleanly(self, tmp_path):
        from repro.graph.io import write_graph_set

        rng = random.Random(12)
        queries = small_queries(rng)
        qpath = tmp_path / "queries.txt"
        write_graph_set(list(queries.values()), qpath, names=list(queries))
        ckpt = tmp_path / "ckpt"

        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--queries",
                str(qpath),
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--checkpoint-dir",
                str(ckpt),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        try:
            listening = json.loads(proc.stdout.readline())
            assert listening["notice"] == "listening"
            port = listening["port"]

            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                with sock.makefile("rw", encoding="utf-8", newline="\n") as stream:
                    assert json.loads(stream.readline())["notice"] == "hello"

                    def roundtrip(doc: dict) -> dict:
                        stream.write(json.dumps(doc) + "\n")
                        stream.flush()
                        while True:
                            reply = json.loads(stream.readline())
                            if "notice" not in reply:
                                return reply

                    assert roundtrip({"cmd": "stream", "stream": "s"})["ok"]
                    assert roundtrip(ins("s", 1, 2))["ok"]
                    committed = roundtrip({"cmd": "commit"})
                    assert committed["ok"] and committed["applied"] == 1

                    os.kill(proc.pid, signal.SIGTERM)

                    # The drain broadcast reaches connected clients before
                    # the server closes the socket.
                    drained = None
                    while True:
                        line = stream.readline()
                        if not line:
                            break
                        doc = json.loads(line)
                        if doc.get("notice") == "draining":
                            drained = doc
                            break
                    assert drained is not None
                    assert drained["accepted_batches"] >= 1

            assert proc.wait(timeout=60) == 0
            # The drain exported the acked state before exiting: one
            # directory, which a restart (or anyone) can open.
            assert listening["restored"] is False
            assert not list(ckpt.glob("shard_*"))
            assert load_monitor(ckpt).graph("s").has_edge(1, 2)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()


# -- live query churn over the wire ----------------------------------------


class TestQueryChurnOverTcp:
    def test_addq_delq_replies_carry_trace_ids(self):
        """Every churn reply is traceable: addq/delq replies carry the
        span's trace id, and the registered query answers immediately
        against the stream state that existed before it arrived."""
        queries = {"q": edge_query()}

        async def run():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(monitor)
            async with connect(server.port) as (reader, writer, _):
                assert (await send_cmd(reader, writer, {"cmd": "stream", "stream": "s"}))[
                    "ok"
                ]
                assert (await send_cmd(reader, writer, ins("s", 1, 2)))["ok"]
                assert (await send_cmd(reader, writer, {"cmd": "commit"}))["ok"]
                added = await send_cmd(
                    reader,
                    writer,
                    {
                        "cmd": "addq",
                        "query": "late",
                        "vertices": [[0, "A"], [1, "B"]],
                        "edges": [[0, 1, "x"]],
                    },
                )
                flagged = await send_cmd(reader, writer, {"cmd": "matches"})
                dropped = await send_cmd(reader, writer, {"cmd": "delq", "query": "late"})
                after = await send_cmd(reader, writer, {"cmd": "matches"})
                await drained(server)
                return added, flagged, dropped, after

        added, flagged, dropped, after = asyncio.run(run())
        assert added["ok"] and added["queries"] == 2
        assert added["trace"], "addq reply is missing its trace id"
        # The late query sees the pre-registration stream state at once.
        assert sorted(map(tuple, flagged["matches"])) == [("s", "late"), ("s", "q")]
        assert dropped["ok"] and dropped["queries"] == 1
        assert dropped["trace"], "delq reply is missing its trace id"
        assert sorted(map(tuple, after["matches"])) == [("s", "q")]

    def test_poison_addq_dead_letters_and_session_survives(self, tmp_path):
        """A malformed registration — bad inline pattern or a missing
        graph-set file — must be refused with a trace id and counted in
        serve.refused, not crash the worker; the session keeps serving."""
        queries = {"q": edge_query()}

        async def run():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(monitor)
            async with connect(server.port) as (reader, writer, _):
                bad_inline = await send_cmd(
                    reader,
                    writer,
                    {
                        "cmd": "addq",
                        "query": "broken",
                        "vertices": [[0, "A"]],
                        "edges": [[0, 7, "x"]],  # edge endpoint never declared
                    },
                )
                bad_file = await send_cmd(
                    reader,
                    writer,
                    {
                        "cmd": "addq",
                        "query": "ghost",
                        "graph_file": str(tmp_path / "no_such_set.txt"),
                    },
                )
                # The session is still alive and fully functional.
                assert (await send_cmd(reader, writer, {"cmd": "stream", "stream": "s"}))[
                    "ok"
                ]
                assert (await send_cmd(reader, writer, ins("s", 1, 2)))["ok"]
                committed = await send_cmd(reader, writer, {"cmd": "commit"})
                flagged = await send_cmd(reader, writer, {"cmd": "matches"})
                await drained(server)
                return bad_inline, bad_file, committed, flagged

        bad_inline, bad_file, committed, flagged = asyncio.run(run())
        for bad in (bad_inline, bad_file):
            assert bad["ok"] is False
            assert "code" not in bad  # poison, not an internal error
            assert bad["trace"]
        assert bad_inline["query"] == "broken" and bad_file["query"] == "ghost"
        assert "FileNotFoundError" in bad_file["error"]
        assert refused_count() == 2
        assert committed["ok"] and committed["applied"] == 1
        assert sorted(map(tuple, flagged["matches"])) == [("s", "q")]

    def test_unknown_delq_is_refused_without_dead_letter(self):
        """delq of an id that was never registered is a plain error, not
        a poison query: serve.refused does not count it."""
        queries = {"q": edge_query()}

        async def run():
            monitor = StreamMonitor(queries, method="dsc")
            server = launch(monitor)
            async with connect(server.port) as (reader, writer, _):
                refused = await send_cmd(
                    reader, writer, {"cmd": "delq", "query": "never-was"}
                )
                still = await send_cmd(reader, writer, {"cmd": "delq", "query": "q"})
                await drained(server)
                return refused, still

        refused, still = asyncio.run(run())
        assert refused["ok"] is False
        assert refused["trace"]
        assert still["ok"] and still["queries"] == 0
        assert refused_count() == 0

    def test_churn_histograms_count_accepted_commands_only(self):
        """A refused addq/delq raises out of its span, so it feeds the
        {error=...} series: the unlabelled count is accepted commands."""
        queries = {"q": edge_query()}

        async def run():
            server = launch(StreamMonitor(queries, method="dsc"))
            async with connect(server.port) as (reader, writer, _):
                replies = [
                    await send_cmd(reader, writer, command)
                    for command in (
                        {"cmd": "addq", "query": "broken",
                         "vertices": [[0, "A"]], "edges": [[0, 7, "x"]]},
                        {"cmd": "addq", "query": "late",
                         "vertices": [[0, "A"], [1, "B"]], "edges": [[0, 1, "x"]]},
                        {"cmd": "delq", "query": "never-was"},
                        {"cmd": "delq", "query": "late"},
                    )
                ]
                await drained(server)
                return [reply["ok"] for reply in replies]

        assert asyncio.run(run()) == [False, True, False, True]
        summary = obs.get_registry().summary()
        for verb in ("register", "deregister"):
            name = f"serve.{verb}_query.seconds"
            assert summary[name]["count"] == 1
            refused = [key for key in summary if key.startswith(name + "{error=")]
            assert len(refused) == 1 and summary[refused[0]]["count"] == 1
