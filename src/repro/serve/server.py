"""The asyncio TCP server: sessions at the edge, one writer at the core.

Concurrency model
-----------------
One ``asyncio`` event loop runs:

* a **client handler** per connection — reads newline-delimited JSON
  commands, runs admission control, enqueues admitted work, awaits the
  reply future, writes the reply.  A handler has at most one command in
  flight, so each session observes strict FIFO semantics while separate
  sessions interleave freely;
* a single **writer task** — drains the admission queue and executes
  commands through :class:`~repro.serve.session.MonitorBridge`.  It is
  the only task that touches the monitor, which makes the sharded
  coordinator's synchronous request/reply protocol safe without locks.

Admission happens *before* a data command is queued: a draining
server refuses it, then one bounded FIFO admission queue refuses it
when full.  Every rejection is a structured reply with a
``retry_after`` hint — the edge never silently blocks and never drops
an admitted command.  Control commands (``matches``/``stats``/...)
bypass admission so a congested server stays observable.

Draining (SIGTERM or :meth:`ReproServer.drain`) stops the listener,
tells every session ``{"notice": "draining"}``, holds ``drain_grace``
seconds so load balancers see ``/readyz`` flip to 503 before in-flight
work finishes, lets the writer flush everything already admitted,
checkpoints when configured, and only then closes.

Observability rides the same loop: an optional HTTP endpoint
(:class:`~repro.serve.http.ObservabilityEndpoint`) serves scrapes and
health probes, a periodic sampler folds the merged registry summary
into a :class:`~repro.obs.timeline.Timeline` and re-evaluates the
:class:`~repro.obs.slo.SloEngine`, and a
:class:`~repro.obs.flight.FlightRecorder` journals every refusal so
overload incidents are reconstructable.  The sampler only reads
snapshots between writer commands (no awaits inside the monitor
critical section), so it can never interleave with a half-executed
command.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .. import obs
from ..obs.flight import FlightRecorder
from ..obs.slo import SloEngine
from ..obs.timeline import Timeline
from .http import ObservabilityEndpoint
from .lifecycle import Lifecycle, install_signal_handlers
from .protocol import (
    Command,
    ProtocolError,
    Quit,
    encode_reply,
    parse_json_line,
)
from .session import MonitorBridge, Session

__all__ = ["ServeConfig", "ReproServer", "run_server"]

#: Floor for computed retry hints so clients never busy-spin.
_MIN_RETRY = 0.05


class _ServeFields(NamedTuple):
    host: str = "127.0.0.1"
    port: int = 0
    #: Bounded admission queue: max data commands queued but
    #: unexecuted; a data command that finds it full is refused.
    admission_capacity: int = 64
    #: Observability endpoint bind (None = no HTTP endpoint).
    http_host: str | None = None
    http_port: int = 0
    #: Seconds to hold between the draining notice and the writer
    #: sentinel, so ``/readyz`` flips to 503 while work still flows
    #: (the Kubernetes preStop pattern).
    drain_grace: float = 0.0
    #: Metrics-timeline sampler cadence and ring size.
    timeline_interval: float = 1.0
    timeline_capacity: int = 512
    #: Directory for the flight-recorder journal (None = in-memory only).
    flight_dir: str | None = None
    #: SLO rule overrides (() = the stock DEFAULT_RULES).
    slo_rules: tuple = ()


class ServeConfig(_ServeFields):
    """Tunables of the serving edge (all CLI-exposed), checked on
    construction."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "ServeConfig":
        config = super().__new__(cls, *args, **kwargs)
        if config.admission_capacity < 1:
            raise ValueError("admission_capacity must be >= 1")
        if config.drain_grace < 0:
            raise ValueError("drain_grace must be >= 0 seconds")
        if config.timeline_interval <= 0:
            raise ValueError("timeline_interval must be > 0 seconds")
        if config.timeline_capacity < 2:
            raise ValueError("timeline_capacity must be >= 2")
        return config


class _WorkItem(NamedTuple):
    session: Session
    command: Command
    future: asyncio.Future
    is_data: bool


class ReproServer:
    """Async TCP front-end over one monitor (library or sharded)."""

    def __init__(self, monitor: Any, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.monitor = monitor
        self.bridge = MonitorBridge(monitor, extra_stats=self._edge_stats)
        self.lifecycle = Lifecycle()
        self._queue: asyncio.Queue[_WorkItem | None] = asyncio.Queue()
        #: Data commands admitted but not yet taken by the writer.
        self._data_depth = 0
        self._sessions: dict[int, tuple[Session, asyncio.StreamWriter]] = {}
        self._next_session = 1
        self._server: asyncio.base_events.Server | None = None
        self._writer_task: asyncio.Task | None = None
        self._drain_task: asyncio.Task | None = None
        #: EMA of per-command service time, feeding retry_after hints.
        self._service_ema = _MIN_RETRY
        self.counters = {
            "admitted": 0,
            "rejected_queue": 0,
            "rejected_draining": 0,
        }
        self._admitted = obs.counter("serve.admitted")
        self._sessions_gauge = obs.gauge("serve.sessions")
        self._depth_gauge = obs.gauge("serve.queue_depth")
        self.timeline = Timeline(capacity=self.config.timeline_capacity)
        self.slo = SloEngine(
            rules=self.config.slo_rules or None, timeline=self.timeline
        )
        flight_path = (
            Path(self.config.flight_dir) / "flight-serve.jsonl"
            if self.config.flight_dir
            else None
        )
        self.flight = FlightRecorder(path=flight_path)
        self.http: ObservabilityEndpoint | None = None
        self._sampler_task: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener(s) and launch the writer + sampler tasks."""
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        loop = asyncio.get_running_loop()
        self._writer_task = loop.create_task(self._writer_loop())
        if self.config.http_host is not None:
            self.http = ObservabilityEndpoint(
                self.config.http_host,
                self.config.http_port,
                summary=self.monitor.obs_summary,
                ready=lambda: not self.lifecycle.draining,
                slo=self.slo.snapshot,
                timeline=self.timeline,
            )
            await self.http.start()
        self._sampler_task = loop.create_task(self._sample_loop())
        self.lifecycle.mark_serving()

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def http_port(self) -> int:
        assert self.http is not None, "observability endpoint not configured"
        return self.http.address[1]

    async def _sample_loop(self) -> None:
        """Fold a registry snapshot into the timeline every interval and
        re-evaluate the SLO rules over it."""
        while True:
            await asyncio.sleep(self.config.timeline_interval)
            try:
                self.timeline.sample(self.monitor.obs_summary())
                self.slo.evaluate()
            except asyncio.CancelledError:
                raise
            except Exception:
                # A failed sample must never kill the sampler (a sharded
                # monitor mid-rescale can transiently refuse stats); the
                # failure stays visible as a counter.
                obs.counter("timeline.sample_errors").inc()

    def request_drain(self) -> None:
        """Signal-handler entry: schedule a drain on the running loop."""
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = asyncio.get_running_loop().create_task(self.drain())

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, notify, flush, checkpoint
        (a failed export is reported, not fatal)."""
        if not self.lifecycle.begin_drain():
            return
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._broadcast(
            {
                "ok": True,
                "notice": "draining",
                "t": self.bridge.timestamp,
                "accepted_batches": self.bridge.accepted_batches,
            }
        )
        if self.config.drain_grace > 0:
            # Hold with /readyz already 503 so load balancers deroute
            # before the writer stops taking work.
            await asyncio.sleep(self.config.drain_grace)
        # The queue is FIFO: everything admitted before the sentinel is
        # executed (and its reply future resolved) before the writer
        # task exits — no acked batch is lost.
        self._queue.put_nowait(None)
        if self._writer_task is not None:
            await self._writer_task
        if self.monitor.checkpoint_dir is not None:
            reply = self.bridge.checkpoint()
            if not reply["ok"]:
                # The drain still finishes; it says what a restart will find.
                self.flight.note("checkpoint_failed", error=reply["error"])
                await self._broadcast({**reply, "notice": "checkpoint_failed"})
        for _, writer in list(self._sessions.values()):
            try:
                writer.close()
            except RuntimeError:
                continue
        if self._sampler_task is not None:
            self._sampler_task.cancel()
            try:
                await self._sampler_task
            except asyncio.CancelledError:
                pass  # the cancellation we just requested
        if self.http is not None:
            await self.http.stop()
        self.flight.close()
        self.lifecycle.mark_stopped()

    async def _broadcast(self, notice: dict[str, Any]) -> None:
        """Write one notice line to every connected session."""
        line = encode_reply(notice).encode() + b"\n"
        for _, writer in list(self._sessions.values()):
            try:
                writer.write(line)
                await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                continue

    async def wait_stopped(self) -> None:
        """Block until a drain has fully stopped the server."""
        await self.lifecycle.wait_stopped()

    # -- admission ---------------------------------------------------------

    def _retry_hint(self) -> float:
        return round(max(self._service_ema * (self._data_depth + 1), _MIN_RETRY), 4)

    def _reject(self, code: str, reason: str, error: str, retry: float) -> dict:
        self.counters[f"rejected_{reason}"] += 1
        obs.counter("serve.rejected", labels={"reason": reason}).inc()
        self.flight.note("refusal", code=code, reason=reason)
        return {
            "ok": False,
            "code": code,
            "error": error,
            "retry_after": round(max(retry, _MIN_RETRY), 4),
        }

    def _admit(self, command: Command) -> dict | None:
        """Admission decision: ``None`` admits, else the rejection reply."""
        if not command.is_data:
            return None  # control plane bypasses admission
        if self.lifecycle.draining:
            return self._reject(
                "draining", "draining", "server is draining", _MIN_RETRY
            )
        if self._data_depth >= self.config.admission_capacity:
            return self._reject(
                "overloaded", "queue", "admission queue full", self._retry_hint()
            )
        self.counters["admitted"] += 1
        self._admitted.inc()
        return None

    # -- the writer task ---------------------------------------------------

    async def _writer_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                break
            if item.is_data:
                self._data_depth -= 1
                self._depth_gauge.set(self._data_depth)
            started = loop.time()
            refused = self.bridge.refused
            try:
                reply = self.bridge.execute(item.session, item.command)
            except ProtocolError as exc:
                reply = {"ok": False, "code": "bad_request", "error": str(exc)}
            except Exception as exc:
                # The writer must survive any single command: the client
                # gets a structured error and the failure is visible in
                # serve.rejected{reason=internal}.
                reply = {
                    "ok": False,
                    "code": "internal",
                    "error": f"{type(exc).__name__}: {exc}",
                }
                obs.counter("serve.rejected", labels={"reason": "internal"}).inc()
            if item.is_data:
                elapsed = max(loop.time() - started, 1e-6)
                self._service_ema = 0.8 * self._service_ema + 0.2 * elapsed
            if self.bridge.refused > refused:
                self.flight.note(
                    "refused", verb=item.command.verb, error=reply["error"]
                )
            if not item.future.done():
                item.future.set_result(reply)

    # -- per-connection handler --------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = Session(self._next_session)
        self._next_session += 1
        self._sessions[session.session_id] = (session, writer)
        self._sessions_gauge.set(len(self._sessions))
        loop = asyncio.get_running_loop()

        async def send(reply: dict) -> None:
            writer.write(encode_reply(reply).encode() + b"\n")
            await writer.drain()

        try:
            await send(
                {
                    "ok": True,
                    "notice": "hello",
                    "session": session.session_id,
                    "protocol": 1,
                }
            )
            while not self.lifecycle.stopped:
                line = await reader.readline()
                if not line:
                    break
                try:
                    command = parse_json_line(line.decode())
                except (ProtocolError, UnicodeDecodeError) as exc:
                    await send(
                        {"ok": False, "code": "bad_request", "error": str(exc)}
                    )
                    continue
                if command is None:
                    continue
                if isinstance(command, Quit):
                    await send({"ok": True, "cmd": command.verb})
                    break
                rejection = self._admit(command)
                if rejection is not None:
                    await send(rejection)
                    continue
                item = _WorkItem(
                    session, command, loop.create_future(), command.is_data
                )
                if item.is_data:
                    self._data_depth += 1
                    self._depth_gauge.set(self._data_depth)
                self._queue.put_nowait(item)
                reply = await item.future
                await send(reply)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished mid-reply: the session just ends
        finally:
            session.closed = True
            self._sessions.pop(session.session_id, None)
            self._sessions_gauge.set(len(self._sessions))
            try:
                writer.close()
            except RuntimeError:
                pass  # loop already closing underneath us
    # -- stats -------------------------------------------------------------

    def _edge_stats(self) -> dict[str, Any]:
        return {
            "sessions": len(self._sessions),
            "queue_depth": self._data_depth,
            **self.counters,
        }

    def serve_stats(self) -> dict[str, Any]:
        """The ``serve`` section of the ``stats`` reply."""
        return self.bridge.serve_stats()


def run_server(
    monitor: Any,
    config: ServeConfig,
    emit: Callable[[dict[str, Any]], None] | None = None,
    install_signals: bool = True,
    ready: Callable[[ReproServer], object] | None = None,
    restored: bool = False,
) -> dict[str, Any]:
    """Run a server until drained; returns its final edge stats.

    This is the synchronous entry the CLI calls — ``asyncio`` stays
    confined to :mod:`repro.serve`.  ``emit`` receives the
    ``listening`` notice (default: nothing; ``restored`` says whether
    the monitor came from a checkpoint); ``ready`` is a test hook
    called with the live server once the port is bound.
    """

    async def _amain() -> dict[str, Any]:
        server = ReproServer(monitor, config)
        await server.start()
        if install_signals:
            install_signal_handlers(
                asyncio.get_running_loop(), server.request_drain
            )
        if emit is not None:
            notice = {
                "ok": True,
                "notice": "listening",
                "host": config.host,
                "port": server.port,
                "restored": restored,
            }
            if server.http is not None:
                notice["http_host"], notice["http_port"] = server.http.address
            emit(notice)
        if ready is not None:
            ready(server)
        await server.wait_stopped()
        return server._edge_stats()

    return asyncio.run(_amain())
