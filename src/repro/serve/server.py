"""The TCP server: one ``selectors`` loop at the edge, one writer at the core.

Concurrency model
-----------------
One thread runs one :mod:`selectors` loop.  It owns the TCP listener,
the optional HTTP listener and every accepted socket, all non-blocking,
each with an input and an output buffer.  Every turn it

1. waits for socket readiness, the next timer (the timeline sampler or
   the drain-grace deadline) or a byte on its wakeup socket -- SIGTERM
   and SIGINT reach it through :func:`signal.set_wakeup_fd`, and
   :meth:`ReproServer.request_drain` from any thread -- then accepts,
   reads and writes what is ready;
2. parses the complete lines of every session with no command in
   flight and runs admission.  A session has at most one command in
   flight, so it sees strict FIFO semantics while sessions interleave;
3. executes the FIFO of admitted commands through
   :class:`~repro.serve.session.MonitorBridge` and queues each reply on
   its session.  The loop is the only caller of the monitor, which makes
   the sharded coordinator's synchronous request/reply protocol safe
   without locks.

Admission happens *before* a data command is queued: a draining server
refuses it, and so does a FIFO already holding ``admission_capacity``
admitted-but-unexecuted data commands.  Every rejection is a structured
reply with a ``retry_after`` hint -- the edge never silently blocks and
never drops an admitted command.  Control commands (``matches``/
``stats``/...) bypass admission so a congested server stays observable.
A session that leaves ``_HIGH_WATER`` bytes of replies unread is not
parsed until it reads them; the other sessions go on.

Draining (SIGTERM or :meth:`ReproServer.request_drain`) stops the
listener, tells every session ``{"notice": "draining"}``, holds
``drain_grace`` seconds so load balancers see ``/readyz`` flip to 503
while admitted work still runs, executes everything admitted,
checkpoints when configured, closes the sessions and the HTTP listener,
and only then stops.

Observability rides the same loop: HTTP requests are answered by
:class:`~repro.serve.http.ObservabilityEndpoint`, the sampler folds the
merged registry summary into a :class:`~repro.obs.timeline.Timeline`
and re-evaluates the :class:`~repro.obs.slo.SloEngine` between commands,
and a :class:`~repro.obs.flight.FlightRecorder` journals every refusal.
"""

from __future__ import annotations

import selectors
import socket
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .. import obs
from ..obs.flight import FlightRecorder
from ..obs.slo import SloEngine
from ..obs.timeline import Timeline
from .http import MAX_REQUEST_BYTES, ObservabilityEndpoint
from .lifecycle import Lifecycle, install_signal_handlers
from .protocol import Command, ProtocolError, Quit, encode_reply, parse_json_line
from .session import MonitorBridge, Session

__all__ = ["ServeConfig", "ReproServer", "run_server"]

#: Floor for computed retry hints so clients never busy-spin.
_MIN_RETRY = 0.05
#: A session line longer than this closes the session.
_MAX_LINE = 1 << 16
#: Unread reply bytes past which a session's next line waits.
_HIGH_WATER = 1 << 16
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class _ServeFields(NamedTuple):
    host: str = "127.0.0.1"
    port: int = 0
    #: Bounded admission queue: max data commands queued but
    #: unexecuted; a data command that finds it full is refused.
    admission_capacity: int = 64
    #: Observability endpoint bind (None = no HTTP endpoint).
    http_host: str | None = None
    http_port: int = 0
    #: Seconds to hold between the draining notice and the final
    #: flush, so ``/readyz`` is 503 while work still flows (the
    #: Kubernetes preStop pattern).
    drain_grace: float = 0.0
    #: Metrics-timeline sampler cadence.
    timeline_interval: float = 1.0
    #: Directory for the flight-recorder journal (None = in-memory only).
    flight_dir: str | None = None
    #: SLO rule overrides (() = the stock DEFAULT_RULES).
    slo_rules: tuple = ()


class ServeConfig(_ServeFields):
    """Tunables of the serving edge, checked on construction; ``repro
    serve`` sets every field but ``slo_rules``."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "ServeConfig":
        config = super().__new__(cls, *args, **kwargs)
        if config.admission_capacity < 1:
            raise ValueError("admission_capacity must be >= 1")
        if config.drain_grace < 0:
            raise ValueError("drain_grace must be >= 0 seconds")
        if config.timeline_interval <= 0:
            raise ValueError("timeline_interval must be > 0 seconds")
        return config


class _Conn:
    """One accepted socket and its buffers; ``session`` is None for an
    HTTP request."""

    __slots__ = ("sock", "session", "inbuf", "outbuf", "events", "eof", "closing")

    def __init__(self, sock: socket.socket, session: Session | None) -> None:
        self.sock = sock
        self.session = session
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.events = 0  # what the selector watches for; 0 = unregistered
        self.eof = False
        self.closing = False  # close once ``outbuf`` is sent

    def has_line(self) -> bool:
        """Is there input to act on, with room to answer it?"""
        return (
            not self.closing
            and len(self.outbuf) < _HIGH_WATER
            and (self.eof or b"\n" in self.inbuf or len(self.inbuf) >= _MAX_LINE)
        )


def _listen(host: str, port: int) -> socket.socket:
    family = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][0]
    sock = socket.create_server((host, port), family=family, backlog=100)
    sock.setblocking(False)
    return sock


class ReproServer:
    """TCP front-end over one monitor (library or sharded): :meth:`start`
    binds, :meth:`serve` runs the loop until a drain has stopped it."""

    def __init__(self, monitor: Any, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.monitor = monitor
        self.bridge = MonitorBridge(monitor, extra_stats=self._edge_stats)
        self.lifecycle = Lifecycle()
        self.port = 0
        self.http_address: tuple[str, int] | None = None
        #: The loop's selector and wakeup pair, made by :meth:`start`.
        self._selector: selectors.BaseSelector
        self._wake_r: socket.socket
        self._wake_w: socket.socket
        #: ``"tcp"`` and, with an HTTP endpoint, ``"http"``.
        self._listeners: dict[str, socket.socket] = {}
        self._conns: set[_Conn] = set()
        self._sessions: dict[int, _Conn] = {}
        self._next_session = 1
        #: Admitted commands not yet executed, oldest first.
        self._fifo: list[tuple[_Conn, Command]] = []
        #: Data commands admitted but not yet executed.
        self._data_depth = 0
        self._drain_requested = False
        self._grace_until = 0.0
        self._next_sample = 0.0
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
        self.timeline = Timeline()
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

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the listener(s); ``port`` and ``http_port`` are then set."""
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        for sock in (self._wake_r, self._wake_w):
            sock.setblocking(False)
        self._selector.register(self._wake_r, _READ, self._wake)
        listener = self._listeners["tcp"] = _listen(self.config.host, self.config.port)
        self._selector.register(listener, _READ, self._accept)
        self.port = listener.getsockname()[1]
        if self.config.http_host is not None:
            self.http = ObservabilityEndpoint(
                summary=self.monitor.obs_summary,
                ready=lambda: not self.lifecycle.draining,
                slo=self.slo.snapshot,
                timeline=self.timeline,
            )
            http = self._listeners["http"] = _listen(
                self.config.http_host, self.config.http_port
            )
            self._selector.register(http, _READ, self._accept)
            self.http_address = http.getsockname()[:2]
        self._next_sample = time.monotonic() + self.config.timeline_interval
        self.lifecycle.advance("serving")

    @property
    def http_port(self) -> int:
        assert self.http_address is not None, "observability endpoint not configured"
        return self.http_address[1]

    def serve(self) -> None:
        """Run the loop until a drain has stopped the server."""
        try:
            while not self.lifecycle.stopped:
                self._turn()
        finally:
            for conn in list(self._conns):
                self._close(conn)
            for role in list(self._listeners):
                self._stop_listening(role)
            self._selector.close()
            self._wake_r.close()
            self._wake_w.close()

    def request_drain(self) -> None:
        """Start a drain; safe from a signal handler or another thread."""
        self._drain_requested = True
        if self.lifecycle.state == "starting":
            return  # no loop to wake yet: its first turn reads the flag
        try:
            self._wake_w.send(b"\0")
        except OSError:
            return  # the loop is awake already, or gone

    def _turn(self) -> None:
        if any(conn.has_line() for conn in self._sessions.values()):
            timeout = 0.0
        else:
            deadline = self._next_sample
            if self.lifecycle.draining:
                deadline = min(deadline, self._grace_until)
            timeout = max(deadline - time.monotonic(), 0.0)
        for key, events in self._selector.select(timeout):
            if isinstance(key.data, _Conn):
                self._on_ready(key.data, events)
            else:
                key.data(key.fileobj)
        if self._drain_requested and not self.lifecycle.draining:
            self._begin_drain()
        for conn in list(self._sessions.values()):
            self._read_lines(conn)
        self._execute_fifo()
        now = time.monotonic()
        if now >= self._next_sample:
            self._sample()
            self._next_sample = now + self.config.timeline_interval
        for conn in list(self._conns):
            if conn.outbuf:
                self._flush(conn)
            if conn.closing and not conn.outbuf:
                self._close(conn)
            elif conn in self._conns:
                self._watch(conn)
        if self.lifecycle.draining and now >= self._grace_until:
            self._finish_drain()

    def _sample(self) -> None:
        """Fold a registry snapshot into the timeline and re-evaluate
        the SLO rules over it."""
        try:
            self.timeline.sample(self.monitor.obs_summary())
            self.slo.evaluate()
        except Exception:
            # A failed sample must never kill the loop (a sharded
            # monitor mid-rescale can transiently refuse stats); the
            # failure stays visible as a counter.
            obs.counter("timeline.sample_errors").inc()

    def _begin_drain(self) -> None:
        """Stop listening and tell every session; the grace starts now."""
        self.lifecycle.advance("draining")
        self._stop_listening("tcp")
        self._broadcast(
            {
                "ok": True,
                "notice": "draining",
                "t": self.bridge.timestamp,
                "accepted_batches": self.bridge.accepted_batches,
            }
        )
        self._grace_until = time.monotonic() + self.config.drain_grace

    def _finish_drain(self) -> None:
        """Everything admitted has run: checkpoint (a failed export is
        reported, not fatal), close the sessions, then the HTTP side."""
        if self.monitor.checkpoint_dir is not None:
            reply = self.bridge.checkpoint()
            if not reply["ok"]:
                # The drain still finishes; it says what a restart will find.
                self.flight.note("checkpoint_failed", error=reply["error"])
                self._broadcast({**reply, "notice": "checkpoint_failed"})
        # Sessions, then HTTP requests: each gets what its socket takes now.
        for conn in sorted(self._conns, key=lambda conn: conn.session is None):
            if conn.outbuf:
                self._flush(conn)
            self._close(conn)
        for role in list(self._listeners):
            self._stop_listening(role)
        self.flight.close()
        self.lifecycle.advance("stopped")

    def _broadcast(self, notice: dict[str, Any]) -> None:
        """Queue one notice line on every connected session."""
        line = encode_reply(notice).encode() + b"\n"
        for conn in self._sessions.values():
            conn.outbuf += line

    def _stop_listening(self, role: str) -> None:
        sock = self._listeners.pop(role)
        self._selector.unregister(sock)
        sock.close()

    def _wake(self, sock: socket.socket) -> None:
        sock.recv(4096)  # what woke the loop is in ``_drain_requested``

    # -- sockets -----------------------------------------------------------

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:  # BlockingIOError: the backlog is empty
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if listener is self._listeners.get("http"):
                self._conns.add(_Conn(sock, None))
                continue
            session = Session(self._next_session)
            self._next_session += 1
            conn = _Conn(sock, session)
            self._conns.add(conn)
            self._sessions[session.session_id] = conn
            self._sessions_gauge.set(len(self._sessions))
            self._send(
                conn,
                {"ok": True, "notice": "hello", "session": session.session_id, "protocol": 1},
            )

    def _on_ready(self, conn: _Conn, events: int) -> None:
        if events & _WRITE:
            self._flush(conn)
        if events & _READ and conn in self._conns:
            try:
                data = conn.sock.recv(_MAX_LINE)
            except BlockingIOError:
                return
            except OSError:
                self._close(conn)  # the client vanished
                return
            conn.inbuf += data
            conn.eof = not data
            if conn.session is None:
                self._answer_http(conn)

    def _answer_http(self, conn: _Conn) -> None:
        head = bytes(conn.inbuf)
        if conn.eof or b"\n\n" in head or b"\n\r\n" in head or len(head) > MAX_REQUEST_BYTES:
            assert self.http is not None
            conn.outbuf += self.http.respond(head)
            conn.closing = True

    def _watch(self, conn: _Conn) -> None:
        """Point the selector at what ``conn`` can take next."""
        wants_input = not (conn.eof or conn.closing) and (
            len(conn.inbuf) < _MAX_LINE and len(conn.outbuf) < _HIGH_WATER
        )
        events = (_READ if wants_input else 0) | (_WRITE if conn.outbuf else 0)
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _send(self, conn: _Conn, reply: dict) -> None:
        conn.outbuf += encode_reply(reply).encode() + b"\n"

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)  # client vanished mid-reply: the session just ends
            return
        del conn.outbuf[:sent]

    def _end_session(self, conn: _Conn) -> None:
        """The session is over; its socket closes once its replies are sent."""
        conn.closing = True
        if conn.session is not None and not conn.session.closed:
            conn.session.closed = True
            del self._sessions[conn.session.session_id]
            self._sessions_gauge.set(len(self._sessions))

    def _close(self, conn: _Conn) -> None:
        self._end_session(conn)
        if conn in self._conns:
            self._conns.remove(conn)
            if conn.events:
                self._selector.unregister(conn.sock)
            conn.sock.close()

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

    def _read_lines(self, conn: _Conn) -> None:
        """Answer or admit ``conn``'s complete lines until one is admitted."""
        while conn.has_line():
            end = conn.inbuf.find(b"\n") + 1
            if not end:
                if len(conn.inbuf) >= _MAX_LINE:
                    self._close(conn)  # a line past the limit ends the session
                    return
                if not conn.inbuf:
                    self._end_session(conn)  # the client closed its side
                    return
                end = len(conn.inbuf)  # the last line, unterminated
            line = bytes(conn.inbuf[:end])
            del conn.inbuf[:end]
            try:
                command = parse_json_line(line.decode())
            except (ProtocolError, UnicodeDecodeError) as exc:
                self._send(conn, {"ok": False, "code": "bad_request", "error": str(exc)})
                continue
            if command is None:
                continue
            if isinstance(command, Quit):
                self._send(conn, {"ok": True, "cmd": command.verb})
                self._end_session(conn)
                return
            rejection = self._admit(command)
            if rejection is not None:
                self._send(conn, rejection)
                continue
            if command.is_data:
                self._data_depth += 1
                self._depth_gauge.set(self._data_depth)
            self._fifo.append((conn, command))
            return

    # -- the writer --------------------------------------------------------

    def _execute_fifo(self) -> None:
        fifo, self._fifo = self._fifo, []
        for conn, command in fifo:
            assert conn.session is not None
            if command.is_data:
                self._data_depth -= 1
                self._depth_gauge.set(self._data_depth)
            started = time.monotonic()
            refused = self.bridge.refused
            try:
                reply = self.bridge.execute(conn.session, command)
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
            if command.is_data:
                elapsed = max(time.monotonic() - started, 1e-6)
                self._service_ema = 0.8 * self._service_ema + 0.2 * elapsed
            if self.bridge.refused > refused:
                self.flight.note("refused", verb=command.verb, error=reply["error"])
            self._send(conn, reply)

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

    This is the entry the CLI calls.  ``emit`` receives the
    ``listening`` notice (default: nothing; ``restored`` says whether
    the monitor came from a checkpoint); ``ready`` is a test hook called
    with the live server once the port is bound.  ``install_signals``
    routes SIGTERM/SIGINT to a drain for the run (from the main thread;
    elsewhere Python delivers no signal, and nothing is installed).
    """
    server = ReproServer(monitor, config)
    server.start()
    restore = (
        install_signal_handlers(server._wake_w.fileno(), server.request_drain)
        if install_signals
        else None
    )
    try:
        if emit is not None:
            notice = {
                "ok": True,
                "notice": "listening",
                "host": config.host,
                "port": server.port,
                "restored": restored,
            }
            if server.http_address is not None:
                notice["http_host"], notice["http_port"] = server.http_address
            emit(notice)
        if ready is not None:
            ready(server)
        server.serve()
    finally:
        if restore is not None:
            restore()
    return server._edge_stats()
