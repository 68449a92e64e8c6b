"""``repro serve``: the one handler a served process compiles before its
workers fork; the serving edge it drives is imported after the fork."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..cli import _open_monitor
from ..core.checkpoint import MANIFEST
from ..graph.io import read_graph_set


def _parse_host_port(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"--tcp wants HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: stdin lines, or JSON sessions over ``--tcp``."""
    # The directory the server writes is the one it starts from.
    restored = bool(args.checkpoint_dir) and Path(args.checkpoint_dir, MANIFEST).is_file()
    queries = dict(read_graph_set(args.queries))
    with _open_monitor(args, queries, restore=restored) as monitor:
        # The serving edge (asyncio, ssl, http) is imported
        # only now that the workers have forked: they never serve, and
        # would carry its pages for life.
        from .protocol import encode_reply
        from .server import ServeConfig, run_server
        from .session import serve_lines

        def emit(payload: dict) -> None:
            print(encode_reply(payload), flush=True)

        if args.tcp:
            host, port = _parse_host_port(args.tcp)
            http_host, http_port = (None, 0)
            if args.http:
                http_host, http_port = _parse_host_port(args.http)
            run_server(
                monitor,
                ServeConfig(
                    host=host,
                    port=port,
                    admission_capacity=args.admission_capacity,
                    http_host=http_host,
                    http_port=http_port,
                    drain_grace=args.drain_grace,
                    timeline_interval=args.timeline_interval,
                    flight_dir=args.flight_dir,
                ),
                emit=emit,
                restored=restored,
            )
        else:
            serve_lines(monitor, sys.stdin, emit, stats_every=args.stats_every)
    return 0
