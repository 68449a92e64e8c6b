"""The observability verbs: ``repro stats``, ``trace``, ``top``, ``slo``
and ``flight``."""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from ..cli import _make_probe, _open_monitor, _read_streams, _replay
from ..graph.io import read_graph_set
from . import enable, render_critical_spans, to_chrome


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: render a summary dump as Prometheus text or JSON."""
    from .exposition import render_json, render_prometheus

    text = Path(args.dump).read_text() if args.dump else sys.stdin.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"not a JSON summary: {exc}", file=sys.stderr)
        return 2
    if not isinstance(data, dict):
        print("summary must be a JSON object", file=sys.stderr)
        return 2
    # Accept either a bare registry summary or a full stats() dump that
    # wraps one under merged_obs/obs.
    if "merged_obs" in data and not all(
        isinstance(v, dict) and "kind" in v for v in data.values()
    ):
        data = data["merged_obs"]
    elif "obs" in data and not all(
        isinstance(v, dict) and "kind" in v for v in data.values()
    ):
        data = data["obs"]
    if args.format == "json":
        print(render_json(data))
    else:
        print(render_prometheus(data, prefix=args.prefix), end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: export a replay's span tree (Perfetto or text)."""
    enable()  # tracing is the whole point; override REPRO_OBS=0
    streams = _read_streams(args.streams)
    with _open_monitor(args, dict(read_graph_set(args.queries))) as monitor:
        for _ in _replay(monitor, streams):
            pass  # the replay exists only for the spans it leaves behind
        records = monitor.trace_spans()
    if args.format == "chrome":
        text = json.dumps(to_chrome(records), indent=2, sort_keys=True) + "\n"
    else:
        text = render_critical_spans(records, top=args.top)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(records)} spans)")
    else:
        print(text, end="")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """``repro top``: the live dashboard, over a stats dump or a replay."""
    from ..dashboard import run_top

    if args.dump:
        path = Path(args.dump)

        def poll() -> dict:
            return json.loads(path.read_text())

        frames = run_top(
            poll,
            sys.stdout,
            interval=args.interval,
            iterations=args.iterations,
            clear=not args.no_clear,
        )
        print(f"{frames} frames", file=sys.stderr)
        return 0

    if not (args.queries and args.streams):
        print(
            "top needs a stats JSON dump or --queries/--streams to replay",
            file=sys.stderr,
        )
        return 2
    enable()
    streams = _read_streams(args.streams)
    horizon = min(len(stream.operations) for stream in streams.values())
    iterations = args.iterations if args.iterations is not None else horizon + 1
    with _open_monitor(args, dict(read_graph_set(args.queries))) as monitor:
        probe = _make_probe(monitor, args)
        steps = _replay(monitor, streams)
        next(steps)  # register the streams; frames start at timestamp 1

        def poll() -> dict:
            # One frame = one timestamp: the dashboard doubles as the
            # replay driver, so everything stays single-threaded.
            next(steps, None)  # frames past the horizon repaint the final state
            if probe is not None:
                probe.sample()
            stats = monitor.stats()
            if "merged_obs" not in stats:  # in-process: no registry inside
                stats["obs"] = monitor.obs_summary()
            return stats

        frames = run_top(
            poll,
            sys.stdout,
            interval=args.interval,
            iterations=iterations,
            clear=not args.no_clear,
        )
    print(f"{frames} frames", file=sys.stderr)
    return 0


def _print_slo_table(snapshot: dict) -> None:
    print(f"worst: {snapshot['worst']}")
    header = f"{'rule':<20} {'state':<7} {'value':>12} {'threshold':>10}  objective"
    print(header)
    print("-" * len(header))
    for rule in snapshot["rules"]:
        value = rule.get("value")
        value_text = f"{value:.4g}" if value is not None else "-"
        objective = rule["objective"]
        if objective == "quantile":
            objective = f"p{int(rule['q'] * 100)} quantile"
        print(
            f"{rule['name']:<20} {rule['state']:<7} {value_text:>12} "
            f"{rule['threshold']:>10.4g}  {objective} over {rule['metric']}"
        )


def cmd_slo(args: argparse.Namespace) -> int:
    """``repro slo``: evaluate the SLO rules (live ``/slo`` or a replay)."""
    if args.url:
        import urllib.error
        import urllib.request

        url = args.url.rstrip("/") + "/slo"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                snapshot = json.loads(response.read())
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            print(f"cannot fetch {url}: {exc}", file=sys.stderr)
            return 2
        _print_slo_table(snapshot)
        return 1 if snapshot["worst"] == "breach" else 0

    if not (args.queries and args.streams):
        print("slo needs --url or --queries/--streams to replay", file=sys.stderr)
        return 2
    from .slo import DEFAULT_RULES, SloEngine, SloRule
    from .timeline import Timeline

    enable()
    streams = _read_streams(args.streams)
    rules = tuple(
        SloRule(**(rule._asdict() | {"window": args.window})) for rule in DEFAULT_RULES
    )
    timeline = Timeline()
    engine = SloEngine(rules=rules, timeline=timeline)
    with _open_monitor(args, dict(read_graph_set(args.queries))) as monitor:
        for timestamp, _ in _replay(monitor, streams):
            timeline.sample(monitor.obs_summary())
            if timestamp:
                engine.evaluate()
    snapshot = engine.snapshot()
    _print_slo_table(snapshot)
    return 1 if snapshot["worst"] == "breach" else 0


def cmd_flight(args: argparse.Namespace) -> int:
    """``repro flight``: list or show recordings, or SIGUSR2 a live process."""
    from .flight import FlightRecorder

    if args.action == "signal":
        if args.pid is None:
            print("flight signal needs --pid", file=sys.stderr)
            return 2
        try:
            os.kill(args.pid, signal.SIGUSR2)
        except (ProcessLookupError, PermissionError) as exc:
            print(f"cannot signal pid {args.pid}: {exc}", file=sys.stderr)
            return 2
        print(f"sent SIGUSR2 to {args.pid}")
        return 0

    if args.action == "list":
        if not args.dir:
            print("flight list needs --dir", file=sys.stderr)
            return 2
        directory = Path(args.dir)
        if not directory.is_dir():
            print(f"no such directory: {directory}", file=sys.stderr)
            return 2
        found = sorted(
            path
            for path in directory.iterdir()
            if path.name.startswith("flight-")
            and path.suffix in (".jsonl", ".json", ".old")
        )
        for path in found:
            kind = "journal" if ".jsonl" in path.name else "dump"
            print(f"{path.name}\t{kind}\t{path.stat().st_size} bytes")
        if not found:
            print("no flight recordings found", file=sys.stderr)
        return 0

    # show
    if not args.file:
        print("flight show needs --file", file=sys.stderr)
        return 2
    path = Path(args.file)
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return 2
    loaded = FlightRecorder.read(path)
    if isinstance(loaded, list):  # journal: one event per line
        for event in loaded:
            print(json.dumps(event, sort_keys=True))
    else:  # full dump document
        print(json.dumps(loaded, indent=2, sort_keys=True))
    return 0

