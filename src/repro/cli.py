"""Command-line interface.

Eleven subcommands::

    python -m repro generate ...    # write synthetic datasets to files
    python -m repro search ...      # static filter-and-verify search
    python -m repro monitor ...     # replay streams, print match events
    python -m repro replay ...      # same, with live rescale/churn and runtime knobs
    python -m repro serve ...       # serving layer: stdin lines or --tcp JSON
    python -m repro stats ...       # render an observability dump (Prometheus/JSON)
    python -m repro trace ...       # export a replay's span tree (Perfetto/text)
    python -m repro top ...         # live dashboard over stats()
    python -m repro slo ...         # evaluate the SLO rules (live /slo or a replay)
    python -m repro flight ...      # inspect flight-recorder journals and dumps
    python -m repro experiment ...  # run a paper-figure driver

Graphs and query sets use the text format of :mod:`repro.graph.io`
(gSpan-style ``t # / v / e`` blocks); streams add ``op`` blocks.
``replay``/``serve``/``trace``/``top``/``slo`` take ``--workers N``:
``0`` runs the in-process :class:`StreamMonitor`, ``N >= 1`` forks N
worker processes behind a :class:`ShardedMonitor` (:func:`_open_monitor`
is the one place either is built; :func:`_replay` the one loop that
drives them through recorded streams).
``replay`` and ``serve`` take ``--stats-every N`` to emit the merged
observability registries every N timestamps; ``monitor``/``replay``
take ``--probe-rate``/``--probe-budget-ms`` to run the sampled
precision probe alongside the filter (see ``docs/observability.md``).

This module is the parser and the dispatch; each verb's handler lives
next to the subsystem it drives (:data:`HANDLERS`).
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import import_module
from pathlib import Path

from .core.checkpoint import load_monitor
from .core.monitor import StreamMonitor
from .graph.io import read_stream
from .graph.labeled_graph import GraphError
from .runtime import ShardedMonitor


def _add_probe_arguments(sub: argparse.ArgumentParser) -> None:
    """The precision-probe knobs shared by replaying subcommands."""
    sub.add_argument(
        "--probe-rate",
        type=_probe_rate,
        default=0.0,
        help="fraction of emitted candidate pairs to verify with exact "
        "isomorphism per timestamp (0 = probe off, 1 = verify every pair)",
    )
    sub.add_argument(
        "--probe-budget-ms",
        type=_probe_budget_ms,
        default=50.0,
        help="wall-clock budget per probe pass in milliseconds "
        "(0 = unbudgeted; pairs beyond the budget are skipped and counted)",
    )


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _probe_rate(text: str) -> float:
    """``--probe-rate``: a fraction in [0, 1], refused by argparse otherwise."""
    rate = _finite(text)
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(f"probe rate must be in [0, 1], got {rate}")
    return rate


def _probe_budget_ms(text: str) -> float:
    """``--probe-budget-ms``: milliseconds >= 0 (0 = unbudgeted), refused by
    argparse otherwise."""
    budget = _finite(text)
    if budget < 0:
        raise argparse.ArgumentTypeError(f"probe budget must be >= 0 ms, got {budget}")
    return budget


def _depth_limit(text: str) -> int:
    """``--depth``: an NNT depth ``l >= 1``, refused by argparse otherwise."""
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if depth < 1:
        raise argparse.ArgumentTypeError(f"NNT depth must be >= 1, got {depth}")
    return depth


def _input_file(text: str) -> str:
    """An input file path, refused by argparse when no file is there."""
    if not Path(text).is_file():
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    return text


def _add_workers_argument(sub: argparse.ArgumentParser) -> None:
    """``--workers``, meaning the same thing wherever it is accepted."""
    sub.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = in-process StreamMonitor, no "
        "subprocesses; N >= 1 = N forked workers behind a ShardedMonitor)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (also used by the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Continuous subgraph pattern search over graph streams "
        "(Wang & Chen, ICDE 2009 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # Shared by every subcommand that builds a monitor / that replays
    # recorded streams through one.
    filtering = argparse.ArgumentParser(add_help=False)
    filtering.add_argument(
        "--method", choices=["nl", "dsc", "skyline", "matrix"], default="dsc"
    )
    filtering.add_argument("--depth", type=_depth_limit, default=3, help="NNT depth l")
    recorded = argparse.ArgumentParser(add_help=False)
    recorded.add_argument(
        "--queries", type=_input_file, required=True, help="graph-set file of patterns"
    )
    recorded.add_argument(
        "--streams", type=_input_file, nargs="+", required=True, help="stream files"
    )

    # -- generate ---------------------------------------------------------
    gen = subparsers.add_parser("generate", help="write synthetic datasets to files")
    gen.add_argument(
        "kind",
        choices=["molecules", "ggen", "queries", "reality-stream", "synthetic-stream"],
    )
    gen.add_argument("--out", required=True, help="output file path")
    gen.add_argument("--count", type=int, default=100, help="number of graphs/queries")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--size", type=float, default=20.0, help="mean graph size (ggen T)")
    gen.add_argument("--labels", type=int, default=4, help="vertex label count (ggen V)")
    gen.add_argument("--query-edges", type=int, default=8, help="edges per query")
    gen.add_argument("--from-db", type=_input_file, help="source graph set for 'queries'")
    gen.add_argument("--timestamps", type=int, default=100, help="stream length")
    gen.add_argument("--devices", type=int, default=97, help="reality-stream devices")
    gen.add_argument(
        "--density",
        choices=["dense", "sparse"],
        default="dense",
        help="synthetic-stream coin-flip regime (p1/p2 of the paper)",
    )
    gen.add_argument(
        "--base", type=_input_file, help="base graph set for 'synthetic-stream' (first block)"
    )

    # -- search -----------------------------------------------------------
    search = subparsers.add_parser("search", help="static subgraph search over a graph set")
    search.add_argument("--db", type=_input_file, required=True, help="graph-set file")
    search.add_argument(
        "--queries", type=_input_file, required=True, help="graph-set file of patterns"
    )
    search.add_argument("--depth", type=_depth_limit, default=3, help="NNT depth l")
    search.add_argument(
        "--no-verify", action="store_true", help="report filter candidates only"
    )

    # -- monitor ----------------------------------------------------------
    monitor = subparsers.add_parser(
        "monitor",
        parents=[recorded, filtering],
        help="replay streams and print match events",
    )
    monitor.add_argument(
        "--verify", action="store_true", help="confirm events with exact isomorphism"
    )
    _add_probe_arguments(monitor)

    # -- replay -----------------------------------------------------------
    replay = subparsers.add_parser(
        "replay",
        parents=[recorded, filtering],
        help="replay streams (optionally through the sharded runtime) and "
        "print match events",
    )
    _add_workers_argument(replay)
    replay.add_argument(
        "--queue-capacity", type=int, default=128, help="worker inbox bound"
    )
    replay.add_argument("--checkpoint-dir", help="checkpoint export directory")
    replay.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="auto-checkpoint cadence in accepted batches (0 = off)",
    )
    replay.add_argument(
        "--shm",
        action="store_true",
        help="ship apply payloads through per-shard shared-memory rings "
        "(--workers >= 1)",
    )
    replay.add_argument(
        "--rescale-at",
        action="append",
        metavar="T:N",
        help="rescale the worker pool to N workers after the events of "
        "timestamp T (repeatable; --workers >= 1)",
    )
    replay.add_argument(
        "--register-at",
        action="append",
        metavar="T:ID:FILE[:KEY]",
        help="register query ID (pattern KEY from graph-set FILE, first "
        "graph when omitted) live after the events of timestamp T "
        "(repeatable)",
    )
    replay.add_argument(
        "--deregister-at",
        action="append",
        metavar="T:ID",
        help="deregister query ID live after the events of timestamp T "
        "(repeatable)",
    )
    replay.add_argument(
        "--stats-every",
        type=int,
        default=0,
        help="print merged observability metrics (Prometheus text) every "
        "N timestamps (0 = off)",
    )
    replay.add_argument(
        "--stats-json",
        help="write the final merged observability summary to this JSON file",
    )
    replay.add_argument(
        "--flight-dir",
        help="per-shard flight-recorder directory (journals survive "
        "SIGKILL; --workers >= 1)",
    )
    _add_probe_arguments(replay)

    # -- serve ------------------------------------------------------------
    serve = subparsers.add_parser(
        "serve",
        parents=[filtering],
        help="monitoring server: line protocol on stdin, or a single-loop TCP "
        "server with sessions + admission control via --tcp HOST:PORT",
    )
    serve.add_argument(
        "--queries", type=_input_file, required=True, help="graph-set file of patterns"
    )
    _add_workers_argument(serve)
    serve.add_argument("--queue-capacity", type=int, default=128)
    serve.add_argument(
        "--checkpoint-dir",
        help="checkpoint export directory; an export found there is restored at start",
    )
    serve.add_argument("--checkpoint-every", type=int, default=0)
    serve.add_argument(
        "--stats-every",
        type=int,
        default=0,
        help="emit an observability summary JSON line every N ticks "
        "(0 = off; stdin mode only)",
    )
    serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help="serve newline-delimited JSON over TCP instead of stdin "
        "(PORT 0 picks a free port, announced in the listening notice)",
    )
    serve.add_argument(
        "--admission-capacity",
        type=int,
        default=64,
        help="max data commands queued ahead of the writer task",
    )
    serve.add_argument(
        "--http",
        metavar="HOST:PORT",
        help="HTTP observability endpoint (/metrics /healthz /readyz "
        "/slo /timeline.json /trace; PORT 0 picks a free port; "
        "--tcp mode only)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=0.0,
        help="seconds to hold between the draining notice and shutdown "
        "so /readyz flips to 503 before work stops (k8s preStop)",
    )
    serve.add_argument(
        "--timeline-interval",
        type=float,
        default=1.0,
        help="seconds between metrics-timeline samples (--tcp mode)",
    )
    serve.add_argument(
        "--flight-dir",
        help="flight-recorder directory (refusals journaled to "
        "flight-serve.jsonl)",
    )

    # -- slo --------------------------------------------------------------
    slo = subparsers.add_parser(
        "slo",
        parents=[filtering],
        help="evaluate the SLO rules: against a live server's /slo "
        "endpoint, or over a local replay (exit 1 on breach)",
    )
    slo.add_argument(
        "--url",
        help="base URL of a live observability endpoint "
        "(e.g. http://127.0.0.1:9100); mutually exclusive with replay mode",
    )
    slo.add_argument(
        "--queries", type=_input_file, help="graph-set file of patterns (replay mode)"
    )
    slo.add_argument(
        "--streams", type=_input_file, nargs="+", help="stream files (replay mode)"
    )
    _add_workers_argument(slo)
    slo.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="trailing evaluation window in seconds (replay mode)",
    )

    # -- flight -----------------------------------------------------------
    flight = subparsers.add_parser(
        "flight",
        help="inspect flight-recorder journals and dumps, or trigger a "
        "live dump via SIGUSR2",
    )
    flight.add_argument(
        "action",
        choices=["list", "show", "signal"],
        help="list = enumerate recordings in --dir; show = print one "
        "journal/dump; signal = SIGUSR2 a live process to dump",
    )
    flight.add_argument("--dir", help="flight-recorder directory (list)")
    flight.add_argument("--file", help="journal (.jsonl) or dump (.json) to show")
    flight.add_argument(
        "--pid", type=int, help="process to SIGUSR2 (signal action)"
    )

    # -- stats ------------------------------------------------------------
    stats = subparsers.add_parser(
        "stats",
        help="render an observability summary dump as Prometheus text or JSON",
    )
    stats.add_argument(
        "dump",
        nargs="?",
        help="summary JSON file written by `replay --stats-json` (default: stdin); "
        "full `stats` dumps with a merged_obs/obs key are unwrapped automatically",
    )
    stats.add_argument(
        "--format",
        choices=["prometheus", "json"],
        default="prometheus",
        help="exposition format (default Prometheus text 0.0.4)",
    )
    stats.add_argument("--prefix", default="repro", help="metric name prefix")

    # -- trace --------------------------------------------------------------
    trace = subparsers.add_parser(
        "trace",
        parents=[recorded, filtering],
        help="replay streams and export the collected span tree "
        "(Chrome trace-event JSON for Perfetto, or a text critical-span table)",
    )
    _add_workers_argument(trace)
    trace.add_argument("--queue-capacity", type=int, default=128)
    trace.add_argument(
        "--format",
        choices=["chrome", "text"],
        default="chrome",
        help="chrome = Perfetto-loadable trace-event JSON, text = top-N spans",
    )
    trace.add_argument("--out", help="output file (default: stdout)")
    trace.add_argument(
        "--top", type=int, default=10, help="spans shown by --format text"
    )

    # -- top ----------------------------------------------------------------
    top = subparsers.add_parser(
        "top",
        parents=[filtering],
        help="live plain-terminal dashboard: latency percentiles, inbox "
        "depths, pruning power, FP-ratio estimate",
    )
    top.add_argument(
        "dump",
        nargs="?",
        help="stats JSON file to poll each frame (e.g. refreshed by "
        "`replay --stats-json`); omit to drive a replay directly",
    )
    top.add_argument(
        "--queries", type=_input_file, help="graph-set file of patterns (replay mode)"
    )
    top.add_argument(
        "--streams", type=_input_file, nargs="+", help="stream files (replay mode)"
    )
    _add_workers_argument(top)
    top.add_argument("--queue-capacity", type=int, default=128)
    top.add_argument(
        "--interval", type=float, default=1.0, help="seconds between frames"
    )
    top.add_argument(
        "--iterations",
        type=int,
        help="frames to paint (default: until Ctrl-C, or one per "
        "timestamp plus a final frame in replay mode)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (pipes/tests)",
    )
    _add_probe_arguments(top)

    # -- experiment ---------------------------------------------------------
    experiment = subparsers.add_parser("experiment", help="run a paper-figure driver")
    experiment.add_argument("figure", help="fig02|fig12|...|fig17|ablation_a1..a7|all")
    experiment.add_argument("--scale", choices=["smoke", "default", "paper"])
    experiment.add_argument(
        "--out",
        help="also save results; suffix picks the format (.csv/.json/.md/.txt); "
        "with 'all', a directory receiving one file per figure",
    )
    experiment.add_argument(
        "--format",
        choices=["csv", "json", "md", "txt"],
        default="md",
        help="file format when --out is a directory (default md)",
    )
    experiment.add_argument(
        "--workers",
        type=int,
        help="replay engine methods through the sharded runtime "
        "(figures that support it: fig16, fig17)",
    )
    return parser


def _read_streams(paths: list[str]) -> dict:
    streams = {}
    for path in paths:
        stream = read_stream(path)
        stream_id = stream.name or Path(path).stem
        streams[stream_id] = stream
    return streams


#: Flag -> parameter of every monitor / of :class:`ShardedMonitor` alone;
#: each is passed only by the subcommands that define the flag.
_MONITOR_OPTIONS = {"checkpoint_dir": "checkpoint_dir", "checkpoint_every": "checkpoint_every"}
_RUNTIME_OPTIONS = {
    "workers": "num_workers",
    "queue_capacity": "queue_capacity",
    "shm": "shm",
    "flight_dir": "flight_dir",
}


def _open_monitor(args: argparse.Namespace, queries: dict, restore: bool = False):
    """The one place the CLI builds a monitor (use it in a ``with``):
    ``--workers 0``, or a subcommand without the flag, is the in-process
    :class:`StreamMonitor`; ``N >= 1`` is a :class:`ShardedMonitor` over
    N forked workers.  With ``restore`` it starts from the export in
    ``--checkpoint-dir`` (whose query set, method and depth win)."""
    factory, flags = StreamMonitor, _MONITOR_OPTIONS
    if getattr(args, "workers", 0) >= 1:
        factory, flags = ShardedMonitor, {**_MONITOR_OPTIONS, **_RUNTIME_OPTIONS}
    options = {
        parameter: getattr(args, flag)
        for flag, parameter in flags.items()
        if hasattr(args, flag)
    }
    if restore:
        return load_monitor(args.checkpoint_dir, factory, **options)
    return factory(queries, method=args.method, depth_limit=args.depth, **options)


def _replay(monitor, streams):
    """The one replay loop: register every stream, then apply one
    timestamp's batches at a time.  Yields ``(timestamp, events)`` after
    each step — timestamp 0 is the initial graphs — so the caller does
    its reporting, sampling or painting between steps."""
    for stream_id, stream in streams.items():
        monitor.add_stream(stream_id, stream.initial)
    yield 0, monitor.events()
    horizon = min(len(stream.operations) for stream in streams.values())
    for timestamp in range(horizon):
        for stream_id, stream in streams.items():
            monitor.apply(stream_id, stream.operations[timestamp])
        yield timestamp + 1, monitor.events()


def _make_probe(monitor, args) -> "object | None":
    """A :class:`~repro.core.verify.PrecisionProbe` when the arguments
    ask for one and the monitor can support it (the probe verifies with
    exact VF2, which needs in-process access to the stream graphs —
    only the library-path :class:`StreamMonitor` exposes them)."""
    rate = getattr(args, "probe_rate", 0.0)
    if not rate:
        return None
    if not isinstance(monitor, StreamMonitor):
        print(
            "precision probe needs in-process graphs; ignoring --probe-rate "
            "with --workers >= 1",
            file=sys.stderr,
        )
        return None
    from .core.verify import PrecisionProbe

    budget_ms = getattr(args, "probe_budget_ms", 50.0)
    return PrecisionProbe(
        monitor,
        rate=rate,
        budget_seconds=budget_ms / 1000.0 if budget_ms > 0 else None,
    )


#: Verb -> the module whose ``cmd_<verb>(args)`` runs it, imported only when
#: that verb runs: ``repro serve`` forks its workers without the others' code.
HANDLERS = {
    "generate": "repro.offline",
    "search": "repro.offline",
    "experiment": "repro.offline",
    "monitor": "repro.core.commands",
    "replay": "repro.core.commands",
    "serve": "repro.serve.commands",
    **dict.fromkeys(["stats", "trace", "top", "slo", "flight"], "repro.obs.commands"),
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        handler = getattr(import_module(HANDLERS[args.command]), f"cmd_{args.command}")
        return handler(args)
    except GraphError as exc:  # a malformed graph, query or stream file
        print(f"repro: GraphError: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: exit quietly.
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover - double-close race
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
