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
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

from .core.checkpoint import MANIFEST, load_monitor
from .core.monitor import StreamMonitor
from .graph.io import read_graph_set, read_stream, write_graph_set, write_stream
from .graph.labeled_graph import GraphError
from .runtime import ShardedMonitor


def _add_probe_arguments(sub: argparse.ArgumentParser) -> None:
    """The precision-probe knobs shared by replaying subcommands."""
    sub.add_argument(
        "--probe-rate",
        type=float,
        default=0.0,
        help="fraction of emitted candidate pairs to verify with exact "
        "isomorphism per timestamp (0 = probe off, 1 = verify every pair)",
    )
    sub.add_argument(
        "--probe-budget-ms",
        type=float,
        default=50.0,
        help="wall-clock budget per probe pass in milliseconds "
        "(0 = unbudgeted; pairs beyond the budget are skipped and counted)",
    )


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
        help="monitoring server: line protocol on stdin, or an asyncio TCP "
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


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _cmd_generate(args: argparse.Namespace) -> int:
    from .datasets.ggen import generate_graph_set
    from .datasets.molecules import generate_molecule_set
    from .datasets.queries import make_query_set
    from .datasets.reality import RealityConfig, generate_reality_stream
    from .datasets.stream_gen import DENSE, SPARSE, synthesize_stream

    out = Path(args.out)
    if args.kind == "molecules":
        graphs = generate_molecule_set(args.count, seed=args.seed)
        write_graph_set(graphs, out)
    elif args.kind == "ggen":
        graphs = generate_graph_set(
            args.count,
            graph_size=args.size,
            num_vertex_labels=args.labels,
            seed=args.seed,
        )
        write_graph_set(graphs, out)
    elif args.kind == "queries":
        if not args.from_db:
            print("generate queries requires --from-db", file=sys.stderr)
            return 2
        source = [graph for _, graph in read_graph_set(args.from_db)]
        queries = make_query_set(source, args.query_edges, args.count, seed=args.seed)
        write_graph_set(queries, out, names=[f"q{i}" for i in range(len(queries))])
    elif args.kind == "reality-stream":
        stream = generate_reality_stream(
            random.Random(args.seed),
            args.timestamps,
            RealityConfig(num_devices=args.devices),
            name=out.stem,
        )
        write_stream(stream, out)
    elif args.kind == "synthetic-stream":
        if args.base:
            base = read_graph_set(args.base)[0][1]
        else:
            base = generate_graph_set(
                1, graph_size=args.size, num_vertex_labels=args.labels, seed=args.seed
            )[0]
        p_appear, p_disappear = DENSE if args.density == "dense" else SPARSE
        stream = synthesize_stream(
            base,
            p_appear,
            p_disappear,
            args.timestamps,
            random.Random(args.seed + 1),
            all_pairs=True,
            name=out.stem,
        )
        write_stream(stream, out)
    print(f"wrote {out}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .core.database import GraphDatabase

    database = GraphDatabase(dict(read_graph_set(args.db)), depth_limit=args.depth)
    for name, query in read_graph_set(args.queries):
        if args.no_verify:
            hits = database.filter_candidates(query)
            label = "candidates"
        else:
            hits = database.search(query, verify=True)
            label = "matches"
        print(f"{name}: {len(hits)} {label}: {' '.join(sorted(map(str, hits)))}")
    return 0


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


def _report_probe(probe) -> None:
    estimate = probe.fp_ratio_estimate
    line = (
        "probe: checked={checked} false_positives={false_positives} "
        "skipped={skipped}".format(**probe.stats)
    )
    if estimate is not None:
        line += f"  fp_ratio~{estimate:.3f}"
    print(line)


def _replay_and_report(
    monitor,
    streams,
    verify_with=None,
    stats_every=0,
    probe=None,
    rescales=None,
    churn=None,
) -> None:
    """Drive ``monitor`` (StreamMonitor or ShardedMonitor — same API)
    through recorded streams, printing one line per match event.

    Both the library and runtime paths report transitions through
    ``events()``, so the output format is identical regardless of
    ``--workers``.  With ``stats_every`` > 0, the merged observability
    metrics are printed as a Prometheus text block every that many
    timestamps (and once more after the final poll).  A ``probe``
    samples the candidate set once per timestamp, after events are
    reported — strictly off the filtering path.  ``rescales`` maps a
    printed timestamp to a target worker-pool size; the pool is rescaled
    live right after that timestamp's events (runtime path only).
    ``churn`` maps a timestamp to live query churn operations (from
    :func:`_parse_churn`), executed right after that timestamp's events
    and any rescale — both monitor flavours support them live.
    """
    from .obs.exposition import render_prometheus

    for timestamp, events in _replay(monitor, streams):
        for event in events:
            line = f"t={timestamp}: {event.kind} {event.query_id} on {event.stream_id}"
            if verify_with is not None and timestamp and event.kind == "appeared":
                pair = (event.stream_id, event.query_id)
                confirmed = pair in verify_with.verified_matches({pair})
                line += "  [CONFIRMED]" if confirmed else "  [filter only]"
            print(line)
        if not timestamp:
            continue  # the initial graphs: events only
        target = rescales.get(timestamp) if rescales else None
        if target is not None:
            report = monitor.rescale(target)
            print(
                f"t={timestamp}: rescale workers "
                f"{report['from']}->{report['to']} "
                f"moved={report['moved_streams']} in {report['seconds']:.3f}s"
            )
        for kind, query_id, pattern, _ in (churn or {}).get(timestamp, ()):
            if kind == "register":
                monitor.register_query(query_id, pattern)
            else:
                monitor.deregister_query(query_id)
            print(f"t={timestamp}: {kind} query {query_id}")
        if probe is not None:
            probe.sample()
        if stats_every and timestamp % stats_every == 0:
            print(f"# repro stats t={timestamp}")
            print(render_prometheus(monitor.obs_summary()), end="")
    final = sorted(monitor.matches())
    print(f"final possible pairs: {final}")
    if probe is not None:
        _report_probe(probe)
    if stats_every:
        print("# repro stats final")
        print(render_prometheus(monitor.obs_summary()), end="")


def _cmd_monitor(args: argparse.Namespace) -> int:
    streams = _read_streams(args.streams)
    with _open_monitor(args, dict(read_graph_set(args.queries))) as monitor:
        _replay_and_report(
            monitor,
            streams,
            verify_with=monitor if args.verify else None,
            probe=_make_probe(monitor, args),
        )
    return 0


def _write_stats_json(monitor, path: str) -> None:
    import json

    summary = monitor.obs_summary()
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _parse_rescales(specs) -> dict[int, int]:
    """``--rescale-at T:N`` occurrences -> ``{timestamp: target}``."""
    rescales: dict[int, int] = {}
    for spec in specs or []:
        timestamp_text, separator, target_text = spec.partition(":")
        if not separator:
            raise SystemExit(f"--rescale-at expects T:N, got {spec!r}")
        try:
            timestamp, target = int(timestamp_text), int(target_text)
        except ValueError:
            raise SystemExit(f"--rescale-at expects T:N, got {spec!r}") from None
        if timestamp < 1 or target < 1:
            raise SystemExit(f"--rescale-at needs T >= 1 and N >= 1, got {spec!r}")
        if timestamp in rescales:
            raise SystemExit(f"--rescale-at repeats timestamp {timestamp}, got {spec!r}")
        rescales[timestamp] = target
    return rescales


def _parse_churn(register_specs, deregister_specs) -> dict[int, list[tuple]]:
    """``--register-at T:ID:FILE[:KEY]`` / ``--deregister-at T:ID``
    occurrences -> ``{timestamp: [(kind, ID, pattern or None, flag)]}``,
    registers before deregisters, ``flag`` the option as given.

    Patterns are loaded eagerly so a missing file or key fails before
    the replay starts, not halfway through it.
    """
    churn: dict[int, list[tuple]] = {}
    for spec in register_specs or []:
        parts = spec.split(":")
        if len(parts) not in (3, 4) or not parts[1]:
            raise SystemExit(
                f"--register-at expects T:ID:FILE[:KEY], got {spec!r}"
            )
        timestamp_text, query_id, graph_file = parts[0], parts[1], parts[2]
        key = parts[3] if len(parts) == 4 else None
        try:
            timestamp = int(timestamp_text)
        except ValueError:
            raise SystemExit(
                f"--register-at expects T:ID:FILE[:KEY], got {spec!r}"
            ) from None
        if timestamp < 1:
            raise SystemExit(f"--register-at needs T >= 1, got {spec!r}")
        if not Path(graph_file).is_file():
            raise SystemExit(f"--register-at {spec}: no such file: {graph_file!r}")
        graph_set = dict(read_graph_set(graph_file))
        if key is None:
            if not graph_set:
                raise SystemExit(f"--register-at: empty graph set {graph_file!r}")
            key = next(iter(graph_set))
        if key not in graph_set:
            raise SystemExit(f"--register-at: graph {key!r} not in {graph_file}")
        churn.setdefault(timestamp, []).append(
            ("register", query_id, graph_set[key], f"--register-at {spec}")
        )
    for spec in deregister_specs or []:
        timestamp_text, separator, query_id = spec.partition(":")
        if not separator or not query_id:
            raise SystemExit(f"--deregister-at expects T:ID, got {spec!r}")
        try:
            timestamp = int(timestamp_text)
        except ValueError:
            raise SystemExit(f"--deregister-at expects T:ID, got {spec!r}") from None
        if timestamp < 1:
            raise SystemExit(f"--deregister-at needs T >= 1, got {spec!r}")
        churn.setdefault(timestamp, []).append(
            ("deregister", query_id, None, f"--deregister-at {spec}")
        )
    return churn


def _check_plan(rescales: dict, churn: dict, query_ids, horizon: int) -> None:
    """Refuse a live plan the replay cannot carry out, before any worker
    forks: walk it in the replay loop's order (per timestamp the rescale,
    then registers, then deregisters) over the live query ids."""
    live = set(query_ids)
    for timestamp in sorted({*rescales, *churn}):
        if timestamp > horizon:
            if timestamp in rescales:
                flag = f"--rescale-at {timestamp}:{rescales[timestamp]}"
            else:
                flag = churn[timestamp][0][3]
            raise SystemExit(f"{flag}: the streams end at timestamp {horizon}")
        for kind, query_id, _, flag in churn.get(timestamp, ()):
            if (kind == "register") == (query_id in live):
                state = "already" if kind == "register" else "not"
                raise SystemExit(f"{flag}: query {query_id!r} is {state} registered")
            live ^= {query_id}


def _cmd_replay(args: argparse.Namespace) -> int:
    queries = dict(read_graph_set(args.queries))
    streams = _read_streams(args.streams)
    rescales = _parse_rescales(args.rescale_at)
    churn = _parse_churn(args.register_at, args.deregister_at)
    if args.workers < 1:
        if rescales:
            raise SystemExit("--rescale-at requires --workers >= 1")
        if args.shm:
            raise SystemExit("--shm requires --workers >= 1")
    horizon = min(len(stream.operations) for stream in streams.values())
    _check_plan(rescales, churn, queries, horizon)
    with _open_monitor(args, queries) as monitor:
        _replay_and_report(
            monitor,
            streams,
            stats_every=args.stats_every,
            probe=_make_probe(monitor, args),
            rescales=rescales,
            churn=churn,
        )
        if args.workers >= 1:
            stats = monitor.stats()
            line = (
                f"workers: {stats['num_workers']}  "
                f"batches: {stats['backpressure']['accepted_batches']}"
            )
            rescale = stats.get("rescale") or {}
            if rescale.get("count"):
                line += f"  rescales: {rescale['count']}"
            print(line)
        if args.stats_json:
            _write_stats_json(monitor, args.stats_json)
    return 0


def _parse_host_port(spec: str) -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"--tcp wants HOST:PORT, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _cmd_serve(args: argparse.Namespace) -> int:
    # The directory the server writes is the one it starts from.
    restored = bool(args.checkpoint_dir) and Path(args.checkpoint_dir, MANIFEST).is_file()
    queries = dict(read_graph_set(args.queries))
    with _open_monitor(args, queries, restore=restored) as monitor:
        # The serving edge (asyncio, ssl, http) is imported
        # only now that the workers have forked: they never serve, and
        # would carry its pages for life.
        from .serve.protocol import encode_reply
        from .serve.server import ServeConfig, run_server
        from .serve.session import serve_lines

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


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .obs.exposition import render_json, render_prometheus

    if args.dump:
        text = Path(args.dump).read_text()
    else:
        text = sys.stdin.read()
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


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from . import obs

    obs.enable()  # tracing is the whole point; override REPRO_OBS=0
    streams = _read_streams(args.streams)
    with _open_monitor(args, dict(read_graph_set(args.queries))) as monitor:
        for _ in _replay(monitor, streams):
            pass  # the replay exists only for the spans it leaves behind
        records = monitor.trace_spans()
    if args.format == "chrome":
        text = json.dumps(obs.to_chrome(records), indent=2, sort_keys=True) + "\n"
    else:
        text = obs.render_critical_spans(records, top=args.top)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(records)} spans)")
    else:
        print(text, end="")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import json

    from . import obs
    from .dashboard import run_top

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
    obs.enable()
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


def _cmd_slo(args: argparse.Namespace) -> int:
    import json

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
    import dataclasses

    from . import obs
    from .obs.slo import DEFAULT_RULES, SloEngine
    from .obs.timeline import Timeline

    obs.enable()
    streams = _read_streams(args.streams)
    rules = tuple(dataclasses.replace(rule, window=args.window) for rule in DEFAULT_RULES)
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


def _cmd_flight(args: argparse.Namespace) -> int:
    import json
    import signal as signal_module

    from .obs.flight import FlightRecorder

    if args.action == "signal":
        if args.pid is None:
            print("flight signal needs --pid", file=sys.stderr)
            return 2
        try:
            os.kill(args.pid, signal_module.SIGUSR2)
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


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    from .experiments import ALL_FIGURES, get_scale

    scale = get_scale(args.scale) if args.scale else get_scale()
    names = sorted(ALL_FIGURES) if args.figure == "all" else [args.figure]
    out = Path(args.out) if args.out else None
    out_is_dir = out is not None and (len(names) > 1 or out.suffix == "")
    if out_is_dir:
        out.mkdir(parents=True, exist_ok=True)
    for name in names:
        if name not in ALL_FIGURES:
            print(
                f"unknown figure {name!r}; choose from {sorted(ALL_FIGURES)} or 'all'",
                file=sys.stderr,
            )
            return 2
        runner = ALL_FIGURES[name].run
        kwargs = {}
        if args.workers and "workers" in inspect.signature(runner).parameters:
            kwargs["workers"] = args.workers
        result = runner(scale, **kwargs)
        print(result.render())
        print()
        if out is not None:
            target = out / f"{name}.{args.format}" if out_is_dir else out
            result.save(target)
            print(f"saved {target}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    handlers = {
        "generate": _cmd_generate,
        "search": _cmd_search,
        "monitor": _cmd_monitor,
        "replay": _cmd_replay,
        "serve": _cmd_serve,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "top": _cmd_top,
        "slo": _cmd_slo,
        "flight": _cmd_flight,
        "experiment": _cmd_experiment,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
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
