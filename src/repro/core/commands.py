"""``repro monitor`` and ``repro replay``: recorded streams through a
monitor, one printed line per match event."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from ..cli import _make_probe, _open_monitor, _read_streams, _replay
from ..graph.io import read_graph_set


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
    monitor, streams, verify_with=None, stats_every=0, probe=None, rescales=None, churn=None
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
    from ..obs.exposition import render_prometheus

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


def cmd_monitor(args: argparse.Namespace) -> int:
    """``repro monitor``: replay recorded streams, print match events."""
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


def cmd_replay(args: argparse.Namespace) -> int:
    """``repro replay``: the same, with live rescale, query churn and runtime knobs."""
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

