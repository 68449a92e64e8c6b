"""The central metric catalog: every metric name this project mints.

This is the one place a metric's kind, help text and (where they are
not the default latency buckets) histogram buckets are written.
:class:`~repro.obs.instruments.Registry` creates a catalogued name
from its row here — so a mint site passes a name and labels and
nothing else, and the text a ``/metrics`` scrape shows is the text
below — and refuses to create it as another kind.

A dashboard panel or SLO rule that references a metric which nothing
mints does not fail — it silently evaluates against *no data*, so the
panel renders empty and the SLO reports "ok" forever.  That failure
mode is invisible in tests that only exercise the happy path, which is
why ``tests/fitness/test_metric_catalog.py`` cross-checks every
metric-name string literal consumed by :mod:`repro.dashboard` and
:mod:`repro.obs.slo`, and every mint site, against this catalog.

The catalog maps each dotted metric name to ``(kind, help)`` or
``(kind, help, buckets)``.

Span names are listed through the histograms they feed
(``<span>.seconds``); per-engine counters
(``join.<engine>.pruned``) are enumerated per concrete engine because
the name is assembled with an f-string at the mint site.  A gauge has
one owning process: merged fleet summaries *sum* gauges.
"""

from __future__ import annotations

__all__ = ["CATALOG", "known"]

#: name -> (kind, help[, buckets]).  Keys sorted by family, then name.
CATALOG: dict[str, tuple] = {
    # -- library monitor ------------------------------------------------
    "monitor.apply.seconds": ("histogram", "seconds per apply() batch"),
    "monitor.changes": ("counter", "individual edge changes applied across all streams"),
    "monitor.deregister_query.seconds": ("histogram", "seconds per live query retirement"),
    "monitor.events": ("counter", "appeared/vanished transitions reported"),
    "monitor.events.seconds": ("histogram", "seconds per events() poll"),
    "monitor.matches.seconds": ("histogram", "seconds per matches() poll"),
    "monitor.polls": ("counter", "matches() poll calls"),
    "monitor.probe.seconds": ("histogram", "seconds per sampled precision-probe pass"),
    "monitor.register_query.seconds": ("histogram", "seconds per live query registration"),
    "monitor.verifier_calls": ("counter", "exact subgraph-isomorphism checks performed"),
    "monitor.verify.seconds": ("histogram", "seconds per exact verification call"),
    # -- NNT / join engines ---------------------------------------------
    "nnt.batch_size": (
        "histogram",
        "net NPV deltas per coalesced batch delivery",
        (1, 2, 5, 10, 25, 50, 100, 250, 1000),
    ),
    "nnt.batch_update.seconds": ("histogram", "seconds per incremental NNT batch update"),
    "nnt.deltas_delivered": ("counter", "net NPV deltas delivered to listeners after coalescing"),
    "join.candidates.seconds": ("histogram", "seconds per dominance-filter candidate scan"),
    "join.dsc.dominance_checks": ("counter", "(stream, query) pairs the dsc engine judged, summed over polls"),
    "join.matrix.dominance_checks": ("counter", "(stream, query) pairs the matrix engine judged, summed over polls"),
    "join.nl.dominance_checks": ("counter", "(stream, query) pairs the nl engine judged, summed over polls"),
    "join.skyline.dominance_checks": ("counter", "(stream, query) pairs the skyline engine judged, summed over polls"),
    "join.dsc.pruned": ("counter", "(stream, query) pairs the dsc engine pruned, summed over polls, by blamed dimension"),
    "join.matrix.pruned": ("counter", "(stream, query) pairs the matrix engine pruned, summed over polls, by blamed dimension"),
    "join.nl.pruned": ("counter", "(stream, query) pairs the nl engine pruned, summed over polls, by blamed dimension"),
    "join.skyline.pruned": ("counter", "(stream, query) pairs the skyline engine pruned, summed over polls, by blamed dimension"),
    # -- filter quality --------------------------------------------------
    "filter.candidates": ("counter", "(stream, query) pairs passed by the dominance filter, summed over polls"),
    "filter.fp_ratio_estimate": ("gauge", "sampled estimate of the filter false-positive ratio"),
    "filter.probe.checked": ("counter", "candidate pairs verified by the precision probe"),
    "filter.probe.false_positive": ("counter", "probed pairs that failed exact isomorphism"),
    "filter.probe.skipped": ("counter", "pairs the probe skipped (sampling or budget)"),
    # -- sharded runtime --------------------------------------------------
    "runtime.add_stream.seconds": ("histogram", "seconds per worker-side stream index build"),
    "runtime.bytes_pickled": ("counter", "envelope bytes pickled onto worker inboxes by apply traffic"),
    "runtime.checkpoint.seconds": ("histogram", "seconds per checkpoint export"),
    "runtime.deregister_query.seconds": ("histogram", "seconds per fleet-wide query retirement fan-out"),
    "runtime.inbox_depth": ("gauge", "deepest worker inbox at the last stats() call"),
    "runtime.matches.seconds": ("histogram", "seconds per fleet-wide poll"),
    "runtime.register_query.seconds": ("histogram", "seconds per fleet-wide query registration fan-out"),
    "runtime.rescale.last_seconds": ("gauge", "duration of the last completed rescale"),
    "runtime.rescale.seconds": ("histogram", "seconds per live pool rescale"),
    "runtime.streams_moved": ("counter", "streams migrated between shards by rescales"),
    "runtime.submit.seconds": ("histogram", "seconds per coordinator submit"),
    "runtime.workers": ("gauge", "worker pool size after the last rescale"),
    # -- shared-memory payload rings --------------------------------------
    "shm.ring_bytes": ("counter", "payload bytes carried by the shared rings"),
    "shm.ring_overflow": ("counter", "payloads that fell back inline on a full ring"),
    # -- serving edge ------------------------------------------------------
    "serve.admitted": ("counter", "commands admitted"),
    "serve.batches_applied": ("counter", "staged batches applied by commit"),
    "serve.commands": ("counter", "protocol commands executed"),
    "serve.commit.seconds": ("histogram", "seconds per serve commit"),
    "serve.deregister_query.seconds": ("histogram", "seconds per delq command; a refused one feeds the error-labelled series"),
    "serve.queue_depth": ("gauge", "data commands waiting in the admission queue"),
    "serve.refused": ("counter", "poison batches and queries refused by commit or addq"),
    "serve.register_query.seconds": ("histogram", "seconds per addq command; a refused one feeds the error-labelled series"),
    "serve.rejected": ("counter", "commands rejected at the edge, by reason"),
    "serve.sessions": ("gauge", "connected sessions"),
    # -- timeline / SLO / flight (this layer's own telemetry) -------------
    "flight.events": ("counter", "events appended to the flight recorder"),
    "slo.breaches": ("counter", "transitions into the breach state, by rule"),
    "slo.state": ("gauge", "per-rule SLO state: 0=ok 1=warn 2=breach"),
    "timeline.sample_errors": ("counter", "timeline collection failures"),
    "timeline.samples": ("counter", "registry snapshots folded into the timeline"),
}


def known(name: str) -> bool:
    """Is ``name`` a minted metric (exact catalog match)?"""
    return name in CATALOG

