"""The process-global registry and module-level instrument shortcuts.

One :class:`~repro.obs.instruments.Registry` per process is the right
granularity for this codebase: the filtering core is single-threaded
(threads are confined to ``repro.runtime``) and the sharded runtime isolates shards in worker
processes, so "process" and "shard" coincide — each worker accumulates
into its own copy of this module's registry and ships
:meth:`~repro.obs.instruments.Registry.summary` snapshots to the
coordinator, which merges them with
:func:`~repro.obs.instruments.merge_summaries`.

Instrumentation sites call the shortcuts::

    obs.counter("nnt.deltas_delivered").inc(len(deltas))
    obs.histogram("runtime.checkpoint.seconds").observe(lap)

Get-or-create is a dict hit after the first call; combined with the
``state.ENABLED`` gate inside each instrument, a disabled site costs a
lookup and a branch.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .instruments import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    Registry,
)

_REGISTRY = Registry()


def get_registry() -> Registry:
    """The process-global registry."""
    return _REGISTRY


def set_registry(registry: Registry) -> Registry:
    """Swap the process-global registry; returns the previous one.

    Intended for tests and benchmarks that need a clean slate without
    disturbing accumulated state (prefer ``get_registry().reset()``
    when zeroing is enough).
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def counter(
    name: str, help: str = "", labels: Mapping[str, str] | None = None
) -> Counter:
    """Get or create a counter in the global registry."""
    return _REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels: Mapping[str, str] | None = None) -> Gauge:
    """Get or create a gauge in the global registry."""
    return _REGISTRY.gauge(name, help, labels)


def histogram(
    name: str,
    help: str = "",
    buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    labels: Mapping[str, str] | None = None,
) -> Histogram:
    """Get or create a histogram in the global registry."""
    return _REGISTRY.histogram(name, help, buckets, labels)
