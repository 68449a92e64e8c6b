"""Reality-Mining-shaped proximity stream generator.

The paper's real stream dataset is the *Device Span* subset of the MIT
Reality Mining project: 97 users whose phones periodically scan for
nearby Bluetooth devices, Jan 2004 - May 2005, converted into one graph
per time window with 10 distinct device labels; multiple streams are
derived by reordering the series.

That dataset has restricted distribution, so this module simulates its
relevant statistics (DESIGN.md §5, substitution 2): a fixed population of
devices with 10 type labels, community structure (two labs), proximity
edges biased heavily within communities, and strong temporal locality —
only a handful of edge flips per timestamp.
"""

from __future__ import annotations

import random

from ..graph.labeled_graph import LabeledGraph, edge_key
from ..graph.operations import EdgeChange, GraphChangeOperation
from ..graph.stream import GraphStream

DEVICE_LABELS = [f"dev{i}" for i in range(10)]
PROXIMITY = "near"


class RealityConfig:
    """Population and dynamics parameters of the simulated Device Span data."""

    def __init__(
        self,
        num_devices: int = 97,
        num_communities: int = 2,
        within_community_density: float = 0.12,
        across_community_density: float = 0.01,
        mean_flips_per_timestamp: float = 3.0,
    ) -> None:
        self.num_devices = num_devices
        self.num_communities = num_communities
        self.within_community_density = within_community_density
        self.across_community_density = across_community_density
        self.mean_flips_per_timestamp = mean_flips_per_timestamp


def _community_of(device: int, config: RealityConfig) -> int:
    return device % config.num_communities


def _pair_density(u: int, v: int, config: RealityConfig) -> float:
    if _community_of(u, config) == _community_of(v, config):
        return config.within_community_density
    return config.across_community_density


def generate_reality_stream(
    rng: random.Random,
    timestamps: int,
    config: RealityConfig | None = None,
    name: str = "reality",
) -> GraphStream:
    """One proximity graph stream over the shared device population."""
    config = config or RealityConfig()
    labels = {device: DEVICE_LABELS[device % len(DEVICE_LABELS)] for device in range(config.num_devices)}

    present: set[tuple] = set()
    initial = LabeledGraph()
    for u in range(config.num_devices):
        for v in range(u + 1, config.num_devices):
            if rng.random() < _pair_density(u, v, config):
                present.add(edge_key(u, v))
    touched = {d for key in present for d in key}
    for device in sorted(touched):
        initial.add_vertex(device, labels[device])
    for u, v in sorted(present):
        initial.add_edge(u, v, PROXIMITY)

    operations: list[GraphChangeOperation] = []
    for _ in range(timestamps - 1):
        flips = max(1, round(rng.expovariate(1.0 / config.mean_flips_per_timestamp)))
        changes: list[EdgeChange] = []
        # Edges whose presence now differs from the batch-start state.
        flipped: set[tuple] = set()
        for _ in range(flips):
            if present and rng.random() < 0.5:
                key = rng.choice(sorted(present))
                present.discard(key)
                flipped ^= {key}
            else:
                u = rng.randrange(config.num_devices)
                v = rng.randrange(config.num_devices)
                if u == v:
                    continue
                # Bias new proximity toward the same community.
                if rng.random() > _pair_density(u, v, config) * 8:
                    continue
                key = edge_key(u, v)
                if key in present:
                    continue
                present.add(key)
                flipped ^= {key}
        # Net by parity: an edge flipped an even number of times within one
        # batch is a no-op, an odd number is one change towards ``present``.
        batch_deleted = flipped - present
        batch_inserted = flipped & present
        for u, v in sorted(batch_deleted):
            changes.append(EdgeChange.delete(u, v))
        for u, v in sorted(batch_inserted):
            changes.append(
                EdgeChange.insert(u, v, PROXIMITY, u_label=labels[u], v_label=labels[v])
            )
        operations.append(GraphChangeOperation(changes))
    return GraphStream(initial, operations, name=name)


def generate_reality_streams(
    num_streams: int,
    timestamps: int,
    seed: int = 0,
    config: RealityConfig | None = None,
) -> list[GraphStream]:
    """Derive several streams over one device population, as the paper does
    by reordering the original series."""
    rng = random.Random(seed)
    return [
        generate_reality_stream(rng, timestamps, config, name=f"reality{i}")
        for i in range(num_streams)
    ]
