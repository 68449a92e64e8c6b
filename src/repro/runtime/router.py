"""Shard routing: a consistent-hash ring over stream ids.

Definition 2.8 makes streams independent of each other — the answer for
``(GS_i, Q_j)`` depends only on stream ``i``'s current graph — so the
runtime partitions the workload by stream id: every stream is owned by
exactly one worker, and the union of per-worker answers is the global
answer (completeness is preserved shard-locally by Lemma 4.2).

The ring uses a *keyed* stable hash (``blake2b``), never Python's
builtin ``hash``: the builtin is salted per process, and the
coordinator, its workers, and a coordinator restarted tomorrow must all
agree on the same placement.  ``blake2b`` comes from ``_blake2``, the
builtin module that ``hashlib.blake2b`` already is (hashlib never routes
blake2 through OpenSSL): same digests, and no process that imports
``repro`` maps libcrypto.  Virtual nodes (``replicas`` points per
shard) keep the placement balanced and make it *consistent*: resizing
from N to N+1 shards moves only ~1/(N+1) of the streams.
"""

from __future__ import annotations

import bisect
from _blake2 import blake2b
from typing import Hashable

#: Virtual ring points per shard; 64 keeps the max/min stream-count
#: imbalance under ~30% for small fleets without bloating the ring.
DEFAULT_REPLICAS = 64


def stable_hash(key: Hashable) -> int:
    """Process-independent 64-bit hash of a stream id.

    Ids that compare unequal but print equally (``1`` vs ``"1"``) are
    disambiguated by their type name, mirroring how checkpoint manifests
    record the id kind.
    """
    token = f"{type(key).__name__}:{key!s}".encode("utf-8", "surrogatepass")
    return int.from_bytes(blake2b(token, digest_size=8).digest(), "big")


class ShardRouter:
    """Consistent-hash assignment of stream ids to ``num_shards`` workers."""

    def __init__(self, num_shards: int, replicas: int = DEFAULT_REPLICAS) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.num_shards = num_shards
        self.replicas = replicas
        points = []
        for shard in range(num_shards):
            for replica in range(replicas):
                points.append((stable_hash(f"shard:{shard}:{replica}"), shard))
        points.sort()
        self._ring = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def shard_for(self, stream_id: Hashable) -> int:
        """The shard owning ``stream_id`` (first ring point clockwise)."""
        index = bisect.bisect_right(self._ring, stable_hash(stream_id))
        if index == len(self._ring):
            index = 0
        return self._owners[index]

    def assignment(self, stream_ids) -> dict:
        """``{stream_id: shard}`` for a batch of ids (stats/debugging)."""
        return {stream_id: self.shard_for(stream_id) for stream_id in stream_ids}
