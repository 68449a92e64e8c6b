"""The shared-memory payload rings: rings must round-trip payloads
exactly, and ``ShardedMonitor(shm=True)`` must stay a behavioural
drop-in — on every engine — that leaks no segment past ``close()``,
SIGKILLed workers included."""

from __future__ import annotations

import errno
import itertools
import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.monitor import StreamMonitor
from repro.datasets.stream_gen import synthesize_stream
from repro.join import ENGINES
from repro.runtime import ShardedMonitor
from repro.runtime import coordinator as coordinator_module
from repro.runtime.shm import (
    DEFAULT_RING_CAPACITY,
    HEADER_SIZE,
    RingReader,
    ShmError,
    ShmRing,
    cleanup_segments,
    live_segments,
    make_prefix,
)

from .conftest import random_labeled_graph
from .processes import children

#: Leak assertions scan /dev/shm directly; skip them where it is absent.
HAS_SHM_DIR = Path("/dev/shm").is_dir()
needs_shm_dir = pytest.mark.skipif(not HAS_SHM_DIR, reason="no /dev/shm to scan")

_uniq = itertools.count()


@pytest.fixture
def clean_obs():
    """Observability on, against a private registry, for one test."""
    previous = obs.set_registry(obs.Registry())
    was_enabled = obs.enabled()
    obs.enable()
    yield
    obs.set_registry(previous)
    if not was_enabled:
        obs.disable()


def fresh_prefix() -> str:
    """A namespace no other test (or test run) is using."""
    return make_prefix("t", next(_uniq), os.getpid() % 997)


# ----------------------------------------------------------------------
# segment lifecycle: unlink and sweep
# ----------------------------------------------------------------------
@needs_shm_dir
class TestPlaneLifecycle:
    def test_close_unlinks_every_segment(self):
        prefix = fresh_prefix()
        rings = [ShmRing(f"{prefix}-ring{i}", 64) for i in range(2)]
        assert len(live_segments(prefix)) == 2
        for ring in rings:
            ring.close()
        assert live_segments(prefix) == []

    def test_cleanup_segments_sweeps_orphans(self):
        prefix = fresh_prefix()
        rings = [ShmRing(f"{prefix}-ring{i}", 64) for i in range(2)]
        # A SIGKILLed owner never unlinks; simulate by only closing the
        # local mappings.
        for ring in rings:
            ring.close(unlink=False)
        assert len(live_segments(prefix)) == 2
        removed = cleanup_segments(prefix)
        assert len(removed) == 2
        assert live_segments(prefix) == []
        assert cleanup_segments(prefix) == []  # idempotent


# ----------------------------------------------------------------------
# payload rings
# ----------------------------------------------------------------------
class TestRing:
    def make_ring(self, capacity: int) -> tuple[ShmRing, RingReader]:
        ring = ShmRing(f"{fresh_prefix()}-ring", capacity)
        return ring, RingReader(ring.name)

    def test_fifo_round_trip(self):
        ring, reader = self.make_ring(256)
        try:
            payloads = [bytes([i]) * (10 + i) for i in range(5)]
            refs = [ring.push(p) for p in payloads]
            assert all(refs)
            for ref, payload in zip(refs, payloads):
                assert reader.read(ref) == payload
            assert ring.free_bytes() == 256  # watermark fully advanced
        finally:
            reader.close()
            ring.close()

    def test_wraparound_preserves_bytes(self):
        ring, reader = self.make_ring(64)
        try:
            first = ring.push(b"a" * 30)
            kept = ring.push(b"k" * 10)  # in flight: the ring is not drained
            assert reader.read(first) == b"a" * 30
            wrapped = ring.push(bytes(range(50)))  # crosses the seam
            assert wrapped is not None
            assert wrapped.offset == 40
            assert reader.read(kept) == b"k" * 10
            assert reader.read(wrapped) == bytes(range(50))
        finally:
            reader.close()
            ring.close()

    def test_a_drained_ring_restarts_at_its_front(self):
        ring, reader = self.make_ring(64)
        try:
            assert reader.read(ring.push(b"a" * 40)) == b"a" * 40
            assert ring.free_bytes() == 64
            ref = ring.push(b"b" * 50)
            assert ref is not None
            assert ref.offset == 64 and ref.offset % ring.capacity == 0
            assert ring.free_bytes() == 14
            assert reader.read(ref) == b"b" * 50
            ref = ring.push(b"payload")
            assert ref.offset == 128
            ring._segment.buf[64] ^= 0xFF  # first payload byte, behind the header
            with pytest.raises(ShmError, match="CRC"):
                reader.read(ref)
        finally:
            reader.close()
            ring.close()

    def test_closed_loop_traffic_stays_within_its_largest_span(self):
        # Each round parks up to three payloads and drains them, as a
        # tick does; the ring never writes past the largest such span.
        ring, reader = self.make_ring(4096)
        rng = random.Random(4242)
        largest = reach = offset = 0
        try:
            for _ in range(10_000):
                payloads = [
                    rng.randbytes(rng.randint(1, ring.capacity // 4))
                    for _ in range(rng.randint(1, 3))
                ]
                refs = [ring.push(payload) for payload in payloads]
                assert all(ref is not None and ref.offset >= offset for ref in refs)
                offset = refs[-1].offset
                largest = max(largest, sum(map(len, payloads)))
                reach = max(reach, *(ref.offset % ring.capacity + ref.length for ref in refs))
                assert reach <= largest
                assert [reader.read(ref) for ref in refs] == payloads
            past = bytes(ring._segment.buf[HEADER_SIZE + largest :])
            assert not any(past)  # never written
        finally:
            reader.close()
            ring.close()

    def test_full_ring_rejects_then_recovers(self):
        ring, reader = self.make_ring(32)
        try:
            parked = ring.push(b"x" * 30)
            assert ring.push(b"y" * 8) is None  # would overrun the tail
            assert reader.read(parked) == b"x" * 30
            assert ring.push(b"y" * 8) is not None  # space reclaimed
        finally:
            reader.close()
            ring.close()

    def test_corruption_fails_the_crc_loudly(self):
        ring, reader = self.make_ring(64)
        try:
            ref = ring.push(b"payload")
            ring._segment.buf[64] ^= 0xFF  # first payload byte, behind the header
            with pytest.raises(ShmError, match="CRC"):
                reader.read(ref)
        finally:
            reader.close()
            ring.close()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ShmRing(f"{fresh_prefix()}-bad", 0)


# ----------------------------------------------------------------------
# the sharded runtime on the rings
# ----------------------------------------------------------------------
def small_queries(rng: random.Random, count: int = 3) -> dict:
    return {
        f"q{i}": random_labeled_graph(rng, rng.randint(2, 4), extra_edges=1)
        for i in range(count)
    }


def small_streams(rng: random.Random, count: int = 3, timestamps: int = 5) -> dict:
    streams = {}
    for i in range(count):
        base = random_labeled_graph(rng, rng.randint(4, 7), extra_edges=2)
        streams[f"s{i}"] = synthesize_stream(
            base, 0.3, 0.2, timestamps, rng, all_pairs=True, name=f"s{i}"
        )
    return streams


class TestShardedShm:
    def drive(self, sharded: ShardedMonitor, streams: dict) -> None:
        """Replay against an in-process oracle, poll for poll."""
        oracle = StreamMonitor(
            sharded.spec.queries,
            method=sharded.spec.method,
            depth_limit=sharded.spec.depth_limit,
        )
        for stream_id, stream in streams.items():
            sharded.add_stream(stream_id, stream.initial)
            oracle.add_stream(stream_id, stream.initial)
        horizon = min(len(stream.operations) for stream in streams.values())
        for t in range(horizon):
            for stream_id, stream in streams.items():
                sharded.apply(stream_id, stream.operations[t])
                oracle.apply(stream_id, stream.operations[t])
            assert sharded.matches() == oracle.matches(), f"diverged at t={t + 1}"

    @pytest.mark.parametrize("method", sorted(ENGINES))
    def test_matches_equal_oracle(self, method):
        rng = random.Random(71)
        queries = small_queries(rng)
        streams = small_streams(rng, count=3, timestamps=5)
        with ShardedMonitor(queries, method=method, num_workers=2, shm=True) as sharded:
            self.drive(sharded, streams)
            stats = sharded.stats()
        assert stats["shm"] == {"rings": 2, "ring_capacity": DEFAULT_RING_CAPACITY}

    def test_tiny_ring_falls_back_inline_losslessly(self, clean_obs, monkeypatch):
        rng = random.Random(73)
        queries = small_queries(rng)
        streams = small_streams(rng, count=2, timestamps=4)
        monkeypatch.setattr(coordinator_module, "DEFAULT_RING_CAPACITY", 1)
        with ShardedMonitor(queries, method="dsc", num_workers=2, shm=True) as sharded:
            self.drive(sharded, streams)
        summary = obs.get_registry().summary()
        assert summary["shm.ring_overflow"]["value"] >= 1
        assert "shm.ring_bytes" not in summary

    def test_non_matrix_engine_still_ships_ring_payloads(self, clean_obs):
        rng = random.Random(74)
        queries = small_queries(rng)
        streams = small_streams(rng, count=2, timestamps=4)
        with ShardedMonitor(queries, method="dsc", num_workers=2, shm=True) as sharded:
            self.drive(sharded, streams)
        summary = obs.get_registry().summary()
        assert summary["shm.ring_bytes"]["value"] > 0
        assert "shm.ring_overflow" not in summary

    @needs_shm_dir
    def test_close_leaves_no_segments(self):
        rng = random.Random(76)
        queries = small_queries(rng)
        streams = small_streams(rng, count=3, timestamps=3)
        sharded = ShardedMonitor(queries, method="dsc", num_workers=2, shm=True)
        prefix = sharded._shm_base
        try:
            self.drive(sharded, streams)
            assert len(live_segments(prefix)) == 2  # one ring per shard
        finally:
            sharded.close()
        assert live_segments(prefix) == []

    @needs_shm_dir
    def test_sigkill_orphans_are_swept_on_recovery_and_close(self):
        """Workers own no segment: after a SIGKILL + recovery there are
        exactly ``num_workers`` rings (the dead worker's replaced, not
        leaked), and none after ``close()``."""
        rng = random.Random(77)
        queries = small_queries(rng)
        streams = small_streams(rng, count=3, timestamps=5)
        oracle = StreamMonitor(queries, method="dsc")
        sharded = ShardedMonitor(queries, method="dsc", num_workers=2, shm=True)
        prefix = sharded._shm_base
        try:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
                oracle.add_stream(stream_id, stream.initial)
            horizon = min(len(s.operations) for s in streams.values())
            for t in range(horizon):
                for stream_id, stream in streams.items():
                    sharded.apply(stream_id, stream.operations[t])
                    oracle.apply(stream_id, stream.operations[t])
                if t == horizon // 2:
                    os.kill(sharded.worker_pids()[0], signal.SIGKILL)
                    time.sleep(0.05)
                assert sharded.matches() == oracle.matches()
            assert sharded.recovery_log.recoveries >= 1
            assert len(live_segments(prefix)) == sharded.num_workers
        finally:
            sharded.close()
        assert live_segments(prefix) == []

    @needs_shm_dir
    def test_failed_spawn_leaves_no_worker_and_no_ring(self, monkeypatch):
        """Spawn k raising must tear down spawns 0..k-1: the constructor
        never returns, so nobody else could ``close()`` them."""
        real_ring = coordinator_module.ShmRing
        created: list[str] = []

        def second_ring_fails(name, capacity):
            if created:
                raise OSError(errno.ENOSPC, "No space left on device")
            created.append(name)
            return real_ring(name, capacity)

        monkeypatch.setattr(coordinator_module, "ShmRing", second_ring_fails)
        before = children()
        with pytest.raises(OSError):
            ShardedMonitor(small_queries(random.Random(78)), num_workers=2, shm=True)
        assert children() == before
        prefix = created[0].rsplit("-ring", 1)[0]
        assert live_segments(prefix) == []
