"""Elastic live resharding: ``ShardedMonitor.rescale`` must preserve
the exact union answer at every poll while the worker pool grows or
shrinks — including through worker deaths mid-rescale (respawns seeded
from the coordinator's graphs) and with the shared-memory payload rings
on."""

from __future__ import annotations

import errno
import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.monitor import StreamMonitor
from repro.datasets.stream_gen import synthesize_stream
from repro.graph import EdgeChange
from repro.runtime import ShardedMonitor, ShardRouter
from repro.runtime import coordinator as coordinator_module
from repro.runtime.shm import live_segments

from .conftest import random_labeled_graph
from .processes import children

needs_shm_dir = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="no /dev/shm to scan"
)


def small_queries(rng: random.Random, count: int = 3) -> dict:
    return {
        f"q{i}": random_labeled_graph(rng, rng.randint(2, 4), extra_edges=1)
        for i in range(count)
    }


def small_streams(rng: random.Random, count: int, timestamps: int) -> dict:
    streams = {}
    for i in range(count):
        base = random_labeled_graph(rng, rng.randint(4, 7), extra_edges=2)
        streams[f"s{i}"] = synthesize_stream(
            base, 0.3, 0.2, timestamps, rng, all_pairs=True, name=f"s{i}"
        )
    return streams


def replay_with_rescales(
    sharded: ShardedMonitor,
    streams: dict,
    schedule: dict[int, int],
    oracle: StreamMonitor,
) -> None:
    """Replay, rescaling per ``schedule`` (timestamp -> target pool
    size) mid-stream, pinning answer equality at every poll."""
    for stream_id, stream in streams.items():
        sharded.add_stream(stream_id, stream.initial)
        oracle.add_stream(stream_id, stream.initial)
    assert sharded.matches() == oracle.matches()
    horizon = min(len(stream.operations) for stream in streams.values())
    for t in range(horizon):
        for stream_id, stream in streams.items():
            sharded.apply(stream_id, stream.operations[t])
            oracle.apply(stream_id, stream.operations[t])
        target = schedule.get(t)
        if target is not None:
            report = sharded.rescale(target)
            assert report["to"] == target
            assert sharded.num_workers == target
        assert sharded.matches() == oracle.matches(), f"diverged at t={t + 1}"


class TestRescale:
    def test_grow_then_shrink_mid_stream_matches_oracle(self):
        """The headline 2 -> 4 -> 2 path, mid-stream, exact at every poll."""
        rng = random.Random(81)
        queries = small_queries(rng)
        streams = small_streams(rng, count=6, timestamps=6)
        oracle = StreamMonitor(queries, method="dsc")
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            replay_with_rescales(sharded, streams, {1: 4, 3: 2}, oracle)
            assert sharded.stats()["rescale"]["count"] == 2

    def test_moves_only_streams_whose_owner_changed(self):
        rng = random.Random(82)
        queries = small_queries(rng)
        streams = small_streams(rng, count=8, timestamps=2)
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
            before, after = ShardRouter(2), ShardRouter(4)
            expected_moves = sum(
                1
                for stream_id in streams
                if before.shard_for(stream_id) != after.shard_for(stream_id)
            )
            report = sharded.rescale(4)
            assert report["moved_streams"] == expected_moves
            # Consistent hashing: a 2 -> 4 rescale must not reshuffle
            # everything.
            assert report["moved_streams"] < len(streams)
            assert sorted(sharded.stream_ids()) == sorted(streams)

    def test_noop_and_invalid_targets(self):
        rng = random.Random(83)
        with ShardedMonitor(small_queries(rng), num_workers=2) as sharded:
            report = sharded.rescale(2)
            assert report == {
                "from": 2,
                "to": 2,
                "moved_streams": 0,
                "seconds": 0.0,
            }
            with pytest.raises(ValueError):
                sharded.rescale(0)

    def test_shrink_to_one_worker(self):
        rng = random.Random(84)
        queries = small_queries(rng)
        streams = small_streams(rng, count=4, timestamps=4)
        oracle = StreamMonitor(queries, method="dsc")
        with ShardedMonitor(queries, method="dsc", num_workers=4) as sharded:
            replay_with_rescales(sharded, streams, {1: 1}, oracle)
            assert sharded.num_workers == 1
            assert set(sharded.worker_pids()) == {0}

    def test_events_continuous_across_rescale(self):
        """events() transitions must not glitch when ownership moves —
        a moved stream's pairs neither vanish nor re-appear."""
        rng = random.Random(85)
        queries = small_queries(rng)
        streams = small_streams(rng, count=5, timestamps=5)
        oracle = StreamMonitor(queries, method="dsc")
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
                oracle.add_stream(stream_id, stream.initial)
            assert sharded.events() == oracle.events()
            horizon = min(len(s.operations) for s in streams.values())
            for t in range(horizon):
                for stream_id, stream in streams.items():
                    sharded.apply(stream_id, stream.operations[t])
                    oracle.apply(stream_id, stream.operations[t])
                if t == 2:
                    sharded.rescale(4)
                assert sharded.events() == oracle.events(), f"diverged at t={t + 1}"

    def test_rescale_survives_query_set_sizes(self):
        """A rescale right after construction (no streams) is legal."""
        rng = random.Random(86)
        with ShardedMonitor(small_queries(rng), num_workers=2) as sharded:
            assert sharded.rescale(3)["moved_streams"] == 0
            sharded.add_stream("s0", random_labeled_graph(rng, 4))
            assert sharded.matches() == sharded.matches()

    def test_rescale_counters_and_span(self):
        rng = random.Random(87)
        queries = small_queries(rng)
        previous = obs.set_registry(obs.Registry())
        was_enabled = obs.enabled()
        obs.enable()
        obs.clear_spans()
        try:
            with ShardedMonitor(queries, num_workers=2) as sharded:
                for i in range(6):
                    sharded.add_stream(f"s{i}", random_labeled_graph(rng, 4))
                report = sharded.rescale(4)
                assert report["seconds"] > 0
                summary = obs.get_registry().summary()
                assert summary["runtime.rescale.seconds"]["count"] == 1
                assert summary["runtime.workers"]["value"] == 4
                assert (
                    summary["runtime.rescale.last_seconds"]["value"]
                    == pytest.approx(report["seconds"])
                )
                if report["moved_streams"]:
                    assert (
                        summary["runtime.streams_moved"]["value"]
                        == report["moved_streams"]
                    )
                assert any(
                    record.name == "runtime.rescale" for record in obs.spans()
                )
                stats = sharded.stats()
                assert stats["rescale"]["count"] == 1
                assert stats["rescale"]["last_seconds"] == pytest.approx(
                    report["seconds"]
                )
        finally:
            obs.set_registry(previous)
            obs.clear_spans()
            if not was_enabled:
                obs.disable()


class TestRescaleRecovery:
    def test_sigkill_during_rescale_recovers_exactly(self, tmp_path):
        """Workers SIGKILLed as a rescale begins: the deaths surface
        inside the rescale's own commands, every respawn is seeded from
        the coordinator's graphs (the checkpoint is never read), and the
        handoff completes with zero false negatives."""
        rng = random.Random(91)
        queries = small_queries(rng)
        streams = small_streams(rng, count=6, timestamps=6)
        oracle = StreamMonitor(queries, method="dsc")
        with ShardedMonitor(
            queries,
            method="dsc",
            num_workers=2,
            checkpoint_dir=tmp_path / "ckpt",
        ) as sharded:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
                oracle.add_stream(stream_id, stream.initial)
            horizon = min(len(s.operations) for s in streams.values())
            for t in range(horizon):
                for stream_id, stream in streams.items():
                    sharded.apply(stream_id, stream.operations[t])
                    oracle.apply(stream_id, stream.operations[t])
                if t == 2:
                    sharded.checkpoint()
                if t == 3:
                    # Kill the whole pool right as the rescale starts:
                    # every export request lands on a dead worker.
                    for pid in sharded.worker_pids().values():
                        os.kill(pid, signal.SIGKILL)
                    time.sleep(0.05)
                    report = sharded.rescale(4)
                    assert report["to"] == 4
                    assert sharded.recovery_log.recoveries >= 1
                if t == 4:
                    sharded.rescale(2)
                assert sharded.matches() == oracle.matches(), f"t={t + 1}"
            summary = sharded.recovery_log.summary()
            assert summary["checkpoints"] == 1
            assert summary["replayed_commands"] >= 1

    def test_kill_all_after_rescale_recovers_from_journals(self):
        """The handoff is journaled: a post-rescale massacre rebuilds
        every shard (including moved streams) from journals alone."""
        rng = random.Random(92)
        queries = small_queries(rng)
        streams = small_streams(rng, count=6, timestamps=3)
        oracle = StreamMonitor(queries, method="dsc")
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            replay_with_rescales(sharded, streams, {1: 4}, oracle)
            for pid in sharded.worker_pids().values():
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.05)
            assert sharded.matches() == oracle.matches()
            assert sharded.recovery_log.recoveries >= 4

    def test_checkpoint_after_rescale_restores_new_layout(self, tmp_path):
        """An export says nothing about the fleet that wrote it: taken
        at 4 workers, again after shrinking to 2, it restores on 3."""
        rng = random.Random(93)
        queries = small_queries(rng)
        streams = small_streams(rng, count=6, timestamps=3)
        oracle = StreamMonitor(queries, method="dsc")
        with ShardedMonitor(
            queries,
            method="dsc",
            num_workers=4,
            checkpoint_dir=tmp_path / "ckpt",
        ) as sharded:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
                oracle.add_stream(stream_id, stream.initial)
            before = sharded.checkpoint()
            sharded.rescale(2)
            horizon = min(len(s.operations) for s in streams.values())
            for t in range(horizon):
                for stream_id, stream in streams.items():
                    sharded.apply(stream_id, stream.operations[t])
                    oracle.apply(stream_id, stream.operations[t])
            after = sharded.checkpoint()
            assert (after["generation"], after["num_files"]) == (2, before["num_files"])
            assert not list((tmp_path / "ckpt").glob("shard_*"))
        with ShardedMonitor.restore(tmp_path / "ckpt", num_workers=3) as restored:
            assert restored.num_workers == 3
            assert restored.matches() == oracle.matches()
            for stream_id in streams:
                assert restored.graph(stream_id) == oracle.graph(stream_id)


@needs_shm_dir
class TestRescaleWithShmRings:
    def test_rescale_on_rings_stays_exact_and_leak_free(self):
        rng = random.Random(94)
        queries = small_queries(rng)
        streams = small_streams(rng, count=6, timestamps=6)
        oracle = StreamMonitor(queries, method="dsc")
        sharded = ShardedMonitor(queries, method="dsc", num_workers=2, shm=True)
        prefix = sharded._shm_base
        try:
            replay_with_rescales(sharded, streams, {1: 4, 3: 2}, oracle)
            # Grown to 4 and back to 2: one ring per surviving shard.
            assert len(live_segments(prefix)) == 2
        finally:
            sharded.close()
        assert live_segments(prefix) == []

    def test_retired_shards_release_their_segments(self):
        rng = random.Random(95)
        queries = small_queries(rng)
        streams = small_streams(rng, count=6, timestamps=2)
        sharded = ShardedMonitor(queries, method="dsc", num_workers=4, shm=True)
        prefix = sharded._shm_base
        try:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
            sharded.matches()  # settle the fleet
            assert len(live_segments(prefix)) == 4
            sharded.rescale(2)
            sharded.matches()
            # The retired shards' rings are unlinked with them.
            assert len(live_segments(prefix)) == 2
        finally:
            sharded.close()
        assert live_segments(prefix) == []

    def test_a_failed_grow_retires_the_shards_it_spawned(self, monkeypatch):
        """The second new ring failing (``ENOSPC``) after shard 2 was
        spawned: ``rescale(4)`` raises with the pool still {0, 1}, no
        worker or segment of the failed grow left behind, and a retried
        ``rescale(4)`` is exact."""
        rng = random.Random(96)
        queries = small_queries(rng)
        streams = small_streams(rng, count=8, timestamps=2)
        oracle = StreamMonitor(queries, method="dsc")
        before = children()
        sharded = ShardedMonitor(queries, method="dsc", num_workers=2, shm=True)
        prefix = sharded._shm_base
        try:
            for stream_id, stream in streams.items():
                sharded.add_stream(stream_id, stream.initial)
                oracle.add_stream(stream_id, stream.initial)
            pool = children()
            real_ring = coordinator_module.ShmRing
            created: list[str] = []

            def second_ring_fails(name, capacity):
                if created:
                    raise OSError(errno.ENOSPC, "No space left on device")
                created.append(name)
                return real_ring(name, capacity)

            monkeypatch.setattr(coordinator_module, "ShmRing", second_ring_fails)
            with pytest.raises(OSError):
                sharded.rescale(4)
            monkeypatch.undo()
            assert created  # shard 2 was spawned before shard 3's ring failed
            assert sharded.num_workers == 2
            assert set(sharded.worker_pids()) == {0, 1}
            assert set(sharded.stats()["streams_per_shard"]) == {0, 1}
            assert children() == pool
            assert len(live_segments(prefix)) == 2
            assert sharded.rescale(4)["to"] == 4
            for stream_id, stream in streams.items():
                sharded.apply(stream_id, stream.operations[0])
                oracle.apply(stream_id, stream.operations[0])
            assert sharded.matches() == oracle.matches()
            assert len(live_segments(prefix)) == 4
        finally:
            sharded.close()
        assert children() == before
        assert live_segments(prefix) == []
