"""Live query churn: crash atomicity, shm leak-freedom, fingerprint
dedup exactness, and checkpoint round-trips of the churned query set.

Registration goes through the journaled ``CMD_REGISTER_QUERY`` control
path, so a SIGKILL at any instant leaves the query either fully present
(journal put succeeded → replay re-registers it on the respawned shard)
or fully absent (put never happened) — never half-registered on some
shards.  Deregistration retires the query's dominance rows; cycling
queries must not accumulate shared-memory segments.
Fingerprint dedup lets identical NPV projections share one group of
dominance rows while every query id keeps its own exact verdicts.
A retired group's query-vector slots go to the next new group, so the
index space every engine keys by is bounded by the peak live vector
count, not by lifetime registrations.
"""

from __future__ import annotations

import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro.core.checkpoint import load_monitor, save_monitor
from repro.core.monitor import StreamMonitor
from repro.graph import LabeledGraph
from repro.runtime import ShardedMonitor
from repro.runtime.shm import live_segments

from .conftest import random_labeled_graph
from .test_engine_internals import assert_retired_slots_read_zero
from .test_soak_differential import random_batch, random_query
from .test_vf2 import nx_subgraph_iso

needs_shm_dir = pytest.mark.skipif(
    not Path("/dev/shm").is_dir(), reason="no /dev/shm to scan"
)


def small_queries(rng: random.Random, count: int = 3) -> dict:
    return {
        f"q{i}": random_labeled_graph(rng, rng.randint(2, 4), extra_edges=1)
        for i in range(count)
    }


def small_mirrors(rng: random.Random, count: int = 4) -> dict:
    return {
        f"s{i}": random_labeled_graph(rng, rng.randint(4, 7), extra_edges=2)
        for i in range(count)
    }


def oracle_pairs(mirrors: dict, queries: dict) -> set:
    return {
        (stream_id, query_id)
        for stream_id, mirror in mirrors.items()
        for query_id, query in queries.items()
        if nx_subgraph_iso(query, mirror)
    }


def massacre(sharded: ShardedMonitor) -> None:
    for pid in sharded.worker_pids().values():
        os.kill(pid, signal.SIGKILL)
    time.sleep(0.05)


class TestCrashAtomicity:
    def test_registration_survives_worker_massacre(self):
        """SIGKILL the whole pool the instant ``register_query``
        returns: journal replay must land the query on every shard —
        fully present, answered from the current stream state."""
        rng = random.Random(4001)
        queries = small_queries(rng)
        mirrors = small_mirrors(rng)
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            for stream_id, mirror in mirrors.items():
                sharded.add_stream(stream_id, mirror)
            fresh = random_query(rng)
            queries["late"] = fresh
            sharded.register_query("late", fresh)
            massacre(sharded)
            reported = sharded.matches()
            assert sharded.recovery_log.recoveries >= 2
            assert reported >= oracle_pairs(mirrors, queries)
            reference = StreamMonitor(queries, method="dsc")
            for stream_id, mirror in mirrors.items():
                reference.add_stream(stream_id, mirror)
            assert reported == reference.matches()

    def test_deregistration_survives_worker_massacre(self):
        """The mirror-image crash: a deregistered query must stay gone
        after journal replay — fully absent, on every shard."""
        rng = random.Random(4002)
        queries = small_queries(rng)
        mirrors = small_mirrors(rng)
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            for stream_id, mirror in mirrors.items():
                sharded.add_stream(stream_id, mirror)
            victim = sorted(queries)[0]
            sharded.deregister_query(victim)
            del queries[victim]
            massacre(sharded)
            reported = sharded.matches()
            assert all(query_id != victim for _, query_id in reported)
            assert victim not in sharded.query_ids()
            reference = StreamMonitor(queries, method="dsc")
            for stream_id, mirror in mirrors.items():
                reference.add_stream(stream_id, mirror)
            assert reported == reference.matches()

    def test_unregistered_query_stays_fully_absent(self):
        """A crash *before* any registration was submitted must leave
        no trace of the query — and a later registration of the same id
        succeeds exactly once."""
        rng = random.Random(4003)
        queries = small_queries(rng)
        mirrors = small_mirrors(rng)
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            for stream_id, mirror in mirrors.items():
                sharded.add_stream(stream_id, mirror)
            massacre(sharded)
            assert "late" not in sharded.query_ids()
            late = random_query(rng)
            sharded.register_query("late", late)
            with pytest.raises(ValueError):
                sharded.register_query("late", late)
            queries["late"] = late
            assert sharded.matches() >= oracle_pairs(mirrors, queries)


@needs_shm_dir
class TestShmLeakFreedom:
    def test_churn_cycles_do_not_accumulate_segments(self):
        """Register/deregister cycles with ``shm=True``: query churn
        creates no segment, so the census stays at one ring per shard
        through five cycles — and close() unlinks everything."""
        rng = random.Random(4004)
        queries = small_queries(rng)
        mirrors = small_mirrors(rng)
        sharded = ShardedMonitor(queries, method="dsc", num_workers=2, shm=True)
        prefix = sharded._shm_base
        try:
            for stream_id, mirror in mirrors.items():
                sharded.add_stream(stream_id, mirror)
            def cycle(tag: str) -> None:
                extra = random_query(rng)
                sharded.register_query(tag, extra)
                sharded.matches()
                sharded.deregister_query(tag)
                sharded.matches()
            for i in range(5):
                cycle(f"churn{i}")
                assert len(live_segments(prefix)) == 2
            assert sorted(sharded.query_ids()) == sorted(queries)
        finally:
            sharded.close()
        assert live_segments(prefix) == []


class TestFingerprintDedup:
    def test_identical_patterns_share_rows_with_exact_fanout(self):
        """Two queries with identical NPV projections share one group of
        dominance rows (``live_vector_count`` does not double), yet each
        id gets its own verdicts in ``matches()``/``verified_matches()``
        — and retiring one leaves the other exact."""
        rng = random.Random(4005)
        pattern = random_labeled_graph(rng, 4, extra_edges=1)
        monitor = StreamMonitor({"a": pattern}, method="dsc")
        solo_rows = monitor.query_set.live_vector_count()
        monitor.register_query("b", pattern.copy())
        assert monitor.query_set.live_vector_count() == solo_rows
        assert monitor.query_set.num_groups == 1
        mirrors = small_mirrors(rng)
        for stream_id, mirror in mirrors.items():
            monitor.add_stream(stream_id, mirror)
        reported = monitor.matches()
        assert {s for s, q in reported if q == "a"} == {
            s for s, q in reported if q == "b"
        }
        truth = oracle_pairs(mirrors, {"a": pattern, "b": pattern})
        assert monitor.verified_matches() == truth
        monitor.deregister_query("a")
        assert monitor.query_set.num_groups == 1  # group kept alive by "b"
        assert monitor.matches() == {p for p in reported if p[1] == "b"}
        assert monitor.verified_matches() == {p for p in truth if p[1] == "b"}

    def test_group_retires_with_its_last_member(self):
        rng = random.Random(4006)
        pattern = random_labeled_graph(rng, 3, extra_edges=1)
        other = random_labeled_graph(rng, 4, extra_edges=2)
        monitor = StreamMonitor({"a": pattern, "b": pattern.copy(), "c": other})
        groups_before = monitor.query_set.num_groups
        monitor.deregister_query("a")
        assert monitor.query_set.num_groups == groups_before
        monitor.deregister_query("b")
        assert monitor.query_set.num_groups == groups_before - 1
        assert monitor.query_set.live_vector_count() == len(
            monitor.query_set.by_query["c"]
        )

    @pytest.mark.parametrize("method", ("nl", "dsc", "skyline", "matrix"))
    def test_dedup_exact_across_engines(self, method):
        rng = random.Random(4007)
        pattern = random_labeled_graph(rng, 3, extra_edges=1)
        mirrors = small_mirrors(rng, count=3)
        monitor = StreamMonitor({"a": pattern}, method=method)
        for stream_id, mirror in mirrors.items():
            monitor.add_stream(stream_id, mirror)
        monitor.register_query("b", pattern.copy())
        reported = monitor.matches()
        assert reported >= oracle_pairs(mirrors, {"a": pattern, "b": pattern})
        assert {s for s, q in reported if q == "a"} == {
            s for s, q in reported if q == "b"
        }


class TestSlotReuse:
    """Register/deregister cycles against live streams: the slots of
    :attr:`QuerySet.vectors` are recycled, and an engine that lived
    through the cycles answers as one built fresh."""

    CYCLES = 200

    def cycles(self, method: str, after_cycle=None):
        """One new query in, one stream batch, one random query out, 200
        times (``after_cycle(query_set, engine)`` after each).  Returns the
        monitor and the peak ``live_vector_count()``."""
        rng = random.Random(4012)
        monitor = StreamMonitor(small_queries(rng, count=6), method=method)
        for stream_id, mirror in small_mirrors(rng).items():
            monitor.add_stream(stream_id, mirror)
        peak = monitor.query_set.live_vector_count()
        next_vertex = 100
        for cycle in range(self.CYCLES):
            shape = random_labeled_graph(rng, rng.randint(2, 5), extra_edges=rng.randint(0, 2))
            monitor.register_query(f"c{cycle}", shape)
            peak = max(peak, monitor.query_set.live_vector_count())
            stream_id = rng.choice(monitor.stream_ids())
            batch, next_vertex = random_batch(rng, monitor.graph(stream_id), next_vertex)
            monitor.apply(stream_id, batch)
            monitor.deregister_query(rng.choice(monitor.query_ids()))
            if after_cycle:
                after_cycle(monitor.query_set, monitor.engine)
        return monitor, peak

    def test_index_space_is_bounded_by_peak_live_vectors(self):
        monitor, peak = self.cycles("dsc", assert_retired_slots_read_zero)
        query_set, engine = monitor.query_set, monitor.engine
        assert query_set.live_vector_count() <= len(query_set.vectors) <= peak
        assert len(engine._required) == len(query_set.vectors)
        for state in engine._streams.values():
            assert all(len(row) <= peak for row in state.dominant.values())

    def test_one_query_cycled_takes_its_own_slots_back(self):
        rng = random.Random(4013)
        shape = random_labeled_graph(rng, 3, extra_edges=1)
        monitor = StreamMonitor({}, method="dsc")
        monitor.add_stream("s", random_labeled_graph(rng, 6, extra_edges=2))
        for cycle in range(self.CYCLES):
            monitor.register_query(f"c{cycle}", shape.copy())
            monitor.deregister_query(f"c{cycle}")
        assert monitor.query_set.live_vector_count() == 0
        assert len(monitor.query_set.vectors) == len(monitor.engine._required) == 3

    @pytest.mark.parametrize("method", ("nl", "dsc", "skyline", "matrix"))
    def test_cycled_engine_answers_as_a_fresh_one(self, method):
        cycled, _ = self.cycles(method)
        fresh = StreamMonitor(dict(cycled.query_set.queries), method=method)
        for stream_id in cycled.stream_ids():
            fresh.add_stream(stream_id, cycled.graph(stream_id).copy())
        assert cycled.matches() == fresh.matches()
        # ... and keeps doing so as the streams move on.
        rng = random.Random(4014)
        next_vertex = 10_000
        for _ in range(20):
            stream_id = rng.choice(cycled.stream_ids())
            batch, next_vertex = random_batch(rng, cycled.graph(stream_id), next_vertex)
            cycled.apply(stream_id, batch)
            fresh.apply(stream_id, batch)
            assert cycled.matches() == fresh.matches()


class TestCheckpointRoundTrip:
    def test_in_process_checkpoint_carries_churned_membership(self, tmp_path):
        """save/load round-trip after churn: the manifest's query list
        *is* the membership — registered queries restore, deregistered
        ones stay gone (no side-channel keys)."""
        rng = random.Random(4008)
        queries = small_queries(rng)
        mirrors = small_mirrors(rng)
        monitor = StreamMonitor(queries, method="dsc")
        for stream_id, mirror in mirrors.items():
            monitor.add_stream(stream_id, mirror)
        late = random_query(rng)
        monitor.register_query("late", late)
        victim = sorted(queries)[0]
        monitor.deregister_query(victim)
        save_monitor(monitor, tmp_path / "snap")
        restored = load_monitor(tmp_path / "snap")
        assert sorted(restored.query_set.queries) == sorted(
            monitor.query_set.queries
        )
        assert victim not in restored.query_set.queries
        assert restored.matches() == monitor.matches()
        assert restored.verified_matches() == monitor.verified_matches()

    def test_sharded_recovery_prefers_checkpointed_membership(self, tmp_path):
        """Churn, checkpoint, churn again, massacre: every respawn is
        seeded with the *live* membership (recovery never reads the
        export), so churn on both sides of the checkpoint survives."""
        rng = random.Random(4009)
        queries = small_queries(rng)
        mirrors = small_mirrors(rng)
        with ShardedMonitor(
            queries,
            method="dsc",
            num_workers=2,
            checkpoint_dir=tmp_path / "ckpt",
        ) as sharded:
            for stream_id, mirror in mirrors.items():
                sharded.add_stream(stream_id, mirror)
            before_snapshot = random_query(rng)
            sharded.register_query("early", before_snapshot)
            queries["early"] = before_snapshot
            sharded.checkpoint()
            after_snapshot = random_query(rng)
            sharded.register_query("late", after_snapshot)
            queries["late"] = after_snapshot
            victim = sorted(small_queries(rng))[0]
            sharded.deregister_query(victim)
            del queries[victim]
            massacre(sharded)
            reported = sharded.matches()
            assert sorted(sharded.query_ids()) == sorted(queries)
            reference = StreamMonitor(queries, method="dsc")
            for stream_id, mirror in mirrors.items():
                reference.add_stream(stream_id, mirror)
            assert reported == reference.matches()

    def test_rescale_after_churn_catches_new_shards_up(self):
        """A shard grown after churn is born from the frozen spec; the
        coordinator must replay the net churn into it before it serves."""
        rng = random.Random(4010)
        queries = small_queries(rng)
        mirrors = small_mirrors(rng, count=6)
        with ShardedMonitor(queries, method="dsc", num_workers=2) as sharded:
            for stream_id, mirror in mirrors.items():
                sharded.add_stream(stream_id, mirror)
            late = random_query(rng)
            sharded.register_query("late", late)
            queries["late"] = late
            victim = sorted(queries)[0]
            sharded.deregister_query(victim)
            del queries[victim]
            sharded.rescale(4)
            reported = sharded.matches()
            reference = StreamMonitor(queries, method="dsc")
            for stream_id, mirror in mirrors.items():
                reference.add_stream(stream_id, mirror)
            assert reported == reference.matches()
            assert reported >= oracle_pairs(mirrors, queries)
