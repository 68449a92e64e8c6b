"""Sliding-window flow monitoring with checkpointing.

Network flow records expire: a connection seen 10 minutes ago should not
still trigger a beaconing alert.  This example drives the
:class:`SlidingWindowMonitor` over a synthetic flow feed, uses the
caching verifier to confirm alerts cheaply on quiet polls, and
checkpoints / restores the underlying monitor mid-run.

Run with:  python examples/windowed_flows.py
"""

import random
import tempfile

from repro import LabeledGraph
from repro.core.window import SlidingWindowMonitor
from repro.core.checkpoint import load_monitor, save_monitor
from repro.core.verify import CachingVerifier

HOST_LABELS = ["ws", "db", "gw"]


def beacon_pattern() -> LabeledGraph:
    """A workstation talking to two gateways within one window."""
    return LabeledGraph.from_vertices_and_edges(
        [(0, "ws"), (1, "gw"), (2, "gw")],
        [(0, 1, "flow"), (0, 2, "flow")],
    )


def staging_pattern() -> LabeledGraph:
    """db -> ws -> ws relay within one window."""
    return LabeledGraph.from_vertices_and_edges(
        [(0, "db"), (1, "ws"), (2, "ws")],
        [(0, 1, "flow"), (1, 2, "flow")],
    )


def main() -> None:
    rng = random.Random(11)
    monitor = SlidingWindowMonitor(
        {"beacon": beacon_pattern(), "staging": staging_pattern()},
        window=4,
        method="skyline",
    )
    monitor.add_stream("edge-net")

    hosts = 14
    for minute in range(1, 21):
        # A few flow observations per minute; old flows expire as the
        # window slides.
        for _ in range(rng.randint(1, 4)):
            src, dst = rng.sample(range(hosts), 2)
            monitor.observe(
                "edge-net",
                src,
                dst,
                "flow",
                u_label=HOST_LABELS[src % 3],
                v_label=HOST_LABELS[dst % 3],
            )
        expired = monitor.tick("edge-net")
        for event in monitor.events():
            print(f"min {minute:2d}: {event.kind} {event.query_id!r}  "
                  f"(window expired {expired} flows this minute)")

    # Confirm what is live right now, with caching for repeated polls.
    verifier = CachingVerifier(monitor.monitor)
    confirmed = verifier.verified_matches()
    verifier.verified_matches()  # quiet second poll: all cache hits
    print(f"\nconfirmed now: {sorted(q for _, q in confirmed)}")
    print(f"verifier stats: {verifier.stats}")

    # Checkpoint the wrapped monitor and prove the restored copy agrees.
    with tempfile.TemporaryDirectory() as tmp:
        save_monitor(monitor.monitor, tmp)
        restored = load_monitor(tmp)
        assert restored.matches() == monitor.matches()
        print(f"checkpoint round-trip OK ({len(restored.matches())} live pairs)")


if __name__ == "__main__":
    main()
