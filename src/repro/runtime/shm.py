"""Shared-memory payload rings: one SPSC byte ring per shard.

With ``ShardedMonitor(shm=True)`` the coordinator pickles an apply
payload once into the shard's ring and enqueues a fixed-size
:class:`RingRef` (name + monotonic offset + length + CRC32) instead of
the payload itself; the worker reads the bytes back at dispatch time.

* :class:`ShmRing` / :class:`RingReader` — the producer and consumer
  halves.  Offsets are monotone u64s, the consumed watermark lives in
  the ring header, and a CRC mismatch crashes the worker loudly — which
  is exactly the runtime's normal recovery path, since the respawn is
  built from the coordinator's own graphs and never reads a ring.

**Segment lifecycle and crash orphans.**  The coordinator creates and
owns every ring; workers only attach.  Graceful shutdown unlinks the
ring (``ShmRing.close``), and ``ShardedMonitor.close()`` finishes with
a :func:`cleanup_segments` sweep of its name prefix.  The stdlib
``resource_tracker`` remains the net under the net: creators stay
registered until ``unlink()`` (which unregisters by itself), so even a
coordinator that dies before sweeping leaves cleanup to the tracker at
interpreter exit; the sweep unregisters the names it removes so the
tracker stays quiet.

Segment names are deterministic (coordinator pid + shard + spawn epoch
— the pid+counter scheme of trace ids), which is what makes the prefix
sweep safe: a name collision would mean two live coordinators share a
pid.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from multiprocessing.shared_memory import SharedMemory

#: Bytes reserved at the front of every ring segment for the header.
HEADER_SIZE = 64

#: Ring header: magic, version, flags, capacity (payload bytes), tail
#: (consumed watermark, a monotone u64 written only by the consumer).
_RING_HEADER = struct.Struct("<8sIIQQ")
_RING_MAGIC = b"REPRORNG"
_RING_TAIL_OFFSET = 8 + 4 + 4 + 8  # the tail field inside _RING_HEADER

_VERSION = 1

#: Default ring capacity per shard (payload bytes).
DEFAULT_RING_CAPACITY = 1 << 20


class ShmError(RuntimeError):
    """A shared-memory ring invariant was violated."""


class RingRef(NamedTuple):
    """Fixed-size handle to one payload parked in a shard's ring."""

    ring: str
    offset: int
    length: int
    crc: int


def _untrack(name: str) -> None:
    """Drop a segment from the resource tracker's registry.

    Only the crash-orphan sweep needs this: ``SharedMemory.unlink()``
    unregisters by itself, but the sweep removes files directly (their
    creator is dead), leaving the dead creator's registration behind —
    without this, the tracker warns about "leaked" segments at exit.
    A dead tracker is not an error here; cleanup is already
    best-effort beyond the sweep.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker.unregister("/" + name, "shared_memory")
    except (OSError, ValueError):
        pass


def _open_segment(name: str, size: int = 0) -> SharedMemory:
    """Create a ``size``-byte segment, or attach to an existing one
    (``size`` 0) without claiming ownership.

    ``multiprocessing.shared_memory`` is imported here, not at module
    import: it loads ``secrets``, and with it ``hashlib`` and OpenSSL,
    which only a process that has a ring should pay for.

    The stdlib registers attaches with the resource tracker too
    (gh-82300), but fork and spawn children share the coordinator's
    tracker process, so the attach-side register is a set-add of a name
    the creator already registered — a no-op, balanced by the single
    ``unlink()`` when the creator (or the sweep) destroys the segment.
    """
    from multiprocessing.shared_memory import SharedMemory

    return SharedMemory(name=name, create=size > 0, size=size)


class ShmRing:
    """Producer half of the per-shard SPSC payload ring.

    The coordinator (single-threaded, sole producer) appends payloads
    at a private monotone head; the worker (sole consumer) advances the
    ``tail`` watermark in the header as it reads.  Offsets in a
    :class:`RingRef` are monotone byte positions, wrapped modulo
    capacity only at access time, so FIFO consumption keeps the
    watermark exact and a full ring simply rejects the push (the caller
    falls back to an inline payload — lossless either way).

    A push onto a drained ring (``tail == head``) first moves the head
    to the next lap boundary, so the payload lands at the front, and
    free space counts from ``max(tail, lap start)``.  Closed-loop
    traffic drains the ring every tick, so its resident pages are
    bounded by the bytes in flight at once: ``capacity`` is a bound,
    not a standing memory cost.
    """

    def __init__(self, name: str, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._segment = _open_segment(name, HEADER_SIZE + capacity)
        _RING_HEADER.pack_into(
            self._segment.buf, 0, _RING_MAGIC, _VERSION, 0, capacity, 0
        )
        self._head = 0
        #: Where the head last restarted; nothing below it is in flight.
        self._lap_start = 0

    @property
    def name(self) -> str:
        return self._segment.name

    def _tail(self) -> int:
        (tail,) = struct.unpack_from("<Q", self._segment.buf, _RING_TAIL_OFFSET)
        return tail

    def free_bytes(self) -> int:
        """Payload bytes the ring can accept right now (head-to-tail
        headroom; grows as the consumer advances the watermark)."""
        return self.capacity - (self._head - max(self._tail(), self._lap_start))

    def push(self, payload: bytes) -> RingRef | None:
        """Park one payload; None when it does not fit right now."""
        length = len(payload)
        if self._tail() == self._head:  # drained: restart at the front
            self._head = self._lap_start = -(-self._head // self.capacity) * self.capacity
        if length > self.free_bytes():
            return None
        position = self._head % self.capacity
        first = min(length, self.capacity - position)
        base = HEADER_SIZE + position
        self._segment.buf[base : base + first] = payload[:first]
        if first < length:
            self._segment.buf[HEADER_SIZE : HEADER_SIZE + length - first] = payload[
                first:
            ]
        ref = RingRef(
            ring=self.name,
            offset=self._head,
            length=length,
            crc=zlib.crc32(payload),
        )
        self._head += length
        return ref

    def close(self, unlink: bool = True) -> None:
        """Close the ring segment; the producer owns the unlink."""
        self._segment.close()
        if unlink:
            try:
                self._segment.unlink()
            except FileNotFoundError:
                pass


class RingReader:
    """Consumer half of the payload ring (lives in the worker)."""

    def __init__(self, name: str) -> None:
        self._segment = _open_segment(name)
        magic, version, _flags, capacity, _tail = _RING_HEADER.unpack_from(
            self._segment.buf, 0
        )
        if magic != _RING_MAGIC or version != _VERSION:
            raise ShmError(f"segment {name!r} is not a payload ring")
        self.capacity = capacity

    def read(self, ref: RingRef) -> bytes:
        """The payload behind one ref; advances the consumed watermark.

        A CRC mismatch means the producer and consumer disagree about
        the ring state — the worker raises, dies loudly, and the
        coordinator rebuilds the shard from its own graphs; corruption
        is never silently applied.
        """
        position = ref.offset % self.capacity
        first = min(ref.length, self.capacity - position)
        base = HEADER_SIZE + position
        payload = bytes(self._segment.buf[base : base + first])
        if first < ref.length:
            payload += bytes(
                self._segment.buf[HEADER_SIZE : HEADER_SIZE + ref.length - first]
            )
        if zlib.crc32(payload) != ref.crc:
            raise ShmError(
                f"ring payload at offset {ref.offset} failed its CRC check"
            )
        struct.pack_into(
            "<Q", self._segment.buf, _RING_TAIL_OFFSET, ref.offset + ref.length
        )
        return payload

    def close(self) -> None:
        """Detach (the producer owns the unlink)."""
        self._segment.close()


def make_prefix(role: str, shard_id: int, epoch: int) -> str:
    """Deterministic segment-name prefix: coordinator pid + shard +
    spawn epoch (a pid+counter scheme — no random ids)."""
    return f"repro-{os.getpid()}-{role}{shard_id}e{epoch}"


def cleanup_segments(prefix: str) -> list[str]:
    """Unlink every ``/dev/shm`` segment whose name starts with
    ``prefix`` — the crash-orphan sweep for SIGKILLed workers.

    Returns the names removed.  On platforms without a scannable
    ``/dev/shm`` this is a no-op (the resource tracker still collects
    orphans at interpreter exit).
    """
    removed: list[str] = []
    root = Path("/dev/shm")
    if not prefix or not root.is_dir():
        return removed
    for path in sorted(root.glob(f"{prefix}*")):
        try:
            path.unlink()
        except FileNotFoundError:
            continue
        except OSError:
            continue
        _untrack(path.name)
        removed.append(path.name)
    return removed


def live_segments(prefix: str) -> list[str]:
    """Names of segments currently present under a prefix (tests use
    this to assert leak-freedom after ``close()``)."""
    root = Path("/dev/shm")
    if not prefix or not root.is_dir():
        return []
    return sorted(path.name for path in root.glob(f"{prefix}*"))


__all__ = [
    "DEFAULT_RING_CAPACITY",
    "HEADER_SIZE",
    "RingReader",
    "RingRef",
    "ShmError",
    "ShmRing",
    "cleanup_segments",
    "live_segments",
    "make_prefix",
]
