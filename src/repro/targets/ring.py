"""SPSC shared-memory ring buffers for parent->worker packet dispatch.

The worker pool (:mod:`repro.targets.pool`) feeds each shard's worker
over one of these rings: the parent generates the deterministic
stream once, serializes ``(index, in_port, bytes)`` records, and writes
them into a :class:`~multiprocessing.shared_memory.SharedMemory` block
the worker drains — no pickling queue, no per-message lock handoff.

Layout of the shared block::

    offset   0  head  (uint64) — total bytes written; producer-owned
    offset  64  tail  (uint64) — total bytes consumed; consumer-owned
    offset 128  data  [capacity bytes]

Records in the data region are length-prefixed: a little-endian uint32
``n`` followed by ``n`` payload bytes.  Two lengths are control markers
rather than record sizes:

* ``WRAP`` — the rest of the region is dead space; the next record
  starts back at offset 0 (written when a record does not fit in the
  bytes left before the end of the region);
* ``SENTINEL`` — end of stream; :meth:`ShardRing.get` returns ``None``
  and the consumer stops reading.

The ring is strictly single-producer single-consumer: only the parent
advances ``head``, only the worker advances ``tail``, and each side
keeps its own index in a local attribute so the shared copy is written
exactly once per operation and read only by the *other* side.  Index
loads double-read until two consecutive reads agree, so a torn 8-byte
read (the counters are plain bytes, not atomics) can never smuggle in a
half-updated value.

Backpressure is the capacity bound: :meth:`ShardRing.put` blocks (spin
with a short sleep, invoking ``poll`` each round so the caller can
detect a dead consumer) until the consumer frees enough space.  Nothing
is ever dropped; a record too big to be placed after every possible
wrap (:func:`max_payload`) is refused up front instead of waited on.
"""

from __future__ import annotations

import os
import struct
import time
import weakref
from multiprocessing import shared_memory
from typing import Callable, Optional

_HEAD_OFF = 0
_TAIL_OFF = 64
_DATA_OFF = 128
_IDX = struct.Struct("<Q")
_LEN = struct.Struct("<I")

#: Length-field control markers (never valid record sizes).
SENTINEL = 0xFFFFFFFF
WRAP = 0xFFFFFFFE

#: Default per-shard ring capacity (data region bytes).
DEFAULT_RING_BYTES = 1 << 18

#: Sleep between occupancy polls while blocked (seconds).  Deliberately
#: coarse: a default ring holds hundreds of milliseconds of work, so a
#: blocked peer waking 500x/s costs nothing in lead time — while a tight
#: spin on a single-core host steals exactly the CPU the other side
#: needs to unblock it.
_POLL_SLEEP_S = 0.002


class RingTimeout(RuntimeError):
    """A blocking ring operation exceeded its timeout."""


def max_payload(capacity: int) -> int:
    """Largest payload :meth:`ShardRing.put` accepts on a ring of
    ``capacity`` data bytes.

    A record of ``need`` bytes (length prefix included) that does not
    fit before the end of the region needs that dead space *and* its own
    bytes free at once.  The dead space can be up to ``need - 1`` bytes,
    so even an empty ring places every record only if ``2 * need - 1 <=
    capacity``; a bigger record would wait for space that never comes.
    """
    return (capacity + 1) // 2 - _LEN.size


def _attach(name: str, capacity: int) -> "ShardRing":
    return ShardRing(capacity, name=name, create=False)


def _finalize_segment(shm, owner_pid: int) -> None:
    """Last-resort unlink for a segment whose creator never called
    :meth:`ShardRing.unlink` (crash, exception path, interpreter exit).

    Guarded by pid: a forked child inherits the parent's finalizer
    object inside its copied ring, and letting the *child* unlink would
    destroy a segment the parent still depends on.  Only the creating
    process may reclaim the name.
    """
    if os.getpid() != owner_pid:
        return
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - already gone
        pass


class ShardRing:
    """One SPSC byte ring in POSIX shared memory.

    The creating side owns the segment (and must :meth:`unlink` it);
    workers attach by name — pickling a ring (e.g. for a ``spawn``
    start method) transfers only ``(name, capacity)`` and re-attaches
    on the far side.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_RING_BYTES,
        name: Optional[str] = None,
        create: bool = True,
    ) -> None:
        if capacity < 1024:
            raise ValueError(f"ring capacity must be >= 1024 bytes, got {capacity}")
        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=_DATA_OFF + capacity
            )
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            # Attaching registers the segment with the resource tracker
            # a second time; the creator already owns cleanup, so undo
            # the registration to avoid a double-unlink warning at exit.
            try:  # pragma: no cover - tracker internals vary by version
                from multiprocessing import resource_tracker

                resource_tracker.unregister(self._shm._name, "shared_memory")
            except Exception:
                pass
        self.capacity = int(capacity)
        self.name = self._shm.name
        self._buf = self._shm.buf
        self._owner = create
        # The creator arms a finalizer so the segment is unlinked even
        # if the owning process never reaches an explicit unlink() —
        # weakref.finalize also runs at interpreter exit, so a parent
        # that dies on an exception cannot leak /dev/shm segments.
        self._finalizer = (
            weakref.finalize(self, _finalize_segment, self._shm, os.getpid())
            if create
            else None
        )
        # Local copies of this side's and the peer's last-seen indices.
        self._head = self._load(_HEAD_OFF)
        self._tail = self._load(_TAIL_OFF)
        #: Times the producer found the ring full and had to wait one
        #: poll interval — nonzero means the consumer is the slow side.
        self.full_spins = 0

    def __reduce__(self):
        return (_attach, (self.name, self.capacity))

    # ------------------------------------------------------------------
    # Shared index access
    # ------------------------------------------------------------------
    def _load(self, offset: int) -> int:
        buf = self._buf
        value = _IDX.unpack_from(buf, offset)[0]
        while True:
            again = _IDX.unpack_from(buf, offset)[0]
            if again == value:
                return value
            value = again

    def _store(self, offset: int, value: int) -> None:
        _IDX.pack_into(self._buf, offset, value)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def _reserve(
        self,
        need: int,
        poll: Optional[Callable[[], None]],
        timeout: Optional[float],
    ) -> "tuple[int, int]":
        """Block until ``need`` contiguous bytes are free; returns the
        write position and the head value to publish after writing."""
        cap = self.capacity
        deadline = time.monotonic() + timeout if timeout else None
        while True:
            tail = self._load(_TAIL_OFF)
            free = cap - (self._head - tail)
            pos = self._head % cap
            contig = cap - pos
            if contig >= need:
                if free >= need:
                    return pos, self._head + need
            elif free >= contig + need:
                # Not enough room before the end of the region: mark the
                # remainder dead and start the record at offset 0.  The
                # marker and the record become visible together when the
                # caller publishes the returned head.
                if contig >= _LEN.size:
                    _LEN.pack_into(self._buf, _DATA_OFF + pos, WRAP)
                return 0, self._head + contig + need
            self.full_spins += 1
            if poll is not None:
                poll()
            if deadline is not None and time.monotonic() > deadline:
                raise RingTimeout(
                    f"ring {self.name} full for {timeout}s "
                    f"(capacity {cap}, need {need})"
                )
            time.sleep(_POLL_SLEEP_S)

    def put(
        self,
        payload: bytes,
        poll: Optional[Callable[[], None]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Append one length-prefixed record, blocking while full."""
        need = _LEN.size + len(payload)
        if len(payload) > max_payload(self.capacity):
            raise ValueError(
                f"record of {len(payload)} bytes cannot be placed in a "
                f"{self.capacity}-byte ring (at most "
                f"{max_payload(self.capacity)})"
            )
        pos, new_head = self._reserve(need, poll, timeout)
        base = _DATA_OFF + pos
        _LEN.pack_into(self._buf, base, len(payload))
        self._buf[base + _LEN.size : base + need] = payload
        self._head = new_head
        self._store(_HEAD_OFF, new_head)

    def close_stream(
        self,
        poll: Optional[Callable[[], None]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Append the end-of-stream sentinel record."""
        pos, new_head = self._reserve(_LEN.size, poll, timeout)
        _LEN.pack_into(self._buf, _DATA_OFF + pos, SENTINEL)
        self._head = new_head
        self._store(_HEAD_OFF, new_head)

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def get(
        self,
        poll: Optional[Callable[[], None]] = None,
        timeout: Optional[float] = None,
    ) -> Optional[bytes]:
        """Pop the next record; ``None`` on the end-of-stream sentinel.

        Blocks while the ring is empty, invoking ``poll`` each round so
        a worker can notice its parent died mid-stream.
        """
        cap = self.capacity
        deadline = time.monotonic() + timeout if timeout else None
        while True:
            head = self._load(_HEAD_OFF)
            while self._tail != head:
                pos = self._tail % cap
                contig = cap - pos
                if contig < _LEN.size:
                    # Dead space too small for even a wrap marker.
                    self._tail += contig
                    self._store(_TAIL_OFF, self._tail)
                    continue
                length = _LEN.unpack_from(self._buf, _DATA_OFF + pos)[0]
                if length == WRAP:
                    self._tail += contig
                    self._store(_TAIL_OFF, self._tail)
                    continue
                if length == SENTINEL:
                    self._tail += _LEN.size
                    self._store(_TAIL_OFF, self._tail)
                    return None
                start = _DATA_OFF + pos + _LEN.size
                payload = bytes(self._buf[start : start + length])
                self._tail += _LEN.size + length
                self._store(_TAIL_OFF, self._tail)
                return payload
            if poll is not None:
                poll()
            if deadline is not None and time.monotonic() > deadline:
                raise RingTimeout(f"ring {self.name} empty for {timeout}s")
            time.sleep(_POLL_SLEEP_S)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping (does not destroy the segment)."""
        if self._buf is not None:
            self._buf = None
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the shared segment (creator side, after close)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
