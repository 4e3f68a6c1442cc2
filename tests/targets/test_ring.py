"""SPSC shared-memory ring: framing, wrap, sentinel, backpressure."""

import threading
import time

import pytest

from repro.targets.ring import (
    _HEAD_OFF,
    _TAIL_OFF,
    DEFAULT_RING_BYTES,
    RingTimeout,
    ShardRing,
    max_payload,
)


@pytest.fixture()
def ring():
    r = ShardRing(2048)
    yield r
    r.close()
    r.unlink()


class TestFraming:
    def test_roundtrip_in_order(self, ring):
        payloads = [bytes([i]) * (i + 1) for i in range(50)]
        for p in payloads:
            ring.put(p)
        assert [ring.get() for _ in payloads] == payloads

    def test_empty_payload(self, ring):
        ring.put(b"")
        ring.put(b"x")
        assert ring.get() == b""
        assert ring.get() == b"x"

    def test_sentinel_ends_stream(self, ring):
        ring.put(b"last")
        ring.close_stream()
        assert ring.get() == b"last"
        assert ring.get() is None

    def test_oversized_record_rejected(self, ring):
        with pytest.raises(ValueError):
            ring.put(b"\x00" * 4096)

    def test_record_that_can_never_be_placed_is_refused_at_once(self):
        # 600 + 4 bytes fit an empty 1 KiB ring, but not after a wrap at
        # offset 500: the 524 dead bytes and the record need 1128 free,
        # so waiting for the space would only end at the timeout.
        ring = ShardRing(1024)
        try:
            ring.put(b"a" * 496)
            assert ring.get() == b"a" * 496
            start = time.monotonic()
            with pytest.raises(ValueError, match="at most 508"):
                ring.put(b"b" * 600, timeout=1)
            assert time.monotonic() - start < 0.5
        finally:
            ring.close()
            ring.unlink()

    @pytest.mark.parametrize("capacity", [1024, 1025, 2048])
    def test_largest_record_is_placed_at_every_head_position(self, capacity):
        ring = ShardRing(capacity)
        try:
            largest = max_payload(capacity)
            with pytest.raises(ValueError):
                ring.put(b"x" * (largest + 1))
            payload = b"q" * largest
            for pos in range(capacity):
                # An empty ring whose indices stand at ``pos``.
                ring._head = ring._tail = pos
                ring._store(_HEAD_OFF, pos)
                ring._store(_TAIL_OFF, pos)
                ring.put(payload, timeout=1)
                assert ring.get() == payload
        finally:
            ring.close()
            ring.unlink()

    def test_minimum_capacity_enforced(self):
        with pytest.raises(ValueError):
            ShardRing(100)


class TestWrap:
    def test_records_survive_many_wraps(self, ring):
        # Far more data than the ring holds, consumed in lockstep, with
        # sizes chosen so records straddle the region boundary often.
        for i in range(500):
            payload = bytes([i % 256]) * (37 + (i * 13) % 300)
            ring.put(payload)
            assert ring.get() == payload

    def test_interleaved_batches_wrap(self, ring):
        # Keep a small backlog in flight (bounded well under capacity,
        # so the single-threaded producer never blocks) while records of
        # varying size march across the wrap boundary repeatedly.
        sent = []
        for i in range(300):
            payload = bytes([i % 256]) * (1 + (i * 7) % 120)
            ring.put(payload, timeout=5)
            sent.append(payload)
            if len(sent) > 5:
                assert ring.get(timeout=5) == sent.pop(0)
        while sent:
            assert ring.get(timeout=5) == sent.pop(0)


class TestBackpressure:
    def test_put_blocks_until_consumer_drains(self, ring):
        # Fill the ring beyond capacity from a thread; the producer must
        # block (not raise, not drop) until the consumer makes space.
        payload = b"z" * 400
        total = 20  # 20 * ~404 bytes >> 2048 capacity
        done = threading.Event()

        def produce():
            for _ in range(total):
                ring.put(payload, timeout=10)
            ring.close_stream(timeout=10)
            done.set()

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        time.sleep(0.1)
        assert not done.is_set()  # blocked on the full ring
        got = 0
        while ring.get(timeout=10) is not None:
            got += 1
        producer.join(timeout=10)
        assert done.is_set() and got == total

    def test_put_timeout_raises(self, ring):
        while True:  # fill without a consumer
            try:
                ring.put(b"y" * 400, timeout=0.05)
            except RingTimeout:
                break

    def test_get_timeout_raises(self, ring):
        with pytest.raises(RingTimeout):
            ring.get(timeout=0.05)

    def test_put_poll_callback_invoked_while_blocked(self, ring):
        calls = []

        class Escape(Exception):
            pass

        def poll():
            calls.append(1)
            if len(calls) >= 3:
                raise Escape

        while True:  # fill up, then confirm poll fires during the block
            try:
                ring.put(b"w" * 400, poll=poll, timeout=5)
            except Escape:
                break
        assert len(calls) >= 3

    def test_full_spins_count_only_the_blocked_path(self, ring):
        puts = 0
        while True:  # every put that fits leaves the counter alone
            try:
                ring.put(b"v" * 400, timeout=0.05)
                puts += 1
                assert ring.full_spins == 0
            except RingTimeout:
                break
        assert puts >= 3
        spins = ring.full_spins
        assert spins >= 1  # one per poll interval spent waiting
        for _ in range(puts):
            ring.get(timeout=1)
        ring.put(b"v" * 400, timeout=1)
        assert ring.full_spins == spins


class TestLifecycle:
    def test_attach_by_name_shares_data(self):
        ring = ShardRing(4096)
        try:
            ring.put(b"hello")
            peer = ShardRing(4096, name=ring.name, create=False)
            assert peer.get() == b"hello"
            peer.close()
        finally:
            ring.close()
            ring.unlink()

    def test_reduce_reattaches(self):
        import pickle

        ring = ShardRing(4096)
        try:
            ring.put(b"pickled")
            clone = pickle.loads(pickle.dumps(ring))
            assert clone.capacity == ring.capacity
            assert clone.get() == b"pickled"
            clone.close()
        finally:
            ring.close()
            ring.unlink()

    def test_unlink_destroys_segment(self):
        from multiprocessing import shared_memory

        ring = ShardRing(2048)
        name = ring.name
        ring.close()
        ring.unlink()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_default_capacity(self):
        ring = ShardRing()
        try:
            assert ring.capacity == DEFAULT_RING_BYTES
        finally:
            ring.close()
            ring.unlink()


class TestFinalizer:
    def test_dropping_an_unlinked_ring_reclaims_the_segment(self):
        import gc

        from multiprocessing import shared_memory

        ring = ShardRing(2048)
        name = ring.name
        # Simulate an abnormal path: the owner never calls unlink().
        del ring
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_explicit_unlink_detaches_the_finalizer(self):
        ring = ShardRing(2048)
        finalizer = ring._finalizer
        ring.close()
        ring.unlink()
        assert ring._finalizer is None
        assert not finalizer.alive  # no second unlink attempt at gc

    def test_attached_ring_has_no_finalizer(self):
        # Only the creator may reclaim the name; a worker-side attach
        # dying must never destroy the parent's segment.
        ring = ShardRing(2048)
        try:
            peer = ShardRing(2048, name=ring.name, create=False)
            assert peer._finalizer is None
            peer.close()
        finally:
            ring.close()
            ring.unlink()

    def test_forked_child_cannot_unlink_parents_segment(self):
        # The finalizer is pid-guarded: a fork inherits the parent's
        # ring object (finalizer included), and the child exiting must
        # leave the segment alone.
        import multiprocessing

        from multiprocessing import shared_memory

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        ctx = multiprocessing.get_context("fork")
        ring = ShardRing(2048)
        try:
            proc = ctx.Process(target=lambda: None)  # inherits + exits
            proc.start()
            proc.join(5)
            # Parent's segment must still exist.
            probe = shared_memory.SharedMemory(name=ring.name)
            probe.close()
        finally:
            ring.close()
            ring.unlink()
