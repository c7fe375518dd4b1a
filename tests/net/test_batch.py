"""Batched tuple frames: block codec round-trips and adversarial
inputs, TupleBatcher flush semantics, idempotent batch replays, and
batch-vs-sequential parity through a real driver query."""

import asyncio
import random
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import EncryptedTuple, EncryptedTupleBlock
from repro.exceptions import ProtocolError, UnknownQueryError
from repro.net import frames
from repro.net.batch import TupleBatcher
from repro.net.client import AsyncSSIClient, QuerierClient, RetryPolicy
from repro.net.fleet import FleetRunner
from repro.net.frames import QueryMeta, Reader, Writer
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.protocols import SAggProtocol

from .conftest import (
    GROUP_SQL,
    build_deployment,
    make_histogram,
    run_async,
    run_driver_inproc,
    sorted_rows,
)
from .test_frames import make_envelope
from .test_retry_semantics import ResponseLostTransport
from .virtual_time import run_virtual

TUPLES = [
    EncryptedTuple(b"ct-one", None),
    EncryptedTuple(b"", b"tag"),
    EncryptedTuple(b"ct-three-longer", b""),
    EncryptedTuple(b"x", None),
]


def encode_block(block: EncryptedTupleBlock) -> bytes:
    w = Writer()
    frames.write_tuple_block(w, block)
    return w.getvalue()


class TestTupleBlock:
    def test_from_tuples_roundtrip(self):
        block = EncryptedTupleBlock.from_tuples(TUPLES)
        assert len(block) == len(TUPLES)
        assert list(block.tuples()) == TUPLES
        assert block.payload_sizes() == [len(t.payload) for t in TUPLES]

    def test_empty_block(self):
        block = EncryptedTupleBlock.from_tuples([])
        assert len(block) == 0
        assert list(block.tuples()) == []

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            EncryptedTupleBlock(b"ab", (0, 1), (None, None))  # tags mismatch
        with pytest.raises(ValueError):
            EncryptedTupleBlock(b"ab", (0, 3), (None,))  # span overruns
        with pytest.raises(ValueError):
            EncryptedTupleBlock(b"ab", (1, 2), (None,))  # offset 0 missing
        with pytest.raises(ValueError):
            EncryptedTupleBlock(b"ab", (0, 2, 1), (None, None))  # not monotone

    def test_wire_roundtrip(self):
        for tuples in ([], TUPLES, [EncryptedTuple(b"", None)]):
            block = EncryptedTupleBlock.from_tuples(tuples)
            got = frames.read_tuple_block(Reader(encode_block(block)))
            assert list(got.tuples()) == tuples
            Reader(encode_block(block)).expect_end


class TestTupleBlockAdversarial:
    """Malformed batch frames must die with ProtocolError, never a raw
    struct/index error (same contract as test_wire_adversarial)."""

    def good(self) -> bytes:
        return encode_block(EncryptedTupleBlock.from_tuples(TUPLES))

    def test_lengths_vector_size_mismatch(self):
        w = Writer().u32(3).blob(struct.pack(">2I", 1, 1))
        w.blob(struct.pack(">3I", 0, 0, 0)).blob(b"xx").blob(b"")
        with pytest.raises(ProtocolError, match="lengths vector"):
            frames.read_tuple_block(Reader(w.getvalue()))

    def test_tag_lengths_vector_size_mismatch(self):
        w = Writer().u32(2).blob(struct.pack(">2I", 1, 1))
        w.blob(struct.pack(">1I", 0)).blob(b"xx").blob(b"")
        with pytest.raises(ProtocolError, match="tag-lengths vector"):
            frames.read_tuple_block(Reader(w.getvalue()))

    def test_payload_buffer_shorter_than_declared(self):
        w = Writer().u32(2).blob(struct.pack(">2I", 4, 4))
        w.blob(struct.pack(">2I", frames._NO_TAG, frames._NO_TAG))
        w.blob(b"onlyfour").blob(b"")
        got = frames.read_tuple_block(Reader(w.getvalue()))
        assert len(got) == 2  # 4+4 == 8 matches: sanity that this shape parses
        w = Writer().u32(2).blob(struct.pack(">2I", 4, 8))
        w.blob(struct.pack(">2I", frames._NO_TAG, frames._NO_TAG))
        w.blob(b"onlyfour").blob(b"")
        with pytest.raises(ProtocolError, match="payload buffer"):
            frames.read_tuple_block(Reader(w.getvalue()))

    def test_huge_payload_length_does_not_allocate(self):
        w = Writer().u32(1).blob(struct.pack(">1I", 0xFFFFFFFF))
        w.blob(struct.pack(">1I", frames._NO_TAG)).blob(b"tiny").blob(b"")
        with pytest.raises(ProtocolError, match="payload buffer"):
            frames.read_tuple_block(Reader(w.getvalue()))

    def test_tag_buffer_shorter_than_declared(self):
        w = Writer().u32(1).blob(struct.pack(">1I", 1))
        w.blob(struct.pack(">1I", 8)).blob(b"p").blob(b"abc")
        with pytest.raises(ProtocolError, match="tag buffer"):
            frames.read_tuple_block(Reader(w.getvalue()))

    def test_trailing_tag_bytes_detected(self):
        w = Writer().u32(1).blob(struct.pack(">1I", 1))
        w.blob(struct.pack(">1I", 1)).blob(b"p").blob(b"t-extra")
        with pytest.raises(ProtocolError, match="trailing"):
            frames.read_tuple_block(Reader(w.getvalue()))

    def test_count_limit_enforced(self):
        w = Writer().u32(frames.MAX_ITEMS + 1)
        with pytest.raises(ProtocolError, match="limit"):
            frames.read_tuple_block(Reader(w.getvalue()))

    def test_oversized_block_refused_at_write_time(self):
        tuples = [EncryptedTuple(b"", None)] * (frames.MAX_ITEMS + 1)
        block = EncryptedTupleBlock.from_tuples(tuples)
        with pytest.raises(ProtocolError, match="limit"):
            frames.write_tuple_block(Writer(), block)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=256))
    def test_fuzzed_bodies_only_raise_protocol_error(self, data):
        try:
            frames.read_tuple_block(Reader(data))
        except ProtocolError:
            pass

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.binary(max_size=32),
                st.one_of(st.none(), st.binary(max_size=8)),
            ),
            max_size=20,
        )
    )
    def test_arbitrary_blocks_roundtrip(self, raw):
        tuples = [EncryptedTuple(p, t) for p, t in raw]
        block = EncryptedTupleBlock.from_tuples(tuples)
        got = frames.read_tuple_block(Reader(encode_block(block)))
        assert list(got.tuples()) == tuples


def loopback_client():
    dispatcher = SSIDispatcher()
    client = AsyncSSIClient(
        LoopbackTransport(dispatcher.dispatch), rng=random.Random(6)
    )
    return dispatcher, client


class TestBatchSubmission:
    def test_batch_submit_collects_and_observes(self):
        async def run():
            dispatcher, client = loopback_client()
            await client.post_query(make_envelope("q1"))
            await client.submit_tuples_batch("q1", TUPLES)
            assert await client.collected_count("q1") == len(TUPLES)
            observed = [
                o
                for o in dispatcher.ssi.observer.observations
                if o.query_id == "q1" and o.phase == "collection"
            ]
            assert [o.payload_size for o in observed] == [
                len(t.payload) for t in TUPLES
            ]
            assert [o.group_tag for o in observed] == [
                t.group_tag for t in TUPLES
            ]

        run_async(run())

    def test_batch_and_sequential_storage_agree(self):
        async def run():
            __, batch_client = loopback_client()
            __, seq_client = loopback_client()
            await batch_client.post_query(make_envelope("q1"))
            await seq_client.post_query(make_envelope("q1"))
            await batch_client.submit_tuples_batch("q1", TUPLES)
            await seq_client.submit_tuples("q1", TUPLES)
            assert await batch_client.collected_count(
                "q1"
            ) == await seq_client.collected_count("q1")

        run_async(run())

    def test_batch_replay_is_not_double_applied(self):
        async def run():
            dispatcher = SSIDispatcher()
            transport = ResponseLostTransport(dispatcher.dispatch)
            client = AsyncSSIClient(
                transport,
                RetryPolicy(max_retries=2, backoff_base=0.0),
                rng=random.Random(8),
            )
            await client.post_query(make_envelope("q1"))
            transport.arm = True
            await client.submit_tuples_batch("q1", TUPLES)
            assert client.retries == 1
            assert await client.collected_count("q1") == len(TUPLES)

        run_async(run())

    def test_batch_to_closed_collection_is_dropped(self):
        async def run():
            __, client = loopback_client()
            await client.post_query(make_envelope("q1"))
            await client.close_collection("q1")
            await client.submit_tuples_batch("q1", TUPLES)  # no error
            assert await client.collected_count("q1") == 0

        run_async(run())

    def test_blocks_are_not_slower_than_chunks(self):
        """4 000 tuples of 256 bytes over loopback, best of 3:
        ``submit_tuples_batch`` in 1 024-tuple blocks against
        ``submit_tuples`` in 200-tuple chunks (4.9 × over TCP when the
        two were last recorded side by side)."""
        rng = random.Random(3)
        tuples = [
            EncryptedTuple(rng.getrandbits(8 * 256).to_bytes(256, "big"), None)
            for _ in range(1024)
        ]
        chunk, block = tuples[:200], EncryptedTupleBlock.from_tuples(tuples)

        async def rate(submit, items, calls):
            started = time.perf_counter()
            for _ in range(calls):
                await submit("q1", items)
            return calls * len(items) / (time.perf_counter() - started)

        async def run():
            __, client = loopback_client()
            await client.post_query(make_envelope("q1"))
            chunked = batched = 0.0
            for _ in range(3):
                chunked = max(chunked, await rate(client.submit_tuples, chunk, 20))
                batched = max(
                    batched, await rate(client.submit_tuples_batch, block, 3)
                )
            assert batched >= chunked

        run_async(run())


class TestTupleBatcher:
    def test_size_threshold_flushes_inline(self):
        async def run():
            __, client = loopback_client()
            await client.post_query(make_envelope("q1"))
            batcher = TupleBatcher(client, max_tuples=4, max_delay=60.0)
            await asyncio.gather(
                batcher.submit("q1", TUPLES[:2]), batcher.submit("q1", TUPLES[2:])
            )
            assert batcher.batches_flushed == 1
            assert batcher.tuples_flushed == len(TUPLES)
            assert await client.collected_count("q1") == len(TUPLES)

        run_async(run())

    def test_time_threshold_flushes_stragglers(self):
        async def run():
            __, client = loopback_client()
            await client.post_query(make_envelope("q1"))
            batcher = TupleBatcher(client, max_tuples=1000, max_delay=0.01)
            stop = asyncio.Event()
            flusher = asyncio.create_task(batcher.run(stop))
            try:
                await batcher.submit("q1", TUPLES[:1])  # resolved by flusher
                assert batcher.batches_flushed == 1
                assert await client.collected_count("q1") == 1
            finally:
                stop.set()
                await flusher

        run_async(run())

    def test_flush_failure_reaches_every_waiter(self):
        async def run():
            __, client = loopback_client()  # no query posted
            batcher = TupleBatcher(client, max_tuples=2, max_delay=60.0)
            first = asyncio.create_task(batcher.submit("missing", TUPLES[:1]))
            await asyncio.sleep(0)
            with pytest.raises(UnknownQueryError):
                await batcher.submit("missing", TUPLES[1:2])
            with pytest.raises(UnknownQueryError):
                await first

        run_async(run())

    def test_batches_are_per_query(self):
        async def run():
            __, client = loopback_client()
            await client.post_query(make_envelope("qa"))
            await client.post_query(make_envelope("qb"))
            batcher = TupleBatcher(client, max_tuples=2, max_delay=60.0)
            await asyncio.gather(
                batcher.submit("qa", TUPLES[:2]), batcher.submit("qb", TUPLES[2:])
            )
            assert await client.collected_count("qa") == 2
            assert await client.collected_count("qb") == 2
            assert batcher.batches_flushed == 2

        run_async(run())

    def test_invalid_knobs_rejected(self):
        __, client = loopback_client()
        with pytest.raises(ProtocolError):
            TupleBatcher(client, max_tuples=0)
        with pytest.raises(ProtocolError):
            TupleBatcher(client, max_delay=0.0)

    def test_size_flush_failure_leaves_no_unretrieved_future(self):
        """Regression: when the caller's own submit triggers the size
        flush and that flush fails, flush() sets the exception on the
        caller's waiter *and* re-raises.  The old code path then never
        awaited the waiter, so its exception was never retrieved and the
        event loop reported 'Future exception was never retrieved' at GC
        time.  The handler must stay silent."""
        import gc

        async def run():
            __, client = loopback_client()  # no query posted -> flush fails
            batcher = TupleBatcher(client, max_tuples=1, max_delay=60.0)
            reports = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: reports.append(context)
            )
            with pytest.raises(UnknownQueryError):
                await batcher.submit("missing", TUPLES[:1])
            gc.collect()  # would fire Future.__del__ -> handler on the bug
            await asyncio.sleep(0)
            assert reports == []

        run_async(run())

    def test_submit_block_coalesces_blocks(self):
        async def run():
            __, client = loopback_client()
            await client.post_query(make_envelope("q1"))
            batcher = TupleBatcher(client, max_tuples=4, max_delay=60.0)
            await asyncio.gather(
                batcher.submit_block(
                    "q1", EncryptedTupleBlock.from_tuples(TUPLES[:2])
                ),
                batcher.submit_block(
                    "q1", EncryptedTupleBlock.from_tuples(TUPLES[2:])
                ),
            )
            assert batcher.batches_flushed == 1
            assert batcher.tuples_flushed == len(TUPLES)
            assert await client.collected_count("q1") == len(TUPLES)

        run_async(run())

    def test_submit_block_empty_is_a_noop(self):
        async def run():
            __, client = loopback_client()
            batcher = TupleBatcher(client, max_tuples=1, max_delay=60.0)
            await batcher.submit_block(
                "q1", EncryptedTupleBlock.from_tuples([])
            )
            assert batcher.batches_flushed == 0

        run_async(run())


class TestAgeFlush:
    """``max_delay`` bounds how long a contribution waits for company:
    on a virtual clock, to the tick."""

    DELAY = 0.02

    @staticmethod
    def batcher(posted=("qa", "qb"), **kwargs):
        __, client = loopback_client()

        async def post():
            for query_id in posted:
                await client.post_query(make_envelope(query_id))

        kwargs.setdefault("max_delay", TestAgeFlush.DELAY)
        return post, TupleBatcher(client, max_tuples=3, **kwargs)

    def test_a_lone_contribution_is_acked_at_born_plus_max_delay(self):
        """Born 13 ms into a 20 ms period: a flusher that wakes every
        ``max_delay`` finds the batch too young at 20 ms and flushes it
        at 40 — 27 ms for a 20 ms bound.  Nothing polls here, :meth:`run`
        included: it is not even started."""

        async def run():
            post, batcher = self.batcher()
            await post()
            loop = asyncio.get_running_loop()
            await asyncio.sleep(0.013)
            born = loop.time()
            await batcher.submit("qa", TUPLES[:1])
            assert loop.time() == pytest.approx(born + self.DELAY, abs=1e-9)
            assert batcher.batches_flushed == 1
            assert await batcher.client.collected_count("qa") == 1

        run_virtual(run())

    def test_the_deadline_goes_through_the_injected_sleep(self):
        async def run():
            slept = []

            async def sleep(delay):
                slept.append(delay)
                await asyncio.sleep(delay)

            post, batcher = self.batcher(sleep=sleep)
            await post()
            await asyncio.gather(
                batcher.submit("qa", TUPLES[:1]), batcher.submit("qa", TUPLES[1:2])
            )
            await batcher.submit("qb", TUPLES[:1])
            assert slept == [self.DELAY, self.DELAY]  # one per batch, not per tick

        run_virtual(run())

    def test_a_size_flush_leaves_every_other_deadline_alone(self):
        """qa's first batch fills up at 5 ms.  Its own deadline (20 ms)
        must not flush qa's second batch early, qa's second batch must
        still get one (28 ms), and qb's (22 ms) is nobody else's
        business."""

        async def run():
            post, batcher = self.batcher()
            await post()
            loop = asyncio.get_running_loop()
            acked = {}

            async def contribute(name, at, query_id, tuples):
                await asyncio.sleep(at)
                await batcher.submit(query_id, tuples)
                acked[name] = round(loop.time(), 6)

            await asyncio.gather(
                contribute("a1", 0.000, "qa", TUPLES[:1]),
                contribute("b1", 0.002, "qb", TUPLES[:1]),
                contribute("a2", 0.005, "qa", TUPLES[1:3]),  # fills the batch
                contribute("a3", 0.008, "qa", TUPLES[3:]),
            )
            assert acked == {"a1": 0.005, "a2": 0.005, "b1": 0.022, "a3": 0.028}
            assert batcher.batches_flushed == 3
            assert await batcher.client.collected_count("qa") == 4
            assert await batcher.client.collected_count("qb") == 1

        run_virtual(run())

    def test_a_failed_age_flush_reaches_the_waiters_and_nobody_else(self):
        async def run():
            post, batcher = self.batcher(posted=())  # no query: the flush fails
            loop = asyncio.get_running_loop()
            reports = []
            loop.set_exception_handler(lambda loop, context: reports.append(context))
            outcomes = await asyncio.gather(
                batcher.submit("missing", TUPLES[:1]),
                batcher.submit("missing", TUPLES[1:2]),
                return_exceptions=True,
            )
            assert [type(o) for o in outcomes] == [UnknownQueryError] * 2
            assert loop.time() == pytest.approx(self.DELAY, abs=1e-9)
            await asyncio.sleep(0)
            assert reports == []  # the age flush itself dies quietly
            assert len(asyncio.all_tasks()) == 1

        run_virtual(run())

    def test_run_calls_off_the_pending_deadlines_and_flushes_at_stop(self):
        async def run():
            post, batcher = self.batcher(max_delay=60.0)
            await post()
            loop = asyncio.get_running_loop()
            stop = asyncio.Event()
            flusher = asyncio.create_task(batcher.run(stop))
            waiting = asyncio.create_task(batcher.submit("qa", TUPLES[:1]))
            await asyncio.sleep(1.0)
            assert not waiting.done()
            stop.set()
            await flusher
            await waiting
            assert loop.time() == pytest.approx(1.0)  # not 60
            assert await batcher.client.collected_count("qa") == 1
            await asyncio.sleep(0)
            assert len(asyncio.all_tasks()) == 1  # no deadline left behind

        run_virtual(run())


class TestBlockConcat:
    def test_concat_preserves_tuples(self):
        blocks = [
            EncryptedTupleBlock.from_tuples(TUPLES[:2]),
            EncryptedTupleBlock.from_tuples([]),
            EncryptedTupleBlock.from_tuples(TUPLES[2:]),
        ]
        merged = EncryptedTupleBlock.concat(blocks)
        assert list(merged.tuples()) == TUPLES
        assert merged.offsets[-1] == sum(len(t.payload) for t in TUPLES)

    def test_concat_single_block_is_identity(self):
        block = EncryptedTupleBlock.from_tuples(TUPLES)
        assert EncryptedTupleBlock.concat([block]) is block


class TestBatchedFleetParity:
    def test_batched_fleet_matches_in_process_driver(self):
        """The whole batched data plane end-to-end: a fleet with
        batching on must produce byte-for-byte the rows the unmodified
        in-process driver produces."""

        async def run():
            dep = build_deployment(6)
            dispatcher = SSIDispatcher(dep.ssi, partition_timeout=0.5)
            server = SSIServer(dispatcher)
            await server.start()
            fleet = FleetRunner(
                dep.tds_list,
                lambda: TCPTransport("127.0.0.1", server.port, window=16),
                histogram=make_histogram(dep),
                poll_interval=0.01,
                batch_size=64,
                batch_flush_interval=0.01,
                rng=random.Random(12),
            )
            fleet_task = asyncio.create_task(fleet.run(until_queries_done=1))
            try:
                querier = dep.make_querier()
                envelope = querier.make_envelope(GROUP_SQL)
                qclient = QuerierClient(
                    TCPTransport("127.0.0.1", server.port, window=16)
                )
                try:
                    await qclient.post_query(
                        envelope,
                        meta=QueryMeta("s_agg", {"partition_timeout": 0.5}),
                    )
                    result = await qclient.wait_result(
                        envelope.query_id, poll_interval=0.01, timeout=30.0
                    )
                finally:
                    await qclient.close()
                rows = sorted_rows(querier.decrypt_result(result))
                await fleet_task
                # contributions actually went through the batch path
                assert fleet.stats.tuples_submitted == 6
                assert fleet._batcher is not None
                assert fleet._batcher.tuples_flushed == 6
                return rows
            finally:
                fleet.stop()
                await server.close()

        rows = run_async(run())
        assert rows == run_driver_inproc(SAggProtocol, GROUP_SQL, num_tds=6)
