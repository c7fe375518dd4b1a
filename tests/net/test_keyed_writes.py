"""A keyed write is applied in the call that accepted it, then marked.

A handler runs from decode to ack-payload without an ``await``, so a
submission cannot wait behind anything at the SSI — there is no queue to
drain and no read has to flush one.  Three consequences, pinned here:

* a key is marked only for a mutation that was applied: when the apply
  raised (the journal's disk is full), the byte-identical retry is
  executed, not acked as the replay of something that never happened;
* ``MSG_OK`` means applied: the facade holds the mutation (and the WAL
  its record) by the time the ack is built, whatever else is in flight;
* a read returns at least everything acked before it was sent.
"""

import asyncio
import errno
import operator
import random
from contextlib import asynccontextmanager

import pytest

from repro.core.messages import EncryptedPartial, EncryptedTuple, EncryptedTupleBlock
from repro.net import frames, ops
from repro.net.client import AsyncSSIClient
from repro.net.frames import Writer
from repro.net.server import SSIDispatcher
from repro.obs import metrics as obs_metrics
from repro.ssi.admission import AdmissionPolicy
from repro.ssi.server import SupportingServerInfrastructure as SSI
from repro.store import DurableStore, scan_segments
from repro.store.records import decode_record

from .conftest import run_async
from .golden.capture import envelope
from .test_long_poll import serving

TUPLES = [EncryptedTuple(b"ct-1", b"g"), EncryptedTuple(b"ct-2", None)]


def result_rows(ssi, query_id):
    return len(ssi.storage_map()[query_id].result_rows)


#: the keyed data rows: (row, request items, what the facade then holds, how many)
DATA_ROWS = [
    (ops.SUBMIT_TUPLES, TUPLES, SSI.collected_count, 2),
    (ops.SUBMIT_TUPLES_BATCH, EncryptedTupleBlock.from_tuples(TUPLES),
     SSI.collected_count, 2),
    (ops.SUBMIT_PARTIALS, [EncryptedPartial(b"p-1", None)], SSI.partial_count, 1),
    (ops.STORE_RESULT_ROWS, [b"row-1", b"row-2"], result_rows, 2),
]
ROW_IDS = [row[0].name for row in DATA_ROWS]


def replays():
    return obs_metrics.REGISTRY.snapshot()["repro_ssi_replays_total"][()]


def keyed_request(op, key, *values):
    """The request body a client sends for *op* under idempotency *key*
    — the same bytes every time, as a retry resends them."""
    w = Writer()
    ops.IDEM.write(w, key)
    op.write_request(w, values)
    return frames.pack_frame(op.opcode, w.getvalue())[frames.LENGTH_PREFIX_BYTES:]


async def answer(dispatcher, body):
    """(msg type, error code or None) of the response to *body*."""
    response = await dispatcher.dispatch(body)
    msg_type, _corr, _exts, reader = frames.unpack_frame_ext(
        response[frames.LENGTH_PREFIX_BYTES:]
    )
    return msg_type, reader.u8() if msg_type == frames.MSG_ERROR else None


def fail_once(target, name):
    """The next call of ``target.name`` raises ENOSPC; later ones run."""
    real = getattr(target, name)

    def failing(*args, **kwargs):
        setattr(target, name, real)
        raise OSError(errno.ENOSPC, "No space left on device")

    setattr(target, name, failing)


class CountingJournal:
    """The in-memory stand-in for a store: counts what it is asked to
    record (a dispatcher without a store arms no key on it)."""

    def __init__(self):
        self.recorded = []

    def record(self, method, *args, wire=None):
        self.recorded.append(method)
        return len(self.recorded)


# ---------------------------------------------------------------------- #
# a key is marked only for a mutation that was applied
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("op, items, held, count", DATA_ROWS, ids=ROW_IDS)
class TestAFailedApplyIsNotAcknowledgedOnRetry:
    """The lost-ack sequence: attempt 1 raises inside the apply and is
    answered ``ERR_INTERNAL``; the client, which cannot tell that from a
    lost response, resends the same bytes.  The parent marked a
    submission's key before applying it, so attempt 2 was acked ``OK``
    as a replay with nothing collected and nothing journaled."""

    POST_KEY, KEY = ("c0ffee", 1), ("c0ffee", 2)
    POLICY = AdmissionPolicy(max_pending_bytes=4096)

    async def three_attempts(self, dispatcher, failing, op, items, held, count):
        post = keyed_request(ops.POST_QUERY, self.POST_KEY, envelope("q"), None, None)
        assert await answer(dispatcher, post) == (frames.MSG_OK, None)
        fail_once(*failing)
        body = keyed_request(op, self.KEY, "q", items)
        assert await answer(dispatcher, body) == (frames.MSG_ERROR, frames.ERR_INTERNAL)
        assert held(dispatcher.ssi, "q") == 0
        assert not dispatcher.idempotency.seen(*self.KEY)
        # a charge the failed apply left behind would refuse the retry
        assert dispatcher.admission.pending_bytes("alice") == 0
        dropped = replays()
        assert await answer(dispatcher, body) == (frames.MSG_OK, None)
        assert held(dispatcher.ssi, "q") == count  # executed ...
        assert replays() == dropped  # ... not dropped
        assert await answer(dispatcher, body) == (frames.MSG_OK, None)
        assert held(dispatcher.ssi, "q") == count  # once
        assert replays() == dropped + 1
        assert dispatcher.admission.pending_bytes("alice") == 0

    def test_in_memory(self, op, items, held, count):
        async def run():
            dispatcher = SSIDispatcher(admission=self.POLICY)
            journal = dispatcher.ssi.journal = CountingJournal()
            failing = (journal, "record")
            await self.three_attempts(dispatcher, failing, op, items, held, count)
            assert journal.recorded == [op.method]

        run_async(run())

    def test_with_a_store(self, op, items, held, count, tmp_path):
        async def run():
            store = DurableStore.open(tmp_path)
            dispatcher = SSIDispatcher.with_store(store, admission=self.POLICY)
            failing = (store._wal, "append")
            await self.three_attempts(dispatcher, failing, op, items, held, count)
            store.close()

        run_async(run())
        records = [
            decode_record(bytes(body))
            for _seq, body in scan_segments(tmp_path / "wal", mode="verify").records
        ]
        assert [record.op.name for record in records] == ["post_query", op.name]
        assert [record.idem for record in records] == [self.POST_KEY, self.KEY]


# ---------------------------------------------------------------------- #
# OK means applied; a read sees every acked write
# ---------------------------------------------------------------------- #
QUERIES = ["q0", "q1", "q2"]
CONNECTIONS = 6


@asynccontextmanager
async def connections(kind, dispatcher):
    """Six clients of *dispatcher*: loopback, or six TCP connections
    whose requests the server handles concurrently."""
    async with serving(kind, dispatcher) as connect:
        yield [
            AsyncSSIClient(connect(), rng=random.Random(100 + index))
            for index in range(CONNECTIONS)
        ]


@asynccontextmanager
async def backing(stored, tmp_path):
    """(dispatcher, store or None)."""
    if not stored:
        yield SSIDispatcher(), None
        return
    store = DurableStore.open(tmp_path)
    try:
        yield SSIDispatcher.with_store(store), store
    finally:
        store.close()


@pytest.mark.parametrize("stored", [False, True], ids=["memory", "store"])
@pytest.mark.parametrize("kind", ["loopback", "tcp"])
class TestOkMeansApplied:
    def test_every_acked_mutation_is_already_held(self, kind, stored, tmp_path):
        """Six connections, four requests in flight on each, the five
        keyed rows interleaved over three queries: whenever an ack comes
        back the facade — read directly, no read operation in between —
        holds at least everything acked so far, and with a store the WAL
        has a record for each."""

        async def run():
            async with backing(stored, tmp_path) as (dispatcher, store):
                async with connections(kind, dispatcher) as clients:
                    await self.flood(dispatcher, store, clients)

        run_async(run())

    async def flood(self, dispatcher, store, clients):
        ssi = dispatcher.ssi
        #: what the acks received so far say each facade read must hold
        acked = {row[2]: dict.fromkeys(QUERIES, 0) for row in DATA_ROWS}
        records = 0  # one WAL record per acked keyed mutation

        def check(holds=operator.ge):
            for held, per_query in acked.items():
                for query_id, count in per_query.items():
                    assert holds(held(ssi, query_id), count)
            if store is not None:
                assert store.last_seq >= records

        for query_id, client in zip(QUERIES, clients):
            await client.post_query(envelope(query_id))
            assert query_id in ssi.envelope_map()  # post_query, the fifth row
            records += 1
        check()

        async def lane(client, rng):
            nonlocal records
            for _ in range(10):
                op, items, held, count = rng.choice(DATA_ROWS)
                query_id = rng.choice(QUERIES)
                await client.call(op, query_id, items)
                acked[held][query_id] += count
                records += 1
                check()

        rng = random.Random(19)
        await asyncio.gather(*(
            lane(client, random.Random(rng.random()))
            for client in clients
            for _ in range(4)
        ))
        check(operator.eq)

    def test_a_read_sees_everything_acked_before_it_was_sent(
        self, kind, stored, tmp_path
    ):
        """Writers and readers on different connections, seeded: no read
        row orders itself after the writes — it does not have to."""

        async def run():
            async with backing(stored, tmp_path) as (dispatcher, _store):
                async with connections(kind, dispatcher) as clients:
                    await self.interleave(clients)

        run_async(run())

    async def interleave(self, clients):
        tuples = dict.fromkeys(QUERIES, 0)  # acked, per query
        partials = dict.fromkeys(QUERIES, 0)  # acked and not taken back
        for query_id in QUERIES:
            await clients[0].post_query(envelope(query_id))

        async def writer(client, rng):
            for _ in range(25):
                query_id = rng.choice(QUERIES)
                if rng.random() < 0.6:
                    await client.submit_tuples(query_id, TUPLES)
                    tuples[query_id] += len(TUPLES)
                else:
                    await client.submit_partials(
                        query_id, [EncryptedPartial(b"p", None)]
                    )
                    partials[query_id] += 1

        async def reader(client, rng, reads):
            for _ in range(25):
                query_id = rng.choice(QUERIES)
                read = rng.choice(reads)
                if read == "collected_count":
                    floor = tuples[query_id]
                    assert await client.collected_count(query_id) >= floor
                elif read == "covering_result":
                    floor = tuples[query_id]
                    assert len(await client.covering_result(query_id)) >= floor
                else:
                    # what was acked since the last take: one reader
                    # takes, so no other take races this floor
                    floor = partials[query_id]
                    taken = len(await client.take_partials(query_id))
                    assert taken >= floor
                    partials[query_id] -= taken

        rng = random.Random(23)
        await asyncio.gather(
            *(writer(client, random.Random(rng.random())) for client in clients[:4]),
            reader(clients[4], random.Random(rng.random()),
                   ["collected_count", "covering_result", "take_partials"]),
            reader(clients[5], random.Random(rng.random()),
                   ["collected_count", "covering_result"]),
        )
