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

from repro.core.messages import EncryptedTuple, EncryptedTupleBlock
from repro.exceptions import ProtocolError
from repro.net import frames, ops
from repro.net.client import AsyncSSIClient
from repro.net.coordinator import QueryCoordinator
from repro.net.frames import QueryMeta, Writer
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport
from repro.obs import metrics as obs_metrics
from repro.ssi.admission import AdmissionPolicy
from repro.ssi.server import SupportingServerInfrastructure as SSI
from repro.store import DurableStore, scan_segments
from repro.store.records import decode_record

from .conftest import run_async
from .golden.capture import block, envelope, rows_of
from .test_long_poll import serving

TUPLES = [EncryptedTuple(b"ct-1", b"g"), EncryptedTuple(b"ct-2", None)]


def result_rows(ssi, query_id):
    return sum(map(len, ssi.storage_map()[query_id].result_rows))


#: the keyed data rows: (row, request items, what the facade then holds, how many)
DATA_ROWS = [
    (ops.SUBMIT_TUPLES_BATCH, EncryptedTupleBlock.from_tuples(TUPLES),
     SSI.collected_count, 2),
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
            assert journal.recorded == ["post_query", op.method]

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


def refuse_once(store, *ops_):
    """The next WAL append of each of these rows' records raises ENOSPC
    once; returns the set still armed."""
    failing = {op.record for op in ops_}
    append = store._wal.append

    def full_once(parts):
        if parts[0][0] in failing:
            failing.remove(parts[0][0])
            raise OSError(errno.ENOSPC, "No space left on device")
        return append(parts)

    store._wal.append = full_once
    return failing


async def serve_resending(client, rows):
    """Work query ``q`` as one device: fold every partition to the
    partial ``b"p"``, finalize to *rows*, and resend a result answered
    ``ERR_INTERNAL``.  Returns (refusals, the finished ids of the last
    answer)."""
    refused = 0
    while True:
        _, unit, done = await client.await_work("tds-w", ["q"], 0.0)
        if unit is None:
            return refused, done
        if unit.kind == frames.WORK_FINALIZE:
            result = (frames.RESULT_ROWS, block(*rows))
        else:
            result = (frames.RESULT_PARTIALS, block(b"p"))
        try:
            await client.submit_partition_result("q", unit.partition_id, "tds-w", result)
        except ProtocolError:  # ERR_INTERNAL; the device resends
            refused += 1
            await client.submit_partition_result("q", unit.partition_id, "tds-w", result)


async def open_sagg_query(tmp_path):
    """A durable dispatcher holding ``q``: S_Agg with alpha 2 over four
    collected tuples — two folds, one merge, one finalize."""
    store = DurableStore.open(tmp_path)
    dispatcher = SSIDispatcher.with_store(store)
    client = AsyncSSIClient(LoopbackTransport(dispatcher.dispatch))
    await client.post_query(envelope("q"), meta=QueryMeta("s_agg", {"alpha": 2.0}))
    await client.submit_tuples_batch("q", TUPLES * 2)
    await client.close_collection("q")
    return store, client


def journaled(tmp_path):
    return [
        decode_record(bytes(body)).op.name
        for _seq, body in scan_segments(tmp_path / "wal", mode="verify").records
    ]


class TestAFailedAppendIsNotAbsorbedByTheCoordinator:
    """The same sequence one layer up: a device's partition result
    whose record could not be appended is answered ``ERR_INTERNAL`` and
    resent.  The parent marked the partition done before journaling, so
    the retry was dropped as a duplicate with nothing stored — a round
    one partial short, or a result never published."""

    def test_the_retry_of_a_partition_result_is_executed(self, tmp_path):
        rows = [b"row-1", b"row-2"]

        async def run():
            store, client = await open_sagg_query(tmp_path)
            failing = refuse_once(store, ops.SUBMIT_PARTIALS, ops.STORE_RESULT_ROWS)
            refused, done = await serve_resending(client, rows)
            assert refused == 2 and not failing and done == ["q"]
            result = await client.await_result("q", 0.0)
            assert rows_of(result) == rows
            store.close()

        run_async(run())
        records = journaled(tmp_path)
        # 4 tuples, alpha 2: two folds, one merge, one finalize — each once
        assert records.count("submit_partials") == 3
        assert records[-2:] == ["store_result_rows", "publish_result"]


class TestAFailedRoundBoundaryAppendIsRetried:
    """The result that drains a round also advances it: drain the SSI's
    partials (record 6) and cut the next stage, or publish (record 8).
    When that append raised, the parent had already marked the round
    done and emptied the outputs it collected: the resent result was a
    duplicate, nothing was assignable, and the query was stranded for
    good.  The advance is now re-run — by the resend, or by the next
    request for work — until its append goes through."""

    def test_the_query_publishes_over_the_wire(self, tmp_path):
        rows = [b"row-1", b"row-2"]

        async def run():
            store, client = await open_sagg_query(tmp_path)
            failing = refuse_once(store, ops.TAKE_PARTIALS, ops.PUBLISH_RESULT)
            refused, done = await serve_resending(client, rows)
            assert refused == 2 and not failing and done == ["q"]
            result = await client.await_result("q", 0.0)
            assert rows_of(result) == rows
            store.close()

        run_async(run())
        records = journaled(tmp_path)
        assert records.count("submit_partials") == 3
        assert records.count("take_partials") == 2  # after each aggregation round
        assert records[-2:] == ["store_result_rows", "publish_result"]

    @pytest.mark.parametrize("method", ["take_partials", "publish_result"])
    @pytest.mark.parametrize("retry", ["resend", "ask_for_work"])
    def test_in_process_the_next_call_finishes_the_advance(self, method, retry):
        ssi = SSI()
        ssi.post_query(envelope("q"))
        ssi.submit_tuple_block("q", block(*[b"t-%d" % i for i in range(4)]))
        ssi.close_collection("q")
        coordinator = QueryCoordinator(ssi, "q", QueryMeta("s_agg", {"alpha": 2.0}))
        ssi.journal = journal = CountingJournal()
        refuse = {method}
        record = journal.record

        def refusing(name, *args, wire=None):
            if name in refuse:
                refuse.remove(name)
                raise OSError(errno.ENOSPC, "No space left on device")
            return record(name, *args, wire=wire)

        journal.record = refusing
        refused = 0
        while (unit := coordinator.next_work("tds-w", 0.0)) is not None:
            if unit.kind == frames.WORK_FINALIZE:
                result = (frames.RESULT_ROWS, block(b"row"))
            else:
                result = (frames.RESULT_PARTIALS, block(b"p-%d" % unit.partition_id))
            try:
                coordinator.complete(unit.partition_id, "tds-w", *result)
            except OSError:
                refused += 1
                if retry == "resend":
                    coordinator.complete(unit.partition_id, "tds-w", *result)
        assert refused == 1 and not refuse
        assert coordinator.done() and ssi.result_ready("q")
        assert rows_of(ssi.fetch_result("q")) == [b"row"]
        # no partial was lost at the boundary: two folds, one merge of
        # both their partials, one finalize
        assert coordinator.stats.partitions_processed == 4
        assert coordinator.stats.aggregation_rounds == 2
        assert journal.recorded.count("take_partials") == 2
        assert journal.recorded.count("publish_result") == 1


# ---------------------------------------------------------------------- #
# OK means applied; a read sees every acked write
# ---------------------------------------------------------------------- #
QUERIES = ["q0", "q1", "q2"]
CONNECTIONS = 6
#: two fleet-mode queries with more partitions in their first stage
#: than the tests complete, so nothing a completion stores is drained:
#: folding one adds a partial, filtering one adds two result rows
FOLDING, FILTERING = "q-fold", "q-filter"


async def open_partitions(client):
    """Post the two, close them and take the units of their first stage
    — all but one each, so neither stage can complete."""
    tuples = [EncryptedTuple(b"t-%d" % i, None) for i in range(100)]
    for query_id, meta in (
        (FOLDING, QueryMeta("s_agg", {"alpha": 2.0})),
        (FILTERING, QueryMeta("basic", {"partition_size": 1.0})),
    ):
        await client.post_query(envelope(query_id), meta=meta)
        await client.submit_tuples_batch(query_id, tuples)
        await client.close_collection(query_id)
    units = {FOLDING: [], FILTERING: []}
    while True:
        _, unit, _ = await client.await_work("tds-w", [FOLDING, FILTERING], 0.0)
        if unit is None:
            return units[FOLDING][:-1] + units[FILTERING][:-1]
        units[unit.query_id].append(unit)


def nothing_acked():
    """What the acks received so far say each facade read must hold:
    ``{read: {query id: count}}``."""
    return {
        SSI.collected_count: dict.fromkeys(QUERIES, 0),
        SSI.partial_count: {FOLDING: 0},
        result_rows: {FILTERING: 0},
    }


async def complete(client, unit):
    """Answer *unit* as a device would; what the facade then holds."""
    if unit.query_id == FOLDING:
        await client.submit_partition_result(
            FOLDING, unit.partition_id, "tds-w",
            (frames.RESULT_PARTIALS, block(b"p")),
        )
        return SSI.partial_count, 1
    await client.submit_partition_result(
        FILTERING, unit.partition_id, "tds-w",
        (frames.RESULT_ROWS, block(b"row-1", b"row-2")),
    )
    return result_rows, 2


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
        """Six connections, four requests in flight on each, the two
        keyed rows and the devices' ``submit_partition_result``
        interleaved: whenever an ack comes back the facade — read
        directly, no read operation in between — holds at least
        everything acked so far, and with a store the WAL has a record
        for each."""

        async def run():
            async with backing(stored, tmp_path) as (dispatcher, store):
                async with connections(kind, dispatcher) as clients:
                    await self.flood(dispatcher, store, clients)

        run_async(run())

    async def flood(self, dispatcher, store, clients):
        ssi = dispatcher.ssi
        acked = nothing_acked()
        posted = []  # acked post_query ids

        def check(holds=operator.ge):
            for held, per_query in acked.items():
                for query_id, count in per_query.items():
                    assert holds(held(ssi, query_id), count)
            assert set(posted) <= set(ssi.storage_map())
            if store is not None:
                assert store.last_seq >= records

        pending = await open_partitions(clients[0])
        for query_id, client in zip(QUERIES, clients):
            await client.post_query(envelope(query_id))
            posted.append(query_id)
        records = store.last_seq if store is not None else 0
        check()

        async def lane(client, rng, name):
            nonlocal records
            for step in range(10):
                writer = rng.randrange(4)
                if writer == 0:
                    await client.post_query(envelope(f"{name}-{step}"))
                    posted.append(f"{name}-{step}")
                elif writer == 1:
                    unit = pending.pop(rng.randrange(len(pending)))
                    held, count = await complete(client, unit)
                    acked[held][unit.query_id] += count
                else:
                    op, items, held, count = DATA_ROWS[0]
                    query_id = rng.choice(QUERIES)
                    await client.call(op, query_id, items)
                    acked[held][query_id] += count
                records += 1  # one WAL record per acked mutation
                check()

        rng = random.Random(19)
        await asyncio.gather(*(
            lane(client, random.Random(rng.random()), f"lane-{index}")
            for index, client in enumerate(clients * 4)
        ))
        assert all(count > 0 for per_query in acked.values()
                   for count in per_query.values())
        check(operator.eq)

    def test_a_read_sees_everything_acked_before_it_was_sent(
        self, kind, stored, tmp_path
    ):
        """Writers and readers on different connections, seeded: no read
        row orders itself after the writes — it does not have to."""

        async def run():
            async with backing(stored, tmp_path) as (dispatcher, _store):
                async with connections(kind, dispatcher) as clients:
                    await self.interleave(dispatcher.ssi, clients)

        run_async(run())

    async def interleave(self, ssi, clients):
        acked = nothing_acked()
        pending = await open_partitions(clients[0])
        for query_id in QUERIES:
            await clients[0].post_query(envelope(query_id))

        async def writer(client, rng):
            for _ in range(25):
                if rng.random() < 0.6:
                    query_id = rng.choice(QUERIES)
                    await client.submit_tuples_batch(query_id, TUPLES)
                    acked[SSI.collected_count][query_id] += len(TUPLES)
                else:
                    unit = pending.pop(rng.randrange(len(pending)))
                    held, count = await complete(client, unit)
                    acked[held][unit.query_id] += count

        async def reader(client, rng):
            for _ in range(25):
                held = rng.choice(list(acked))
                query_id = rng.choice(list(acked[held]))
                floor = acked[held][query_id]
                if held is SSI.collected_count:
                    assert await client.collected_count(query_id) >= floor
                else:
                    # the SSI's own state has no read row: off the facade
                    await asyncio.sleep(0)
                    assert held(ssi, query_id) >= floor

        rng = random.Random(23)
        await asyncio.gather(
            *(writer(client, random.Random(rng.random())) for client in clients[:4]),
            *(reader(client, random.Random(rng.random())) for client in clients[4:]),
        )
