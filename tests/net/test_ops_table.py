"""The operation table is complete, byte-compatible and extensible.

* every request opcode has exactly one row, and every row has the
  surfaces derived from it: a dispatcher handler and a client proxy
  (wire rows) and a WAL record (journaled rows); the rows without an
  opcode — the SSI's own steps, and the read-only record of the retired
  per-item submission — cannot be sent;
* the table-driven encoders produce the bytes ``golden/ops_v4.json``
  holds — request frames, response frames and WAL records captured by
  ``golden/capture.py`` — and a data directory written by the commit
  before the table existed still recovers, replays and verifies;
* registering one more row is all a new operation takes.
"""

import asyncio
import dataclasses
import json
import random
import shutil

import pytest

from repro.core.messages import EncryptedPartial, EncryptedTuple, EncryptedTupleBlock
from repro.exceptions import ProtocolError, UnknownQueryError
from repro.net import client as client_mod
from repro.net import frames, ops
from repro.net.client import AsyncSSIClient
from repro.net.frames import QueryMeta, Writer
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport, Transport
from repro.obs import metrics as obs_metrics
from repro.ssi.server import SupportingServerInfrastructure
from repro.store import DurableStore, scan_segments, verify_data_dir
from repro.store.commitment import Commitment

from .conftest import run_async
from .golden import capture

GOLDEN = json.loads(capture.WIRE_FILE.read_text())

WIRE_OPS = [op for op in ops.TABLE if op.opcode is not None]
JOURNAL_ONLY = [op for op in ops.TABLE if op.opcode is None]


# ---------------------------------------------------------------------- #
# completeness
# ---------------------------------------------------------------------- #
class TestCompleteness:
    def test_every_request_opcode_has_exactly_one_row(self):
        declared = {
            value: name[len("MSG_"):].lower()
            for name, value in vars(frames).items()
            if name.startswith("MSG_") and value < frames.MSG_OK
        }
        assert {op.opcode: op.name for op in WIRE_OPS} == declared
        assert len(WIRE_OPS) == len(ops.BY_OPCODE) == len(declared)
        assert len({op.name for op in ops.TABLE}) == len(ops.TABLE)

    @pytest.mark.parametrize("op", WIRE_OPS, ids=lambda op: op.name)
    def test_every_row_has_a_dispatcher_handler_and_a_client_proxy(self, op):
        if op.handler:
            assert callable(getattr(SSIDispatcher, op.handler))
        if op.method:
            assert callable(getattr(SupportingServerInfrastructure, op.method))
        assert op.handler or op.method or op is ops.PING
        assert any(
            callable(getattr(AsyncSSIClient, name, None))
            for name in (op.name, op.method)
            if name
        )

    def test_the_remote_surface_is_what_a_tds_and_a_querier_say(self):
        assert [op.name for op in WIRE_OPS] == [
            "post_query", "fetch_query", "collected_count", "close_collection",
            "submit_partition_result", "ping", "submit_tuples_batch",
            "get_stats", "get_commitment", "get_health", "await_work",
            "await_result",
        ]
        assert len(ops.BY_OPCODE) == 12
        # the SSI's own steps: journaled, replayed, never callable — and
        # the record the retired per-item submission wrote, read only
        assert [(op.name, op.record) for op in JOURNAL_ONLY] == [
            ("submit_partials", 4), ("take_partials", 6),
            ("store_result_rows", 7), ("publish_result", 8),
            ("reset_aggregation", 9), ("submit_tuples", 2),
        ]
        for op in JOURNAL_ONLY:  # (durable: which records acks wait for)
            assert not (op.idem or op.handler), op.name
        # a keyed write is applied by a handler (dispatch has no keyed arm)
        assert all(op.handler for op in ops.TABLE if op.idem)

    def test_journaled_rows_cover_the_record_types(self):
        journaled = [op for op in ops.TABLE if op.record]
        assert sorted(op.record for op in journaled) == list(range(1, 10))
        assert ops.BY_RECORD == {op.record: op for op in journaled}
        assert ops.JOURNALED == {op.method: op for op in journaled}
        for op in journaled:
            assert callable(getattr(SupportingServerInfrastructure, op.method))
            # the ack of a journaled wire operation must wait for the WAL
            assert op.durable or op.opcode is None

    def test_the_acks_that_wait_for_the_store_are_the_ones_that_always_did(self):
        # what is left of the hand-kept _DURABLE_TYPES set, by metric
        # label — plus await_work (handing out work can close a
        # collection or advance a stage)
        assert {op.name for op in ops.TABLE if op.durable} == {
            "post_query", "submit_tuples_batch", "close_collection",
            "submit_partition_result", "get_commitment", "await_work",
            # journal-only rows: the records an ack waits for (with the
            # three journaled wire rows above) ...
            "store_result_rows", "publish_result", "reset_aggregation",
        }
        # ... and the two it does not: recovery recomputes partials
        assert not ops.SUBMIT_PARTIALS.durable and not ops.TAKE_PARTIALS.durable
        assert not ops.AWAIT_RESULT.durable  # a read
        # the rows whose handler may park name their hold last
        assert {op.name for op in ops.TABLE if ops.HOLD in op.request} == {
            "await_work", "await_result",
        }
        assert all(op.request[-1] is ops.HOLD for op in ops.TABLE
                   if ops.HOLD in op.request)
        assert {op.name for op in ops.TABLE if op.idem} == {
            "post_query", "submit_tuples_batch",
        }

    def test_the_rows_that_are_only_a_facade_call_are_these(self):
        """Decode, call the facade, encode — no dispatcher code, and no
        column that orders a read after writes: a write is applied
        before its ack.  A row that grows a handler shows up here."""
        assert {op.name for op in WIRE_OPS if not op.handler} == {
            "collected_count", "close_collection", "ping",
        }
        assert "flush" not in {field.name for field in dataclasses.fields(ops.Op)}

    def test_the_facade_journals_exactly_what_the_rows_declare(self):
        recorded = []

        class Spy:
            def record(self, method, *args, wire=None):
                ops.JOURNALED[method].write_request(Writer(), args)
                recorded.append(method)
                return len(recorded)

        ssi = SupportingServerInfrastructure()
        ssi.post_query(capture.envelope("q", size_tuples=2))
        ssi.journal = Spy()
        ssi.submit_tuples("q", [EncryptedTuple(b"a", None)])
        ssi.submit_tuple_block(
            "q", EncryptedTupleBlock.from_tuples([EncryptedTuple(b"b", b"t")])
        )
        assert ssi.evaluate_size_clause("q") is True
        ssi.close_collection("q")  # already closed: no second record
        ssi.submit_partials("q", [EncryptedPartial(b"p", None)])
        ssi.take_partials("q")
        ssi.store_result_rows("q", [b"r"])
        ssi.reset_aggregation("q")
        ssi.publish_result("q")
        assert recorded == [
            "submit_tuple_block", "submit_tuple_block", "close_collection",
            "submit_partials", "take_partials", "store_result_rows",
            "reset_aggregation", "publish_result",
        ]
        # post_query is journaled by the dispatcher (it holds the meta);
        # the per-item record is only read, from logs older than the row
        assert set(ops.JOURNALED) - set(recorded) == {"post_query", "submit_tuples"}

    def test_register_refuses_clashing_rows(self):
        for clash in (
            ops.Op(frames.MSG_PING, "ping_again", (), ops.NOTHING),
            ops.Op(0x3E, "ping", (), ops.NOTHING),
            ops.Op(frames.MSG_OK, "not_a_request", (), ops.NOTHING),
            ops.Op(0x3E, "rejournaled", (), ops.NOTHING, record=2, method="submit_tuples"),
            ops.Op(0x3E, "journaled_nowhere", (), ops.NOTHING, record=99),
        ):
            with pytest.raises(ValueError):
                ops.register(clash)
        assert 0x3E not in ops.BY_OPCODE and 99 not in ops.BY_RECORD


# ---------------------------------------------------------------------- #
# golden bytes
# ---------------------------------------------------------------------- #
class ReplayTransport(Transport):
    """Answers each request with the recorded response, after checking
    the request is byte-for-byte the recorded one."""

    def __init__(self, exchanges):
        self.exchanges = list(exchanges)
        self.position = 0

    async def request(self, message):
        request, response = self.exchanges[self.position]
        assert message.hex() == request, (
            f"request {self.position} differs from the golden bytes"
        )
        self.position += 1
        if response is None:  # get_stats: any text will do
            return frames.pack_frame(
                frames.MSG_OK, Writer().text("# no metrics").getvalue()
            )[frames.LENGTH_PREFIX_BYTES:]
        return bytes.fromhex(response)


class TestGoldenBytes:
    def test_client_proxies_encode_the_golden_requests(self):
        transport = ReplayTransport(GOLDEN["in_memory"])
        client = AsyncSSIClient(
            transport, rng=random.Random(GOLDEN["client_seed"])
        )
        # decoding is checked by the scenario's own assertions
        run_async(capture.scenario(client))
        assert transport.position == len(GOLDEN["in_memory"])

    def test_dispatcher_encodes_the_golden_responses(self):
        async def run():
            dispatcher = SSIDispatcher(clock=lambda: 0.0)
            transport = LoopbackTransport(dispatcher.dispatch)
            for index, (request, response) in enumerate(GOLDEN["in_memory"]):
                answer = await transport.request(bytes.fromhex(request))
                if response is not None:
                    assert answer.hex() == response, f"response {index}"

        run_async(run())

    def test_the_long_poll_rows_encode_their_pinned_bytes(self):
        """``await``: the section of the two parking rows, untouched
        since they were added — hold, empty answer, answers with a
        query, a unit, finished ids, a result."""
        transport = ReplayTransport(GOLDEN["await"])
        client = AsyncSSIClient(
            transport, rng=random.Random(GOLDEN["client_seed"])
        )
        run_async(capture.await_scenario(client))
        assert transport.position == len(GOLDEN["await"])

        async def run():
            dispatcher = SSIDispatcher(clock=lambda: 0.0)
            transport = LoopbackTransport(dispatcher.dispatch)
            for index, (request, response) in enumerate(GOLDEN["await"]):
                answer = await transport.request(bytes.fromhex(request))
                assert answer.hex() == response, f"await response {index}"

        run_async(run())
        by_opcode = {}
        for request, response in GOLDEN["await"]:
            by_opcode.setdefault(bytes.fromhex(request)[5], []).append(response)
        # distinct shapes of each row's answer are pinned, not one
        assert len(set(by_opcode[frames.MSG_AWAIT_WORK])) == 5
        assert len(set(by_opcode[frames.MSG_AWAIT_RESULT])) == 2

    def test_every_opcode_is_in_the_golden_file(self):
        covered = {bytes.fromhex(q)[5] for q, _ in GOLDEN["in_memory"]}
        covered |= {bytes.fromhex(q)[5] for q in GOLDEN["durable_requests"]}
        assert covered == set(ops.BY_OPCODE)
        assert {bytes.fromhex(q)[5] for q, _ in GOLDEN["await"]} >= {
            frames.MSG_AWAIT_WORK, frames.MSG_AWAIT_RESULT,
        }
        # A live dispatcher writes every record type but one: type 2,
        # the retired per-item submission's, is read only — pinned by
        # the parent data dir, whose log holds one.
        written = {bytes.fromhex(body)[0] for _, body in GOLDEN["wal"]}
        read_only = {ops.SUBMIT_TUPLES.record}
        assert written == set(ops.BY_RECORD) - read_only
        parent_log = scan_segments(capture.DATA_DIR / "wal", mode="verify").records
        assert {body[0] for _, body in parent_log} >= read_only

    def test_wal_records_and_chain_match_the_golden_bytes(self, tmp_path):
        """Also the attach rule: an ack carries EXT_COMMITMENT exactly
        when handling its request appended a durable-row record."""

        async def run():
            store = DurableStore.open(
                tmp_path, fsync_policy="none", snapshot_every=8
            )
            dispatcher = SSIDispatcher.with_store(store, clock=lambda: 0.0)
            transport = LoopbackTransport(dispatcher.dispatch)
            attested = 0
            for request in GOLDEN["durable_requests"]:
                before = store.journal.durable_seq
                answer = await transport.request(bytes.fromhex(request))
                msg_type, _, exts, _ = frames.unpack_frame_ext(answer)
                assert (frames.EXT_COMMITMENT in exts) == (
                    store.journal.durable_seq != before
                )
                if frames.EXT_COMMITMENT in exts:
                    assert msg_type == frames.MSG_OK
                    seen = Commitment.from_wire(exts[frames.EXT_COMMITMENT])
                    assert seen.count == store.last_seq
                    attested += 1
            assert attested >= 11
            store.close()
            # the restart that journals q-crashed's reset record
            store = DurableStore.open(
                tmp_path, fsync_policy="none", snapshot_every=8
            )
            SSIDispatcher.with_store(store, clock=lambda: 0.0)
            head = store.commitment()
            store.close()
            return head

        head = run_async(run())
        records = scan_segments(tmp_path / "wal", mode="verify").records
        assert [[seq, bytes(body).hex()] for seq, body in records] == GOLDEN["wal"]
        assert [head.count, head.head.hex()] == GOLDEN["commitment"]

    def test_a_data_dir_written_by_the_parent_commit_recovers(self, tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(capture.DATA_DIR, data_dir)
        count, head = GOLDEN["parent_data_dir_commitment"]
        report = verify_data_dir(data_dir)
        assert report["commitment_count"] == count
        assert report["commitment_head"] == head

        async def run():
            store = DurableStore.open(data_dir)
            assert store.recovered.replayed_records == 1  # the reset record
            dispatcher = SSIDispatcher.with_store(store)
            client = AsyncSSIClient(LoopbackTransport(dispatcher.dispatch))
            result = await client.await_result("q-driver", 0.0)
            assert result.encrypted_rows == (b"row-1", b"row-2")
            # its snapshot's per-tuple lane is read as the leading block
            assert await client.collected_count("q-driver") == 4
            assert await client.collected_count("q-crashed") == 4
            assert dispatcher.ssi.partial_count("q-crashed") == 0  # reset
            assert not dispatcher.ssi.result_ready("q-crashed")
            # the parent client's keys are still recognised as applied
            parent_id = f"{random.Random(GOLDEN['client_seed']).getrandbits(64):016x}"
            assert dispatcher.idempotency.seen(parent_id, 1)
            current = await client.get_commitment(
                Commitment(count, bytes.fromhex(head))
            )
            assert current.count == count
            store.close(dispatcher.capture_state())

        run_async(run())
        assert verify_data_dir(data_dir)["clean"] is True

    def test_the_parent_logs_per_item_record_replays(self, tmp_path):
        """Record type 2 is read, never written: the parent's log holds
        one (seq 3, q-driver's per-item submission), and without the
        snapshots that cover it recovery replays all 25 records."""
        data_dir = tmp_path / "data"
        shutil.copytree(capture.DATA_DIR, data_dir)
        shutil.rmtree(data_dir / "snapshots")
        records = scan_segments(data_dir / "wal", mode="verify").records
        assert [body[0] for _, body in records].count(ops.SUBMIT_TUPLES.record) == 1
        assert verify_data_dir(data_dir)["commitment_count"] == 25
        store = DurableStore.open(data_dir)
        try:
            assert store.recovered.replayed_records == 25
            ssi = store.recovered.ssi
            assert [t.payload for t in ssi.covering_result("q-driver").tuples()] == [
                b"ct-1", b"ct-2", b"ct-3", b"ct-4",
            ]
            assert ssi.result_ready("q-driver") and ssi.result_ready("q-fleet")
        finally:
            store.close()


# ---------------------------------------------------------------------- #
# one row is all a new operation takes
# ---------------------------------------------------------------------- #
@pytest.fixture
def scratch_op():
    op = ops.register(ops.Op(
        0x3E, "scratch_count", (ops.QUERY_ID,), ops.I64,
        method="partial_count",
    ))
    try:
        yield op
    finally:
        ops.TABLE.remove(op)
        del ops.BY_OPCODE[op.opcode]


class TestRequestBudget:
    def test_a_64_tds_sagg_query_costs_at_most_three_requests_per_device(self):
        """The count that replaced the poll loop's timing: contribute,
        ask again, and on average one more exchange per device for the
        22 partitions — 536 requests at the parent, 192 allowed here."""
        from repro.net.client import QuerierClient
        from repro.net.fleet import FleetRunner

        from .conftest import GROUP_SQL, build_deployment, sorted_rows

        def requests_total():
            samples = obs_metrics.REGISTRY.snapshot()["repro_ssi_requests_total"]
            return sum(samples.values())

        async def run():
            dep = build_deployment(64)
            dispatcher = SSIDispatcher(dep.ssi)
            connect = lambda: LoopbackTransport(dispatcher.dispatch)  # noqa: E731
            fleet = FleetRunner(dep.tds_list, connect, rng=random.Random(1))
            fleet_task = asyncio.create_task(fleet.run(until_queries_done=1))
            while len(dispatcher._parked_work) < 64:
                await asyncio.sleep(0.005)
            querier, client = dep.make_querier(), QuerierClient(connect())
            before = requests_total()
            query = querier.make_envelope(GROUP_SQL)
            await client.post_query(query, meta=QueryMeta("s_agg"))
            result = await client.wait_result(query.query_id)
            await fleet_task
            spent = requests_total() - before
            assert sorted_rows(querier.decrypt_result(result)) == sorted_rows(
                dep.reference_answer(GROUP_SQL)
            )
            stats = dispatcher.coordinators[query.query_id].stats
            assert stats.partitions_processed >= 20
            assert spent <= 192, spent

        run_async(run())


class TestAddingARow:
    def test_a_registered_row_is_dispatched_proxied_and_labelled(
        self, scratch_op
    ):
        class Client(AsyncSSIClient):
            scratch_count = client_mod._proxy(scratch_op)

        dispatcher = SSIDispatcher()

        async def run():
            client = Client(LoopbackTransport(dispatcher.dispatch))
            await client.post_query(capture.envelope("q"))
            dispatcher.ssi.submit_partials("q", [EncryptedPartial(b"p", None)])
            assert await client.scratch_count("q") == 1
            assert await client.scratch_count(query_id="q") == 1
            assert await client.call(scratch_op, "q") == 1
            with pytest.raises(TypeError, match="query_id"):
                await client.scratch_count()

        run_async(run())
        samples = obs_metrics.REGISTRY.snapshot()["repro_ssi_requests_total"]
        label = (("msg_type", "scratch_count"), ("outcome", "ok"))
        assert samples[label] >= 3

    def test_a_row_with_an_async_parking_handler(self, monkeypatch):
        """A handler may be a coroutine, and one whose last request
        field is the hold gets a ``_Hold`` and may park."""
        op = ops.register(ops.Op(
            0x3D, "scratch_wait", (ops.QUERY_ID, ops.HOLD), ops.BOOL,
            handler="_scratch_wait",
        ))

        async def _scratch_wait(self, held, query_id, hold):
            await asyncio.sleep(hold)
            held.parked += hold
            return self.ssi.result_ready(query_id)

        monkeypatch.setattr(
            SSIDispatcher, "_scratch_wait", _scratch_wait, raising=False
        )
        try:
            dispatcher = SSIDispatcher()

            async def run():
                client = AsyncSSIClient(LoopbackTransport(dispatcher.dispatch))
                await client.post_query(capture.envelope("q"))
                assert await client.call(op, "q", 0.05) is False
                dispatcher.ssi.publish_result("q")
                assert await client.call(op, "q", 0.0) is True
                with pytest.raises(UnknownQueryError):
                    await client.call(op, "q-missing", 0.0)

            run_async(run())
            seconds = obs_metrics.REGISTRY.snapshot()["repro_ssi_request_seconds"]
            sample = seconds[(("msg_type", "scratch_wait"),)]
            # three requests handled; the 0.05 s one of them waited is
            # reported as parked and left out of its handling time
            assert sample["count"] >= 3 and sample["sum"] < 0.05
        finally:
            ops.TABLE.remove(op)
            del ops.BY_OPCODE[op.opcode]

    def test_an_unregistered_opcode_is_an_unknown_op(self):
        async def run():
            response = await SSIDispatcher().dispatch(
                frames.pack_frame(0x3E, b"")[frames.LENGTH_PREFIX_BYTES:]
            )
            msg_type, _, _, reader = frames.unpack_frame_ext(response[4:])
            assert msg_type == frames.MSG_ERROR
            assert reader.u8() == frames.ERR_UNKNOWN_OP

        run_async(run())

    def test_a_journal_only_row_is_not_a_wire_operation(self):
        async def run():
            client = AsyncSSIClient(LoopbackTransport(SSIDispatcher().dispatch))
            for op in JOURNAL_ONLY:
                with pytest.raises(ProtocolError, match="not a wire operation"):
                    await client.call(op, "q")

        run_async(run())
