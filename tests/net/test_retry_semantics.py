"""Retry-safety of the wire protocol: timeouts, replays, stale results.

Three failure shapes the review of the network runtime called out:

* a request *timeout* abandons a TCP exchange mid-flight — the retry
  must reconnect on a clean stream, never read the stale response the
  timed-out request left behind;
* a *lost response* to a mutating request makes the client resend it —
  the dispatcher must drop the replay (idempotency key) instead of
  double-applying tuples/partials/rows or raising a spurious
  ``DuplicateQueryError``;
* a *stale partition result* (a timed-out TDS finally replying after
  the round advanced) must be dropped by the coordinator, and a failed
  fleet contribution must be retried on the next poll.
"""

import asyncio
import random

import pytest

from repro.core.messages import EncryptedPartial, EncryptedTuple
from repro.exceptions import DuplicateQueryError, TransportError
from repro.net import frames
from repro.net.client import AsyncSSIClient, QuerierClient, RetryPolicy
from repro.net.coordinator import QueryCoordinator
from repro.net.fleet import FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.ssi.server import SupportingServerInfrastructure

from .conftest import (
    GROUP_SQL,
    build_deployment,
    make_histogram,
    run_async,
    run_driver_inproc,
    sample,
    sorted_rows,
)
from .test_frames import make_envelope

FAST_RETRY = dict(request_timeout=0.05, max_retries=3, backoff_base=0.001)


class DelayedResponseDispatcher(SSIDispatcher):
    """Applies the request, then (once, while armed) delays the response
    past the client's request timeout: 'the server did it, but the
    answer was lost in flight'."""

    def __init__(self, *args, delay=0.4, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay = delay
        self.arm = False

    async def dispatch(self, body):
        response = await super().dispatch(body)
        if self.arm:
            self.arm = False
            await asyncio.sleep(self.delay)
        return response


class ResponseLostTransport(LoopbackTransport):
    """Loopback transport that applies the request server-side, then
    (once, while armed) loses the response — forcing a byte-identical
    retry from the client."""

    def __init__(self, dispatch):
        super().__init__(dispatch)
        self.arm = False

    async def request(self, message):
        response = await super().request(message)
        if self.arm:
            self.arm = False
            raise TransportError("response lost")
        return response


async def delayed_tcp_fixture():
    dispatcher = DelayedResponseDispatcher()
    server = SSIServer(dispatcher)
    await server.start()
    client = AsyncSSIClient(
        TCPTransport("127.0.0.1", server.port),
        RetryPolicy(**FAST_RETRY),
        rng=random.Random(1),
    )
    return dispatcher, server, client


def lossy_loopback_client():
    dispatcher = SSIDispatcher()
    transport = ResponseLostTransport(dispatcher.dispatch)
    client = AsyncSSIClient(
        transport,
        RetryPolicy(max_retries=2, backoff_base=0.0),
        rng=random.Random(2),
    )
    return dispatcher, transport, client


class TestTimeoutStreamHygiene:
    def test_timed_out_request_never_desyncs_the_stream(self):
        """A timeout abandons the exchange; the retry reconnects instead
        of reading the timed-out request's late response as its own."""

        async def run():
            dispatcher, server, client = await delayed_tcp_fixture()
            try:
                await client.post_query(make_envelope("q1"))
                dispatcher.arm = True
                await client.ping()  # first attempt times out, retry succeeds
                assert client.retries >= 1
                # On a desynced stream this would decode ping's stale OK
                # frame as an envelope and blow up.
                envelope, __ = await client.fetch_query("q1")
                assert envelope.query_id == "q1"
            finally:
                await client.close()
                await server.close()

        run_async(run())

    def test_timed_out_post_query_retry_is_not_a_duplicate(self):
        """The server applied the post; the response timed out.  The
        retry replays the same idempotency key and must be acknowledged,
        not answered with ``ERR_DUPLICATE_QUERY``."""

        async def run():
            dispatcher, server, client = await delayed_tcp_fixture()
            try:
                dispatcher.arm = True
                await client.post_query(make_envelope("q2"))
                assert client.retries >= 1
                envelope, __ = await client.fetch_query("q2")
                assert envelope.query_id == "q2"
            finally:
                await client.close()
                await server.close()

        run_async(run())


class TestIdempotentReplays:
    def test_submit_tuples_replay_is_not_double_applied(self):
        async def run():
            __, transport, client = lossy_loopback_client()
            await client.post_query(make_envelope("q1"))
            transport.arm = True
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"blob", None)])
            assert client.retries == 1
            assert await client.collected_count("q1") == 1
            # a *new* logical submission (fresh sequence number) applies
            await client.submit_tuples_batch("q1", [EncryptedTuple(b"blob2", None)])
            assert await client.collected_count("q1") == 2

        run_async(run())

    def test_replay_ok_but_fresh_duplicate_post_still_errors(self):
        async def run():
            __, transport, client = lossy_loopback_client()
            transport.arm = True
            await client.post_query(make_envelope("q1"))  # applied + replayed
            with pytest.raises(DuplicateQueryError):
                await client.post_query(make_envelope("q1"))  # new logical call

        run_async(run())


class TestStalePartitionResults:
    @staticmethod
    def make_coordinator(num_items=2):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope("q1"))
        ssi.submit_tuples(
            "q1", [EncryptedTuple(bytes([i]), None) for i in range(num_items)]
        )
        ssi.close_collection("q1")
        return ssi, QueryCoordinator(ssi, "q1", QueryMeta(protocol="s_agg"))

    def test_unknown_partition_id_is_dropped_not_raised(self):
        ssi, coord = self.make_coordinator()
        unit = coord.next_work("tds-a", now=0.0)
        assert unit is not None
        # A ghost reply with an id the live tracker never issued (e.g. a
        # previous round's partition) is ignored entirely.
        coord.complete(
            9999,
            "tds-ghost",
            frames.RESULT_PARTIALS,
            [EncryptedPartial(b"stale", None)],
            [],
        )
        assert ssi.partial_count("q1") == 0
        assert coord.stats.partitions_processed == 0
        # ...and the live assignment still completes normally.
        coord.complete(
            unit.partition_id,
            "tds-a",
            frames.RESULT_PARTIALS,
            [EncryptedPartial(b"live", None)],
            [],
        )
        assert coord.stats.partitions_processed == 1

    def test_assignable_counts_what_next_work_would_hand_out(self):
        """What the dispatcher releases parked devices by."""
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope("q1"))
        ssi.submit_tuples("q1", [EncryptedTuple(bytes([i]), None) for i in range(8)])
        coord = QueryCoordinator(
            ssi, "q1", QueryMeta("s_agg", {"alpha": 4.0}), partition_timeout=5.0
        )
        assert coord.assignable(now=0.0) == 0          # still collecting
        assert coord.next_work("tds-a", now=0.0) is None
        ssi.close_collection("q1")
        assert coord.assignable(now=0.0) == 2          # starts aggregation
        unit = coord.next_work("tds-a", now=0.0)
        assert coord.assignable(now=4.9) == 1
        assert coord.next_work("tds-b", now=4.9) is not None
        assert coord.assignable(now=4.9) == 0
        assert coord.next_work("tds-c", now=4.9) is None
        assert coord.assignable(now=5.0) == 1          # tds-a timed out
        assert coord.stats.reassigned_partitions == 1
        again = coord.next_work("tds-c", now=5.0)
        assert again.partition_id == unit.partition_id

    def test_partition_ids_unique_across_rounds(self):
        """The coordinator numbers every partition it cuts, so a stale
        reply from an earlier round can never alias a live one."""
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope("q1"))
        ssi.submit_tuples("q1", [EncryptedTuple(bytes([i]), None) for i in range(8)])
        ssi.close_collection("q1")
        coord = QueryCoordinator(ssi, "q1", QueryMeta("s_agg", {"alpha": 2.0}))
        ids = []
        while (unit := coord.next_work("tds-a", now=0.0)) is not None:
            ids.append(unit.partition_id)
            if unit.kind == frames.WORK_FINALIZE:
                coord.complete(unit.partition_id, "tds-a", frames.RESULT_ROWS, [], [b"r"])
            else:
                partial = EncryptedPartial(b"p%d" % unit.partition_id, None)
                coord.complete(
                    unit.partition_id, "tds-a", frames.RESULT_PARTIALS, [partial], []
                )
        assert coord.done()
        assert coord.stats.aggregation_rounds == 3  # 8 -> 4 -> 2 -> 1
        assert len(ids) == 4 + 2 + 1 + 1
        assert len(set(ids)) == len(ids)

    def test_completion_before_any_work_is_a_noop(self):
        ssi = SupportingServerInfrastructure()
        ssi.post_query(make_envelope("q1"))
        coord = QueryCoordinator(ssi, "q1", QueryMeta(protocol="s_agg"))
        coord.complete(0, "tds-a", frames.RESULT_PARTIALS, [], [])
        assert coord.stats.partitions_processed == 0

    def test_stale_submit_over_the_wire_returns_ok(self):
        """The wire path: a stale submit_partition_result must not kill
        the worker's exchange with a typed error."""

        async def run():
            dispatcher = SSIDispatcher()
            client = AsyncSSIClient(
                LoopbackTransport(dispatcher.dispatch), rng=random.Random(3)
            )
            await client.post_query(
                make_envelope("q1"), meta=QueryMeta(protocol="s_agg")
            )
            await client.submit_partition_result(
                "q1", 12345, "tds-x", partials=[EncryptedPartial(b"p", None)]
            )  # no exception: dropped server-side

        run_async(run())


class FailFirstSubmitTransport(TCPTransport):
    """Fails the first ``submit_tuples_batch`` request fleet-wide, before it
    reaches the wire — the contribution must be retried on a later poll."""

    def __init__(self, host, port, state):
        super().__init__(host, port)
        self.state = state

    async def request(self, message):
        # frame layout: 4-byte length, version byte, then the msg type
        if not self.state["fired"] and message[5] == frames.MSG_SUBMIT_TUPLES_BATCH:
            self.state["fired"] = True
            raise TransportError("injected: submission lost before the wire")
        return await super().request(message)


class TestContributionRetry:
    def test_failed_contribution_is_retried_on_next_poll(self):
        """With client retries disabled, a lost contribution must not be
        marked contributed — otherwise a no-SIZE query never closes and
        the run hangs."""

        async def run():
            dep = build_deployment(4)
            dispatcher = SSIDispatcher(dep.ssi, partition_timeout=0.5)
            server = SSIServer(dispatcher)
            await server.start()
            state = {"fired": False}
            fleet = FleetRunner(
                dep.tds_list,
                lambda: FailFirstSubmitTransport(
                    "127.0.0.1", server.port, state
                ),
                histogram=make_histogram(dep),
                policy=RetryPolicy(max_retries=0, backoff_base=0.001),
                poll_interval=0.01,
                rng=random.Random(5),
            )
            fleet_task = asyncio.create_task(fleet.run(until_queries_done=1))
            try:
                querier = dep.make_querier()
                envelope = querier.make_envelope(GROUP_SQL)
                qclient = QuerierClient(TCPTransport("127.0.0.1", server.port))
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
                assert state["fired"]
                assert fleet.stats.contributions == 4
                return rows
            finally:
                fleet.stop()
                await server.close()

        rows = run_async(run())
        assert rows == run_driver_inproc("s_agg", GROUP_SQL, num_tds=4)


class ConcurrencyProbeDispatcher(SSIDispatcher):
    """Counts how many requests are inside ``dispatch`` simultaneously;
    pings are held open so overlap is observable."""

    def __init__(self, *args, hold=0.03, **kwargs):
        super().__init__(*args, **kwargs)
        self.hold = hold
        self.in_flight = 0
        self.max_in_flight = 0

    async def dispatch(self, body):
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            if body[1] == frames.MSG_PING:
                await asyncio.sleep(self.hold)
            return await super().dispatch(body)
        finally:
            self.in_flight -= 1


class JitterDispatcher(SSIDispatcher):
    """Delays each response by a seeded random amount so responses come
    back in a different order than the requests went out."""

    def __init__(self, *args, seed=9, **kwargs):
        super().__init__(*args, **kwargs)
        self._jitter = random.Random(seed)

    async def dispatch(self, body):
        response = await super().dispatch(body)
        await asyncio.sleep(self._jitter.uniform(0.0, 0.05))
        return response


def connects():
    """TCP connections client transports have established so far."""
    return sample("repro_transport_connects_total")


async def pipelined_tcp_fixture(dispatcher, window):
    server = SSIServer(dispatcher)
    await server.start()
    client = AsyncSSIClient(
        TCPTransport("127.0.0.1", server.port, window=window),
        RetryPolicy(max_retries=0, backoff_base=0.001),
        rng=random.Random(4),
    )
    return server, client


class TestPipelining:
    """The v3 multiplexed exchange: many requests in flight on one
    connection, responses routed by correlation id."""

    def test_requests_overlap_on_one_connection(self):
        async def run():
            dispatcher = ConcurrencyProbeDispatcher()
            server, client = await pipelined_tcp_fixture(dispatcher, window=8)
            try:
                await asyncio.gather(*(client.ping() for __ in range(5)))
                assert dispatcher.max_in_flight >= 2
            finally:
                await client.close()
                await server.close()

        run_async(run())

    def test_window_full_applies_backpressure(self):
        """window=1 degrades to serial request/response: the second
        request must not reach the server while the first is open."""

        async def run():
            dispatcher = ConcurrencyProbeDispatcher()
            server, client = await pipelined_tcp_fixture(dispatcher, window=1)
            try:
                await asyncio.gather(*(client.ping() for __ in range(5)))
                assert dispatcher.max_in_flight == 1
            finally:
                await client.close()
                await server.close()

        run_async(run())

    def test_out_of_order_completion(self):
        """A slow request must not head-of-line-block a fast one issued
        after it; each completion resolves its own caller."""

        async def run():
            dispatcher = ConcurrencyProbeDispatcher(hold=0.15)
            server, client = await pipelined_tcp_fixture(dispatcher, window=8)
            try:
                await client.post_query(make_envelope("q1"))
                order = []

                async def slow_ping():
                    await client.ping()  # held 0.15s server-side
                    order.append("ping")

                async def fast_fetch():
                    envelope, __ = await client.fetch_query("q1")
                    order.append("fetch")
                    return envelope

                __, envelope = await asyncio.gather(slow_ping(), fast_fetch())
                assert order == ["fetch", "ping"]
                assert envelope.query_id == "q1"
            finally:
                await client.close()
                await server.close()

        run_async(run())

    def test_interleaved_responses_route_by_correlation_id(self):
        async def run():
            dispatcher = JitterDispatcher()
            server, client = await pipelined_tcp_fixture(dispatcher, window=16)
            try:
                ids = [f"q{i}" for i in range(8)]
                for query_id in ids:
                    await client.post_query(make_envelope(query_id))
                envelopes = await asyncio.gather(
                    *(client.fetch_query(query_id) for query_id in ids)
                )
                assert [e.query_id for e, __ in envelopes] == ids
            finally:
                await client.close()
                await server.close()

        run_async(run())

    def test_timed_out_corr_id_is_dropped_without_reconnect(self):
        """PR 3 reconnected after a timeout because one stream carried
        one exchange; under pipelining the timed-out correlation id is
        simply abandoned — its late response is dropped on arrival and
        the *same* connection keeps serving."""

        async def run():
            dispatcher, server, client = await delayed_tcp_fixture()
            try:
                await client.ping()  # establish the connection
                transport = client.transport
                connects_before = connects()
                dispatcher.arm = True
                await client.ping()  # attempt 1 times out; retry succeeds
                assert client.retries >= 1
                assert connects() == connects_before
                # the timed-out exchange left nothing pending
                assert not transport._pending
                # let the delayed (late) response for the abandoned corr
                # id arrive: it must be dropped, not desync the stream
                await asyncio.sleep(0.5)
                await client.post_query(make_envelope("q9"))
                envelope, __ = await client.fetch_query("q9")
                assert envelope.query_id == "q9"
                assert connects() == connects_before
            finally:
                await client.close()
                await server.close()

        run_async(run())
