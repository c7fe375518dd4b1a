"""Admission control at the wire level.

The quota must be enforced where untrusted queriers actually arrive —
the dispatcher — not in library code a client could skip: an over-quota
``post_query`` is answered with ``ERR_ADMISSION`` carrying the server's
``retry_after`` hint, the client backs off at least that long before
retrying, and a retry after a result publishes succeeds (the quota frees
lazily).  The byte quota is charged and released around each apply —
a submission is applied in the call that accepted it, so all the quota
can do is refuse one submission whose wire size alone exceeds it.
"""

import asyncio
import random

import pytest

from repro.core.messages import Credential, EncryptedTuple, QueryEnvelope
from repro.exceptions import AdmissionError, ProtocolError
from repro.net.client import AsyncSSIClient, QuerierClient, RetryPolicy
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.ssi.admission import AdmissionPolicy

from .conftest import run_async

NO_RETRY = RetryPolicy(max_retries=0, backoff_base=0.0, jitter=0.0)


def envelope_for(subject, query_id):
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=b"\x01\x02ciphertext",
        credential=Credential(subject, frozenset({"public"}), b"sig"),
        size_tuples=None,
        size_seconds=None,
    )


_CLIENT_SEED = [0]


def loopback_client(dispatcher, policy=NO_RETRY, sleep=None):
    # distinct rng per client: the rng seeds the idempotency client id,
    # and two clients sharing one would replay-shadow each other
    _CLIENT_SEED[0] += 1
    kwargs = {"sleep": sleep} if sleep is not None else {}
    return AsyncSSIClient(
        LoopbackTransport(dispatcher.dispatch),
        policy,
        rng=random.Random(_CLIENT_SEED[0]),
        **kwargs,
    )


class TestQueryQuotaOverTheWire:
    def test_over_quota_post_is_err_admission_with_hint(self):
        async def run():
            dispatcher = SSIDispatcher(
                admission=AdmissionPolicy(max_active_queries=1, retry_after=0.07)
            )
            client = loopback_client(dispatcher)
            await client.post_query(envelope_for("alice", "q1"))
            with pytest.raises(AdmissionError) as excinfo:
                await client.post_query(envelope_for("alice", "q2"))
            assert excinfo.value.retry_after == pytest.approx(0.07)

        run_async(run())

    def test_quota_is_per_querier_on_the_wire(self):
        async def run():
            dispatcher = SSIDispatcher(
                admission=AdmissionPolicy(max_active_queries=1)
            )
            alice = loopback_client(dispatcher)
            bob = loopback_client(dispatcher)
            await alice.post_query(envelope_for("alice", "qa"))
            # alice being at quota must not cost bob anything
            await bob.post_query(envelope_for("bob", "qb"))

        run_async(run())

    def test_client_backoff_honours_retry_after(self):
        """Every sleep between admission retries is at least the
        server's hint — the client must not hammer a saturated SSI on
        its own (much shorter) exponential schedule."""

        async def run():
            dispatcher = SSIDispatcher(
                admission=AdmissionPolicy(max_active_queries=1, retry_after=0.2)
            )
            slept = []

            async def spy_sleep(delay):
                slept.append(delay)

            client = loopback_client(
                dispatcher,
                RetryPolicy(max_retries=2, backoff_base=0.001, jitter=0.0),
                sleep=spy_sleep,
            )
            await client.post_query(envelope_for("alice", "q1"))
            with pytest.raises(AdmissionError):
                await client.post_query(envelope_for("alice", "q2"))
            assert client.retries == 2
            assert slept and all(delay >= 0.2 for delay in slept)

        run_async(run())

    def test_retry_succeeds_once_a_result_publishes(self):
        """The quota frees when a query finishes; the backoff window is
        exactly the time for that to happen.  Publish q1 during the
        client's admission sleep and the retry of q2 must be admitted."""

        async def run():
            dispatcher = SSIDispatcher(
                admission=AdmissionPolicy(max_active_queries=1, retry_after=0.01)
            )

            async def publishing_sleep(_delay):
                dispatcher.ssi.store_result_rows("q1", [b"row"])
                dispatcher.ssi.publish_result("q1")

            client = loopback_client(
                dispatcher,
                RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0),
                sleep=publishing_sleep,
            )
            await client.post_query(envelope_for("alice", "q1"))
            await client.post_query(envelope_for("alice", "q2"))
            assert client.retries == 1

        run_async(run())

    def test_admission_error_travels_over_tcp(self):
        async def run():
            dispatcher = SSIDispatcher(
                admission=AdmissionPolicy(max_active_queries=1, retry_after=0.09)
            )
            server = SSIServer(dispatcher)
            await server.start()
            client = QuerierClient(
                TCPTransport("127.0.0.1", server.port),
                NO_RETRY,
                rng=random.Random(12),
            )
            try:
                await client.post_query(envelope_for("alice", "q1"))
                with pytest.raises(AdmissionError) as excinfo:
                    await client.post_query(envelope_for("alice", "q2"))
                assert excinfo.value.retry_after == pytest.approx(0.09)
                # the connection survives a policy rejection
                assert await client.collected_count("q1") == 0
            finally:
                await client.close()
                await server.close()

        run_async(run())


class TestByteQuotaOverTheWire:
    def test_pending_bytes_quota_rejects_submission(self):
        """Nothing is ever left charged, so what the quota bounds is the
        wire size of one submission."""

        async def run():
            dispatcher = SSIDispatcher(
                admission=AdmissionPolicy(max_pending_bytes=64, retry_after=0.07)
            )
            client = loopback_client(dispatcher)
            await client.post_query(envelope_for("alice", "q1"))
            await client.submit_tuples("q1", [EncryptedTuple(b"x" * 30, None)])
            with pytest.raises(AdmissionError) as excinfo:
                await client.submit_tuples(
                    "q1", [EncryptedTuple(b"y" * 60, None)]
                )
            assert excinfo.value.retry_after == pytest.approx(0.07)
            # the one before it was applied and released: 30 + 30 fits
            await client.submit_tuples("q1", [EncryptedTuple(b"z" * 30, None)])
            assert dispatcher.ssi.collected_count("q1") == 2

        run_async(run())

    def test_applied_submissions_release_their_bytes(self):
        """The charge comes off with the apply, whether it went through
        or raised — steady-state throughput is unlimited."""

        async def run():
            dispatcher = SSIDispatcher(
                admission=AdmissionPolicy(max_pending_bytes=64)
            )
            client = loopback_client(dispatcher)
            await client.post_query(envelope_for("alice", "q1"))
            for i in range(5):  # 5 × 40 bytes, fine one at a time
                await client.submit_tuples(
                    "q1", [EncryptedTuple(bytes([i]) * 40, None)]
                )
                assert dispatcher.admission.pending_bytes("alice") == 0
            assert dispatcher.ssi.collected_count("q1") == 5

            def failing(*args, **kwargs):
                raise OSError("disk full")

            dispatcher.ssi.submit_tuples = failing
            with pytest.raises(ProtocolError, match="internal server error"):
                await client.submit_tuples("q1", [EncryptedTuple(b"f" * 40, None)])
            assert dispatcher.admission.pending_bytes("alice") == 0

        run_async(run())

    def test_rejected_submission_is_not_applied(self):
        """An over-quota submission leaves no trace: not applied, not
        charged, and its idempotency key unmarked — the client's retry
        (the same bytes) is a real execution once the limit allows."""

        async def run():
            dispatcher = SSIDispatcher(
                admission=AdmissionPolicy(max_pending_bytes=64)
            )

            async def raising_the_limit(_delay):
                assert dispatcher.ssi.collected_count("q1") == 0
                assert dispatcher.admission.pending_bytes("alice") == 0
                assert not dispatcher.idempotency.seen(client._client_id, 2)
                dispatcher.admission.policy = AdmissionPolicy(max_pending_bytes=128)

            client = loopback_client(
                dispatcher,
                RetryPolicy(max_retries=1, backoff_base=0.0, jitter=0.0),
                sleep=raising_the_limit,
            )
            await client.post_query(envelope_for("alice", "q1"))  # seq 1
            await client.submit_tuples(  # seq 2, both attempts
                "q1", [EncryptedTuple(b"y" * 60, None)]
            )
            assert client.retries == 1
            assert dispatcher.ssi.collected_count("q1") == 1
            assert dispatcher.idempotency.seen(client._client_id, 2)
            assert dispatcher.admission.pending_bytes("alice") == 0

        run_async(run())
