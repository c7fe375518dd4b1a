"""Capture golden wire and WAL bytes from a checkout's own encoders.

Run against the commit whose bytes are the reference::

    PYTHONPATH=<checkout>/src python tests/net/golden/capture.py

rewrites the ``in_memory`` / ``durable_requests`` / ``wal`` /
``commitment`` sections of ``ops_v4.json`` and nothing else:
``--await-only`` rewrites the ``await`` section instead (its own
dispatcher and client), and ``parent_data_dir`` with its
``parent_data_dir_commitment`` stays what the parent of the op-table
change wrote — a log whose aggregation records (types 4 and 7) still
carry the idempotency keys of the wire rows that commit had.

:func:`scenario` touches every wire operation once through the public
client API only, so the same calls can be replayed against any later
build (``tests/net/test_ops_table.py`` does) and must produce the same
request frames, the same response frames and the same WAL records.
"""

from __future__ import annotations

import asyncio
import json
import random
import tempfile
from pathlib import Path

from repro.core.messages import (
    Credential,
    EncryptedPartial,
    EncryptedTuple,
    QueryEnvelope,
)
from repro.exceptions import ResultNotReadyError, UnknownQueryError
from repro.net import frames
from repro.net.client import AsyncSSIClient
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport
from repro.store import DurableStore, scan_segments

HERE = Path(__file__).parent
WIRE_FILE = HERE / "ops_v4.json"
DATA_DIR = HERE / "parent_data_dir"

CLIENT_SEED = 7


def envelope(query_id: str, **size: object) -> QueryEnvelope:
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=b"\x01\x02enc:" + query_id.encode(),
        credential=Credential("alice", frozenset({"analyst", "auditor"}), b"sig"),
        **size,  # type: ignore[arg-type]
    )


async def scenario(client: AsyncSSIClient) -> None:
    """Every wire operation once: a query posted without a protocol row
    (collected and counted, never published), a personal querybox post,
    a fleet-mode S_Agg query worked to completion by one device, the
    attestation/observability ops and two typed errors.  Holds are zero:
    nothing parks."""
    await client.ping()
    await client.post_query(envelope("q-driver", size_tuples=3))
    await client.post_query(envelope("q-personal", size_seconds=2.5), "tds-7")
    await client.fetch_query("q-driver")
    await client.submit_tuples(
        "q-driver", [EncryptedTuple(b"ct-1", None), EncryptedTuple(b"ct-2", b"tag")]
    )
    await client.submit_tuples_batch(
        "q-driver", [EncryptedTuple(b"ct-3", b"g1"), EncryptedTuple(b"ct-4", None)]
    )
    assert await client.collected_count("q-driver") == 4
    await client.close_collection("q-personal")
    try:
        await client.fetch_result("q-driver")
    except ResultNotReadyError:
        pass

    await client.post_query(
        envelope("q-fleet"), meta=QueryMeta("s_agg", {"alpha": 2.0})
    )
    await client.submit_tuples_batch(
        "q-fleet", [EncryptedTuple(b"f-%d" % i, None) for i in range(3)]
    )
    assert tuple(await client.await_work("tds-a", ["q-fleet"], 0.0)) == ([], None, [])
    await client.close_collection("q-fleet")
    while True:
        _, unit, done = await client.await_work("tds-a", ["q-fleet"], 0.0)
        if done:
            break
        assert unit is not None
        if unit.kind == frames.WORK_FINALIZE:
            await client.submit_partition_result(
                "q-fleet", unit.partition_id, "tds-a", rows=[b"final-row"]
            )
        else:
            await client.submit_partition_result(
                "q-fleet",
                unit.partition_id,
                "tds-a",
                partials=[EncryptedPartial(b"fold-%d" % unit.partition_id, None)],
            )
    assert (await client.fetch_result("q-fleet")).encrypted_rows == (b"final-row",)

    seen = await client.get_commitment()
    if seen is not None:
        await client.get_commitment(seen)
    await client.get_health()
    try:
        await client.fetch_result("q-missing")
    except UnknownQueryError:
        pass
    await client.get_stats()  # last: its response is live metrics text


async def interrupted(client: AsyncSSIClient) -> None:
    """A fleet-mode query abandoned mid-aggregation (one of its two
    partitions folded): restarting on its data dir journals the
    reset-aggregation record no wire operation writes."""
    await client.post_query(
        envelope("q-crashed"), meta=QueryMeta("s_agg", {"alpha": 2.0})
    )
    await client.submit_tuples_batch(
        "q-crashed", [EncryptedTuple(b"c-%d" % i, None) for i in range(4)]
    )
    await client.close_collection("q-crashed")
    _, unit, _ = await client.await_work("tds-a", ["q-crashed"], 0.0)
    assert unit is not None
    await client.submit_partition_result(
        "q-crashed",
        unit.partition_id,
        "tds-a",
        partials=[EncryptedPartial(b"half-done", None)],
    )


async def await_scenario(client: AsyncSSIClient) -> None:
    """The two long-poll rows in their own ``await`` section, captured
    when they were added and not since: a hold, the empty answer, an
    answer naming a new query, answers carrying a unit, finished ids,
    and ``await_result`` with and without a result.  Holds are zero
    where the answer would otherwise park."""
    assert tuple(await client.await_work("tds-a", [], 0.0)) == ([], None, [])
    await client.post_query(
        envelope("q-await"), meta=QueryMeta("s_agg", {"alpha": 2.0})
    )
    queries, unit, done = await client.await_work("tds-a", [], 0.0)
    assert [e.query_id for e, _ in queries] == ["q-await"] and unit is None
    await client.submit_tuples_batch(
        "q-await", [EncryptedTuple(b"a-%d" % i, None) for i in range(2)]
    )
    assert await client.await_result("q-await", 0.0) is None
    await client.close_collection("q-await")
    queries, unit, done = await client.await_work("tds-a", ["q-await"], 1.5)
    assert queries == [] and unit is not None and unit.kind == frames.WORK_FOLD
    await client.submit_partition_result(
        "q-await", unit.partition_id, "tds-a",
        partials=[EncryptedPartial(b"fold", None)],
    )
    _, unit, _ = await client.await_work("tds-a", ["q-await"], 0.25)
    assert unit is not None and unit.kind == frames.WORK_FINALIZE
    await client.submit_partition_result(
        "q-await", unit.partition_id, "tds-a", rows=[b"final-row"]
    )
    answer = await client.await_work("tds-a", ["q-await", "q-gone"], 0.0)
    assert tuple(answer) == ([], None, ["q-await", "q-gone"])
    result = await client.await_result("q-await", 2.0)
    assert result is not None and result.encrypted_rows == (b"final-row",)


class RecordingTransport(LoopbackTransport):
    def __init__(self, dispatch) -> None:  # type: ignore[no-untyped-def]
        super().__init__(dispatch)
        self.exchanges: list[tuple[bytes, bytes]] = []

    async def request(self, message: bytes) -> bytes:
        response = await super().request(message)
        self.exchanges.append((message, response))
        return response


async def record(
    dispatcher: SSIDispatcher, *, crash: bool = False
) -> list[tuple[bytes, bytes]]:
    transport = RecordingTransport(dispatcher.dispatch)
    client = AsyncSSIClient(transport, rng=random.Random(CLIENT_SEED))
    await scenario(client)
    if crash:
        await interrupted(client)
    return transport.exchanges


async def capture_await() -> None:
    """Write only the ``await`` section; every other entry of the file
    stays the parent's, byte for byte."""
    transport = RecordingTransport(SSIDispatcher(clock=lambda: 0.0).dispatch)
    await await_scenario(AsyncSSIClient(transport, rng=random.Random(CLIENT_SEED)))
    golden = json.loads(WIRE_FILE.read_text())
    golden["await"] = [[q.hex(), a.hex()] for q, a in transport.exchanges]
    WIRE_FILE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{len(transport.exchanges)} await exchanges")


async def main() -> None:
    in_memory = await record(SSIDispatcher(clock=lambda: 0.0))

    with tempfile.TemporaryDirectory() as scratch:
        data_dir = Path(scratch)
        # snapshot_every=8 leaves a snapshot mid-run and records past it; no
        # clean-shutdown snapshot, so reopening must replay the WAL tail.
        store = DurableStore.open(data_dir, fsync_policy="none", snapshot_every=8)
        durable = await record(
            SSIDispatcher.with_store(store, clock=lambda: 0.0), crash=True
        )
        store.close()
        # "Restart": recovery replays the tail and resets q-crashed.
        store = DurableStore.open(data_dir, fsync_policy="none", snapshot_every=8)
        SSIDispatcher.with_store(store, clock=lambda: 0.0)
        head = store.commitment()
        store.close()
        records = scan_segments(data_dir / "wal", mode="verify").records

    golden = json.loads(WIRE_FILE.read_text())
    golden.update(
        {
            # the last exchange is get_stats: keep its request only
            "in_memory": [[q.hex(), a.hex()] for q, a in in_memory[:-1]]
            + [[in_memory[-1][0].hex(), None]],
            "durable_requests": [q.hex() for q, _ in durable],
            "wal": [[seq, bytes(body).hex()] for seq, body in records],
            "commitment": [head.count, head.head.hex()],
        }
    )
    WIRE_FILE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{len(in_memory)} exchanges, {len(records)} WAL records, "
          f"chain at {head.count}")


if __name__ == "__main__":
    import sys

    asyncio.run(capture_await() if "--await-only" in sys.argv else main())
