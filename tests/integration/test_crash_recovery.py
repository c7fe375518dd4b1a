"""Kill -9 / SIGTERM integration: a served SSI with ``--data-dir``
must lose no acknowledged contribution across a hard kill, and a
graceful SIGTERM must leave a clean snapshot that restarts without
replay (satellite requirements).  And no acknowledgement the store did
not wait for — a partial's — is one a crash can turn into a wrong
answer: a query finishes correctly from every prefix of its log."""

import asyncio
import os
import random
import re
import signal
import sys
from pathlib import Path

import pytest

from repro.core.messages import Credential, EncryptedTuple, QueryEnvelope
from repro.net import frames
from repro.net.client import AsyncSSIClient, QuerierClient, RetryPolicy
from repro.net.fleet import FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher
from repro.net.transport import LoopbackTransport, TCPTransport
from repro.store import DurableStore, verify_data_dir
from repro.store import wal as store_wal
from repro.store.commitment import CommitmentChain
from repro.store.records import decode_record
from repro.store.recovery import WAL_SUBDIR
from tests.net.conftest import (
    AVG_SQL,
    build_deployment,
    make_histogram,
    sorted_rows,
)
from tests.net.golden.capture import block, rows_of

SRC = str(Path(__file__).resolve().parents[2] / "src")
LISTENING = re.compile(r"SSI listening on 127\.0\.0\.1:(\d+)")


def make_envelope(query_id):
    return QueryEnvelope(
        query_id=query_id,
        encrypted_query=b"\x01\x02ciphertext",
        credential=Credential("alice", frozenset({"public"}), b"sig"),
        size_tuples=16,
    )


async def start_server(data_dir, *extra):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = await asyncio.create_subprocess_exec(
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--data-dir",
        str(data_dir),
        *extra,
        env=env,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT,
    )
    banner = []
    while True:
        line = await asyncio.wait_for(proc.stdout.readline(), timeout=30.0)
        if not line:
            raise AssertionError(
                "server exited before listening:\n" + b"".join(banner).decode()
            )
        banner.append(line)
        match = LISTENING.search(line.decode())
        if match:
            return proc, int(match.group(1)), b"".join(banner).decode()


async def drain_output(proc, timeout=15.0):
    out = await asyncio.wait_for(proc.stdout.read(), timeout=timeout)
    await asyncio.wait_for(proc.wait(), timeout=timeout)
    return out.decode()


class TestKillDashNine:
    def test_no_acknowledged_contribution_is_lost(self, tmp_path):
        async def run():
            data_dir = tmp_path / "state"
            proc, port, banner = await start_server(data_dir)
            assert "clean start" in banner
            client = AsyncSSIClient(TCPTransport("127.0.0.1", port))
            try:
                await client.ping()
                await client.post_query(
                    make_envelope("q-crash"), meta=QueryMeta("basic")
                )
                for i in range(3):
                    await client.submit_tuples_batch(
                        "q-crash", [EncryptedTuple(f"ct-{i}".encode(), b"g")]
                    )
                anchor = client.last_commitment
                assert anchor is not None and anchor.count == 4
            finally:
                await client.close()
            # Mid-collection hard kill: no drain, no snapshot, no fsync
            # beyond the per-ack group commits.
            proc.kill()
            await proc.wait()

            proc2, port2, banner2 = await start_server(data_dir)
            assert "recovered" in banner2
            assert "4 record(s) replayed" in banner2
            client2 = AsyncSSIClient(TCPTransport("127.0.0.1", port2))
            try:
                await client2.ping()
                # Every acknowledged contribution survived ...
                assert await client2.collected_count("q-crash") == 3
                # ... and the regrown chain extends the pre-kill anchor
                # (an honest restart is not a rollback).
                current = await client2.get_commitment(anchor)
                assert current.count >= anchor.count
                # The query completes normally after the restart, on
                # the coordinator recovery rebuilt for it.
                await client2.submit_tuples_batch(
                    "q-crash", [EncryptedTuple(b"ct-3", b"g")]
                )
                await client2.close_collection("q-crash")
                assert await client2.collected_count("q-crash") == 4
                _, unit, _ = await client2.await_work("tds-1", ["q-crash"], 0.0)
                assert len(unit.block) == 4
                await client2.submit_partition_result(
                    "q-crash", unit.partition_id, "tds-1",
                    (frames.RESULT_ROWS, block(b"row-1")),
                )
                result = await client2.await_result("q-crash", 1.0)
                assert rows_of(result) == [b"row-1"]
            finally:
                await client2.close()
            proc2.terminate()
            out = await drain_output(proc2)
            assert "SSI stopped" in out

            # Offline verification agrees the directory is consistent.
            report = verify_data_dir(data_dir)
            assert report["commitment_count"] >= 7
            assert report["clean"] is True  # proc2 exited gracefully

        asyncio.run(run())


class TestGracefulShutdown:
    def test_sigterm_drains_and_writes_a_clean_snapshot(self, tmp_path):
        async def run():
            data_dir = tmp_path / "state"
            proc, port, _banner = await start_server(data_dir)
            client = AsyncSSIClient(TCPTransport("127.0.0.1", port))
            try:
                await client.ping()
                await client.post_query(make_envelope("q-term"))
                await client.submit_tuples_batch(
                    "q-term", [EncryptedTuple(b"ct", b"g")]
                )
            finally:
                await client.close()
            proc.send_signal(signal.SIGTERM)
            out = await drain_output(proc)
            assert "drained" in out
            assert "durable state flushed" in out

            report = verify_data_dir(data_dir)
            assert report["clean"] is True
            assert report["commitment_count"] == 2

            # A restart from a clean snapshot replays nothing.
            proc2, port2, banner2 = await start_server(data_dir)
            assert "clean start" in banner2
            assert "0 record(s) replayed" in banner2
            assert "0 torn-tail byte(s) dropped" in banner2
            assert "0 corrupt snapshot(s) skipped" in banner2
            client2 = AsyncSSIClient(TCPTransport("127.0.0.1", port2))
            try:
                await client2.ping()
                assert await client2.collected_count("q-term") == 1
            finally:
                await client2.close()
            proc2.terminate()
            await drain_output(proc2)

        asyncio.run(run())


class TestEveryPrefixOfTheLogFinishesTheQuery:
    """Acks of partials do not wait for the disk, so a crash can leave
    any prefix of the log behind — cut between any two records, not only
    where an fsync returned.  Whatever the prefix, the restarted SSI and
    the same devices finish the query with the right answer: a submission
    the log kept is recognised by its key, one it lost is made again, and
    aggregation is recomputed from the covering result."""

    @staticmethod
    async def finish(data_dir, dep, querier, envelope, meta):
        """Serve *data_dir* to the fleet of *dep* over loopback until
        the query of *envelope* is published; its decrypted rows and the
        store, still open."""
        store = DurableStore.open(data_dir)
        dispatcher = SSIDispatcher.with_store(store, partition_timeout=0.3)

        def connect():
            return LoopbackTransport(dispatcher.dispatch)

        # the same seed every time: the same devices under the same
        # connection pseudonyms, so a kept submission is a replayed key
        fleet = FleetRunner(
            dep.tds_list,
            connect,
            histogram=make_histogram(dep),
            policy=RetryPolicy(backoff_base=0.01),
            poll_interval=0.01,
            rng=random.Random(5),
        )
        fleet_task = asyncio.create_task(fleet.run())
        client = QuerierClient(connect(), rng=random.Random(6))
        try:
            if envelope.query_id not in dispatcher.ssi.storage_map():
                await client.post_query(envelope, meta=meta)
            result = await client.wait_result(envelope.query_id, timeout=30.0)
        finally:
            fleet.stop()
            await fleet_task
        return sorted_rows(querier.decrypt_result(result)), store

    @pytest.mark.parametrize("protocol", ["s_agg", "ed_hist"])
    def test_the_answer_is_the_reference_from_every_cut(self, protocol, tmp_path):
        dep = build_deployment()
        querier = dep.make_querier()
        envelope = querier.make_envelope(AVG_SQL)
        meta = QueryMeta(protocol, {"partition_timeout": 0.3})
        expected = sorted_rows(dep.reference_answer(AVG_SQL))

        async def run():
            rows, store = await self.finish(
                tmp_path / "whole", dep, querier, envelope, meta
            )
            assert rows == expected
            store._wal.close()  # no snapshot: the log is all there is
            records = store_wal.scan_segments(
                tmp_path / "whole" / WAL_SUBDIR, mode="verify"
            ).records
            assert {decode_record(bytes(body)).op.name for _, body in records} == {
                "post_query", "submit_tuples_batch", "close_collection",
                "submit_partials", "take_partials", "store_result_rows",
                "publish_result",
            }
            chain = CommitmentChain()
            for cut, (seq, body) in enumerate(records, start=1):
                assert seq == cut
                head = chain.append(seq, body)
                data_dir = tmp_path / f"cut-{cut}"
                (data_dir / WAL_SUBDIR).mkdir(parents=True)
                (data_dir / WAL_SUBDIR / store_wal.segment_name(1)).write_bytes(
                    store_wal.encode_header(1) + b"".join(
                        store_wal.encode_record(seq, bytes(body))
                        for seq, body in records[:cut]
                    )
                )
                rows, store = await self.finish(
                    data_dir, dep, querier, envelope, meta
                )
                assert rows == expected, f"cut after record {cut}"
                assert store.recovered.replayed_records == cut
                assert store.head_at(cut) == head
                store.close()
                report = verify_data_dir(data_dir)
                assert report["commitment_count"] >= cut
            return len(records)

        assert asyncio.run(asyncio.wait_for(run(), timeout=120.0)) >= 16
