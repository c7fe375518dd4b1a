"""Kill -9 / SIGTERM integration: a served SSI with ``--data-dir``
must lose no acknowledged contribution across a hard kill, and a
graceful SIGTERM must leave a clean snapshot that restarts without
replay (satellite requirements)."""

import asyncio
import os
import re
import signal
import sys
from pathlib import Path

from repro.core.messages import Credential, EncryptedTuple, QueryEnvelope
from repro.net.client import AsyncSSIClient
from repro.net.frames import QueryMeta
from repro.net.transport import TCPTransport
from repro.store import verify_data_dir

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
                await client.hello()
                await client.post_query(
                    make_envelope("q-crash"), meta=QueryMeta("basic")
                )
                for i in range(3):
                    await client.submit_tuples(
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
                await client2.hello()
                # Every acknowledged contribution survived ...
                assert await client2.collected_count("q-crash") == 3
                # ... and the regrown chain extends the pre-kill anchor
                # (an honest restart is not a rollback).
                current = await client2.get_commitment(anchor)
                assert current.count >= anchor.count
                # The query completes normally after the restart, on
                # the coordinator recovery rebuilt for it.
                await client2.submit_tuples(
                    "q-crash", [EncryptedTuple(b"ct-3", b"g")]
                )
                await client2.close_collection("q-crash")
                assert await client2.collected_count("q-crash") == 4
                _, unit, _ = await client2.await_work("tds-1", ["q-crash"], 0.0)
                assert len(unit.items) == 4
                await client2.submit_partition_result(
                    "q-crash", unit.partition_id, "tds-1", rows=[b"row-1"]
                )
                result = await client2.await_result("q-crash", 1.0)
                assert result.encrypted_rows == (b"row-1",)
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
                await client.hello()
                await client.post_query(make_envelope("q-term"))
                await client.submit_tuples(
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
            client2 = AsyncSSIClient(TCPTransport("127.0.0.1", port2))
            try:
                await client2.hello()
                assert await client2.collected_count("q-term") == 1
            finally:
                await client2.close()
            proc2.terminate()
            await drain_output(proc2)

        asyncio.run(run())
