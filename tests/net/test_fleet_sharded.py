"""A fleet shard is a fleet: ``repro fleet --shard I/N`` is one of N
ordinary fleet processes against one SSI.  The slice each serves, what
it derives from ``I/N``, the values it refuses before connecting, and
shard processes completing (or, without a SIZE clause, not closing) a
query together."""

import asyncio
import os
import re
import socket
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import _fleet_deployment, build_parser, main, parse_shard, shard_rng
from repro.exceptions import ProtocolError
from repro.net import fleet as net_fleet
from repro.net import transport as net_transport
from repro.net.client import QuerierClient
from repro.net.fleet import FleetStats
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import TCPTransport

from .conftest import GROUP_SQL, run_async, sorted_rows

SRC = str(Path(__file__).resolve().parents[2] / "src")
TDS, DISTRICTS, SEED = 4, 2, 11
DONE = re.compile(r"fleet done: (\d+) contributions")
REFUSED = ["2/2", "0/0", "-1/2", "x/2", "1", "1/", "/2", "1/2/3"]


def fleet_argv(port, shard, *extra, tds=TDS):
    return [
        "fleet", "--port", str(port), "--tds", str(tds),
        "--districts", str(DISTRICTS), "--seed", str(SEED),
        f"--shard={shard}", "--poll-interval", "0.01", *extra,
    ]


def deployment(tds=TDS):
    """The population every ``fleet_argv`` process rebuilds."""
    return _fleet_deployment(build_parser().parse_args(fleet_argv(0, "0/1", tds=tds)))


def closed_port():
    """A localhost port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def start_shard(port, shard, *extra):
    return await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro", *fleet_argv(port, shard, *extra),
        env=dict(os.environ, PYTHONPATH=SRC),
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT,
    )


async def stop(proc):
    if proc.returncode is None:
        proc.kill()
    await proc.wait()


class TestShardSpecs:
    """The ``--shard I/N`` value."""

    def test_shard_count_validation(self):
        assert parse_shard("0/1") == (0, 1)
        assert parse_shard("3/4") == (3, 4)
        for value in REFUSED:
            with pytest.raises(ProtocolError, match="--shard must be I/N"):
                parse_shard(value)

    def test_specs_are_deterministic_and_distinct(self):
        def draws(index, count):
            return shard_rng(7, index, count).getrandbits(64)

        assert draws(0, 2) == draws(0, 2)
        assert len({draws(index, 4) for index in range(4)}) == 4
        assert draws(1, 2) == draws(1, 3)  # shard I does not depend on N
        assert draws(0, 2) != shard_rng(8, 0, 2).getrandbits(64)


class TestWhatAShardProcessRuns:
    @pytest.fixture
    def runners(self, monkeypatch):
        """Every FleetRunner ``repro fleet`` builds, instead of running it."""
        built = []

        class Recorded:
            def __init__(self, tds_list, transport_factory, **kwargs):
                built.append((list(tds_list), kwargs))

            async def run(self, until_queries_done=None):
                return FleetStats()

        monkeypatch.setattr(net_fleet, "FleetRunner", Recorded)
        return built

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_slices_are_disjoint_and_cover_the_population(self, runners, count):
        port = closed_port()
        for index in range(count):
            assert main(fleet_argv(port, f"{index}/{count}", tds=7)) == 0
        slices = [[tds.tds_id for tds in devices] for devices, _ in runners]
        served = [tds_id for ids in slices for tds_id in ids]
        assert sorted(served) == sorted(t.tds_id for t in deployment(7).tds_list)
        assert len(served) == len(set(served)) == 7
        for index, (_, kwargs) in enumerate(runners):
            assert kwargs["close_no_size_queries"] is (count == 1)
            assert kwargs["shard_label"] == (
                "local" if count == 1 else f"shard{index}"
            )
            assert (
                kwargs["rng"].getrandbits(64)
                == shard_rng(SEED, index, count).getrandbits(64)
            )

    def test_a_shard_runs_the_health_probe(self, runners):
        argv = fleet_argv(closed_port(), "1/2", "--health-check-interval", "1")
        assert main(argv) == 0
        [(_, kwargs)] = runners
        assert kwargs["health_check_interval"] == 1.0

    @pytest.mark.parametrize(
        "shard,tds", [(value, TDS) for value in REFUSED] + [("3/4", 2)]
    )
    def test_refused_with_exit_2_and_one_line_before_connecting(
        self, runners, capsys, monkeypatch, shard, tds
    ):
        def connect(*args, **kwargs):
            raise AssertionError("a connection was opened")

        monkeypatch.setattr(net_transport, "TCPTransport", connect)
        assert main(fleet_argv(closed_port(), shard, tds=tds)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("fleet: --shard")
        assert runners == []

    @pytest.mark.parametrize("buckets", ["0", "-1"])
    def test_bad_bucket_count_refused_before_building_a_deployment(
        self, runners, capsys, monkeypatch, buckets
    ):
        def build(*args, **kwargs):
            raise AssertionError("a deployment was built")

        monkeypatch.setattr(cli, "_fleet_deployment", build)
        argv = fleet_argv(closed_port(), "0/1", "--buckets", buckets)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"fleet: --buckets must be >= 1, got {buckets}"
        ]
        assert runners == []


class TestShardedEndToEnd:
    def test_two_shard_processes_complete_a_sized_query(self):
        """Two ``repro fleet --shard I/2`` processes, each rebuilding the
        deployment from the shared seed and serving half the population,
        drive one SIZE-n query to completion against a single SSI."""
        dep = deployment()
        # each TDS holds one Consumer row, so SIZE == population closes
        # the collection exactly when every shard has contributed
        sql = GROUP_SQL + f" SIZE {TDS} TUPLES"

        async def run():
            server = SSIServer(SSIDispatcher(dep.ssi, partition_timeout=1.0))
            await server.start()
            shards = [
                await start_shard(
                    server.port, f"{index}/2",
                    "--queries", "1", "--batch", "16", "--window", "8",
                )
                for index in range(2)
            ]
            try:
                querier = dep.make_querier()
                envelope = querier.make_envelope(sql)
                qclient = QuerierClient(TCPTransport("127.0.0.1", server.port))
                try:
                    await qclient.post_query(
                        envelope,
                        meta=QueryMeta("s_agg", {"partition_timeout": 1.0}),
                    )
                    result = await qclient.wait_result(
                        envelope.query_id, poll_interval=0.05, timeout=90.0
                    )
                finally:
                    await qclient.close()
                outputs = [
                    (await asyncio.wait_for(proc.communicate(), 60.0))[0].decode()
                    for proc in shards
                ]
                assert [proc.returncode for proc in shards] == [0, 0], outputs
                return sorted_rows(querier.decrypt_result(result)), outputs
            finally:
                for proc in shards:
                    await stop(proc)
                await server.close()

        rows, outputs = run_async(run(), timeout=120.0)
        assert rows == sorted_rows(dep.reference_answer(GROUP_SQL))
        contributions = [int(DONE.search(out).group(1)) for out in outputs]
        assert contributions == [TDS // 2, TDS // 2]

    @pytest.mark.parametrize("shard,closes", [("0/2", False), ("0/1", True)])
    def test_only_a_whole_fleet_closes_a_no_size_collection(self, shard, closes):
        """Shard 0 of 2 holds tds-0 and tds-2: once both contributed it
        cannot know the other shard has not, so it leaves the collection
        to the SSI; a whole fleet closes it."""
        dep = deployment()
        index, count = parse_shard(shard)
        mine = len(dep.tds_list[index::count])

        async def run():
            server = SSIServer(SSIDispatcher(dep.ssi))
            await server.start()
            proc = await start_shard(server.port, shard)
            qclient = QuerierClient(TCPTransport("127.0.0.1", server.port))
            try:
                envelope = dep.make_querier().make_envelope(GROUP_SQL)
                query_id = envelope.query_id
                await qclient.post_query(envelope, meta=QueryMeta("s_agg"))
                while dep.ssi.collected_count(query_id) < mine:
                    await asyncio.sleep(0.02)
                # the device completing a whole fleet's set closes at once
                # after its ack; give a shard the same chance to (wrongly)
                await asyncio.sleep(0.5)
                assert dep.ssi.collected_count(query_id) == mine
                return dep.ssi.collection_closed(query_id)
            finally:
                await qclient.close()
                await stop(proc)
                await server.close()

        assert run_async(run(), timeout=60.0) is closes
