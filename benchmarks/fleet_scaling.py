"""How one S_Agg query's time grows with the fleet (EXPERIMENTS.md,
"Fleet size").

One process, real 127.0.0.1 TCP, in-memory SSI, the default crypto
engine (`cryptography` when installed); per fleet size the median of
``--repeat`` queries after one warm-up.  Uses only names every checkout
since PR 9 has, so the same file measures a parent commit::

    PYTHONPATH=<checkout>/src python benchmarks/fleet_scaling.py --sizes 64 256 512
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import statistics
import time

from repro.crypto.cache import selected_engine
from repro.net.client import QuerierClient
from repro.net.fleet import FleetRunner
from repro.net.frames import QueryMeta
from repro.net.server import SSIDispatcher, SSIServer
from repro.net.transport import TCPTransport
from repro.protocols import Deployment
from repro.workloads.smartmeter import smart_meter_factory

SQL = (
    "SELECT C.district, AVG(P.cons), COUNT(*) FROM Power P, Consumer C "
    "WHERE C.cid = P.cid GROUP BY C.district"
)


async def measure(num_tds: int, repeat: int, seed: int) -> float:
    deployment = Deployment.build(
        num_tds,
        smart_meter_factory(num_districts=8, readings_per_meter=1),
        tables=["Power", "Consumer"],
        seed=seed,
    )
    server = SSIServer(SSIDispatcher(deployment.ssi))
    await server.start()

    def connect() -> TCPTransport:
        return TCPTransport("127.0.0.1", server.port)

    fleet = FleetRunner(
        deployment.tds_list, connect, rng=random.Random(seed + 1),
        batch_size=64, batch_flush_interval=0.005, poll_interval=0.01,
    )
    fleet_task = asyncio.create_task(fleet.run())
    querier, client = deployment.make_querier(), QuerierClient(connect())
    groups = len(deployment.reference_answer(SQL))
    seconds = []
    try:
        for _ in range(repeat + 1):
            envelope = querier.make_envelope(SQL)
            started = time.perf_counter()
            await client.post_query(envelope, meta=QueryMeta("s_agg"))
            result = await client.wait_result(
                envelope.query_id, poll_interval=0.01, timeout=300.0
            )
            seconds.append(time.perf_counter() - started)
            assert len(querier.decrypt_result(result)) == groups
    finally:
        fleet.stop()
        await fleet_task
        await client.close()
        await server.close()
    return statistics.median(seconds[1:])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 256, 512])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for size in args.sizes:
        median = asyncio.run(measure(size, args.repeat, args.seed))
        print(
            json.dumps(
                {"tds": size, "query_s": round(median, 4), "engine": selected_engine()}
            ),
            flush=True,
        )


if __name__ == "__main__":
    main()
